/**
 * @file
 * The database buffer cache — the dominant component of the SGA.
 *
 * Frames hold 8 KB database blocks; a hash map finds resident blocks
 * and an intrusive LRU list orders victims. Replacement hands dirty
 * victims to the caller (who forwards them to DBWR); frames being
 * filled by an in-flight DMA are exempt from eviction.
 *
 * The studied configuration dedicated 2.8 GB to this cache — 358,400
 * frames — which sets the cached/scaled crossover near 33 warehouses
 * of ~10.7 K blocks each.
 *
 * Every replayed Touch action probes the resident-block index, so it
 * is a sim::FlatMap reserved to the frame count at construction: the
 * resident population can never exceed the frame count, so steady
 * state never rehashes and lookups are one Fibonacci-hashed probe
 * into a contiguous slot array (mapAllocations() observes this).
 * Frames and index store block ids in 32 bits — a 16-byte frame and
 * an 8-byte index slot, both static_asserted — while the API keeps
 * BlockId; Database construction checks once that the schema's
 * blocks fit (about 397,000 warehouses of the paper geometry), so
 * lookups narrow without a check.
 * metaAddr()'s bucket fold over the non-power-of-two frame count is a
 * precomputed exact fastmod rather than a 64-bit hardware divide.
 */

#ifndef ODBSIM_DB_BUFFER_CACHE_HH
#define ODBSIM_DB_BUFFER_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "db/types.hh"
#include "mem/addr_space.hh"
#include "sim/fastmod.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace odbsim::db
{

/** Result of a block lookup. */
struct BufferLookup
{
    bool hit = false;
    std::uint64_t frame = 0;
};

/** Result of allocating a frame for a missing block. */
struct BufferVictim
{
    std::uint64_t frame = 0;
    /** The frame previously held a block. */
    bool hadBlock = false;
    BlockId evictedBlock = invalidBlock;
    /** The evicted block was dirty and must reach DBWR. */
    bool wasDirty = false;
};

/**
 * LRU block cache over a fixed pool of frames.
 */
class BufferCache
{
  public:
    /** @param frames Frame count; at least 8. */
    explicit BufferCache(std::uint64_t frames);

    std::uint64_t numFrames() const { return totalFrames_; }
    std::uint64_t residentBlocks() const { return map_.size(); }

    /** Probe for @p b; hits are promoted to MRU. */
    BufferLookup lookup(BlockId b);

    /** Probe without LRU promotion or statistics. */
    BufferLookup
    peek(BlockId b) const
    {
        const std::uint32_t *f = map_.find(narrow(b));
        if (!f)
            return BufferLookup{false, 0};
        return BufferLookup{true, *f};
    }

    /**
     * Claim a frame for @p b (which must not be resident) and mark it
     * I/O-pending; the caller writes back the dirty victim if any and
     * calls fillComplete() when the DMA lands.
     */
    BufferVictim allocate(BlockId b);

    /** The DMA for @p frame finished; the frame becomes evictable. */
    void fillComplete(std::uint64_t frame);

    /** Mark the block in @p frame modified. */
    void markDirty(std::uint64_t frame);

    /** Whether the block in @p frame is dirty. */
    bool isDirty(std::uint64_t frame) const
    {
        return frames_[frame].dirty;
    }

    /** Block currently held by @p frame; invalidBlock when empty. */
    BlockId blockAt(std::uint64_t frame) const
    {
        return widen(frames_[frame].block);
    }

    /**
     * Warm-up helper: make @p b resident at MRU with no I/O and no
     * statistics; @p dirty marks it modified (steady-state dirty
     * population). No-op if already resident or no free frame exists.
     */
    void prefill(BlockId b, bool dirty = false);

    /**
     * Warm-up helper: prefill() every block of @p hottest_first,
     * coldest first, so the hottest block ends up at MRU; @p dirty(b)
     * gives each block's dirty bit. The list (a vector or span) holds
     * BlockIds or their 32-bit narrowing. The index slot and
     * generation stamp of the block 16 positions on are prefetched,
     * so the random index inserts overlap instead of stalling one
     * cache miss at a time.
     */
    template <typename Ids, typename DirtyFn>
    void
    prefillColdestFirst(const Ids &hottest_first, DirtyFn &&dirty)
    {
        using Id = typename Ids::value_type;
        static_assert(std::is_same_v<Id, BlockId> ||
                          std::is_same_v<Id, std::uint32_t>,
                      "warm lists hold 64- or 32-bit block ids");
        constexpr std::size_t ahead = 16;
        for (std::size_t i = hottest_first.size(); i-- > 0;) {
            if (i >= ahead)
                map_.prefetch(narrow(hottest_first[i - ahead]));
            const BlockId b = hottest_first[i];
            prefill(b, dirty(b));
        }
    }

    /** Clean a resident block (DBWR finished writing it back). */
    void markClean(BlockId b);

    /** Virtual address of frame @p f (for the cache models). */
    Addr
    frameAddr(std::uint64_t f) const
    {
        return mem::addrmap::frameAddr(f, blockBytes);
    }

    /**
     * Virtual address of the hash-bucket/descriptor for @p b. The
     * fold onto the frame count is an exact fastmod (bit-identical to
     * `%`, asserted by test), so the per-Touch hot path never pays a
     * 64-bit hardware divide.
     */
    Addr
    metaAddr(BlockId b) const
    {
        const std::uint64_t bucket =
            frameMod_.mod(b * 0x9e3779b97f4a7c15ULL);
        return mem::addrmap::frameMetaAddr(bucket);
    }

    /** @name Statistics @{ */
    std::uint64_t gets() const { return gets_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t dirtyEvictions() const { return dirtyEvictions_; }
    double
    hitRatio() const
    {
        return gets_ ? 1.0 - static_cast<double>(misses_) /
                                 static_cast<double>(gets_)
                     : 0.0;
    }
    void resetStats();
    /** @} */

    /**
     * Growth events of the resident-block index (perf-test hook). The
     * index is reserved to the frame count at construction, so this
     * must never advance after the constructor returns.
     */
    std::uint64_t mapAllocations() const { return map_.allocations(); }

    /**
     * Largest block id a frame can hold: frames and the index store
     * ids in 32 bits, with all-ones reserved as the empty marker.
     * Database construction rejects a schema whose blocks do not fit.
     */
    static constexpr BlockId maxBlock =
        std::numeric_limits<std::uint32_t>::max() - 1;

  private:
    /** A frame's 32-bit block id when it holds none. */
    static constexpr std::uint32_t emptyBlock32 = maxBlock + 1;

    static std::uint32_t
    narrow(BlockId b)
    {
        return static_cast<std::uint32_t>(b);
    }
    static BlockId
    widen(std::uint32_t b)
    {
        return b == emptyBlock32 ? invalidBlock : b;
    }

    struct Frame
    {
        std::uint32_t block = emptyBlock32;
        bool dirty = false;
        bool ioPending = false;
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
    };
    using Index = sim::FlatMap<std::uint32_t, std::uint32_t>;
    static_assert(sizeof(Frame) == 16,
                  "buffer-cache frame must stay packed");
    static_assert(sizeof(Index::Slot) == 8,
                  "buffer-cache index slot must stay packed");

    void unlink(std::uint32_t f);
    void pushFront(std::uint32_t f);

    /** Frames, plus the LRU list's head/tail anchor at index
     *  totalFrames_. */
    std::vector<Frame> frames_;
    Index map_;
    sim::FastMod64 frameMod_;
    std::uint64_t totalFrames_ = 0;
    std::uint32_t sentinel_ = 0;
    std::uint64_t nextFree_ = 0; ///< Next never-used frame index.
    std::uint64_t gets_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dirtyEvictions_ = 0;
};

} // namespace odbsim::db

#endif // ODBSIM_DB_BUFFER_CACHE_HH
