/**
 * @file
 * A set-associative cache model with true-LRU replacement and dirty-line
 * tracking, used for every level of the simulated hierarchy (trace
 * cache, L1D, L2, L3).
 *
 * The model is a tag store only — no data is held — because odbsim
 * needs hit/miss/writeback behaviour, not values.
 */

#ifndef ODBSIM_MEM_CACHE_HH
#define ODBSIM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace odbsim::mem
{

/** Static shape of a cache. */
struct CacheGeometry
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 0;
    /** Ways per set. */
    std::uint32_t assoc = 0;
    /** Line size in bytes. */
    std::uint32_t lineBytes = 64;

    /** Total line count (capacity / line size). */
    std::uint64_t numLines() const { return sizeBytes / lineBytes; }
    /** Set count (lines / associativity). */
    std::uint64_t numSets() const { return numLines() / assoc; }
};

/** Result of a cache access. */
struct CacheAccessResult
{
    /** The line was resident (no fill needed). */
    bool hit = false;
    /** A valid line was evicted to make room. */
    bool evicted = false;
    /** The evicted line was dirty (writeback needed). */
    bool evictedDirty = false;
    /** Line address (not tag) of the evicted victim, if any. */
    Addr evictedLineAddr = 0;
};

/** What SetAssocCache::probeLine() saw of one line. */
struct LineProbe
{
    /** The line is resident. */
    bool present = false;
    /** It is resident with its owned bit set. */
    bool owned = false;
};

/**
 * Tag-store set-associative cache with true LRU.
 *
 * Victim choice on a miss: the highest-numbered invalid way if the set
 * has one, else the least recently used way.
 *
 * Each resident line also carries an *owned* bit for the single-CPU
 * coherence directory (see CoherenceDirectory::bindL3): writes set it
 * together with the dirty bit, markOwned() sets it alone, and it
 * leaves with the line. It changes no hit, victim or counter.
 */
class SetAssocCache
{
  public:
    /**
     * @param name Label used in statistics reporting.
     * @param geom Capacity/associativity/line-size shape; sizeBytes
     *        and assoc must be non-zero and consistent, assoc at most
     *        255, and the line size and set count powers of two.
     */
    SetAssocCache(std::string name, const CacheGeometry &geom);

    /** Label given at construction. */
    const std::string &name() const { return name_; }
    /** Shape given at construction. */
    const CacheGeometry &geometry() const { return geom_; }

    /**
     * Access the cache, allocating on miss.
     *
     * @param addr Byte address of the reference.
     * @param is_write Marks the line dirty and owned on hit or fill.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Check for presence without updating LRU or allocating. */
    bool probe(Addr addr) const { return probeLine(addr).present; }

    /** Probe and report whether the resident line is dirty. */
    bool
    probeDirty(Addr addr) const
    {
        const std::uint64_t *m = lookup(addr);
        return m && (*m & dirtyBit);
    }

    /** Probe presence and the owned bit at once (no LRU update). */
    LineProbe
    probeLine(Addr addr) const
    {
        const std::uint64_t *m = lookup(addr);
        return LineProbe{m != nullptr, m && (*m & ownedBit)};
    }

    /**
     * Set the owned bit of a resident line, leaving its dirty bit, LRU
     * rank and the counters alone.
     * @return whether the line was resident.
     */
    bool
    markOwned(Addr addr)
    {
        std::uint64_t *m = lookup(addr);
        if (m)
            *m |= ownedBit;
        return m != nullptr;
    }

    /**
     * Invalidate a line if present.
     * @return true if the line was present and dirty.
     */
    bool invalidate(Addr addr);

    /** Drop every line (e.g. between measurement runs). */
    void flush();

    /** Number of currently valid lines. */
    std::uint64_t validLines() const { return valid_; }

    /** @name Raw statistics @{ */
    /** Total access() calls since the last resetStats(). */
    std::uint64_t accesses() const { return accesses_; }
    /** Accesses that missed and allocated. */
    std::uint64_t misses() const { return misses_; }
    /** Dirty evictions (writebacks to the next level). */
    std::uint64_t writebacks() const { return writebacks_; }
    /** misses / accesses, 0 when idle. */
    double
    missRatio() const
    {
        return accesses_ ? static_cast<double>(misses_) /
                               static_cast<double>(accesses_)
                         : 0.0;
    }
    /** Zero every counter above (cache state is kept). */
    void resetStats();
    /** @} */

  private:
    /**
     * The tag store is a structure of arrays, each laid out set by set
     * (set s owns entries [s * assoc, (s + 1) * assoc)):
     *
     *  - meta_: one word per way, tag << tagShift | ownedBit? |
     *    dirtyBit? | validBit?. The tag is addr >> (line shift + set
     *    shift), so its top three bits are free for realistic address
     *    spaces, and one compare against tag << tagShift | validBit
     *    (flags masked out) tests valid and tag together.
     *  - ranks: one 8-bit recency rank per way, 0 = most recently
     *    used. A set's ranks are always a permutation of 0..assoc-1;
     *    touching way w moves every way ranked above it (a smaller
     *    rank) down one place and puts w at rank 0. Ranks therefore
     *    order the valid ways exactly as per-way last-touch
     *    timestamps would: every valid way was touched at its fill,
     *    and a touch preserves the relative order of all other ways.
     *    An 8-way set's ranks are one word (bits [8w, 8w + 8) hold
     *    way w's rank), updated with SWAR arithmetic in one load and
     *    one store; other associativities use byte loops.
     *
     * access() and lookup() dispatch once on the associativity to
     * bodies specialized for the paper machines' 8 (Xeon L2/L3,
     * Itanium2 L2), 12 (Itanium2 L3) and 16 (CMP L3) ways, whose
     * per-way loops unroll; any other associativity runs the same
     * bodies with a runtime bound.
     */
    static constexpr std::uint64_t validBit = 1;
    static constexpr std::uint64_t dirtyBit = 2;
    static constexpr std::uint64_t ownedBit = 4;
    static constexpr std::uint64_t flagBits = dirtyBit | ownedBit;
    static constexpr unsigned tagShift = 3;

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & setMask_;
    }
    Addr tagOf(Addr addr) const { return addr >> tagAddrShift_; }
    Addr
    lineAddr(Addr tag, std::uint64_t set) const
    {
        return ((tag << setShift_) | set) << lineShift_;
    }
    /** The meta word holding @p addr's line, or nullptr. */
    const std::uint64_t *lookup(Addr addr) const;
    std::uint64_t *
    lookup(Addr addr)
    {
        return const_cast<std::uint64_t *>(
            static_cast<const SetAssocCache *>(this)->lookup(addr));
    }

    /**
     * The way of @p meta (one set of @p Ways ways, or of @p ways when
     * Ways == 0) holding @p want, or the way count if none.
     */
    template <unsigned Ways>
    static std::uint32_t findWay(const std::uint64_t *meta,
                                 std::uint64_t want, std::uint32_t ways);

    /** access() for @p Ways ways; Ways == 0 reads assoc_ at run time. */
    template <unsigned Ways>
    CacheAccessResult accessWays(Addr addr, bool is_write);

    std::string name_;
    CacheGeometry geom_;
    std::uint32_t assoc_;
    unsigned lineShift_;
    unsigned setShift_;
    unsigned tagAddrShift_;
    std::uint64_t setMask_;
    std::vector<std::uint64_t> meta_;
    /** LRU ranks: one word per 8-way set, else assoc bytes per set
     *  viewed through an std::uint8_t pointer. */
    std::vector<std::uint64_t> rank_;
    std::uint64_t valid_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace odbsim::mem

#endif // ODBSIM_MEM_CACHE_HH
