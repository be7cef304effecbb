/**
 * @file
 * A directory that tracks, per cache line, which CPUs hold the line and
 * whether one of them holds it modified. It classifies L3 misses as
 * coherence misses (serviced by a remote dirty copy) versus ordinary
 * capacity/conflict misses, and drives invalidation of remote copies on
 * writes — the mechanism behind the paper's observation that coherence
 * traffic contributes little on the 4-way system (Section 5.2).
 *
 * The directory sits on the memory-system hot path (every write hit,
 * L3 fill, eviction and DMA snoop touches it), so its storage is a
 * sim::FlatMap — the flat open-addressing table that originated here
 * and was extracted to sim/flat_map.hh once the db layer needed the
 * same discipline: packed 16-byte slots, power-of-two capacity with
 * Fibonacci hashing and linear probing, backward-shift deletion (no
 * tombstones, so probe chains never rot), and an O(1) clear() via
 * generation stamping. After warm-up the table performs zero heap
 * allocations — growth only happens while the tracked-line population
 * reaches a new high-water mark (observable via tableAllocations()).
 *
 * A single-CPU machine makes its directory implicit in
 * the L3 tag store instead (bindL3): its table then only holds the few
 * lines written in L2 while absent from L3, and L3 hits and evictions
 * skip the directory entirely.
 */

#ifndef ODBSIM_MEM_COHERENCE_HH
#define ODBSIM_MEM_COHERENCE_HH

#include <cstddef>
#include <cstdint>
#include <limits>

#include "mem/cache.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace odbsim::mem
{

/** Maximum CPUs trackable by the sharer bitmask. */
constexpr unsigned maxCoherentCpus = 32;

/** What the directory decided about a miss. */
struct CoherenceOutcome
{
    /** The line was dirty in another CPU's cache (coherence miss). */
    bool remoteDirty = false;
    /** CPU that held the dirty copy (valid when remoteDirty). */
    unsigned remoteOwner = 0;
    /** Bitmask of CPUs whose copies must be invalidated (writes). */
    std::uint32_t invalidateMask = 0;
};

/** Current residency of a line, for snooping. */
struct SnoopState
{
    bool tracked = false;
    std::uint32_t sharers = 0;
    std::int16_t modifiedOwner = -1;
};

/**
 * Sharer/owner directory over cache-line addresses.
 */
class CoherenceDirectory
{
  public:
    /** @param num_cpus Width of the sharer masks (<= 32 CPUs). */
    explicit CoherenceDirectory(unsigned num_cpus);

    /**
     * Record an L3 miss (line fill) by @p cpu and classify it.
     * Ownership state is updated: writes make @p cpu exclusive owner.
     */
    CoherenceOutcome onFill(unsigned cpu, Addr line_addr, bool is_write);

    /**
     * Record a write hit by @p cpu: remote sharers get invalidated.
     * @return bitmask of CPUs whose copies must be invalidated.
     */
    std::uint32_t onWriteHit(unsigned cpu, Addr line_addr);

    /**
     * Make this single-CPU directory implicit in the L3 tag store
     * @p l3, whose lines are the CPU's sampled lines compressed as
     * (line >> @p compress_shift) << @p line_shift. From then on the
     * caller drives it only through ownOutsideL3(), takeOutsideL3(),
     * onDmaFill() and clear(); snoop() and trackedLines() answer from
     * the tag store plus a side table.
     *
     * On one CPU an explicit entry is always {sharers 1, owner -1 or
     * 0}, so it carries two facts: tracked, and owned (owner 0). The
     * implicit form keeps them as
     *
     *   tracked(x) <=> x in L3 || x in side,  (side and L3 disjoint)
     *   owned(x)   <=> x in side || (x in L3 && its owned bit is set)
     *
     * where side holds the lines written by an L2 hit while absent
     * from L3. Each event preserves both, by induction from the empty
     * state:
     *  - L2 write hit: the explicit directory tracks x and owns it.
     *    If x is in L3, markOwned() sets its bit; otherwise
     *    ownOutsideL3() adds x to side. L2 read hits touch neither.
     *  - L3 hit: x is in L3 (so not in side). The explicit fill keeps
     *    x tracked and owns it on a write; access() sets the owned bit
     *    with the dirty bit on writes and leaves it on reads.
     *  - L3 miss: the explicit fill tracks x, owned if it was owned
     *    before (then x was in side, as it was not in L3) or on a
     *    write. The caller moves x from side into L3:
     *    takeOutsideL3() erases it, and when it was there markOwned()
     *    carries the bit over; access() sets it on a write.
     *  - L3 eviction of v: the explicit directory drops v (its only
     *    sharer left, and the owner with it). v was in L3, so not in
     *    side: leaving L3 untracks it with no directory call. A
     *    shared L3's inclusive eviction is the same.
     *  - DMA of x: snoop() answers from L3 or side, the caller
     *    invalidates x in L2 and L3, and onDmaFill() erases it from
     *    side, so x is untracked as in the explicit directory.
     *  - flush: the caches flush and clear() empties side.
     * Nothing else may change the bound L3's lines; that is why
     * CpuCacheHierarchy::invalidateLine() and flush() are private to
     * MemorySystem.
     */
    void bindL3(const SetAssocCache &l3, unsigned compress_shift,
                unsigned line_shift);

    /** Whether bindL3() made this directory implicit. */
    bool implicit() const { return l3_ != nullptr; }

    /** Implicit mode: an L2 write hit on @p line, absent from L3. */
    void ownOutsideL3(Addr line_addr);

    /**
     * Implicit mode: @p line is being filled into L3; drop it from the
     * side table. @return whether it was there (then it is owned).
     */
    bool takeOutsideL3(Addr line_addr) { return table_.erase(line_addr); }

    /** Look up the residency of a line without changing state. */
    SnoopState snoop(Addr line_addr) const;

    /** Hint that @p line_addr is about to be looked up. */
    void prefetch(Addr line_addr) const { table_.prefetch(line_addr); }

    /** A line silently left @p cpu's L3 (eviction). */
    void onEviction(unsigned cpu, Addr line_addr);

    /** DMA overwrote the line: all cached copies are stale. */
    void onDmaFill(Addr line_addr);

    /** Drop all state (O(1): bumps the generation stamp). */
    void clear();

    /** Lines currently tracked. */
    std::size_t
    trackedLines() const
    {
        return table_.size() + (l3_ ? l3_->validLines() : 0);
    }

    /**
     * Pre-size the table for @p lines tracked lines so the warm-up
     * phase does not rehash. Never shrinks.
     */
    void reserve(std::size_t lines);

    /** @name Allocation observability (perf-test hook) @{ */
    /** Slots in the flat table (always a power of two). */
    std::size_t capacity() const { return table_.capacity(); }
    /**
     * Heap allocations the table has performed so far (construction,
     * reserve() and load-driven rehashes). Steady-state operation —
     * any churn whose tracked population stays at or below the
     * high-water mark — must not advance this.
     */
    std::uint64_t tableAllocations() const { return table_.allocations(); }
    /** @} */

    /** @name Raw statistics @{ */
    /** Fills classified as dirty-in-a-remote-cache (onFill). */
    std::uint64_t coherenceMisses() const { return coherenceMisses_; }
    /** Total sharer invalidations requested by write fills. */
    std::uint64_t invalidationsSent() const { return invalidations_; }
    /** Zero both counters (directory state is kept). */
    void
    resetStats()
    {
        coherenceMisses_ = 0;
        invalidations_ = 0;
    }
    /** @} */

  private:
    /** Sharer/owner state for one tracked line. */
    struct LineState
    {
        std::uint32_t sharers = 0;
        std::int16_t modifiedOwner = -1;
    };

    /**
     * Tracked lines. FlatMap keeps the generation stamps in a side
     * array, so a stored slot is exactly {Addr, LineState} — the same
     * 16 packed bytes the original in-class table used.
     */
    using Table = sim::FlatMap<Addr, LineState>;
    static_assert(sizeof(Table::Slot) == 16,
                  "directory slot must stay packed");
    static_assert(maxCoherentCpus <=
                      static_cast<unsigned>(
                          std::numeric_limits<std::int16_t>::max()),
                  "modifiedOwner must be able to hold any CPU id");
    static_assert(maxCoherentCpus <= 32,
                  "sharers bitmask is 32 bits wide");

    unsigned numCpus_;
    /** Explicit mode: every tracked line. Implicit mode: the side
     *  table, each entry {sharers 1, owner 0}. */
    Table table_;
    /** @name Implicit mode (bindL3) @{ */
    const SetAssocCache *l3_ = nullptr;
    unsigned compressShift_ = 0;
    unsigned lineShift_ = 0;
    /** @} */
    std::uint64_t coherenceMisses_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace odbsim::mem

#endif // ODBSIM_MEM_COHERENCE_HH
