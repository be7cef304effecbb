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

/**
 * Tag-store set-associative cache with true LRU.
 *
 * Victim choice on a miss: the highest-numbered invalid way if the set
 * has one, else the least recently used way.
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
     * @param is_write Marks the line dirty on hit or fill.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /** Check for presence without updating LRU or allocating. */
    bool probe(Addr addr) const;

    /** Probe and report whether the resident line is dirty. */
    bool probeDirty(Addr addr) const;

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
     *  - meta_: one word per way, tag << tagShift | dirtyBit? |
     *    validBit?. The tag is addr >> (line shift + set shift), so
     *    its top two bits are free for realistic address spaces, and
     *    one compare against tag << tagShift | validBit (dirty masked
     *    out) tests valid and tag together.
     *  - rank_: one 8-bit recency rank per way, 0 = most recently
     *    used. A set's ranks are always a permutation of 0..assoc-1;
     *    touching way w moves every way ranked above it (a smaller
     *    rank) down one place and puts w at rank 0. Ranks therefore
     *    order the valid ways exactly as per-way last-touch
     *    timestamps would: every valid way was touched at its fill,
     *    and a touch preserves the relative order of all other ways.
     */
    static constexpr std::uint64_t validBit = 1;
    static constexpr std::uint64_t dirtyBit = 2;
    static constexpr unsigned tagShift = 2;

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
    /** The way of @p meta (one set) holding @p want, or assoc if none. */
    std::uint32_t findWay(const std::uint64_t *meta,
                          std::uint64_t want) const;
    /** Make @p way the most recently used of its set's @p rank. */
    void touch(std::uint8_t *rank, std::uint32_t way);

    std::string name_;
    CacheGeometry geom_;
    std::uint32_t assoc_;
    unsigned lineShift_;
    unsigned setShift_;
    unsigned tagAddrShift_;
    std::uint64_t setMask_;
    std::vector<std::uint64_t> meta_;
    std::vector<std::uint8_t> rank_;
    std::uint64_t valid_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace odbsim::mem

#endif // ODBSIM_MEM_CACHE_HH
