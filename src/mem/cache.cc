#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "sim/logging.hh"

namespace odbsim::mem
{

SetAssocCache::SetAssocCache(std::string name, const CacheGeometry &geom)
    : name_(std::move(name)), geom_(geom), assoc_(geom.assoc)
{
    odbsim_assert(geom.sizeBytes > 0 && geom.assoc > 0 &&
                      geom.lineBytes > 0,
                  "bad cache geometry for ", name_);
    odbsim_assert(geom.assoc <= 255,
                  "associativity above 255 overflows the 8-bit LRU rank "
                  "for ", name_);
    odbsim_assert(std::has_single_bit(geom.lineBytes),
                  "line size must be a power of two for ", name_);
    odbsim_assert(geom.sizeBytes % (geom.assoc * geom.lineBytes) == 0,
                  "cache size must be a multiple of assoc * line for ",
                  name_);
    const std::uint64_t num_sets = geom.numSets();
    odbsim_assert(std::has_single_bit(num_sets),
                  "number of sets must be a power of two for ", name_);
    lineShift_ = static_cast<unsigned>(std::countr_zero(geom.lineBytes));
    setShift_ = static_cast<unsigned>(std::countr_zero(num_sets));
    tagAddrShift_ = lineShift_ + setShift_;
    setMask_ = num_sets - 1;

    meta_.assign(num_sets * assoc_, 0);
    rank_.resize(num_sets * assoc_);
    for (auto set = rank_.begin(); set != rank_.end(); set += assoc_)
        std::iota(set, set + assoc_, std::uint8_t{0});
}

std::uint32_t
SetAssocCache::findWay(const std::uint64_t *meta, std::uint64_t want) const
{
    // A tag is resident in at most one way, so a branch-free select
    // over the whole set finds it without an early exit.
    std::uint32_t way = assoc_;
    for (std::uint32_t w = 0; w < assoc_; ++w)
        way = (meta[w] & ~dirtyBit) == want ? w : way;
    return way;
}

void
SetAssocCache::touch(std::uint8_t *rank, std::uint32_t way)
{
    // Byte stores may alias *this, so keep the bound in a local: the
    // loop then compiles to a few SIMD byte compares per set.
    const std::uint32_t n = assoc_;
    const std::uint8_t r = rank[way];
    for (std::uint32_t w = 0; w < n; ++w)
        rank[w] = static_cast<std::uint8_t>(rank[w] + (rank[w] < r));
    rank[way] = 0;
}

CacheAccessResult
SetAssocCache::access(Addr addr, bool is_write)
{
    ++accesses_;

    const std::uint64_t set = setIndex(addr);
    std::uint64_t *meta = &meta_[set * assoc_];
    std::uint8_t *rank = &rank_[set * assoc_];
    const std::uint64_t want = (tagOf(addr) << tagShift) | validBit;
    const std::uint64_t dirty = is_write ? dirtyBit : 0;

    const std::uint32_t hit = findWay(meta, want);
    if (hit != assoc_) {
        meta[hit] |= dirty;
        touch(rank, hit);
        return CacheAccessResult{true, false, false, 0};
    }

    // Victim: the last invalid way, else the oldest way. The oldest
    // way (rank assoc-1) is only used when every way is valid, and
    // then it is the least recently used valid line.
    std::uint32_t invalid = assoc_;
    std::uint32_t oldest = 0;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        invalid = (meta[w] & validBit) ? invalid : w;
        oldest = rank[w] == assoc_ - 1 ? w : oldest;
    }

    ++misses_;
    CacheAccessResult res;
    res.hit = false;
    std::uint32_t victim;
    if (invalid != assoc_) {
        victim = invalid;
        ++valid_;
    } else {
        victim = oldest;
        res.evicted = true;
        res.evictedDirty = meta[victim] & dirtyBit;
        res.evictedLineAddr = lineAddr(meta[victim] >> tagShift, set);
        if (res.evictedDirty)
            ++writebacks_;
    }
    meta[victim] = want | dirty;
    touch(rank, victim);
    return res;
}

bool
SetAssocCache::probe(Addr addr) const
{
    const std::uint64_t *meta = &meta_[setIndex(addr) * assoc_];
    return findWay(meta, (tagOf(addr) << tagShift) | validBit) != assoc_;
}

bool
SetAssocCache::probeDirty(Addr addr) const
{
    const std::uint64_t *meta = &meta_[setIndex(addr) * assoc_];
    const std::uint32_t way =
        findWay(meta, (tagOf(addr) << tagShift) | validBit);
    return way != assoc_ && (meta[way] & dirtyBit);
}

bool
SetAssocCache::invalidate(Addr addr)
{
    std::uint64_t *meta = &meta_[setIndex(addr) * assoc_];
    const std::uint32_t way =
        findWay(meta, (tagOf(addr) << tagShift) | validBit);
    if (way == assoc_)
        return false;
    const bool was_dirty = meta[way] & dirtyBit;
    meta[way] = 0;
    --valid_;
    return was_dirty;
}

void
SetAssocCache::flush()
{
    // Ranks stay a permutation; they only order valid ways.
    std::fill(meta_.begin(), meta_.end(), 0);
    valid_ = 0;
}

void
SetAssocCache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
    writebacks_ = 0;
}

} // namespace odbsim::mem
