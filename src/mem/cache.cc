#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "sim/logging.hh"

namespace odbsim::mem
{

namespace
{

constexpr std::uint64_t byteOnes = 0x0101010101010101ULL;
constexpr std::uint64_t byteHighs = 0x8080808080808080ULL;
/** The 8-way rank word with way w at rank w. */
constexpr std::uint64_t identityRanks8 = 0x0706050403020100ULL;

/**
 * Make @p way the most recently used way of an 8-way rank word. With
 * r = its rank, every byte b < r gains one and byte @p way becomes 0.
 * All ranks are below 8, so b + 0x80 - r stays within [0x79, 0x87]:
 * no byte carries into its neighbour, and its high bit is set exactly
 * when b >= r.
 */
inline std::uint64_t
touch8(std::uint64_t ranks, std::uint32_t way)
{
    const unsigned shift = 8 * way;
    const std::uint64_t r = (ranks >> shift) & 0xff;
    const std::uint64_t ge = (ranks + byteHighs - r * byteOnes) & byteHighs;
    ranks += (~ge & byteHighs) >> 7;
    return ranks & ~(std::uint64_t{0xff} << shift);
}

/**
 * The least recently used way of an 8-way rank word (the one ranked
 * 7): b + 1 sets bit 3 of a byte only for b == 7, without carries.
 */
inline std::uint32_t
oldest8(std::uint64_t ranks)
{
    return static_cast<std::uint32_t>(
               std::countr_zero((ranks + byteOnes) & (byteOnes << 3))) /
           8;
}

/** Make @p way the most recently used of one set's @p n rank bytes. */
template <unsigned Ways>
inline void
touchBytes(std::uint8_t *rank, std::uint32_t way, std::uint32_t n)
{
    if constexpr (Ways != 0)
        n = Ways;
    const std::uint8_t r = rank[way];
    for (std::uint32_t w = 0; w < n; ++w)
        rank[w] = static_cast<std::uint8_t>(rank[w] + (rank[w] < r));
    rank[way] = 0;
}

} // namespace

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
    if (assoc_ == 8) {
        rank_.assign(num_sets, identityRanks8);
    } else {
        rank_.assign((num_sets * assoc_ + 7) / 8, 0);
        auto *rank = reinterpret_cast<std::uint8_t *>(rank_.data());
        for (std::uint64_t set = 0; set < num_sets; ++set)
            std::iota(rank + set * assoc_, rank + (set + 1) * assoc_,
                      std::uint8_t{0});
    }
}

template <unsigned Ways>
std::uint32_t
SetAssocCache::findWay(const std::uint64_t *meta, std::uint64_t want,
                       std::uint32_t ways)
{
    // A tag is resident in at most one way, so a branch-free select
    // over the whole set finds it without an early exit.
    const std::uint32_t n = Ways ? Ways : ways;
    std::uint32_t way = n;
    for (std::uint32_t w = 0; w < n; ++w)
        way = (meta[w] & ~flagBits) == want ? w : way;
    return way;
}

template <unsigned Ways>
CacheAccessResult
SetAssocCache::accessWays(Addr addr, bool is_write)
{
    const std::uint32_t n = Ways ? Ways : assoc_;
    ++accesses_;

    const std::uint64_t set = setIndex(addr);
    std::uint64_t *meta = &meta_[set * n];
    std::uint8_t *rank = nullptr;
    if constexpr (Ways != 8)
        rank = reinterpret_cast<std::uint8_t *>(rank_.data()) + set * n;
    const auto touch = [&](std::uint32_t way) {
        if constexpr (Ways == 8)
            rank_[set] = touch8(rank_[set], way);
        else
            touchBytes<Ways>(rank, way, n);
    };
    const std::uint64_t want = (tagOf(addr) << tagShift) | validBit;
    const std::uint64_t flags = is_write ? flagBits : 0;

    const std::uint32_t hit = findWay<Ways>(meta, want, n);
    if (hit != n) {
        meta[hit] |= flags;
        touch(hit);
        return CacheAccessResult{true, false, false, 0};
    }

    // Victim: the last invalid way, else the oldest way. The oldest
    // way (rank n-1) is only used when every way is valid, and then it
    // is the least recently used valid line.
    std::uint32_t invalid = n;
    for (std::uint32_t w = 0; w < n; ++w)
        invalid = (meta[w] & validBit) ? invalid : w;

    ++misses_;
    CacheAccessResult res;
    res.hit = false;
    std::uint32_t victim;
    if (invalid != n) {
        victim = invalid;
        ++valid_;
    } else {
        if constexpr (Ways == 8) {
            victim = oldest8(rank_[set]);
        } else {
            victim = 0;
            for (std::uint32_t w = 0; w < n; ++w)
                victim = rank[w] == n - 1 ? w : victim;
        }
        res.evicted = true;
        res.evictedDirty = meta[victim] & dirtyBit;
        res.evictedLineAddr = lineAddr(meta[victim] >> tagShift, set);
        if (res.evictedDirty)
            ++writebacks_;
    }
    meta[victim] = want | flags;
    touch(victim);
    return res;
}

CacheAccessResult
SetAssocCache::access(Addr addr, bool is_write)
{
    switch (assoc_) {
      case 8:
        return accessWays<8>(addr, is_write);
      case 12:
        return accessWays<12>(addr, is_write);
      case 16:
        return accessWays<16>(addr, is_write);
      default:
        return accessWays<0>(addr, is_write);
    }
}

const std::uint64_t *
SetAssocCache::lookup(Addr addr) const
{
    const std::uint64_t *meta = &meta_[setIndex(addr) * assoc_];
    const std::uint64_t want = (tagOf(addr) << tagShift) | validBit;
    std::uint32_t way;
    switch (assoc_) {
      case 8:
        way = findWay<8>(meta, want, assoc_);
        break;
      case 12:
        way = findWay<12>(meta, want, assoc_);
        break;
      case 16:
        way = findWay<16>(meta, want, assoc_);
        break;
      default:
        way = findWay<0>(meta, want, assoc_);
        break;
    }
    return way == assoc_ ? nullptr : meta + way;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    std::uint64_t *m = lookup(addr);
    if (!m)
        return false;
    const bool was_dirty = *m & dirtyBit;
    *m = 0;
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
