/**
 * @file
 * Unit and property tests for the set-associative tag store: hits,
 * LRU eviction, dirty writebacks, invalidation, and a differential
 * test against a timestamp-LRU reference implementation.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/cache.hh"
#include "sim/rng.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::mem;

CacheGeometry
tinyGeom()
{
    // 2 sets x 2 ways x 64 B lines.
    return CacheGeometry{256, 2, 64};
}

/** Line address in set @p set with tag index @p t (for a 2-set cache). */
Addr
addrFor(std::uint64_t set, std::uint64_t t, std::uint64_t sets = 2)
{
    return (t * sets + set) * 64;
}

TEST(CacheGeometry, DerivedQuantities)
{
    CacheGeometry g{1 * MiB, 8, 64};
    EXPECT_EQ(g.numLines(), 16384u);
    EXPECT_EQ(g.numSets(), 2048u);
}

TEST(SetAssocCache, ColdMissThenHit)
{
    SetAssocCache c("t", tinyGeom());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1020, false).hit); // Same line.
    EXPECT_EQ(c.accesses(), 3u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, LruEvictsLeastRecent)
{
    SetAssocCache c("t", tinyGeom());
    const Addr a = addrFor(0, 1), b = addrFor(0, 2), d = addrFor(0, 3);
    c.access(a, false);
    c.access(b, false);
    c.access(a, false); // a most recent; b is LRU.
    const auto res = c.access(d, false);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedLineAddr, b);
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
}

TEST(SetAssocCache, DirtyVictimReportsWriteback)
{
    SetAssocCache c("t", tinyGeom());
    c.access(addrFor(0, 1), true);
    c.access(addrFor(0, 2), false);
    const auto res = c.access(addrFor(0, 3), false); // Evicts dirty #1.
    EXPECT_TRUE(res.evictedDirty);
    EXPECT_EQ(res.evictedLineAddr, addrFor(0, 1));
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(SetAssocCache, WriteHitMarksDirty)
{
    SetAssocCache c("t", tinyGeom());
    c.access(0x40, false);
    EXPECT_FALSE(c.probeDirty(0x40));
    c.access(0x40, true);
    EXPECT_TRUE(c.probeDirty(0x40));
}

TEST(SetAssocCache, SetsAreIndependent)
{
    SetAssocCache c("t", tinyGeom());
    // Fill set 0 beyond capacity; set 1 lines must survive.
    c.access(addrFor(1, 1), false);
    for (std::uint64_t t = 1; t <= 3; ++t)
        c.access(addrFor(0, t), false);
    EXPECT_TRUE(c.probe(addrFor(1, 1)));
}

TEST(SetAssocCache, InvalidateRemovesLine)
{
    SetAssocCache c("t", tinyGeom());
    c.access(0x80, true);
    EXPECT_TRUE(c.invalidate(0x80)); // Returns dirty flag.
    EXPECT_FALSE(c.probe(0x80));
    EXPECT_FALSE(c.invalidate(0x80)); // Second invalidate: not present.
    EXPECT_FALSE(c.access(0x80, false).hit);
}

TEST(SetAssocCache, FlushDropsEverything)
{
    SetAssocCache c("t", tinyGeom());
    for (std::uint64_t t = 0; t < 4; ++t)
        c.access(addrFor(t % 2, t), false);
    EXPECT_GT(c.validLines(), 0u);
    c.flush();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_FALSE(c.probe(addrFor(0, 0)));
}

TEST(SetAssocCache, ResetStatsKeepsContents)
{
    SetAssocCache c("t", tinyGeom());
    c.access(0x100, false);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.access(0x100, false).hit);
}

TEST(SetAssocCache, MissRatio)
{
    SetAssocCache c("t", tinyGeom());
    c.access(0x0, false);  // miss
    c.access(0x0, false);  // hit
    c.access(0x0, false);  // hit
    c.access(0x40, false); // miss
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.5);
}

/**
 * Property tests across geometries: working sets within capacity never
 * miss after the first pass; streaming working sets twice the capacity
 * through an LRU cache always misses.
 */
class CacheGeometryProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint32_t>>
{
  protected:
    CacheGeometry
    geom() const
    {
        const auto [size, assoc] = GetParam();
        return CacheGeometry{size, assoc, 64};
    }
};

TEST_P(CacheGeometryProperty, FittingWorkingSetHasNoCapacityMisses)
{
    SetAssocCache c("t", geom());
    const std::uint64_t lines = geom().numLines();
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < lines; ++i)
            c.access(i * 64, false);
    }
    // Sequential fill maps exactly one line per way slot: only the
    // first pass misses.
    EXPECT_EQ(c.misses(), lines);
    EXPECT_EQ(c.accesses(), 3 * lines);
}

TEST_P(CacheGeometryProperty, ThrashingWorkingSetAlwaysMisses)
{
    SetAssocCache c("t", geom());
    const std::uint64_t lines = geom().numLines() * 2;
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < lines; ++i)
            c.access(i * 64, false);
    }
    // Cyclic sequential access over 2x capacity defeats LRU entirely.
    EXPECT_EQ(c.misses(), c.accesses());
}

TEST_P(CacheGeometryProperty, ValidLinesNeverExceedCapacity)
{
    SetAssocCache c("t", geom());
    for (std::uint64_t i = 0; i < geom().numLines() * 4; ++i)
        c.access(i * 64 * 3, i % 2 == 0);
    EXPECT_LE(c.validLines(), geom().numLines());
}

TEST(SetAssocCache, RejectsAssociativityAboveRankRange)
{
    EXPECT_DEATH(SetAssocCache("t", CacheGeometry{256 * 64, 256, 64}),
                 "associativity");
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryProperty,
    ::testing::Values(std::make_tuple(4096u, 1u),
                      std::make_tuple(4096u, 4u),
                      std::make_tuple(65536u, 8u),
                      std::make_tuple(262144u, 8u),
                      std::make_tuple(1048576u, 16u)));

/**
 * Reference tag store: the 16-byte {meta, lastUse} line layout with a
 * 64-bit use clock that SetAssocCache's rank-based LRU replaced. Same
 * public contract, owned bit included; kept here only as the
 * differential oracle.
 */
class TimestampLruCache
{
  public:
    explicit TimestampLruCache(const CacheGeometry &geom)
        : geom_(geom), numSets_(geom.numSets()),
          lines_(numSets_ * geom.assoc)
    {}

    CacheAccessResult
    access(Addr addr, bool is_write)
    {
        ++accesses_;
        ++useClock_;
        const std::uint64_t set = setIndex(addr);
        Line *base = &lines_[set * geom_.assoc];
        const std::uint64_t want = (tagOf(addr) << tagShift) | validBit;
        Line *victim = base;
        for (std::uint32_t w = 0; w < geom_.assoc; ++w) {
            Line &line = base[w];
            if ((line.meta & ~flagBits) == want) {
                line.lastUse = useClock_;
                if (is_write)
                    line.meta |= flagBits;
                return CacheAccessResult{true, false, false, 0};
            }
            if (!line.valid())
                victim = &line;
            else if (victim->valid() && line.lastUse < victim->lastUse)
                victim = &line;
        }
        ++misses_;
        CacheAccessResult res;
        if (victim->valid()) {
            res.evicted = true;
            res.evictedDirty = victim->dirty();
            res.evictedLineAddr =
                ((victim->meta >> tagShift) * numSets_ + set) *
                geom_.lineBytes;
            if (victim->dirty())
                ++writebacks_;
        } else {
            ++valid_;
        }
        victim->meta = want | (is_write ? flagBits : 0);
        victim->lastUse = useClock_;
        return res;
    }

    bool probe(Addr addr) const { return find(addr) != nullptr; }

    bool
    probeDirty(Addr addr) const
    {
        const Line *line = find(addr);
        return line && line->dirty();
    }

    LineProbe
    probeLine(Addr addr) const
    {
        const Line *line = find(addr);
        return LineProbe{line != nullptr, line && (line->meta & ownedBit)};
    }

    bool
    markOwned(Addr addr)
    {
        Line *line = const_cast<Line *>(find(addr));
        if (line)
            line->meta |= ownedBit;
        return line != nullptr;
    }

    bool
    invalidate(Addr addr)
    {
        Line *line = const_cast<Line *>(find(addr));
        if (!line)
            return false;
        const bool was_dirty = line->dirty();
        line->meta = 0;
        --valid_;
        return was_dirty;
    }

    void
    flush()
    {
        for (auto &line : lines_)
            line.meta = 0;
        valid_ = 0;
    }

    void resetStats() { accesses_ = misses_ = writebacks_ = 0; }

    std::uint64_t validLines() const { return valid_; }
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    static constexpr std::uint64_t validBit = 1;
    static constexpr std::uint64_t dirtyBit = 2;
    static constexpr std::uint64_t ownedBit = 4;
    static constexpr std::uint64_t flagBits = dirtyBit | ownedBit;
    static constexpr unsigned tagShift = 3;

    struct Line
    {
        std::uint64_t meta = 0;
        std::uint64_t lastUse = 0;
        bool valid() const { return meta & validBit; }
        bool dirty() const { return meta & dirtyBit; }
    };

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr / geom_.lineBytes) & (numSets_ - 1);
    }
    Addr tagOf(Addr addr) const { return addr / geom_.lineBytes / numSets_; }

    const Line *
    find(Addr addr) const
    {
        const Line *base = &lines_[setIndex(addr) * geom_.assoc];
        const std::uint64_t want = (tagOf(addr) << tagShift) | validBit;
        for (std::uint32_t w = 0; w < geom_.assoc; ++w) {
            if ((base[w].meta & ~flagBits) == want)
                return &base[w];
        }
        return nullptr;
    }

    CacheGeometry geom_;
    std::uint64_t numSets_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
    std::uint64_t valid_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

/** Require identical access results from the two tag stores. */
::testing::AssertionResult
sameResult(const CacheAccessResult &got, const CacheAccessResult &want)
{
    if (got.hit == want.hit && got.evicted == want.evicted &&
        got.evictedDirty == want.evictedDirty &&
        got.evictedLineAddr == want.evictedLineAddr)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "hit " << got.hit << "/" << want.hit << " evicted "
           << got.evicted << "/" << want.evicted << " dirty "
           << got.evictedDirty << "/" << want.evictedDirty << " victim "
           << got.evictedLineAddr << "/" << want.evictedLineAddr;
}

/** Require identical occupancy and counters from the two tag stores. */
::testing::AssertionResult
sameState(const SetAssocCache &got, const TimestampLruCache &want)
{
    if (got.validLines() == want.validLines() &&
        got.accesses() == want.accesses() &&
        got.misses() == want.misses() &&
        got.writebacks() == want.writebacks())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "valid " << got.validLines() << "/" << want.validLines()
           << " accesses " << got.accesses() << "/" << want.accesses()
           << " misses " << got.misses() << "/" << want.misses()
           << " writebacks " << got.writebacks() << "/"
           << want.writebacks();
}

/**
 * One seeded stream of access/probe/probeDirty/invalidate/flush/
 * resetStats through both tag stores, checked at every step. The
 * address pool is about twice the capacity with a hot front, so hits,
 * clean and dirty evictions, and holes left by invalidation all occur
 * often. Geometries cover the hierarchy's 2/4/8/16-way caches,
 * Itanium2's 12-way L3 and the TLB's 4-way store of 8-byte lines.
 */
class TagStoreDifferential
    : public ::testing::TestWithParam<CacheGeometry>
{
};

TEST_P(TagStoreDifferential, MatchesTimestampLru)
{
    const CacheGeometry geom = GetParam();
    SetAssocCache dut("dut", geom);
    TimestampLruCache ref(geom);
    Rng rng(0xcac4e + geom.assoc * 131 + geom.lineBytes);
    const std::uint64_t pool = geom.numLines() * 2 + 3;
    constexpr int steps = 200000;
    for (int step = 0; step < steps; ++step) {
        // Squared draw: a hot front of the pool plus a long tail.
        const double u = rng.uniform();
        const Addr line = static_cast<Addr>(u * u * pool);
        const Addr addr =
            line * geom.lineBytes + rng.below(geom.lineBytes);
        const std::uint64_t op = rng.below(1000);
        if (op < 700) {
            const bool write = rng.chance(0.3);
            ASSERT_TRUE(sameResult(dut.access(addr, write),
                                   ref.access(addr, write)))
                << "access at step " << step;
        } else if (op < 800) {
            ASSERT_EQ(dut.probe(addr), ref.probe(addr))
                << "probe at step " << step;
        } else if (op < 900) {
            ASSERT_EQ(dut.probeDirty(addr), ref.probeDirty(addr))
                << "probeDirty at step " << step;
        } else if (op < 998) {
            ASSERT_EQ(dut.invalidate(addr), ref.invalidate(addr))
                << "invalidate at step " << step;
        } else if (op < 999) {
            dut.flush();
            ref.flush();
        } else {
            dut.resetStats();
            ref.resetStats();
        }
        ASSERT_TRUE(sameState(dut, ref)) << "after step " << step;
    }
}

TEST_P(TagStoreDifferential, OwnedBitMatchesTimestampLru)
{
    // The same stream shape with markOwned() and probeLine() mixed in:
    // the owned bit rides with writes and markOwned(), leaves with the
    // line, and never changes a hit, a victim or a counter.
    const CacheGeometry geom = GetParam();
    SetAssocCache dut("dut", geom);
    TimestampLruCache ref(geom);
    Rng rng(0x0b17 + geom.assoc * 131 + geom.lineBytes);
    const std::uint64_t pool = geom.numLines() * 2 + 3;
    constexpr int steps = 100000;
    for (int step = 0; step < steps; ++step) {
        const double u = rng.uniform();
        const Addr line = static_cast<Addr>(u * u * pool);
        const Addr addr =
            line * geom.lineBytes + rng.below(geom.lineBytes);
        const std::uint64_t op = rng.below(1000);
        if (op < 600) {
            const bool write = rng.chance(0.2);
            ASSERT_TRUE(sameResult(dut.access(addr, write),
                                   ref.access(addr, write)))
                << "access at step " << step;
        } else if (op < 750) {
            ASSERT_EQ(dut.markOwned(addr), ref.markOwned(addr))
                << "markOwned at step " << step;
        } else if (op < 900) {
            const LineProbe got = dut.probeLine(addr);
            const LineProbe want = ref.probeLine(addr);
            ASSERT_EQ(got.present, want.present)
                << "probeLine at step " << step;
            ASSERT_EQ(got.owned, want.owned)
                << "probeLine at step " << step;
            ASSERT_EQ(dut.probeDirty(addr), ref.probeDirty(addr))
                << "probeDirty at step " << step;
        } else if (op < 999) {
            ASSERT_EQ(dut.invalidate(addr), ref.invalidate(addr))
                << "invalidate at step " << step;
        } else {
            dut.flush();
            ref.flush();
        }
        ASSERT_TRUE(sameState(dut, ref)) << "after step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagStoreDifferential,
    ::testing::Values(CacheGeometry{8 * 2 * 64, 2, 64},
                      CacheGeometry{16 * 4 * 64, 4, 64},
                      CacheGeometry{16 * 8 * 64, 8, 64},
                      CacheGeometry{16 * 12 * 64, 12, 64},
                      CacheGeometry{4 * 16 * 64, 16, 64},
                      CacheGeometry{16 * 4 * 8, 4, 8},
                      CacheGeometry{1 * 8 * 64, 8, 64}),
    [](const ::testing::TestParamInfo<CacheGeometry> &info) {
        const CacheGeometry &g = info.param;
        return "sets" + std::to_string(g.numSets()) + "_ways" +
               std::to_string(g.assoc) + "_line" +
               std::to_string(g.lineBytes);
    });

TEST(SetAssocCache, LastInvalidWayWinsAfterInterleavedInvalidations)
{
    // One set of four ways, so every line competes for the same set.
    const CacheGeometry geom{4 * 64, 4, 64};
    SetAssocCache dut("dut", geom);
    TimestampLruCache ref(geom);
    const auto line = [](std::uint64_t t) { return t * 64; };
    const auto both = [&](Addr a, bool write) {
        const CacheAccessResult r = dut.access(a, write);
        EXPECT_TRUE(sameResult(r, ref.access(a, write)));
        EXPECT_TRUE(sameState(dut, ref));
        return r;
    };

    for (std::uint64_t t = 1; t <= 4; ++t)
        both(line(t), t == 2); // Ways 0..3 hold lines 1..4; 2 is dirty.
    both(line(1), false);      // LRU order now 2, 3, 4, 1.
    EXPECT_FALSE(dut.invalidate(line(3)));
    EXPECT_FALSE(ref.invalidate(line(3)));
    both(line(4), true); // A hit between the invalidations.
    EXPECT_FALSE(dut.invalidate(line(1)));
    EXPECT_FALSE(ref.invalidate(line(1)));
    EXPECT_EQ(dut.validLines(), 2u);

    // Two holes: both misses fill them and evict nothing, although
    // line 2 (dirty) is the least recently used valid line.
    EXPECT_FALSE(both(line(5), false).evicted);
    EXPECT_FALSE(both(line(6), false).evicted);
    EXPECT_EQ(dut.validLines(), 4u);

    // Full again: LRU order 2, 4, 5, 6. The next misses evict exactly
    // that order, and line 2 writes back.
    CacheAccessResult r = both(line(7), false);
    EXPECT_TRUE(r.evicted);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedLineAddr, line(2));
    r = both(line(8), false);
    EXPECT_EQ(r.evictedLineAddr, line(4));
    EXPECT_TRUE(r.evictedDirty);
    r = both(line(9), false);
    EXPECT_EQ(r.evictedLineAddr, line(5));
    EXPECT_FALSE(r.evictedDirty);
    EXPECT_EQ(dut.writebacks(), 2u);
}

} // namespace
