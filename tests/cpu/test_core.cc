/**
 * @file
 * Tests for the CPU core timing model: the statistical Table 3
 * components, stream sampling, exact-reference set sampling, counter
 * attribution and determinism.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "cpu/core.hh"
#include "sim/rng.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::cpu;

constexpr std::uint32_t S = 16;

mem::HierarchyConfig
smallHier()
{
    mem::HierarchyConfig h;
    h.l2 = {16 * KiB, 4, 64};
    h.l3 = {64 * KiB, 8, 64};
    return h;
}

mem::BusConfig
quietBus()
{
    mem::BusConfig b;
    b.windowTicks = tickPerSec;
    return b;
}

CoreConfig
baseCfg()
{
    CoreConfig c;
    c.samplePeriod = S;
    return c;
}

struct Rig
{
    mem::MemorySystem ms;
    CpuCore core;

    explicit Rig(const CoreConfig &cfg = baseCfg())
        : ms(1, smallHier(), quietBus(), cfg.samplePeriod),
          core(0, cfg, ms, 1234)
    {}
};

WorkItem
pureCompute(std::uint64_t instr)
{
    WorkItem wi;
    wi.instructions = instr;
    wi.codeBase = 0x1000'0000;
    wi.codeBytes = 64; // One line: negligible code misses after warm.
    return wi;
}

TEST(CpuCore, BaseCpiFloor)
{
    // With no memory streams at all the cycle count reduces to the
    // statistical components: 0.5 + branch + TLB per instruction.
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    const auto res = rig.core.execute(pureCompute(1000000), 0);
    const double expect =
        1e6 * (0.5 + 0.20 * 0.02 * 20.0 + 0.0035 * 20.0);
    EXPECT_NEAR(res.cycles, expect, 1.0);
}

TEST(CpuCore, CountersAccumulatePerMode)
{
    Rig rig;
    WorkItem wi = pureCompute(50000);
    wi.mode = mem::ExecMode::Os;
    rig.core.execute(wi, 0);
    const auto &os = rig.core.counters()[mem::ExecMode::Os];
    const auto &user = rig.core.counters()[mem::ExecMode::User];
    EXPECT_DOUBLE_EQ(os.instructions, 50000.0);
    EXPECT_DOUBLE_EQ(user.instructions, 0.0);
    EXPECT_GT(os.cycles, 0.0);
    EXPECT_NEAR(os.branchMispredicts, 50000 * 0.004, 1e-9);
    EXPECT_NEAR(os.tlbMisses, 50000 * 0.0035, 1e-9);
}

TEST(CpuCore, CyclesToTicksUsesClock)
{
    Rig rig;
    const auto res = rig.core.execute(pureCompute(16000), 0);
    // 1.6 GHz -> 625 ps per cycle.
    EXPECT_NEAR(static_cast<double>(res.ticks), res.cycles * 625.0, 1.0);
}

TEST(CpuCore, ExtraCyclesLandInOther)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    WorkItem wi = pureCompute(1000);
    wi.extraCycles = 777.0;
    const auto res = rig.core.execute(wi, 0);
    const auto &ctr = rig.core.counters()[mem::ExecMode::User];
    EXPECT_DOUBLE_EQ(ctr.otherCycles, 777.0);
    EXPECT_GT(res.cycles, 777.0);
}

TEST(CpuCore, ExactRefsTouchSampledLinesOnce)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    WorkItem wi = pureCompute(100);
    // A span covering exactly 2 sampled lines (2 * 16 * 64 bytes).
    wi.addRef(0, 2 * S * 64, false);
    rig.core.execute(wi, 0);
    const auto &mc = rig.ms.cpu(0).counters(mem::ExecMode::User);
    EXPECT_EQ(mc.dataReads, 2 * S);
}

TEST(CpuCore, ExactRefOutsideSampledGridIsSkipped)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    WorkItem wi = pureCompute(100);
    // 64 bytes at offset 64: contains no line whose index is a
    // multiple of 16 -> never sampled.
    wi.addRef(64, 64, false);
    rig.core.execute(wi, 0);
    EXPECT_EQ(rig.ms.cpu(0).counters(mem::ExecMode::User).dataReads, 0u);
}

TEST(CpuCore, ExactRefReuseHitsCache)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    WorkItem wi = pureCompute(100);
    wi.addRef(0, 64, false);
    const auto first = rig.core.execute(wi, 0);
    const auto second = rig.core.execute(wi, 0);
    // The second execution hits in L2: far fewer stall cycles.
    EXPECT_LT(second.cycles, first.cycles);
    const auto &mc = rig.ms.cpu(0).counters(mem::ExecMode::User);
    EXPECT_EQ(mc.dataReads, 2 * S);
    EXPECT_EQ(mc.l3Misses, S); // Only the first touch missed.
}

TEST(CpuCore, CodeStreamGeneratesFetches)
{
    CoreConfig cfg = baseCfg();
    cfg.dataL2RefsPerInstr = 0.0;
    cfg.codeL2RefsPerInstr = 0.008;
    Rig rig(cfg);
    WorkItem wi = pureCompute(1000000);
    wi.codeBytes = 1536 * KiB;
    rig.core.execute(wi, 0);
    const auto &mc = rig.ms.cpu(0).counters(mem::ExecMode::User);
    // Expected fetches ~ instr * rate (scaled estimate).
    EXPECT_NEAR(static_cast<double>(mc.codeFetches), 8000.0, 16.0);
}

TEST(CpuCore, DataStreamRespectsRateScale)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.01;
    Rig rig(cfg);
    WorkItem wi = pureCompute(1000000);
    wi.privateBase = 0x4'0000'0000;
    wi.privateBytes = 64 * KiB;
    wi.dataRateScale = 2.0f;
    rig.core.execute(wi, 0);
    const auto &mc = rig.ms.cpu(0).counters(mem::ExecMode::User);
    const double refs =
        static_cast<double>(mc.dataReads + mc.dataWrites);
    EXPECT_NEAR(refs, 20000.0, 32.0);
}

TEST(CpuCore, MemoryStallsRaiseCpi)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.02;
    Rig rig(cfg);
    WorkItem wi = pureCompute(500000);
    // A private region far larger than the scaled L3: mostly misses.
    wi.privateBase = 0x4'0000'0000;
    wi.privateBytes = 16 * MiB;
    const auto res = rig.core.execute(wi, 0);
    const double cpi = res.cycles / 500000.0;
    EXPECT_GT(cpi, 2.0); // L3 misses at ~300 cycles dominate.
}

TEST(CpuCore, DeterministicAcrossIdenticalRuns)
{
    auto run = [] {
        Rig rig;
        WorkItem wi = pureCompute(200000);
        wi.privateBase = 0x4'0000'0000;
        wi.privateBytes = 64 * KiB;
        wi.codeBytes = 256 * KiB;
        double total = 0.0;
        for (int i = 0; i < 10; ++i)
            total += rig.core.execute(wi, i * 1000).cycles;
        return total;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(CpuCore, MismatchedSampleFactorPanics)
{
    mem::MemorySystem ms(1, smallHier(), quietBus(), 8);
    CoreConfig cfg = baseCfg(); // samplePeriod 16 != 8.
    EXPECT_DEATH({ CpuCore core(0, cfg, ms, 1); }, "must match");
}

TEST(CpuCore, StreamGeometryMatchesDivision)
{
    // The shift-and-mask stream geometry against the division formula
    // it replaced, at every power-of-two sample period the presets
    // can use, with bases and sizes from small to near 2^64.
    Rng rng(0x5717de);
    for (std::uint64_t period = 1; period <= 64; period *= 2) {
        const std::uint64_t stride = 64 * period;
        const auto shift = static_cast<unsigned>(std::countr_zero(stride));
        for (int i = 0; i < 20000; ++i) {
            const Addr base = rng.next() >> rng.below(64);
            const std::uint64_t bytes = rng.next() >> rng.below(64);
            const RegionStream s = makeRegionStream(base, bytes, shift);
            ASSERT_EQ(s.alignedBase, base / stride * stride)
                << "period " << period << " base " << base;
            ASSERT_EQ(s.lines, std::max<std::uint64_t>(1, bytes / stride))
                << "period " << period << " bytes " << bytes;
            ASSERT_EQ(s.linesD, static_cast<double>(s.lines));
            ASSERT_EQ(firstSampledLine(base, shift),
                      (base + stride - 1) / stride * stride)
                << "period " << period << " base " << base;
        }
    }
}

/** Property: cycles scale linearly with instruction count. */
class CoreLinearityProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CoreLinearityProperty, CyclesScaleWithInstructions)
{
    CoreConfig cfg = baseCfg();
    cfg.codeL2RefsPerInstr = 0.0;
    cfg.dataL2RefsPerInstr = 0.0;
    Rig rig(cfg);
    const std::uint64_t n = static_cast<std::uint64_t>(GetParam());
    const auto res = rig.core.execute(pureCompute(n), 0);
    const double per_instr = res.cycles / static_cast<double>(n);
    EXPECT_NEAR(per_instr, 0.5 + 0.08 + 0.07, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CoreLinearityProperty,
                         ::testing::Values(1000, 10000, 100000, 1000000));

/** The sampler's index computed with pow(), as before its bypass. */
std::uint64_t
powHotSetIndex(double u, double exp, std::uint64_t lines)
{
    const auto idx = static_cast<std::uint64_t>(
        std::pow(u, exp) * static_cast<double>(lines));
    return std::min(idx, lines - 1);
}

/** A line count drawn log-uniformly from [1, 2^24]. */
std::uint64_t
drawLines(Rng &rng)
{
    return 1 + rng.below(std::uint64_t{1} << rng.below(25));
}

TEST(HotSetIndex, MatchesPowOnUniformDraws)
{
    Rng rng(42);
    for (const double exp : {1.5, 3.0}) {
        std::uint64_t mismatches = 0, fallbacks = 0;
        for (int i = 0; i < 10'000'000; ++i) {
            const double u = rng.uniform();
            const std::uint64_t lines = drawLines(rng);
            const auto lines_d = static_cast<double>(lines);
            std::uint64_t idx;
            fallbacks += !hotSetIndexBracketed(u, exp, lines_d, idx);
            const std::uint64_t got = hotSetIndex(u, exp, lines, lines_d);
            const std::uint64_t want = powHotSetIndex(u, exp, lines);
            if (got != want && mismatches++ == 0)
                ADD_FAILURE() << "exp " << exp << " u " << u << " lines "
                              << lines << ": " << got << " != " << want;
        }
        EXPECT_EQ(mismatches, 0u) << "exp " << exp;
        // The bracket almost always decides without pow().
        EXPECT_LT(fallbacks, 100u) << "exp " << exp;
    }
}

TEST(HotSetIndex, IndexBoundariesFallBackToPowAndMatch)
{
    Rng rng(7);
    for (const double exp : {1.5, 3.0}) {
        for (int trial = 0; trial < 5000; ++trial) {
            const std::uint64_t lines = 1 + drawLines(rng);
            const auto lines_d = static_cast<double>(lines);
            const std::uint64_t k = 1 + rng.below(lines - 1);
            // Bisect over bit patterns for the adjacent doubles u0 < u1
            // where pow(u, exp) * lines crosses k.
            std::uint64_t lo = 0, hi = std::bit_cast<std::uint64_t>(1.0);
            while (hi - lo > 1) {
                const std::uint64_t mid = lo + (hi - lo) / 2;
                const double u = std::bit_cast<double>(mid);
                if (std::pow(u, exp) * lines_d >= static_cast<double>(k))
                    hi = mid;
                else
                    lo = mid;
            }
            ASSERT_LT(powHotSetIndex(std::bit_cast<double>(lo), exp, lines),
                      k);
            ASSERT_GE(powHotSetIndex(std::bit_cast<double>(hi), exp, lines),
                      k);
            for (std::uint64_t b = lo - 8; b <= hi + 8; ++b) {
                const double u = std::bit_cast<double>(b);
                std::uint64_t idx;
                const bool bracketed =
                    hotSetIndexBracketed(u, exp, lines_d, idx);
                // Both sides of the crossing lie within a few ULP of
                // k / lines, inside the bracket's 2^-48 width.
                if (b == lo || b == hi) {
                    ASSERT_FALSE(bracketed)
                        << "exp " << exp << " lines " << lines << " k "
                        << k << " u " << u;
                }
                ASSERT_EQ(hotSetIndex(u, exp, lines, lines_d),
                          powHotSetIndex(u, exp, lines))
                    << "exp " << exp << " lines " << lines << " k " << k
                    << " u " << u;
            }
        }
    }
}

TEST(HotSetIndex, OtherExponentsUsePow)
{
    Rng rng(3);
    for (const double exp : {1.0, 2.0, 0.5}) {
        for (int i = 0; i < 100000; ++i) {
            const double u = rng.uniform();
            const std::uint64_t lines = drawLines(rng);
            const auto lines_d = static_cast<double>(lines);
            std::uint64_t idx;
            ASSERT_FALSE(hotSetIndexBracketed(u, exp, lines_d, idx));
            ASSERT_EQ(hotSetIndex(u, exp, lines, lines_d),
                      powHotSetIndex(u, exp, lines));
        }
    }
    // pow(u, 0.25) rounds up to 1.0 for the largest draw below 1, so the
    // index must clamp to the last line.
    const double top = std::nextafter(1.0, 0.0);
    EXPECT_EQ(std::pow(top, 0.25), 1.0);
    EXPECT_EQ(hotSetIndex(top, 0.25, 7, 7.0), 6u);
}

} // namespace
