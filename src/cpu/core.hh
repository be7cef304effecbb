/**
 * @file
 * The CPU core timing model.
 *
 * Per the paper's own Table 3/4 methodology, the flat components of
 * CPI — base issue cost, branch mispredictions, TLB misses, and the
 * trace-cache/L1 behaviour — are charged at fixed per-event costs with
 * statistically-modeled event rates, while the W- and P-dependent
 * components (L2/L3 capacity behaviour, coherence, bus queueing) come
 * from a set-sampled tag-store simulation of the post-L1 reference
 * stream through the shared MemorySystem.
 */

#ifndef ODBSIM_CPU_CORE_HH
#define ODBSIM_CPU_CORE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "cpu/counters.hh"
#include "cpu/stall_costs.hh"
#include "cpu/work.hh"
#include "mem/hierarchy.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace odbsim::cpu
{

/** Tunables of the core timing model. */
struct CoreConfig
{
    double freqHz = 1.6e9;
    /** Set-sampling factor S (must match the MemorySystem's). */
    std::uint32_t samplePeriod = 16;
    /** Post-L1 data references per instruction (region streams). */
    double dataL2RefsPerInstr = 0.016;
    /** Code references reaching L2 per instruction (TC-miss rate). */
    double codeL2RefsPerInstr = 0.008;
    /** TLB misses per instruction (flat, charged statistically). */
    double tlbMissPerInstr = 0.0035;
    /** Fraction of instructions that are branches. */
    double branchesPerInstr = 0.20;
    /** Misprediction probability per branch. */
    double mispredictPerBranch = 0.02;
    /** Probability that a private-region stream reference writes. */
    double privateWriteFraction = 0.30;
    /** Probability that a frame stream reference writes. */
    double frameWriteFraction = 0.20;
    /** Concentration of code fetches (higher = hotter front). */
    double codeHotExponent = 3.0;
    /** Concentration of private/shared-region references. */
    double dataHotExponent = 1.5;
    StallCosts costs;
};

/**
 * floor(pow(u, exp) * lines_d) for exp 3.0 or 1.5, decided without
 * pow(): a = u*u*u or u*sqrt(u) is within about 2 ULP of u^exp, and
 * glibc's pow() within 0.52 ULP, so pow(u, exp) lies strictly inside
 * [a*(1-2^-48), a*(1+2^-48)]. Rounding is monotone, so when both ends
 * of that bracket floor to the same index, so does pow(u, exp).
 *
 * @param u A draw in [0, 1).
 * @param idx Set to that index when the bracket decides it.
 * @return false when the bracket straddles an index boundary, or for
 *         any other exponent; the caller must then use pow().
 */
inline bool
hotSetIndexBracketed(double u, double exp, double lines_d,
                     std::uint64_t &idx)
{
    double a;
    if (exp == 3.0)
        a = u * u * u;
    else if (exp == 1.5)
        a = u * std::sqrt(u);
    else
        return false;
    const auto lo =
        static_cast<std::uint64_t>(a * (1.0 - 0x1p-48) * lines_d);
    const auto hi =
        static_cast<std::uint64_t>(a * (1.0 + 0x1p-48) * lines_d);
    idx = lo;
    return lo == hi;
}

/**
 * The hot-set sampler's line index: min(floor(pow(u, exp) * lines),
 * lines - 1), bit-exact with calling pow() directly. exp == 1.0 uses u
 * itself (IEEE pow(u, 1.0) == u); exp 3.0 and 1.5 almost always skip
 * pow() through hotSetIndexBracketed().
 *
 * @param u A draw in [0, 1).
 * @param lines Line count (>= 1); @p lines_d is the same as a double.
 */
inline std::uint64_t
hotSetIndex(double u, double exp, std::uint64_t lines, double lines_d)
{
    std::uint64_t idx;
    if (exp == 1.0)
        idx = static_cast<std::uint64_t>(u * lines_d);
    else if (!hotSetIndexBracketed(u, exp, lines_d, idx))
        idx = static_cast<std::uint64_t>(std::pow(u, exp) * lines_d);
    return std::min(idx, lines - 1);
}

/**
 * Per-WorkItem invariants of one region stream, hoisted out of the
 * per-reference loops: the sampled-line grid alignment and line count
 * depend only on (base, bytes, stride).
 */
struct RegionStream
{
    Addr alignedBase = 0;
    std::uint64_t lines = 1;
    double linesD = 1.0;
    /** log2 of the sampled-line stride. */
    unsigned strideShift = 0;
};

/**
 * The stream over [base, base + bytes) on the sampled-line grid of
 * stride 1 << @p stride_shift: max(1, bytes / stride) lines from
 * base / stride * stride. The stride is a power of two (line size
 * times the sample factor), so both divisions are shifts and masks.
 */
inline RegionStream
makeRegionStream(Addr base, std::uint64_t bytes, unsigned stride_shift)
{
    RegionStream s;
    s.lines = std::max<std::uint64_t>(1, bytes >> stride_shift);
    s.linesD = static_cast<double>(s.lines);
    // Align the region base itself to the sampled-line grid so reuse
    // across work items of the same region is exact.
    s.alignedBase = base & ~((Addr{1} << stride_shift) - 1);
    s.strideShift = stride_shift;
    return s;
}

/**
 * The first sampled line at or above @p addr:
 * (addr + stride - 1) / stride * stride for stride 1 << @p stride_shift.
 */
inline Addr
firstSampledLine(Addr addr, unsigned stride_shift)
{
    const Addr mask = (Addr{1} << stride_shift) - 1;
    return (addr + mask) & ~mask;
}

/** Result of executing one WorkItem. */
struct ExecResult
{
    double cycles = 0.0;
    Tick ticks = 0;
};

/**
 * One processor of the simulated SMP.
 */
class CpuCore
{
  public:
    /**
     * @param mem_cpu_id Index of the cache hierarchy this (logical)
     *        CPU uses; SMT siblings share one (~0 means same as id).
     */
    CpuCore(unsigned id, const CoreConfig &cfg, mem::MemorySystem &memsys,
            std::uint64_t seed = 0x0db5eedULL,
            unsigned mem_cpu_id = ~0u);

    unsigned id() const { return id_; }
    const CoreConfig &config() const { return cfg_; }
    const ClockDomain &clock() const { return clock_; }

    CpuCounters &counters() { return counters_; }
    const CpuCounters &counters() const { return counters_; }

    /** Memory-side counters live in the hierarchy. */
    const mem::MemCounters &
    memCounters(mem::ExecMode m) const
    {
        return memsys_.cpu(memId_).counters(m);
    }

    unsigned memCpuId() const { return memId_; }

    /**
     * Execute a work item at simulated time @p now.
     *
     * @param cycle_scale Multiplier on the consumed cycles (SMT
     *        sibling contention).
     * @return cycles consumed and the equivalent tick span.
     */
    ExecResult execute(const WorkItem &item, Tick now,
                       double cycle_scale = 1.0);

    void resetCounters() { counters_.reset(); }

  private:
    /** A sampled-line address within the stream, hot-skewed by @p exp
     *  (see hotSetIndex()). */
    Addr sampleStream(const RegionStream &s, double exp);

    double stallCyclesFor(const mem::AccessResult &res, bool is_code) const;

    unsigned id_;
    unsigned memId_;
    CoreConfig cfg_;
    /** log2 of the sampled-line stride, lineBytes * samplePeriod
     *  (a power of two: samplePeriod equals the MemorySystem's sample
     *  factor, which asserts it). */
    unsigned strideShift_;
    ClockDomain clock_;
    mem::MemorySystem &memsys_;
    Rng rng_;
    CpuCounters counters_;

    /** Fractional-sample carries to avoid rounding bias. */
    double dataCarry_ = 0.0;
    double codeCarry_ = 0.0;
};

} // namespace odbsim::cpu

#endif // ODBSIM_CPU_CORE_HH
