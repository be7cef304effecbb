#include "cpu/core.hh"

#include <algorithm>
#include <bit>
#include <optional>

#include "sim/logging.hh"

namespace odbsim::cpu
{

namespace
{

constexpr Addr lineBytes = 64;

} // namespace

CpuCore::CpuCore(unsigned id, const CoreConfig &cfg,
                 mem::MemorySystem &memsys, std::uint64_t seed,
                 unsigned mem_cpu_id)
    : id_(id), memId_(mem_cpu_id == ~0u ? id : mem_cpu_id), cfg_(cfg),
      strideShift_(static_cast<unsigned>(std::countr_zero(
          lineBytes * std::uint64_t{cfg.samplePeriod}))),
      clock_(cfg.freqHz), memsys_(memsys),
      rng_(seed ^ (0x9e3779b97f4a7c15ULL * (id + 1)))
{
    odbsim_assert(cfg.samplePeriod == memsys.sampleFactor(),
                  "core samplePeriod (", cfg.samplePeriod,
                  ") must match MemorySystem sample factor (",
                  memsys.sampleFactor(), ")");
    odbsim_assert(memId_ < memsys.numCpus(),
                  "mem cpu id out of range");
}

Addr
CpuCore::sampleStream(const RegionStream &s, double exp)
{
    // Pick among the region's *sampled* lines (every S-th line) with a
    // power-law concentration toward the region start.
    const double u = rng_.uniform();
    return s.alignedBase + (hotSetIndex(u, exp, s.lines, s.linesD)
                            << s.strideShift);
}

double
CpuCore::stallCyclesFor(const mem::AccessResult &res, bool is_code) const
{
    const StallCosts &c = cfg_.costs;
    double cycles = is_code ? c.tcMissCycles : c.l2HitCycles;
    switch (res.servicedBy) {
      case mem::ServicedBy::L2:
        break;
      case mem::ServicedBy::L3:
        cycles += c.l2MissCycles;
        break;
      case mem::ServicedBy::Memory:
      case mem::ServicedBy::RemoteCache:
        // The memory system reports the load-dependent part (bus
        // queueing).
        cycles += c.l3MissCycles + res.memStallExtraCycles;
        break;
    }
    return cycles;
}

ExecResult
CpuCore::execute(const WorkItem &item, Tick now, double cycle_scale)
{
    const double k = static_cast<double>(cfg_.samplePeriod);
    const unsigned shift = strideShift_;
    const std::uint64_t stride = std::uint64_t{1} << shift;
    const auto mode = item.mode;
    ModeCpuCounters &ctr = counters_[mode];
    const double instr = static_cast<double>(item.instructions);

    // Flat, statistically-modeled components (paper Table 3).
    double cycles = instr * cfg_.costs.baseCyclesPerInstr;
    const double mispredicts =
        instr * cfg_.branchesPerInstr * cfg_.mispredictPerBranch;
    cycles += mispredicts * cfg_.costs.branchMispredictCycles;
    const double tlb_misses = instr * cfg_.tlbMissPerInstr;
    cycles += tlb_misses * cfg_.costs.tlbMissCycles;

    // All of this item's references share one (cpu, mode, now) triple,
    // so the per-reference loops below run against a single access
    // epoch: the bus-clock advance and the per-mode counter lookup
    // happen once per WorkItem instead of once per reference. The
    // epoch opens lazily at the first reference — a WorkItem that
    // generates none must not touch the bus clock, exactly as the
    // per-reference path behaved.
    std::optional<mem::MemorySystem::AccessEpoch> epoch;
    const auto accessRef = [&](Addr addr, mem::AccessKind kind) {
        if (!epoch)
            epoch.emplace(memsys_.beginEpoch(memId_, mode, now));
        return epoch->access(addr, kind);
    };

    // Code stream: references reaching L2 after trace-cache misses.
    // The stream descriptor (alignment, line count) is invariant per
    // WorkItem and hoisted out of the reference loop.
    codeCarry_ += instr * cfg_.codeL2RefsPerInstr / k;
    std::uint64_t n_code = static_cast<std::uint64_t>(codeCarry_);
    codeCarry_ -= static_cast<double>(n_code);
    if (n_code) {
        const RegionStream code = makeRegionStream(
            item.codeBase, std::max<std::uint64_t>(item.codeBytes, stride),
            shift);
        for (std::uint64_t i = 0; i < n_code; ++i) {
            const Addr addr = sampleStream(code, cfg_.codeHotExponent);
            const mem::AccessResult res =
                accessRef(addr, mem::AccessKind::CodeFetch);
            cycles += stallCyclesFor(res, true) * k;
        }
    }

    // Data region streams.
    double total_weight = 0.0;
    const double wp = item.privateBytes ? item.privateWeight : 0.0f;
    const double ws = item.sharedBytes ? item.sharedWeight : 0.0f;
    const double wf = item.frameAddr ? item.frameWeight : 0.0f;
    total_weight = wp + ws + wf;

    dataCarry_ += instr * cfg_.dataL2RefsPerInstr *
                  static_cast<double>(item.dataRateScale) / k;
    std::uint64_t n_data = static_cast<std::uint64_t>(dataCarry_);
    dataCarry_ -= static_cast<double>(n_data);
    if (total_weight <= 0.0)
        n_data = 0;

    if (n_data) {
        const RegionStream priv =
            makeRegionStream(item.privateBase, item.privateBytes, shift);
        const RegionStream shared =
            makeRegionStream(item.sharedBase, item.sharedBytes, shift);
        const RegionStream frame = makeRegionStream(
            item.frameAddr,
            std::max<std::uint32_t>(item.frameBytes, lineBytes), shift);
        for (std::uint64_t i = 0; i < n_data; ++i) {
            double pick = rng_.uniform() * total_weight;
            Addr addr;
            bool write;
            if ((pick -= wp) < 0.0) {
                addr = sampleStream(priv, cfg_.dataHotExponent);
                write = rng_.chance(cfg_.privateWriteFraction);
            } else if ((pick -= ws) < 0.0) {
                addr = sampleStream(shared, cfg_.dataHotExponent);
                write = rng_.chance(0.10);
            } else {
                // The frame stream's exponent is 1.0: pure identity.
                addr = sampleStream(frame, 1.0);
                write = rng_.chance(cfg_.frameWriteFraction);
            }
            const mem::AccessResult res =
                accessRef(addr, write ? mem::AccessKind::DataWrite
                                      : mem::AccessKind::DataRead);
            cycles += stallCyclesFor(res, false) * k;
        }
    }

    // Exact references: feed every sampled line of each span exactly
    // once (set sampling — per-line reuse across transactions is
    // preserved exactly).
    for (unsigned r = 0; r < item.numRefs; ++r) {
        const DataRef &ref = item.refs[r];
        const Addr first = firstSampledLine(ref.addr, shift);
        const Addr end = ref.addr + std::max<std::uint32_t>(ref.bytes, 1);
        for (Addr a = first; a < end; a += stride) {
            const mem::AccessResult res =
                accessRef(a, ref.write ? mem::AccessKind::DataWrite
                                       : mem::AccessKind::DataRead);
            cycles += stallCyclesFor(res, false) * k;
        }
    }

    cycles += item.extraCycles;
    cycles *= cycle_scale;

    // One batched counter write-back per WorkItem.
    ctr.instructions += instr;
    ctr.branchMispredicts += mispredicts;
    ctr.tlbMisses += tlb_misses;
    ctr.otherCycles += item.extraCycles;
    ctr.cycles += cycles;

    ExecResult out;
    out.cycles = cycles;
    out.ticks = clock_.cyclesToTicks(cycles);
    return out;
}

} // namespace odbsim::cpu
