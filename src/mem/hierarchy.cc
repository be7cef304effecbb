#include "mem/hierarchy.hh"

#include <bit>

#include "sim/logging.hh"

namespace odbsim::mem
{

MemCounters &
MemCounters::operator+=(const MemCounters &o)
{
    codeFetches += o.codeFetches;
    dataReads += o.dataReads;
    dataWrites += o.dataWrites;
    l2Misses += o.l2Misses;
    l3Misses += o.l3Misses;
    coherenceMisses += o.coherenceMisses;
    return *this;
}

CpuCacheHierarchy::CpuCacheHierarchy(unsigned cpu_id,
                                     const CacheGeometry &l2,
                                     const CacheGeometry &l3,
                                     std::uint32_t sample_factor)
    : cpuId_(cpu_id), l2_("l2", l2), l3_("l3", l3),
      sampleFactor_(sample_factor)
{
    const std::uint64_t line_bytes = l2.lineBytes;
    odbsim_assert(line_bytes >= 1 && std::has_single_bit(line_bytes),
                  "line size must be a power of two");
    odbsim_assert(sample_factor >= 1 &&
                      std::has_single_bit(
                          static_cast<std::uint64_t>(sample_factor)),
                  "sample factor must be a power of two");
    lineShift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
    compressShift_ =
        lineShift_ + static_cast<unsigned>(std::countr_zero(
                         static_cast<std::uint64_t>(sample_factor)));
}

MemCounters
CpuCacheHierarchy::totalCounters() const
{
    MemCounters sum = counters_[0];
    sum += counters_[1];
    return sum;
}

void
CpuCacheHierarchy::resetCounters()
{
    counters_[0].reset();
    counters_[1].reset();
    l2_.resetStats();
    l3_.resetStats();
}

void
CpuCacheHierarchy::invalidateLine(Addr line_addr)
{
    const Addr c = compress(line_addr);
    l2_.invalidate(c);
    l3_.invalidate(c);
}

void
CpuCacheHierarchy::flush()
{
    l2_.flush();
    l3_.flush();
}

CacheGeometry
MemorySystem::scaleGeometry(const CacheGeometry &g, std::uint32_t factor,
                            const char *name)
{
    CacheGeometry scaled = g;
    odbsim_assert(g.sizeBytes % factor == 0,
                  "cache ", name, " size not divisible by sample factor");
    scaled.sizeBytes = g.sizeBytes / factor;
    odbsim_assert(scaled.numSets() >= 2,
                  "sample factor leaves too few sets in ", name);
    return scaled;
}

MemorySystem::MemorySystem(unsigned num_cpus,
                           const HierarchyConfig &hier_cfg,
                           const BusConfig &bus_cfg,
                           std::uint32_t sample_factor)
    : hierCfg_(hier_cfg), sampleFactor_(sample_factor),
      weight_(sample_factor),
      lineMask_(~static_cast<Addr>(hier_cfg.l3.lineBytes - 1)),
      sampledStride_(static_cast<Addr>(hier_cfg.l3.lineBytes) *
                     sample_factor),
      singleCpu_(num_cpus == 1), bus_(bus_cfg), directory_(num_cpus)
{
    odbsim_assert(num_cpus >= 1, "need at least one CPU");
    odbsim_assert(sample_factor >= 1 &&
                      (sample_factor & (sample_factor - 1)) == 0,
                  "sample factor must be a power of two");
    odbsim_assert(std::has_single_bit(
                      static_cast<std::uint64_t>(hier_cfg.l3.lineBytes)),
                  "line size must be a power of two");
    const CacheGeometry l2 =
        scaleGeometry(hier_cfg.l2, sample_factor, "l2");
    const CacheGeometry l3 =
        scaleGeometry(hier_cfg.l3, sample_factor, "l3");
    for (unsigned i = 0; i < num_cpus; ++i)
        cpus_.push_back(std::make_unique<CpuCacheHierarchy>(
            i, l2, l3, sample_factor));
    if (hier_cfg.sharedL3)
        sharedL3_ = std::make_unique<SetAssocCache>("shared-l3", l3);

    // Pre-size the directory for the lines the caches can keep
    // resident so warm-up performs no rehash (perf hint only; the
    // table still grows on demand). An implicit directory's table only
    // holds lines written in L2 while absent from L3.
    if (singleCpu_) {
        const CpuCacheHierarchy &h = *cpus_[0];
        directory_.bindL3(sharedL3_ ? *sharedL3_ : h.l3_, h.compressShift_,
                          h.lineShift_);
        directory_.reserve(l2.numLines());
    } else {
        directory_.reserve(num_cpus * (l3.numLines() + l2.numLines()));
    }
}

AccessResult
MemorySystem::access(unsigned cpu_id, Addr addr, AccessKind kind,
                     ExecMode mode, Tick now)
{
    bus_.maybeUpdate(now);
    CpuCacheHierarchy &h = *cpus_[cpu_id];
    return accessImpl(h, h.counters(mode), addr, kind);
}

AccessResult
MemorySystem::accessImpl(CpuCacheHierarchy &h, MemCounters &ctr,
                         Addr addr, AccessKind kind)
{
    const unsigned cpu_id = h.cpuId_;
    const std::uint64_t weight = weight_;
    const Addr line = addr & lineMask_;
    const bool is_code = kind == AccessKind::CodeFetch;
    const bool is_write = kind == AccessKind::DataWrite;

    AccessResult res;
    if (is_code)
        ctr.codeFetches += weight;
    else if (is_write)
        ctr.dataWrites += weight;
    else
        ctr.dataReads += weight;

    // The scaled tag stores index on the compacted sampled-line space.
    const Addr caddr = h.compress(addr);

    // Dirty victims from L2 are assumed to hit L3 (tag-store
    // approximation); only L3 victims produce bus writebacks.
    SetAssocCache &l3 = sharedL3_ ? *sharedL3_ : h.l3_;
    if (h.l2_.access(caddr, is_write).hit) {
        if (is_write) {
            if (singleCpu_) {
                // The implicit directory owns the line through its L3
                // tag, or through the side table when L3 lost it (see
                // CoherenceDirectory::bindL3).
                if (!l3.markOwned(caddr))
                    directory_.ownOutsideL3(line);
            } else {
                std::uint32_t mask = directory_.onWriteHit(cpu_id, line);
                while (mask) {
                    const unsigned j =
                        static_cast<unsigned>(std::countr_zero(mask));
                    mask &= mask - 1;
                    cpus_[j]->invalidateLine(line);
                }
            }
        }
        res.servicedBy = ServicedBy::L2;
        return res;
    }
    ctr.l2Misses += weight;
    // Every SMP L2 miss ends in onFill for this line: start loading
    // its directory slot while the L3 tag store runs.
    if (!singleCpu_)
        directory_.prefetch(line);

    const CacheAccessResult l3res = l3.access(caddr, is_write);
    if (l3res.evicted) {
        // Map the victim back to its original (uncompressed) line
        // address for the directory. An implicit directory forgets the
        // victim with its L3 tag.
        const Addr victim_line = h.decompressLine(l3res.evictedLineAddr);
        if (sharedL3_) {
            // Inclusive shared L3: evicting a line removes every
            // core's L2 copy and its directory state.
            for (auto &c : cpus_)
                c->l2_.invalidate(l3res.evictedLineAddr);
            if (!singleCpu_)
                directory_.onDmaFill(victim_line);
        } else if (!singleCpu_) {
            directory_.onEviction(cpu_id, victim_line);
        }
        if (l3res.evictedDirty)
            bus_.addLineTransfers(static_cast<double>(weight));
    }
    if (l3res.hit) {
        if (singleCpu_) {
            // P=1: a fill by the only CPU can neither observe a remote
            // dirty copy nor need invalidations. The implicit
            // directory already tracks the line through its L3 tag
            // (access() set the owned bit on a write).
            res.servicedBy = ServicedBy::L3;
            return res;
        }
        // In CMP mode an L3 hit may still be a coherence transfer:
        // another core wrote the line and the modified copy is served
        // on-die (cheap), but it counts as a HITM event. Remote copies
        // to invalidate live only in L2s (the L3 is shared); in SMP
        // mode the whole remote stack is invalidated.
        const CoherenceOutcome hit_out =
            directory_.onFill(cpu_id, line, is_write);
        std::uint32_t mask = hit_out.invalidateMask;
        while (mask) {
            const unsigned j =
                static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            if (sharedL3_)
                cpus_[j]->l2_.invalidate(caddr);
            else
                cpus_[j]->invalidateLine(line);
        }
        if (hit_out.remoteDirty) {
            if (sharedL3_) {
                cpus_[hit_out.remoteOwner]->l2_.invalidate(caddr);
                ctr.coherenceMisses += weight;
            } else {
                cpus_[hit_out.remoteOwner]->invalidateLine(line);
            }
        }
        res.servicedBy = ServicedBy::L3;
        return res;
    }
    ctr.l3Misses += weight;

    if (singleCpu_) {
        // P=1: an L3 miss is always serviced by memory — remoteDirty
        // is impossible, so no cache-to-cache transfer or extra
        // writeback can occur. A line the side table owned carries
        // its ownership into its new L3 tag.
        if (directory_.takeOutsideL3(line))
            l3.markOwned(caddr);
        res.servicedBy = ServicedBy::Memory;
        res.memStallExtraCycles = bus_.queueWaitCycles();
        bus_.addLineTransfers(static_cast<double>(weight));
        return res;
    }

    const CoherenceOutcome out = directory_.onFill(cpu_id, line, is_write);
    std::uint32_t mask = out.invalidateMask;
    while (mask) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        cpus_[j]->invalidateLine(line);
    }
    if (out.remoteDirty) {
        // Cache-to-cache transfer: the dirty copy leaves the remote
        // cache and its writeback also crosses the bus.
        cpus_[out.remoteOwner]->invalidateLine(line);
        ctr.coherenceMisses += weight;
        bus_.addLineTransfers(static_cast<double>(weight));
        res.servicedBy = ServicedBy::RemoteCache;
    } else {
        res.servicedBy = ServicedBy::Memory;
    }
    res.memStallExtraCycles = bus_.queueWaitCycles();
    bus_.addLineTransfers(static_cast<double>(weight));
    return res;
}

void
MemorySystem::dmaFill(Addr base, std::uint64_t bytes, Tick now)
{
    bus_.maybeUpdate(now);
    bus_.addDmaBytes(static_cast<double>(bytes));

    // Only sampled lines can be cached; snoop just those.
    const Addr stride = sampledStride_;
    Addr first = base & ~static_cast<Addr>(stride - 1);
    if (first < base)
        first += stride;
    for (Addr line = first; line < base + bytes; line += stride) {
        const SnoopState s = directory_.snoop(line);
        if (!s.tracked)
            continue;
        for (unsigned j = 0; j < numCpus(); ++j) {
            if (s.sharers & (1u << j))
                cpus_[j]->invalidateLine(line);
        }
        if (s.modifiedOwner >= 0)
            cpus_[static_cast<unsigned>(s.modifiedOwner)]
                ->invalidateLine(line);
        if (sharedL3_)
            sharedL3_->invalidate(cpus_[0]->compress(line));
        directory_.onDmaFill(line);
    }
}

void
MemorySystem::dmaDrain(std::uint64_t bytes, Tick now)
{
    bus_.maybeUpdate(now);
    bus_.addDmaBytes(static_cast<double>(bytes));
}

void
MemorySystem::resetStats()
{
    for (auto &c : cpus_)
        c->resetCounters();
    if (sharedL3_)
        sharedL3_->resetStats();
    bus_.resetStats();
    directory_.resetStats();
}

void
MemorySystem::flushAll()
{
    for (auto &c : cpus_)
        c->flush();
    if (sharedL3_)
        sharedL3_->flush();
    directory_.clear();
    resetStats();
}

} // namespace odbsim::mem
