#include "mem/coherence.hh"

#include <bit>

#include "sim/logging.hh"

namespace odbsim::mem
{

CoherenceDirectory::CoherenceDirectory(unsigned num_cpus)
    : numCpus_(num_cpus)
{
    odbsim_assert(num_cpus >= 1 && num_cpus <= maxCoherentCpus,
                  "unsupported CPU count ", num_cpus);
}

void
CoherenceDirectory::reserve(std::size_t lines)
{
    table_.reserve(lines);
}

CoherenceOutcome
CoherenceDirectory::onFill(unsigned cpu, Addr line_addr, bool is_write)
{
    CoherenceOutcome out;
    LineState &e = table_.findOrInsert(line_addr);
    const std::uint32_t self = 1u << cpu;

    if (e.modifiedOwner >= 0 &&
        static_cast<unsigned>(e.modifiedOwner) != cpu) {
        out.remoteDirty = true;
        out.remoteOwner = static_cast<unsigned>(e.modifiedOwner);
        ++coherenceMisses_;
    }

    if (is_write) {
        const std::uint32_t remote = e.sharers & ~self;
        out.invalidateMask = remote;
        // Guarded: without a popcnt target, std::popcount is a libgcc
        // call, and most fills have no remote sharer.
        if (remote)
            invalidations_ += std::popcount(remote);
        e.sharers = self;
        e.modifiedOwner = static_cast<std::int16_t>(cpu);
    } else {
        // A remote dirty copy is downgraded to shared by the fill.
        if (out.remoteDirty)
            e.modifiedOwner = -1;
        e.sharers |= self;
    }
    return out;
}

std::uint32_t
CoherenceDirectory::onWriteHit(unsigned cpu, Addr line_addr)
{
    LineState &e = table_.findOrInsert(line_addr);
    const std::uint32_t self = 1u << cpu;
    const std::uint32_t remote = e.sharers & ~self;
    if (remote)
        invalidations_ += std::popcount(remote);
    e.sharers = self;
    e.modifiedOwner = static_cast<std::int16_t>(cpu);
    return remote;
}

void
CoherenceDirectory::bindL3(const SetAssocCache &l3, unsigned compress_shift,
                           unsigned line_shift)
{
    odbsim_assert(numCpus_ == 1 && table_.size() == 0,
                  "only an empty single-CPU directory can be implicit");
    l3_ = &l3;
    compressShift_ = compress_shift;
    lineShift_ = line_shift;
}

void
CoherenceDirectory::ownOutsideL3(Addr line_addr)
{
    LineState &e = table_.findOrInsert(line_addr);
    e.sharers = 1u;
    e.modifiedOwner = 0;
}

SnoopState
CoherenceDirectory::snoop(Addr line_addr) const
{
    if (l3_) {
        const LineProbe p = l3_->probeLine(
            (line_addr >> compressShift_) << lineShift_);
        if (p.present)
            return SnoopState{true, 1u,
                              static_cast<std::int16_t>(p.owned ? 0 : -1)};
    }
    const LineState *s = table_.find(line_addr);
    if (!s)
        return SnoopState{};
    return SnoopState{true, s->sharers, s->modifiedOwner};
}

void
CoherenceDirectory::onEviction(unsigned cpu, Addr line_addr)
{
    const std::size_t i = table_.findIndex(line_addr);
    if (i == Table::npos)
        return;
    LineState &e = table_.valueAt(i);
    e.sharers &= ~(1u << cpu);
    if (e.modifiedOwner >= 0 &&
        static_cast<unsigned>(e.modifiedOwner) == cpu) {
        e.modifiedOwner = -1;
    }
    if (e.sharers == 0 && e.modifiedOwner < 0)
        table_.eraseAt(i);
}

void
CoherenceDirectory::onDmaFill(Addr line_addr)
{
    table_.erase(line_addr);
}

void
CoherenceDirectory::clear()
{
    table_.clear();
}

} // namespace odbsim::mem
