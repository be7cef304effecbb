#include "os/scheduler.hh"

#include "os/system.hh"
#include "sim/logging.hh"

namespace odbsim::os
{

Scheduler::Scheduler(System &sys, unsigned num_cpus, Tick quantum)
    : sys_(sys), quantum_(quantum), slots_(num_cpus)
{
    odbsim_assert(num_cpus >= 1, "scheduler needs at least one CPU");
}

void
Scheduler::makeReady(Process *p)
{
    odbsim_assert(p->state_ != Process::State::Running &&
                      p->state_ != Process::State::Ready,
                  "makeReady on runnable process ", p->name());
    p->state_ = Process::State::Ready;
    for (unsigned c = 0; c < slots_.size(); ++c) {
        if (slots_[c].current == nullptr) {
            dispatch(c, p);
            return;
        }
    }
    ready_.pushBack(p);
}

void
Scheduler::wake(Process *p, std::uint64_t kernel_instr)
{
    p->pendingKernelInstr_ += kernel_instr;
    if (p->state_ == Process::State::Blocked) {
        makeReady(p);
    } else {
        // The process has not finished retiring the chunk after which
        // it intends to block; remember the wake so the block becomes
        // a no-op.
        p->wakePending_ = true;
    }
}

void
Scheduler::dispatch(unsigned cpu, Process *p)
{
    CpuSlot &slot = slots_[cpu];
    odbsim_assert(slot.current == nullptr, "dispatch on busy CPU ", cpu);

    if (slot.lastRun != p || slot.wentIdle) {
        ctxSwitches_.inc();
        p->pendingKernelInstr_ +=
            sys_.kernelCosts().contextSwitchInstr;
        p->pendingExtraCycles_ +=
            sys_.kernelCosts().contextSwitchExtraCycles;
    }
    slot.current = p;
    slot.wentIdle = false;
    slot.sliceStart = sys_.now();
    p->state_ = Process::State::Running;
    runChunk(cpu);
}

void
Scheduler::runChunk(unsigned cpu)
{
    CpuSlot &slot = slots_[cpu];
    Process *p = slot.current;
    odbsim_assert(p, "runChunk on idle CPU ", cpu);

    NextAction act;
    if (p->pendingKernelInstr_ > 0) {
        act.work = sys_.makeKernelWork(p->pendingKernelInstr_,
                                       p->pendingExtraCycles_);
        p->pendingKernelInstr_ = 0;
        p->pendingExtraCycles_ = 0.0;
        act.after = NextAction::After::Continue;
    } else {
        act = p->next(sys_);
    }

    // SMT: a busy sibling thread halves the core's issue bandwidth;
    // both threads retire more slowly while sharing the pipeline.
    const unsigned sibling = sys_.siblingOf(cpu);
    const double scale =
        sibling != cpu && slots_[sibling].current != nullptr
            ? sys_.config().smtCycleFactor
            : 1.0;
    const cpu::ExecResult res =
        sys_.core(cpu).execute(act.work, sys_.now(), scale);

    // Guarantee forward progress even for zero-instruction chunks.
    const Tick span = std::max<Tick>(res.ticks, 1);
    const NextAction::After after = act.after;
    sys_.eq().scheduleAfter(span, [this, cpu, after, res] {
        // Busy time is accounted at retirement so measurement windows
        // never see more busy time than wall time.
        slots_[cpu].busyTicks += res.ticks;
        chunkDone(cpu, after);
    });
}

void
Scheduler::chunkDone(unsigned cpu, NextAction::After after)
{
    CpuSlot &slot = slots_[cpu];
    Process *p = slot.current;
    odbsim_assert(p, "chunkDone on idle CPU ", cpu);

    switch (after) {
      case NextAction::After::Continue:
        if (sys_.now() - slot.sliceStart >= quantum_ &&
            !ready_.empty()) {
            // Quantum expired and somebody is waiting: preempt.
            p->state_ = Process::State::Ready;
            ready_.pushBack(p);
            slot.lastRun = p;
            slot.current = nullptr;
            pickNext(cpu);
        } else {
            runChunk(cpu);
        }
        break;

      case NextAction::After::Block:
        if (p->wakePending_) {
            // The wake raced with the chunk; keep running.
            p->wakePending_ = false;
            runChunk(cpu);
        } else {
            p->state_ = Process::State::Blocked;
            slot.lastRun = p;
            slot.current = nullptr;
            pickNext(cpu);
        }
        break;

      case NextAction::After::Terminate:
        p->state_ = Process::State::Done;
        slot.lastRun = p;
        slot.current = nullptr;
        pickNext(cpu);
        break;
    }
}

void
Scheduler::pickNext(unsigned cpu)
{
    if (ready_.empty()) {
        slots_[cpu].wentIdle = true;
        return;
    }
    dispatch(cpu, ready_.popFront());
}

void
Scheduler::resetStats()
{
    ctxSwitches_.reset();
    for (auto &slot : slots_)
        slot.busyTicks = 0;
}

} // namespace odbsim::os
