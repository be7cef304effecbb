/**
 * @file
 * The CPU scheduler: a global round-robin ready queue feeding P
 * processors, with quantum-based preemption and context-switch cost
 * accounting — the mechanism behind the paper's Figure 8 (context
 * switches per transaction).
 *
 * Matching Linux accounting, a context switch is counted whenever a
 * CPU dispatches a task other than the one it ran last, and whenever
 * it dispatches after an idle period (the idle task counts as a task).
 */

#ifndef ODBSIM_OS_SCHEDULER_HH
#define ODBSIM_OS_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "os/process.hh"
#include "sim/pooled_fifo.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace odbsim::os
{

class System;

/**
 * Global-queue round-robin scheduler.
 */
class Scheduler
{
  public:
    Scheduler(System &sys, unsigned num_cpus, Tick quantum);

    /** Enter a new or woken process into the ready state. */
    void makeReady(Process *p);

    /**
     * Wake a blocked process, charging @p kernel_instr of kernel
     * pre-work (interrupt/completion path) to its next dispatch.
     */
    void wake(Process *p, std::uint64_t kernel_instr);

    /** Number of ready (runnable, not running) processes. */
    std::size_t readyCount() const { return ready_.size(); }

    /** Process currently on @p cpu (nullptr if idle). */
    Process *running(unsigned cpu) const { return slots_[cpu].current; }

    /** @name Statistics @{ */
    std::uint64_t contextSwitches() const
    {
        return ctxSwitches_.value();
    }
    Tick busyTicks(unsigned cpu) const { return slots_[cpu].busyTicks; }
    /** Ready-queue pool growth events (zero-allocation gate hook). */
    std::uint64_t readyAllocations() const { return ready_.allocations(); }
    void resetStats();
    /** @} */

  private:
    friend class System;

    struct CpuSlot
    {
        Process *current = nullptr;
        Process *lastRun = nullptr;
        bool wentIdle = true;
        Tick sliceStart = 0;
        Tick busyTicks = 0;
    };

    void dispatch(unsigned cpu, Process *p);
    void runChunk(unsigned cpu);
    void chunkDone(unsigned cpu, NextAction::After after);
    void pickNext(unsigned cpu);

    System &sys_;
    Tick quantum_;
    std::vector<CpuSlot> slots_;
    sim::PooledFifo<Process *> ready_;
    Counter ctxSwitches_;
};

} // namespace odbsim::os

#endif // ODBSIM_OS_SCHEDULER_HH
