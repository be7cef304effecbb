#include "os/system.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace odbsim::os
{

System::System(const SystemConfig &cfg)
    : cfg_(cfg),
      memsys_(cfg.numCpus / std::max(1u, cfg.threadsPerCore),
              cfg.hierarchy, cfg.bus, cfg.core.samplePeriod),
      disks_(cfg.disks, eq_, cfg.seed ^ 0xd15cULL),
      sched_(*this, cfg.numCpus, cfg.quantum),
      rng_(cfg.seed)
{
    odbsim_assert(cfg.threadsPerCore == 1 || cfg.threadsPerCore == 2,
                  "threadsPerCore must be 1 or 2");
    odbsim_assert(cfg.numCpus % cfg.threadsPerCore == 0,
                  "numCpus must be a multiple of threadsPerCore");
    for (unsigned i = 0; i < cfg.numCpus; ++i) {
        cores_.push_back(std::make_unique<cpu::CpuCore>(
            i, cfg.core, memsys_, cfg.seed + i,
            i / cfg.threadsPerCore));
    }
}

Process *
System::spawn(std::unique_ptr<Process> p)
{
    p->pid_ = nextPid_++;
    Process *raw = p.get();
    processes_.push_back(std::move(p));
    sched_.makeReady(raw);
    return raw;
}

void
System::diskReadForProcess(Process *p, std::uint64_t block_id,
                           Addr frame_addr, std::uint64_t bytes)
{
    disks_.readBlock(block_id, bytes, [this, p, frame_addr, bytes] {
        memsys_.dmaFill(frame_addr, bytes, now());
        sched_.wake(p, cfg_.kernel.ioCompleteInstr);
    });
}

void
System::diskWriteAsync(std::uint64_t block_id, std::uint64_t bytes,
                       std::function<void()> on_complete)
{
    disks_.writeBlock(block_id, bytes,
                      [this, bytes, cb = std::move(on_complete)] {
                          memsys_.dmaDrain(bytes, now());
                          if (cb)
                              cb();
                      });
}

void
System::sleepProcess(Process *p, Tick duration,
                     std::uint64_t wake_kernel_instr)
{
    eq_.scheduleAfter(duration, [this, p, wake_kernel_instr] {
        sched_.wake(p, wake_kernel_instr);
    });
}

cpu::WorkItem
System::makeKernelWork(std::uint64_t instr, double extra_cycles) const
{
    cpu::WorkItem wi;
    wi.instructions = instr;
    wi.mode = mem::ExecMode::Os;
    wi.codeBase = mem::addrmap::kernelCodeBase;
    wi.codeBytes = mem::addrmap::kernelCodeBytes;
    wi.privateBase = mem::addrmap::kernelDataBase;
    wi.privateBytes = mem::addrmap::kernelDataBytes;
    wi.extraCycles = extra_cycles;
    return wi;
}

void
System::beginMeasurement()
{
    for (auto &c : cores_)
        c->resetCounters();
    memsys_.resetStats();
    disks_.resetStats();
    sched_.resetStats();
    windowStart_ = now();
}

double
System::cpuUtilization(unsigned i) const
{
    const Tick window = measurementWindow();
    if (window == 0)
        return 0.0;
    return static_cast<double>(sched_.busyTicks(i)) /
           static_cast<double>(window);
}

double
System::avgCpuUtilization() const
{
    double sum = 0.0;
    for (unsigned i = 0; i < numCpus(); ++i)
        sum += cpuUtilization(i);
    return sum / numCpus();
}

} // namespace odbsim::os
