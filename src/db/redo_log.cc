#include "db/redo_log.hh"

#include <algorithm>
#include <memory>

#include "mem/addr_space.hh"
#include "sim/logging.hh"

namespace odbsim::db
{

/**
 * The log-writer background process: wait for commit requests, flush
 * the accumulated group with one sequential write, wake the group.
 */
class LogManager::LgwrProcess : public os::Process
{
  public:
    explicit LgwrProcess(LogManager &mgr)
        : os::Process("lgwr"), mgr_(mgr)
    {}

    os::NextAction
    next(os::System &sys) override
    {
        os::NextAction act;

        // Wake the group whose flush just completed.
        for (os::Process *p : group_)
            sys.wakeProcess(p, 1500);
        mgr_.commitsServed_ += group_.size();
        group_.clear();

        if (mgr_.pendingBytes_ == 0) {
            mgr_.lgwrIdle_ = true;
            act.after = os::NextAction::After::Block;
            return act;
        }

        // Start the next flush: batch everything pending.
        const std::uint64_t bytes = mgr_.pendingBytes_ + 512;
        group_ = std::move(mgr_.pendingWaiters_);
        mgr_.pendingWaiters_.clear();
        mgr_.pendingBytes_ = 0;
        ++mgr_.flushes_;
        mgr_.bytesFlushed_ += bytes;
        mgr_.groupSize_.add(static_cast<double>(group_.size()));

        sys.chargeKernel(this, sys.kernelCosts().logWriteInstr);
        sys.disks().writeLog(bytes, [this, &sys, bytes] {
            sys.memsys().dmaDrain(bytes, sys.now());
            sys.wakeProcess(this, sys.kernelCosts().ioCompleteInstr);
        });

        act.work.instructions = mgr_.costs_.lgwrFlushInstr;
        act.work.mode = mem::ExecMode::User;
        act.work.codeBase = mem::addrmap::dbCodeBase;
        act.work.codeBytes = mem::addrmap::dbCodeBytes;
        act.work.privateBase = privateBase();
        act.work.privateBytes = mem::addrmap::pgaHotBytes;
        act.work.addRef(mem::addrmap::logBufferBase,
                        static_cast<std::uint32_t>(std::min<std::uint64_t>(
                            bytes, mem::addrmap::logBufferBytes)),
                        false);
        act.after = os::NextAction::After::Block;
        return act;
    }

  private:
    LogManager &mgr_;
    std::vector<os::Process *> group_;
};

LogManager::LogManager(os::System &sys, const DbCostModel &costs)
    : sys_(sys), costs_(costs)
{}

void
LogManager::start()
{
    odbsim_assert(!lgwr_, "LogManager already started");
    lgwr_ = sys_.spawn(std::make_unique<LgwrProcess>(*this));
}

void
LogManager::requestCommit(os::Process *p, std::uint32_t bytes)
{
    odbsim_assert(lgwr_, "LogManager not started");
    pendingBytes_ += bytes;
    pendingWaiters_.push_back(p);
    if (lgwrIdle_) {
        lgwrIdle_ = false;
        sys_.wakeProcess(lgwr_, 800);
    }
}

void
LogManager::resetStats()
{
    flushes_ = 0;
    bytesFlushed_ = 0;
    commitsServed_ = 0;
    groupSize_.reset();
}

} // namespace odbsim::db
