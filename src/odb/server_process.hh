/**
 * @file
 * ServerProcess: one dedicated database server process per connected
 * client (Oracle's dedicated-server model, Figure 1 of the paper).
 *
 * The process loops forever: plan a transaction for its home
 * warehouse, then replay the trace action by action — buffer-cache
 * gets that may stall on disk reads, row locks that may block on
 * contention, and a commit that blocks on the group-commit log flush.
 * Clients submit with zero think time, so a server is always either
 * running, ready, or blocked on I/O/locks — the saturation load the
 * paper uses.
 */

#ifndef ODBSIM_ODB_SERVER_PROCESS_HH
#define ODBSIM_ODB_SERVER_PROCESS_HH

#include <cstdint>
#include <vector>

#include "db/database.hh"
#include "db/trace.hh"
#include "odb/planner.hh"
#include "os/process.hh"
#include "sim/rng.hh"

namespace odbsim::odb
{

class OdbWorkload;

/**
 * Replay engine for one client connection.
 */
class ServerProcess : public os::Process
{
  public:
    ServerProcess(db::Database &database, OdbWorkload &workload,
                  TxnPlanner &planner, std::uint32_t home_w, Rng rng);

    os::NextAction next(os::System &sys) override;

    /** The warehouse this server was seeded with. */
    std::uint32_t homeWarehouse() const { return homeW_; }

  private:
    /** Resume state within the current action. */
    enum class Resume : std::uint8_t
    {
        None,        ///< Start the action at pc_ fresh.
        LockGranted, ///< Woken holding pendingLock_.
        FillDone,    ///< Disk read into pendingFrame_ landed.
        Flushed,     ///< Commit's log flush completed.
    };

    cpu::WorkItem baseWork(std::uint64_t instr) const;
    os::NextAction replayLock(const db::Action &a);
    os::NextAction replayUnlock(os::System &sys, const db::Action &a);
    os::NextAction replayTouch(os::System &sys, const db::Action &a);
    os::NextAction replayCompute(const db::Action &a);
    os::NextAction replayCommit(os::System &sys);

    db::Database &db_;
    OdbWorkload &workload_;
    TxnPlanner &planner_;
    std::uint32_t homeW_;
    Rng rng_;

    db::ActionTrace trace_;
    std::size_t pc_ = 0;
    bool txnActive_ = false;
    Tick txnStart_ = 0;

    Resume resume_ = Resume::None;
    db::LockKey pendingLock_ = 0;
    std::uint64_t pendingFrame_ = 0;

    std::vector<db::LockKey> heldLocks_;
};

} // namespace odbsim::odb

#endif // ODBSIM_ODB_SERVER_PROCESS_HH
