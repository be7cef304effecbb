/**
 * @file
 * Redo logging with group commit.
 *
 * Committing server processes hand their redo volume to the LogManager
 * and block; the LGWR background process batches everything that
 * arrived since the previous flush into one sequential write to the
 * dedicated log drives and wakes the whole group when it is durable.
 * The paper measures ~6 KB of log data per transaction independent of
 * W and P — the planner layer supplies those bytes.
 */

#ifndef ODBSIM_DB_REDO_LOG_HH
#define ODBSIM_DB_REDO_LOG_HH

#include <cstdint>
#include <vector>

#include "db/cost_model.hh"
#include "os/process.hh"
#include "os/system.hh"
#include "sim/stats.hh"

namespace odbsim::db
{

/**
 * Group-commit redo log manager plus its LGWR process.
 */
class LogManager
{
  public:
    LogManager(os::System &sys, const DbCostModel &costs);

    /** Spawn the LGWR background process. */
    void start();

    /**
     * Register @p bytes of redo for @p p's commit. The caller must
     * return NextAction::After::Block; it is woken when the redo is
     * on disk.
     */
    void requestCommit(os::Process *p, std::uint32_t bytes);

    /** @name Statistics @{ */
    std::uint64_t flushes() const { return flushes_; }
    std::uint64_t bytesFlushed() const { return bytesFlushed_; }
    std::uint64_t commitsServed() const { return commitsServed_; }
    const RunningStat &groupSize() const { return groupSize_; }
    void resetStats();
    /** @} */

  private:
    class LgwrProcess;

    os::System &sys_;
    const DbCostModel &costs_;
    os::Process *lgwr_ = nullptr;
    bool lgwrIdle_ = false;

    std::uint64_t pendingBytes_ = 0;
    std::vector<os::Process *> pendingWaiters_;

    std::uint64_t flushes_ = 0;
    std::uint64_t bytesFlushed_ = 0;
    std::uint64_t commitsServed_ = 0;
    RunningStat groupSize_;
};

} // namespace odbsim::db

#endif // ODBSIM_DB_REDO_LOG_HH
