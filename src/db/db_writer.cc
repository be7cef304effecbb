#include "db/db_writer.hh"

#include <memory>

#include "mem/addr_space.hh"
#include "sim/logging.hh"

namespace odbsim::db
{

/**
 * The DBWR process: drain the urgent queue, checkpoint aged dirty
 * blocks, sleep between scans.
 */
class DbWriter::DbwrProcess : public os::Process
{
  public:
    explicit DbwrProcess(DbWriter &mgr)
        : os::Process("dbwr"), mgr_(mgr)
    {}

    os::NextAction
    next(os::System &sys) override
    {
        os::NextAction act;
        mgr_.sleeping_ = false;

        if (mgr_.outstanding_ >= mgr_.cfg_.maxOutstanding) {
            mgr_.throttled_ = true;
            act.after = os::NextAction::After::Block;
            return act;
        }

        unsigned n = 0;
        auto submit = [&](BlockId b) {
            ++mgr_.outstanding_;
            ++n;
            sys.diskWriteAsync(b, blockBytes, [this, &sys] {
                --mgr_.outstanding_;
                ++mgr_.written_;
                if (mgr_.throttled_ &&
                    mgr_.outstanding_ < mgr_.cfg_.maxOutstanding / 2) {
                    mgr_.throttled_ = false;
                    sys.wakeProcess(this, 500);
                }
            });
        };

        // Evicted dirty blocks first: they must reach disk.
        while (n < mgr_.cfg_.batchSize && !mgr_.urgent_.empty())
            submit(mgr_.urgent_.popFront());

        // Then checkpoint aged (or backlogged) dirty resident blocks.
        const Tick now = sys.now();
        while (n < mgr_.cfg_.batchSize && !mgr_.ckpt_.empty()) {
            const auto &[block, dirtied_at] = mgr_.ckpt_.front();
            const bool aged =
                now - dirtied_at >= mgr_.cfg_.checkpointAge;
            const bool backlogged =
                mgr_.ckpt_.size() > mgr_.cfg_.maxDirtyBacklog;
            if (!aged && !backlogged)
                break;
            const BlockId b = block;
            mgr_.ckpt_.popFront();
            // Only write if the block is still resident and dirty;
            // evicted blocks went through the urgent path and
            // re-cleaned blocks were already written.
            const BufferLookup look = mgr_.bc_.peek(b);
            if (look.hit && mgr_.bc_.isDirty(look.frame)) {
                mgr_.bc_.markClean(b);
                submit(b);
            }
        }
        if (n == 0) {
            // Nothing to do: sleep until the next scan (an urgent
            // enqueue wakes us earlier).
            mgr_.sleeping_ = true;
            sys.sleepProcess(this, mgr_.cfg_.scanInterval);
            act.after = os::NextAction::After::Block;
            return act;
        }

        sys.chargeKernel(this, sys.kernelCosts().asyncWriteInstr * n);
        act.work.instructions = mgr_.costs_.dbwrPerBlockInstr * n;
        act.work.mode = mem::ExecMode::User;
        act.work.codeBase = mem::addrmap::dbCodeBase;
        act.work.codeBytes = mem::addrmap::dbCodeBytes;
        act.work.privateBase = privateBase();
        act.work.privateBytes = mem::addrmap::pgaHotBytes;
        act.after = os::NextAction::After::Continue;
        return act;
    }

  private:
    DbWriter &mgr_;
};

DbWriter::DbWriter(os::System &sys, const DbCostModel &costs,
                   BufferCache &bc, const DbWriterConfig &cfg)
    : sys_(sys), costs_(costs), bc_(bc), cfg_(cfg)
{}

void
DbWriter::start()
{
    odbsim_assert(!proc_, "DbWriter already started");
    proc_ = sys_.spawn(std::make_unique<DbwrProcess>(*this));
}

void
DbWriter::enqueueEvicted(BlockId b)
{
    odbsim_assert(proc_, "DbWriter not started");
    urgent_.pushBack(b);
    if (sleeping_ && urgent_.size() >= cfg_.wakeThreshold) {
        sleeping_ = false;
        sys_.wakeProcess(proc_, 500);
    }
}

void
DbWriter::noteDirty(BlockId b, Tick now)
{
    odbsim_assert(proc_, "DbWriter not started");
    ckpt_.pushBack({b, now});
}

} // namespace odbsim::db
