#include "odb/server_process.hh"

#include <algorithm>

#include "mem/addr_space.hh"
#include "odb/workload.hh"
#include "sim/logging.hh"

namespace odbsim::odb
{

using db::Action;
using db::ActionKind;
using db::TouchKind;

ServerProcess::ServerProcess(db::Database &database, OdbWorkload &workload,
                             TxnPlanner &planner, std::uint32_t home_w,
                             Rng rng)
    : os::Process("server-w" + std::to_string(home_w)), db_(database),
      workload_(workload), planner_(planner), homeW_(home_w), rng_(rng)
{
    // A transaction holds a handful of row locks (NewOrder: ~13);
    // pre-sizing keeps steady-state replay off the heap.
    heldLocks_.reserve(32);
}

cpu::WorkItem
ServerProcess::baseWork(std::uint64_t instr) const
{
    cpu::WorkItem wi;
    wi.instructions = instr;
    wi.mode = mem::ExecMode::User;
    wi.codeBase = mem::addrmap::dbCodeBase;
    wi.codeBytes = mem::addrmap::dbCodeBytes;
    wi.privateBase = privateBase();
    wi.privateBytes = mem::addrmap::pgaHotBytes;
    wi.sharedBase = mem::addrmap::dbSharedBase;
    wi.sharedBytes = mem::addrmap::dbSharedBytes;
    // SQL-machinery mix: session state and the shared pool; lighter
    // post-L1 traffic than block operations.
    wi.privateWeight = 0.70f;
    wi.sharedWeight = 0.30f;
    wi.frameWeight = 0.0f;
    wi.dataRateScale = 0.6f;
    return wi;
}

os::NextAction
ServerProcess::next(os::System &sys)
{
    if (!txnActive_) {
        // Each transaction is submitted against a uniformly chosen
        // warehouse, spanning the whole database as W scales — the
        // working-set growth at the heart of the study. Shared rows
        // (warehouse/district) collide at small W, producing the
        // contention spike of Figure 8.
        const auto w = static_cast<std::uint32_t>(
            rng_.below(db_.schema().warehouses()));
        planner_.planRandom(rng_, w, trace_);
        pc_ = 0;
        txnActive_ = true;
        txnStart_ = sys.now();
        resume_ = Resume::None;
        odbsim_assert(heldLocks_.empty(),
                      "locks leaked across transactions");
    }

    odbsim_assert(pc_ < trace_.actions.size(), "trace overrun");
    const Action &a = trace_.actions[pc_];
    switch (a.kind()) {
      case ActionKind::Lock:
        return replayLock(a);
      case ActionKind::Unlock:
        return replayUnlock(sys, a);
      case ActionKind::Touch:
        return replayTouch(sys, a);
      case ActionKind::Compute:
        return replayCompute(a);
      case ActionKind::Commit:
        return replayCommit(sys);
    }
    odbsim_panic("unreachable action kind");
}

os::NextAction
ServerProcess::replayLock(const Action &a)
{
    os::NextAction out;
    const auto &costs = db_.costs();

    if (resume_ == Resume::LockGranted) {
        resume_ = Resume::None;
        // Woken by the previous holder; the lock is ours now.
        heldLocks_.push_back(pendingLock_);
        ++pc_;
        out.work = baseWork(500); // Post-wake bookkeeping.
        out.after = os::NextAction::After::Continue;
        return out;
    }

    out.work = baseWork(costs.lockInstr);
    out.work.addRef(mem::addrmap::lockTableBase +
                        (a.target * 0x9e3779b97f4a7c15ULL) %
                            mem::addrmap::lockTableBytes,
                    64, true);
    if (db_.locks().acquire(this, a.target)) {
        heldLocks_.push_back(a.target);
        ++pc_;
        out.after = os::NextAction::After::Continue;
    } else {
        pendingLock_ = a.target;
        resume_ = Resume::LockGranted;
        out.after = os::NextAction::After::Block;
    }
    return out;
}

os::NextAction
ServerProcess::replayUnlock(os::System &sys, const Action &a)
{
    os::NextAction out;
    const auto it =
        std::find(heldLocks_.begin(), heldLocks_.end(), a.target);
    odbsim_assert(it != heldLocks_.end(),
                  "unlock of a lock that is not held");
    heldLocks_.erase(it);
    db_.locks().release(this, a.target, sys);
    out.work = baseWork(db_.costs().lockInstr / 2);
    ++pc_;
    out.after = os::NextAction::After::Continue;
    return out;
}

os::NextAction
ServerProcess::replayTouch(os::System &sys, const Action &a)
{
    os::NextAction out;
    const auto &costs = db_.costs();
    db::BufferCache &bc = db_.bufferCache();
    const db::BlockId block = a.target;
    const bool modify = a.touch() == TouchKind::HeapModify;

    std::uint64_t frame;
    if (resume_ == Resume::FillDone) {
        // The DMA landed while we slept; the frame is ours.
        resume_ = Resume::None;
        bc.fillComplete(pendingFrame_);
        frame = pendingFrame_;
    } else {
        const db::BufferLookup hit = bc.lookup(block);
        if (!hit.hit) {
            const db::BufferVictim victim = bc.allocate(block);
            if (victim.wasDirty)
                db_.dbwr().enqueueEvicted(victim.evictedBlock);
            if (a.fresh()) {
                // Freshly formatted extent block (undo, append ring):
                // no read from disk is needed, just a frame.
                bc.fillComplete(victim.frame);
                frame = victim.frame;
            } else {
                // Sleep until the disk read DMAs in.
                pendingFrame_ = victim.frame;
                resume_ = Resume::FillDone;
                sys.chargeKernel(this, sys.kernelCosts().ioSubmitInstr);
                sys.diskReadForProcess(this, block,
                                       bc.frameAddr(victim.frame),
                                       db::blockBytes);
                out.work = baseWork(costs.bufferMissInstr);
                out.work.addRef(bc.metaAddr(block), 64, true);
                out.after = os::NextAction::After::Block;
                return out;
            }
        } else {
            frame = hit.frame;
        }
    }

    // The block is resident: buffer get plus row/index work.
    std::uint64_t instr = costs.bufferGetInstr + a.instr;
    const Addr base = bc.frameAddr(frame);
    out.work = baseWork(instr);
    out.work.extraCycles = costs.bufferGetExtraCycles;
    // Intra-block traffic (slot directory, neighbouring rows).
    // Intra-block references concentrate on the header / row
    // directory quarter of the block.
    out.work.frameAddr = base;
    out.work.frameBytes = 2048;
    out.work.privateWeight = 0.40f;
    out.work.sharedWeight = 0.15f;
    out.work.frameWeight = 0.45f;
    out.work.dataRateScale = 1.0f;
    out.work.addRef(bc.metaAddr(block), 64, false);

    switch (a.touch()) {
      case TouchKind::HeapRead:
        out.work.instructions += costs.rowAccessInstr;
        // Block header + the row itself.
        out.work.addRef(base, 64, false);
        out.work.addRef(base + a.offset(),
                        std::max<std::uint32_t>(a.bytes(), 64), false);
        break;
      case TouchKind::HeapModify:
        out.work.instructions +=
            costs.rowAccessInstr + costs.rowModifyInstr;
        out.work.addRef(base, 64, true);
        out.work.addRef(base + a.offset(),
                        std::max<std::uint32_t>(a.bytes(), 64), true);
        break;
      case TouchKind::IndexNode:
        out.work.instructions += costs.indexNodeInstr;
        // Binary-search top of the node (deterministic, hot) plus the
        // key-dependent entry.
        out.work.addRef(base + 4032, 128, false);
        out.work.addRef(base + a.offset(), 64, false);
        break;
    }
    if (modify && !bc.isDirty(frame)) {
        // First modification since the last write-back: register the
        // block on DBWR's checkpoint queue.
        bc.markDirty(frame);
        db_.dbwr().noteDirty(block, sys.now());
    }
    ++pc_;
    out.after = os::NextAction::After::Continue;
    return out;
}

os::NextAction
ServerProcess::replayCompute(const Action &a)
{
    os::NextAction out;
    out.work = baseWork(a.instr);
    ++pc_;
    out.after = os::NextAction::After::Continue;
    return out;
}

os::NextAction
ServerProcess::replayCommit(os::System &sys)
{
    os::NextAction out;
    const auto &costs = db_.costs();

    if (trace_.logBytes > 0 && resume_ != Resume::Flushed) {
        // Copy redo into the log buffer and wait for the group flush.
        const double kb = static_cast<double>(trace_.logBytes) / 1024.0;
        out.work = baseWork(static_cast<std::uint64_t>(
            kb * static_cast<double>(costs.logCopyInstrPerKb)));
        out.work.addRef(mem::addrmap::logBufferBase +
                            (sys.now() / 64 * 64) %
                                mem::addrmap::logBufferBytes,
                        std::min<std::uint32_t>(trace_.logBytes, 8192),
                        true);
        resume_ = Resume::Flushed;
        db_.log().requestCommit(this, trace_.logBytes);
        out.after = os::NextAction::After::Block;
        return out;
    }

    // Durable (or read-only): release locks, finish the transaction.
    resume_ = Resume::None;
    db_.locks().releaseAll(this, heldLocks_, sys);
    out.work = baseWork(3000);
    txnActive_ = false;
    workload_.recordCommit(trace_.type, sys.now() - txnStart_);
    out.after = os::NextAction::After::Continue;
    return out;
}

} // namespace odbsim::odb
