/**
 * @file
 * Instruction-cost model of the database server's user-space code
 * paths. These constants set the user-space IPX (paper Figure 5,
 * roughly flat at ~1M instructions per transaction) and are the
 * counterpart of KernelCosts for ring 3.
 *
 * The dominant term is the per-SQL-statement execution overhead —
 * parse/bind/execute machinery of a commercial RDBMS — which dwarfs
 * the per-row work.
 */

#ifndef ODBSIM_DB_COST_MODEL_HH
#define ODBSIM_DB_COST_MODEL_HH

#include <cstdint>

namespace odbsim::db
{

/** User-space path lengths, in instructions. */
struct DbCostModel
{
    /** Fixed per-transaction cost: begin/commit, network round trips,
     *  client context. */
    std::uint64_t txnBaseInstr = 180000;
    /** Per SQL statement execution overhead. */
    std::uint64_t sqlStatementInstr = 30000;
    /** Buffer-cache get (hash probe, latch, pin) per block touch. */
    std::uint64_t bufferGetInstr = 1800;
    /** Extra path on a buffer-cache miss (grab frame, victim setup). */
    std::uint64_t bufferMissInstr = 5500;
    /** Row access within a block (slot directory walk, column copy). */
    std::uint64_t rowAccessInstr = 1200;
    /** Extra cost to modify a row (undo generation, redo build). */
    std::uint64_t rowModifyInstr = 2200;
    /** B-tree node traversal (binary search within a node). */
    std::uint64_t indexNodeInstr = 700;
    /** Lock manager acquire/release pair. */
    std::uint64_t lockInstr = 1500;
    /** Redo-copy cost per KB of log payload. */
    std::uint64_t logCopyInstrPerKb = 2500;
    /** LGWR per-flush cost. */
    std::uint64_t lgwrFlushInstr = 12000;
    /** DBWR per-block write-queue processing cost. */
    std::uint64_t dbwrPerBlockInstr = 2500;
    /** Latch-spin style extra cycles per buffer get ("Other" CPI). */
    double bufferGetExtraCycles = 250.0;
};

} // namespace odbsim::db

#endif // ODBSIM_DB_COST_MODEL_HH
