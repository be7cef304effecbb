/**
 * @file
 * Action traces: the bridge between functional planning and timed
 * replay (DESIGN.md, "plan-then-replay").
 *
 * A transaction planner executes the transaction's logic against the
 * schema functionally and records an ActionTrace; the server process
 * then replays the trace under the discrete-event clock, where buffer
 * cache lookups, lock acquisition, disk reads and the commit's log
 * flush happen with real timing and real blocking.
 */

#ifndef ODBSIM_DB_TRACE_HH
#define ODBSIM_DB_TRACE_HH

#include <cstdint>
#include <vector>

#include "db/types.hh"
#include "sim/logging.hh"

namespace odbsim::db
{

/** What a replayed step does. */
enum class ActionKind : std::uint8_t
{
    /** Acquire the exclusive row lock `target` (may block). */
    Lock,
    /** Release the row lock `target` before commit (early release,
     *  used for short block-contention critical sections). */
    Unlock,
    /** Access `block`: buffer-cache get + row/index work. */
    Touch,
    /** Pure computation (SQL execution machinery). */
    Compute,
    /** Commit: redo copy + group-commit flush + lock release. */
    Commit,
};

/** How a Touch accesses its block (sets the instruction cost). */
enum class TouchKind : std::uint8_t
{
    HeapRead,
    HeapModify,
    IndexNode,
};

/**
 * One replayable step, packed to 16 bytes: the kind/touch/fresh flags
 * and the intra-block offset and byte count (both < blockBytes, so 13
 * bits each) share one 32-bit meta word. Replay iterates millions of
 * these back to back, so four actions per cache line instead of two
 * measurably trims the trace walk, and the packing halves what the
 * recycled per-process trace buffers hold resident.
 */
struct Action
{
    /** Block id (Touch) or lock key (Lock). */
    std::uint64_t target = 0;
    /** User instructions beyond the standard per-kind path. */
    std::uint32_t instr = 0;

    ActionKind
    kind() const
    {
        return static_cast<ActionKind>(meta_ & 0x7u);
    }
    TouchKind
    touch() const
    {
        return static_cast<TouchKind>((meta_ >> 3) & 0x3u);
    }
    /**
     * Touch only: the block need not be read from disk on a buffer
     * miss (freshly formatted extent blocks: undo, new appends).
     */
    bool fresh() const { return (meta_ >> 5) & 0x1u; }
    /** Data extent touched within the block. */
    std::uint32_t bytes() const { return (meta_ >> 6) & 0x1fffu; }
    /** Byte offset of the touched extent within the block. */
    std::uint32_t offset() const { return (meta_ >> 19) & 0x1fffu; }

    static Action
    lock(LockKey key)
    {
        Action a;
        a.meta_ = packMeta(ActionKind::Lock);
        a.target = key;
        return a;
    }

    static Action
    unlock(LockKey key)
    {
        Action a;
        a.meta_ = packMeta(ActionKind::Unlock);
        a.target = key;
        return a;
    }

    static Action
    touchHeap(BlockId b, std::uint16_t offset, std::uint16_t bytes,
              bool modify)
    {
        Action a;
        a.meta_ = packMeta(ActionKind::Touch,
                           modify ? TouchKind::HeapModify
                                  : TouchKind::HeapRead,
                           false, bytes, offset);
        a.target = b;
        return a;
    }

    static Action
    touchFresh(BlockId b, std::uint16_t offset, std::uint16_t bytes)
    {
        Action a;
        a.meta_ = packMeta(ActionKind::Touch, TouchKind::HeapModify,
                           true, bytes, offset);
        a.target = b;
        return a;
    }

    static Action
    touchIndex(BlockId b, std::uint16_t offset)
    {
        Action a;
        a.meta_ = packMeta(ActionKind::Touch, TouchKind::IndexNode,
                           false, 256, offset);
        a.target = b;
        return a;
    }

    static Action
    compute(std::uint32_t instr)
    {
        Action a;
        a.meta_ = packMeta(ActionKind::Compute);
        a.instr = instr;
        return a;
    }

    static Action
    commit()
    {
        Action a;
        a.meta_ = packMeta(ActionKind::Commit);
        return a;
    }

  private:
    static std::uint32_t
    packMeta(ActionKind kind, TouchKind touch = TouchKind::HeapRead,
             bool fresh = false, std::uint32_t bytes = 0,
             std::uint32_t offset = 0)
    {
        odbsim_assert(bytes < blockBytes && offset < blockBytes,
                      "touch extent outside the block: offset ", offset,
                      " bytes ", bytes);
        return static_cast<std::uint32_t>(kind) |
               (static_cast<std::uint32_t>(touch) << 3) |
               (static_cast<std::uint32_t>(fresh) << 5) | (bytes << 6) |
               (offset << 19);
    }

    /** kind:3 | touch:2 | fresh:1 | bytes:13 | offset:13. */
    std::uint32_t meta_ = static_cast<std::uint32_t>(ActionKind::Compute);
};
static_assert(sizeof(Action) == 16, "replay actions must stay packed");

/** The five ODB transaction types (TPC-C-like mix). */
enum class TxnType : std::uint8_t
{
    NewOrder,
    Payment,
    OrderStatus,
    Delivery,
    StockLevel,
    NumTypes,
};

constexpr unsigned numTxnTypes = static_cast<unsigned>(TxnType::NumTypes);

constexpr const char *
toString(TxnType t)
{
    switch (t) {
      case TxnType::NewOrder: return "new_order";
      case TxnType::Payment: return "payment";
      case TxnType::OrderStatus: return "order_status";
      case TxnType::Delivery: return "delivery";
      case TxnType::StockLevel: return "stock_level";
      default: return "?";
    }
}

/**
 * The inverse of one plan-time schema mutation.
 *
 * Plan-then-replay applies functional effects at plan time; to roll a
 * transaction back mid-replay, the planner's *value* adjustments must
 * be reversed so a retry replans against correct state. Reversal is
 * delta-based, not value-restore: concurrent transactions may have
 * planned against the same row since, and subtracting this
 * transaction's net delta leaves their effects intact. Sequence
 * allocations (order ids, history sequence, undo cursor) are
 * deliberately *not* reversed — committed databases show the same gaps
 * after rollbacks.
 *
 * No replay path rolls back today. The records stay because deleting
 * them measurably slowed set-up: without their small per-server
 * buffers in the allocator's cache, glibc returns the heap to the OS
 * after every grid point and the next point page-faults its tables
 * back in (EXPERIMENTS.md, "islands and faults deleted").
 */
struct PlanUndo
{
    enum class Kind : std::uint8_t
    {
        /** Reverse a net stock-quantity delta (restock included). */
        StockDelta,
        /** Reverse a customer-balance delta. */
        CustomerBalance,
        /** Reverse a warehouse YTD increment. */
        WarehouseYtd,
        /** Reverse a district YTD increment. */
        DistrictYtd,
        /** Remove the liveOrders entry of a never-created order. */
        EraseOrder,
        /** Restore the delivery cursor (guarded: only if no later
         *  delivery advanced it further). */
        DeliveryCursor,
    };

    Kind kind = Kind::StockDelta;
    std::uint32_t w = 0;
    std::uint32_t d = 0;
    /** Item (StockDelta), customer (CustomerBalance) or oid
     *  (EraseOrder / DeliveryCursor). */
    std::uint32_t a = 0;
    /** The delta to subtract back out. */
    double amount = 0.0;
};

/** A planned transaction, ready for timed replay. */
struct ActionTrace
{
    TxnType type = TxnType::NewOrder;
    std::uint32_t logBytes = 0;
    std::vector<Action> actions;
    /** Inverses of this plan's schema mutations, in apply order;
     *  rollback walks them back to front. */
    std::vector<PlanUndo> undo;

    /**
     * Begin a new transaction in this trace, retaining the action
     * buffer's capacity — a server process replans into the same
     * trace forever, so steady-state planning allocates nothing.
     */
    void
    reset(TxnType ty)
    {
        type = ty;
        logBytes = 0;
        actions.clear();
        undo.clear();
    }
};

} // namespace odbsim::db

#endif // ODBSIM_DB_TRACE_HH
