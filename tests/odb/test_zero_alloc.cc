/**
 * @file
 * Steady-state allocation tests for the database replay hot path: once
 * planning and replay reach their high-water working set, the flat
 * resident-block index, the lock table + pooled waiter queues, the
 * schema row-state maps and the recycled per-process ActionTrace must
 * never touch the heap again. Enforced two ways: through the
 * structures' own growth counters (mapAllocations(),
 * tableAllocations(), stateAllocations()), and — in non-sanitizer
 * builds — through a replaced global operator new that counts every
 * heap allocation across a steady-state planning loop.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <memory>

#include "../support/mini_odb.hh"
#include "db/buffer_cache.hh"
#include "db/database.hh"
#include "db/lock_manager.hh"
#include "db/trace.hh"
#include "odb/planner.hh"
#include "os/process.hh"
#include "os/system.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

// ASan ships its own operator new/delete interceptors; replacing them
// here would degrade its mismatch checking, so the strict global
// counter is compiled out and the strict test passes vacuously (the
// counter-based tests still run).
#if defined(__SANITIZE_ADDRESS__)
#define ODBSIM_TEST_COUNT_GLOBAL_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ODBSIM_TEST_COUNT_GLOBAL_NEW 0
#else
#define ODBSIM_TEST_COUNT_GLOBAL_NEW 1
#endif
#else
#define ODBSIM_TEST_COUNT_GLOBAL_NEW 1
#endif

namespace
{
std::atomic<std::uint64_t> g_newCalls{0};
} // namespace

#if ODBSIM_TEST_COUNT_GLOBAL_NEW
void *
operator new(std::size_t n)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
#endif // ODBSIM_TEST_COUNT_GLOBAL_NEW

namespace
{

using namespace odbsim;

TEST(ZeroAlloc, ActionIsPackedTo16Bytes)
{
    static_assert(sizeof(db::Action) == 16,
                  "replay actions must stay packed");
    EXPECT_EQ(sizeof(db::Action), 16u);
}

/**
 * Steady-state planning into a recycled trace is strictly
 * allocation-free: after a warm-up that reaches the schema maps' and
 * the trace buffer's high-water marks, thousands of further plans of
 * every transaction type perform zero heap allocations (and zero
 * growth events in the schema's flat row-state maps).
 */
TEST(ZeroAlloc, PlannerSteadyStateIsAllocationFree)
{
    test::MiniOdb rig(1, 2, 1);
    odb::TxnPlanner planner(rig.db, odb::TxnMix{});
    Rng rng(2003);
    db::ActionTrace trace;

    // Warm-up: populate the lazily-inserted schema row states (stock
    // quantities, customer balances) and grow the trace buffer to the
    // longest transaction's length. The row-state key domains are
    // bounded (every customer, every stock row), so planning until a
    // full round allocates nothing proves the maps reached their
    // lifetime capacity — not just a lull between rehashes.
    int rounds = 0;
    std::uint64_t schemaBefore, newBefore;
    do {
        schemaBefore = rig.db.schema().stateAllocations();
        newBefore = g_newCalls.load(std::memory_order_relaxed);
        for (int i = 0; i < 4000; ++i)
            planner.planRandom(rng, static_cast<std::uint32_t>(i % 2),
                               trace);
        ASSERT_LT(++rounds, 64)
            << "schema row-state maps never reached steady state";
    } while (rig.db.schema().stateAllocations() != schemaBefore ||
             g_newCalls.load(std::memory_order_relaxed) != newBefore);

    const std::uint64_t schemaAllocs = rig.db.schema().stateAllocations();
    const std::size_t traceCap = trace.actions.capacity();
    const std::uint64_t newCalls =
        g_newCalls.load(std::memory_order_relaxed);

    for (int i = 0; i < 4000; ++i)
        planner.planRandom(rng, static_cast<std::uint32_t>(i % 2),
                           trace);

    EXPECT_EQ(g_newCalls.load(std::memory_order_relaxed), newCalls)
        << "steady-state planning touched the heap";
    EXPECT_EQ(rig.db.schema().stateAllocations(), schemaAllocs);
    EXPECT_EQ(trace.actions.capacity(), traceCap);
    EXPECT_FALSE(trace.actions.empty());
}

/**
 * Steady-state replay through the full engine: after a warm-up
 * window, continued execution (buffer-cache misses and evictions,
 * lock contention with hand-offs, schema updates) must not advance
 * any of the hot-path structures' growth counters.
 */
TEST(ZeroAlloc, ReplaySteadyStateCountersStayFlat)
{
    test::MiniOdb rig(2, 2, 8);
    rig.sys.runFor(200 * tickPerMs);

    const std::uint64_t bufAllocs = rig.db.bufferCache().mapAllocations();
    const std::uint64_t lockAllocs = rig.db.locks().tableAllocations();
    const std::uint64_t schemaAllocs =
        rig.db.schema().stateAllocations();
    const std::uint64_t before = rig.workload.committed();

    rig.sys.runFor(300 * tickPerMs);

    EXPECT_GT(rig.workload.committed(), before); // Work really ran.
    EXPECT_EQ(rig.db.bufferCache().mapAllocations(), bufAllocs);
    EXPECT_EQ(rig.db.locks().tableAllocations(), lockAllocs);
    EXPECT_EQ(rig.db.schema().stateAllocations(), schemaAllocs);
}

/**
 * A full checkpoint cycle rides the same pooled queues as demand
 * traffic: once DBWR's urgent/checkpoint FIFOs and the per-drive disk
 * queues reach their high-water marks, continued dirtying, aging,
 * write-back and checkpoint drains never grow a pool — and the whole
 * stack (buffer index, lock table, schema row states) stays flat
 * alongside them.
 */
TEST(ZeroAlloc, CheckpointCycleKeepsWriterAndDiskPoolsFlat)
{
    db::DatabaseConfig dbcfg = test::miniDbConfig(2);
    // Age blocks out fast enough that the run below covers many full
    // dirty -> age -> write-back cycles.
    dbcfg.dbwr.checkpointAge = 20 * tickPerMs;
    test::MiniOdb rig(test::miniSystemConfig(2), dbcfg, 8);
    rig.sys.runFor(300 * tickPerMs);

    const std::uint64_t bufAllocs = rig.db.bufferCache().mapAllocations();
    const std::uint64_t lockAllocs = rig.db.locks().tableAllocations();
    const std::uint64_t schemaAllocs =
        rig.db.schema().stateAllocations();
    const std::uint64_t dbwrAllocs = rig.db.dbwr().queueAllocations();
    const std::uint64_t diskAllocs = rig.sys.disks().queueAllocations();
    const std::uint64_t writesBefore = rig.sys.disks().dataWrites();
    const std::uint64_t before = rig.workload.committed();

    rig.sys.runFor(300 * tickPerMs);

    EXPECT_GT(rig.workload.committed(), before);
    // Write-back really happened (the checkpoint queue drained to
    // disk), yet neither the DBWR FIFOs nor any drive queue grew.
    EXPECT_GT(rig.sys.disks().dataWrites(), writesBefore);
    EXPECT_EQ(rig.db.dbwr().queueAllocations(), dbwrAllocs);
    EXPECT_EQ(rig.sys.disks().queueAllocations(), diskAllocs);
    EXPECT_EQ(rig.db.bufferCache().mapAllocations(), bufAllocs);
    EXPECT_EQ(rig.db.locks().tableAllocations(), lockAllocs);
    EXPECT_EQ(rig.db.schema().stateAllocations(), schemaAllocs);
}

/**
 * Steady-state event scheduling is strictly allocation-free: once the
 * slab and the heap have reached their high-water marks, a
 * schedule-one/fire-one loop at constant population — mixing short,
 * mid-range and far-future delays — performs zero heap allocations.
 */
TEST(ZeroAlloc, EventQueueSteadyStateSchedulingIsAllocationFree)
{
    constexpr Tick farFuture = Tick{1} << 50;
    EventQueue eq;
    Rng rng(7);
    std::uint64_t sink = 0;
    auto delay = [&rng]() -> Tick {
        switch (rng.below(16)) {
          case 0:
            return farFuture + rng.below(1000);
          case 1:
          case 2:
            return rng.below(3'000'000) + 1;
          default:
            return rng.below(1'000) + 1;
        }
    };
    // Warm-up: a standing population of 2048 far-future events, plus
    // 1100 short ones fired at once, so the slab and the heap have
    // room for more than the measured loop's population.
    for (int i = 0; i < 2048; ++i)
        eq.scheduleAfter(farFuture + rng.below(1000), [&sink] { ++sink; });
    for (int i = 0; i < 1100; ++i)
        eq.scheduleAfter(rng.below(1'000) + 1, [&sink] { ++sink; });
    for (int i = 0; i < 1100; ++i)
        eq.step(); // Fire every short event; the far ones stay.
    ASSERT_EQ(eq.size(), 2048u);

    const std::uint64_t newBefore =
        g_newCalls.load(std::memory_order_relaxed);
    for (int i = 0; i < 100'000; ++i) {
        eq.scheduleAfter(delay(), [&sink] { ++sink; });
        eq.step();
    }
    EXPECT_EQ(g_newCalls.load(std::memory_order_relaxed), newBefore)
        << "steady-state event scheduling touched the heap";
    EXPECT_GT(sink, 0u);
    EXPECT_EQ(eq.size(), 2048u);
}

/** A process that parks forever (a lock-holder stand-in). */
class ParkedForever : public os::Process
{
  public:
    ParkedForever()
        : os::Process("parked")
    {}

    os::NextAction
    next(os::System &) override
    {
        os::NextAction act;
        act.after = os::NextAction::After::Block;
        return act;
    }
};

/**
 * Steady-state churn through the lock and buffer tables — contended
 * acquire/release rounds with FIFO hand-offs, and a miss/evict
 * reference stream — performs zero heap allocations once the tables,
 * the waiter pool and the scheduler's wake path have reached their
 * high-water marks.
 */
TEST(ZeroAlloc, LockAndBufferSteadyStateIsAllocationFree)
{
    os::SystemConfig cfg;
    cfg.numCpus = 1;
    cfg.core.samplePeriod = 16;
    cfg.disks.dataDisks = 1;
    cfg.disks.logDisks = 1;
    os::System sys(cfg);
    os::Process *p1 = sys.spawn(std::make_unique<ParkedForever>());
    os::Process *p2 = sys.spawn(std::make_unique<ParkedForever>());
    sys.runFor(tickPerMs); // Let both park.

    db::LockManager lm;
    db::BufferCache bc(64);
    Rng rng(11);
    std::uint64_t sink = 0;
    auto round = [&] {
        for (db::LockKey k = 0; k < 32; ++k)
            lm.acquire(p1, k);
        for (db::LockKey k = 0; k < 8; ++k)
            lm.acquire(p2, k); // Queued: exercises the waiter pool.
        for (db::LockKey k = 0; k < 32; ++k)
            lm.release(p1, k, sys);
        for (db::LockKey k = 0; k < 8; ++k)
            lm.release(p2, k, sys); // Handed off above; release again.
        for (int i = 0; i < 64; ++i) {
            const db::BlockId b = rng.below(256);
            if (!bc.lookup(b).hit) {
                const db::BufferVictim v = bc.allocate(b);
                bc.fillComplete(v.frame);
                sink += v.frame;
            }
        }
    };
    round(); // Reach the high-water population.

    const std::uint64_t tblBefore = lm.tableAllocations();
    const std::uint64_t mapBefore = bc.mapAllocations();
    const std::uint64_t newBefore =
        g_newCalls.load(std::memory_order_relaxed);
    for (int i = 0; i < 2000; ++i)
        round();
    EXPECT_EQ(g_newCalls.load(std::memory_order_relaxed), newBefore)
        << "steady-state lock/buffer churn touched the heap";
    EXPECT_EQ(lm.tableAllocations(), tblBefore);
    EXPECT_EQ(bc.mapAllocations(), mapBefore);
    EXPECT_EQ(lm.heldCount(), 0u);
    EXPECT_EQ(lm.waiterCount(), 0u);
    EXPECT_GT(sink, 0u);
}

/**
 * The buffer-cache index can never grow after construction, even from
 * a cold cache: residency is bounded by the frame count the map was
 * reserved for.
 */
TEST(ZeroAlloc, BufferCacheIndexReservedForFrameCount)
{
    test::MiniOdb rig(1, 2, 1);
    // instantWarm() filled the cache; the index must already be at its
    // lifetime allocation count with every frame occupied.
    const std::uint64_t allocs = rig.db.bufferCache().mapAllocations();
    rig.sys.runFor(100 * tickPerMs);
    EXPECT_EQ(rig.db.bufferCache().mapAllocations(), allocs);
}

/**
 * Instant warm-up makes a small constant number of heap allocations
 * whatever the frame count: the dedupe is a flat bitmap and the
 * hottest-first list is reserved once, so no per-block node container
 * can creep back in. Both frame counts are below the default schema's
 * warm set at 10 warehouses, so both warm-ups fill every frame.
 */
TEST(ZeroAlloc, InstantWarmAllocationsIndependentOfFrameCount)
{
    const auto warmAllocations = [](std::uint64_t frames) {
        db::DatabaseConfig cfg;
        cfg.schema.warehouses = 10;
        cfg.sgaFrames = frames;
        os::System sys(test::miniSystemConfig());
        db::Database db(sys, cfg);
        const std::uint64_t before =
            g_newCalls.load(std::memory_order_relaxed);
        db.instantWarm();
        const std::uint64_t calls =
            g_newCalls.load(std::memory_order_relaxed) - before;
        EXPECT_EQ(db.bufferCache().residentBlocks(), frames);
        return calls;
    };
    const std::uint64_t small = warmAllocations(4096);
    const std::uint64_t large = warmAllocations(65536);
    EXPECT_EQ(small, large);
    EXPECT_LE(large, 8u);
}

} // namespace
