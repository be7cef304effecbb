/**
 * @file
 * Tests for sim::PooledFifo — the pooled intrusive FIFO behind the
 * hot-path queues (disk read/write, DBWR urgent/checkpoint, scheduler
 * ready, lock waiters): FIFO semantics, node recycling without heap
 * growth, and the release of captured state on free.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "sim/pooled_fifo.hh"

namespace
{

using odbsim::sim::PooledFifo;

TEST(PooledFifo, StartsEmpty)
{
    PooledFifo<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.allocations(), 0u);
}

TEST(PooledFifo, FifoOrder)
{
    PooledFifo<int> q;
    for (int i = 0; i < 5; ++i)
        q.pushBack(i);
    EXPECT_EQ(q.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(q.popFront(), i);
    EXPECT_TRUE(q.empty());
}

TEST(PooledFifo, FrontPeeksWithoutPopping)
{
    PooledFifo<int> q;
    q.pushBack(7);
    q.pushBack(8);
    EXPECT_EQ(q.front(), 7);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.popFront(), 7);
    EXPECT_EQ(q.front(), 8);
}

TEST(PooledFifo, RecyclesNodesWithoutGrowing)
{
    PooledFifo<int> q;
    // Reach a high-water mark of 8 simultaneous nodes.
    for (int i = 0; i < 8; ++i)
        q.pushBack(i);
    while (!q.empty())
        q.popFront();
    const std::uint64_t allocs = q.allocations();

    // Steady-state churn below the high-water mark must not grow the
    // pool, regardless of interleaving.
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 8; ++i)
            q.pushBack(round * 8 + i);
        for (int i = 0; i < 8; ++i)
            q.popFront();
    }
    EXPECT_EQ(q.allocations(), allocs);
}

TEST(PooledFifo, ReserveFrontLoadsTheAllocations)
{
    PooledFifo<int> q;
    q.reserve(16);
    const std::uint64_t allocs = q.allocations();
    EXPECT_GT(allocs, 0u);
    for (int i = 0; i < 16; ++i)
        q.pushBack(i);
    EXPECT_EQ(q.allocations(), allocs);
}

TEST(PooledFifo, FreeingReleasesCapturedState)
{
    // Queue of callbacks holding shared state: recycling a node must
    // drop the captured copy (freeNode resets the value), or pooled
    // queues would pin resources until the node is reused.
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    PooledFifo<std::function<void()>> q;
    q.pushBack([token] { (void)token; });
    token.reset();
    EXPECT_FALSE(watch.expired()); // Held by the queued callback.
    q.popFront()();
    EXPECT_TRUE(watch.expired()) << "recycled node pinned its capture";
}

} // namespace
