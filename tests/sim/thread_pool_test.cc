/**
 * @file
 * Tests for the work-stealing worker pool: submit/futures, parallelFor
 * coverage and blocking semantics, exception propagation (including
 * under stealing), nested submission from worker tasks, priorities,
 * steal-order independence, shutdown semantics, and a many-round churn
 * case the TSan CI job uses to race-check the deque/injection paths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/thread_pool.hh"

namespace
{

using namespace odbsim;

/** Pure per-index value for the determinism checks. */
std::uint64_t
mixIndex(std::size_t i)
{
    std::uint64_t x = static_cast<std::uint64_t>(i) +
                      0x9e3779b97f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return x;
}

TEST(ThreadPool, SizeDefaultsToAtLeastOne)
{
    ThreadPool pool(0); // 0 = hardware concurrency, clamped to >= 1
    EXPECT_GE(pool.size(), 1u);
    ThreadPool fixed(3);
    EXPECT_EQ(fixed.size(), 3u);
}

TEST(ThreadPool, SubmitReturnsResultThroughFuture)
{
    ThreadPool pool(2);
    auto f = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 200;
    std::vector<int> hits(n, 0); // distinct slots: no data race
    pool.parallelFor(n, [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n));
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ParallelForBlocksUntilAllTasksComplete)
{
    ThreadPool pool(3);
    std::atomic<int> done{0};
    pool.parallelFor(64, [&](std::size_t) {
        done.fetch_add(1, std::memory_order_relaxed);
    });
    // parallelFor returned, so every task must have finished.
    EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexedException)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.parallelFor(32, [&](std::size_t i) {
            if (i == 5 || i == 20)
                throw std::invalid_argument(std::to_string(i));
            completed.fetch_add(1, std::memory_order_relaxed);
        });
        FAIL() << "expected an exception";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "5"); // lowest failing index wins
    }
    // No partial cancellation: every non-throwing task still ran.
    EXPECT_EQ(completed.load(), 30);
}

TEST(ThreadPool, PoolIsReusableAcrossRounds)
{
    ThreadPool pool(2);
    std::atomic<long> sum{0};
    for (int round = 0; round < 5; ++round)
        pool.parallelFor(10, [&](std::size_t i) {
            sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
        });
    EXPECT_EQ(sum.load(), 5 * 45);
    // And submit() still works after parallelFor rounds.
    EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1); // single worker: tasks queue up
        for (int i = 0; i < 20; ++i)
            pool.submit([&] { ran.fetch_add(1); });
    } // destructor joins after the queue drains
    EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, CurrentIsSetOnWorkersOnly)
{
    ThreadPool pool(2);
    EXPECT_EQ(ThreadPool::current(), nullptr);
    auto f = pool.submit([&] { return ThreadPool::current() == &pool; });
    EXPECT_TRUE(f.get());
    EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(ThreadPool, NestedParallelForFromWorkerTask)
{
    ThreadPool pool(2);
    constexpr std::size_t n = 128;
    std::vector<std::uint64_t> out(n, 0);
    auto f = pool.submit([&] {
        // The calling worker claims indices inline and helps, so this
        // completes even if every peer is busy.
        pool.parallelFor(n, [&](std::size_t i) { out[i] = mixIndex(i); });
        return 7;
    });
    EXPECT_EQ(f.get(), 7);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], mixIndex(i)) << "index " << i;
}

TEST(ThreadPool, NestedParallelForOnSingleWorkerPool)
{
    // One worker, zero idle peers: the nested loop must run entirely
    // inline on the submitting worker (the deadlock case for a
    // blocking-wait pool).
    ThreadPool pool(1);
    std::atomic<int> hits{0};
    pool.submit([&] {
            pool.parallelFor(32, [&](std::size_t) {
                hits.fetch_add(1, std::memory_order_relaxed);
            });
        })
        .get();
    EXPECT_EQ(hits.load(), 32);
}

TEST(ThreadPool, DeeplyNestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> leaf{0};
    pool.submit([&] {
            pool.parallelFor(4, [&](std::size_t) {
                pool.parallelFor(4, [&](std::size_t) {
                    leaf.fetch_add(1, std::memory_order_relaxed);
                });
            });
        })
        .get();
    EXPECT_EQ(leaf.load(), 16);
}

TEST(ThreadPool, NestedParallelForPropagatesExceptionUnderStealing)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    auto f = pool.submit([&]() -> int {
        pool.parallelFor(128, [&](std::size_t i) {
            if (i == 17)
                throw std::invalid_argument("17");
            completed.fetch_add(1, std::memory_order_relaxed);
        });
        return 0;
    });
    EXPECT_THROW(f.get(), std::invalid_argument);
    EXPECT_EQ(completed.load(), 127); // no partial cancellation
}

TEST(ThreadPool, CollectByIndexIsIdenticalAcrossPoolSizes)
{
    constexpr std::size_t n = 512;
    std::vector<std::uint64_t> ref(n);
    for (std::size_t i = 0; i < n; ++i)
        ref[i] = mixIndex(i);
    // Different worker counts steal in different orders; collecting by
    // index must erase that (the pool's determinism contract).
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
        ThreadPool pool(threads);
        std::vector<std::uint64_t> got(n, 0);
        pool.parallelFor(n, [&](std::size_t i) { got[i] = mixIndex(i); });
        EXPECT_EQ(got, ref) << "threads=" << threads;
    }
}

TEST(ThreadPool, ChurnThousandsOfRoundsStaysCoherent)
{
    // The CI TSan job runs this via its ThreadPool filter: 3000 rounds
    // of mixed submit/parallelFor churn over one pool race-checks the
    // deque push/pop/steal and injection handoff paths.
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    for (int round = 0; round < 3000; ++round) {
        if ((round & 63) == 0)
            EXPECT_EQ(pool.submit([round] { return round; }).get(),
                      round);
        pool.parallelFor(8, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(sum.load(), 3000ull * 36);
}

TEST(HostParallelFor, JobCountNeverChangesResults)
{
    constexpr std::size_t n = 200;
    std::vector<std::uint64_t> ref(n);
    for (std::size_t i = 0; i < n; ++i)
        ref[i] = mixIndex(i);
    for (unsigned jobs : {0u, 1u, 2u, 5u}) {
        std::vector<std::uint64_t> got(n, 0);
        hostParallelFor(jobs, n,
                        [&](std::size_t i) { got[i] = mixIndex(i); });
        EXPECT_EQ(got, ref) << "jobs=" << jobs;
    }
}

TEST(HostParallelFor, NestsOnTheCurrentPoolFromAWorker)
{
    ThreadPool pool(2);
    constexpr std::size_t n = 64;
    std::vector<std::uint64_t> got(n, 0);
    pool.submit([&] {
            // On a worker, hostParallelFor must become nested tasks on
            // that pool rather than spawning a transient one.
            hostParallelFor(4, n,
                            [&](std::size_t i) { got[i] = mixIndex(i); });
        })
        .get();
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], mixIndex(i)) << "index " << i;
}

TEST(ThreadPoolDeathTest, SubmitAfterShutdownIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ThreadPool pool(1);
            pool.shutdown();
            pool.submit([] {});
        },
        ::testing::ExitedWithCode(1), "submit after shutdown");
}

TEST(ThreadPool, ShutdownIsIdempotentAndStopsWorkers)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.parallelFor(16, [&](std::size_t) { ran.fetch_add(1); });
    pool.shutdown();
    pool.shutdown(); // second call is a no-op
    EXPECT_EQ(ran.load(), 16);
}

} // namespace
