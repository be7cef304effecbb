/**
 * @file
 * Tests for sim::parallelFor: every index runs exactly once, results
 * collected by index do not depend on the job count, the lowest
 * failing index's exception reaches the caller, one thread runs
 * inline, and a many-round churn case the TSan CI job uses to
 * race-check the claim counter and the join.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel_for.hh"

namespace
{

using odbsim::sim::parallelFor;

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

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 200;
    std::vector<int> hits(n, 0); // distinct slots: no data race
    parallelFor(4, n, [&](std::size_t i) { hits[i] += 1; });
    // parallelFor returned, so every call has finished.
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n));
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, RethrowsLowestIndexedException)
{
    for (unsigned jobs : {1u, 4u}) {
        std::atomic<int> completed{0};
        try {
            parallelFor(jobs, 32, [&](std::size_t i) {
                if (i == 5 || i == 20)
                    throw std::invalid_argument(std::to_string(i));
                completed.fetch_add(1, std::memory_order_relaxed);
            });
            ADD_FAILURE() << "expected an exception, jobs=" << jobs;
        } catch (const std::invalid_argument &e) {
            EXPECT_STREQ(e.what(), "5") << "jobs=" << jobs;
        }
        // No partial cancellation: every non-throwing call still ran.
        EXPECT_EQ(completed.load(), 30) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, CollectByIndexIsIdenticalAcrossPoolSizes)
{
    constexpr std::size_t n = 512;
    std::vector<std::uint64_t> ref(n);
    for (std::size_t i = 0; i < n; ++i)
        ref[i] = mixIndex(i);
    // Different thread counts claim indices in different interleavings;
    // collecting by index must erase that.
    for (unsigned jobs : {1u, 2u, 3u, 4u, 0u}) {
        std::vector<std::uint64_t> got(n, 0);
        parallelFor(jobs, n, [&](std::size_t i) { got[i] = mixIndex(i); });
        EXPECT_EQ(got, ref) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, JobCountNeverChangesResults)
{
    // Loops no longer than the job count, including the empty one:
    // the thread count is clamped to n.
    for (std::size_t n : {0u, 1u, 3u}) {
        std::vector<std::uint64_t> ref(n);
        for (std::size_t i = 0; i < n; ++i)
            ref[i] = mixIndex(i);
        for (unsigned jobs : {0u, 1u, 2u, 5u, 8u}) {
            std::vector<std::uint64_t> got(n, 0);
            parallelFor(jobs, n,
                        [&](std::size_t i) { got[i] = mixIndex(i); });
            EXPECT_EQ(got, ref) << "n=" << n << " jobs=" << jobs;
        }
    }
}

TEST(ParallelFor, OneThreadRunsInlineAndJobsBoundTheThreads)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex m;
    std::set<std::thread::id> seen;
    const auto record = [&](std::size_t) {
        std::lock_guard<std::mutex> lock(m);
        seen.insert(std::this_thread::get_id());
    };

    parallelFor(1, 16, record); // jobs = 1: the caller's own loop
    EXPECT_EQ(seen, std::set<std::thread::id>{caller});

    seen.clear();
    parallelFor(4, 1, record); // clamped to n = 1: inline too
    EXPECT_EQ(seen, std::set<std::thread::id>{caller});

    seen.clear();
    parallelFor(3, 64, record);
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), 3u);
    EXPECT_EQ(seen.count(caller), 0u);
}

TEST(ParallelFor, ChurnRoundsStayCoherent)
{
    // The CI TSan job runs this via its ParallelFor filter: many short
    // rounds race-check the claim counter, the exception slot and the
    // join that publishes every write to the caller.
    std::atomic<std::uint64_t> sum{0};
    for (int round = 0; round < 200; ++round) {
        std::vector<std::uint64_t> slots(8, 0);
        parallelFor(4, slots.size(), [&](std::size_t i) {
            slots[i] = i + 1;
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(std::accumulate(slots.begin(), slots.end(),
                                  std::uint64_t{0}),
                  36u);
    }
    EXPECT_EQ(sum.load(), 200ull * 36);
}

} // namespace
