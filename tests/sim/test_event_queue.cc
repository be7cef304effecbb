/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, same-tick FIFO,
 * slot recycling, run limits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace
{

using namespace odbsim;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, AdvancesCurTickToEventTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(42, [&] { seen = eq.curTick(); });
    eq.runAll();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(10, [&] {
        eq.scheduleAfter(5, [&] { seen = eq.curTick(); });
    });
    eq.runAll();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, RunStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.run(20);
    EXPECT_EQ(fired, 2); // Events at the limit fire.
    EXPECT_EQ(eq.curTick(), 20u);
    eq.runAll();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunToLimitAdvancesTimeEvenWithoutEvents)
{
    EventQueue eq;
    eq.run(1000);
    EXPECT_EQ(eq.curTick(), 1000u);
}

TEST(EventQueue, EventsScheduledDuringEventsFire)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            eq.scheduleAfter(1, recurse);
    };
    eq.schedule(0, recurse);
    eq.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.curTick(), 4u);
}

TEST(EventQueue, CountsFiredEvents)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [] {});
    eq.runAll();
    EXPECT_EQ(eq.eventsFired(), 10u);
}

// Release builds clamp a past tick to curTick(); debug builds panic.
// NDEBUG selects which contract this binary can observe.
#ifdef NDEBUG
TEST(EventQueue, ScheduleInPastClampsToNowInRelease)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] {
        order.push_back(1);
        // Tick 40 is already in the past: fires at curTick()=100,
        // after everything already pending at this tick.
        eq.schedule(40, [&] { order.push_back(3); });
    });
    eq.schedule(100, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 100u);
}
#else
TEST(EventQueueDeathTest, ScheduleInPastPanicsInDebug)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.schedule(100, [] {});
            eq.runAll(); // curTick is now 100
            eq.schedule(40, [] {});
        },
        "scheduled in the past");
}
#endif

TEST(EventQueue, LargeCaptureFallsBackToHeapAndStillFires)
{
    // A capture bigger than the inline callback buffer exercises the
    // SmallFunction heap path end to end through schedule/fire.
    struct Big
    {
        std::uint64_t payload[40]; // 320 bytes > smallCallbackBytes
    };
    static_assert(sizeof(Big) > EventQueue::smallCallbackBytes);
    EventQueue eq;
    Big big{};
    big.payload[0] = 7;
    big.payload[39] = 11;
    std::uint64_t sum = 0;
    eq.schedule(5, [big, &sum] { sum = big.payload[0] + big.payload[39]; });
    eq.runAll();
    EXPECT_EQ(sum, 18u);
}

/**
 * Stress: random schedule/step churn checked against a naive
 * reference model. Catches slot-recycling bugs the targeted tests
 * above can miss.
 */
TEST(EventQueue, ChurnMatchesNaiveReferenceModel)
{
    EventQueue eq;
    std::vector<std::pair<Tick, int>> expected; // (when, id) of events
    std::vector<std::pair<Tick, int>> fired;

    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };

    int id = 0;
    for (int round = 0; round < 2000; ++round) {
        const std::uint64_t r = next();
        const Tick when = eq.curTick() + (next() % 50);
        const int my_id = id++;
        eq.schedule(when, [&fired, &eq, my_id] {
            fired.emplace_back(eq.curTick(), my_id);
        });
        expected.emplace_back(when, my_id);
        if (r % 7 == 0)
            eq.step();
    }
    eq.runAll();

    // Model: every event fires exactly once, in
    // (when, schedule-order) order. Ids are assigned in schedule
    // order, so sorting the schedules by (when, id) yields
    // the exact expected firing sequence — schedule() only accepts
    // when >= curTick, so no later schedule can jump ahead of an
    // earlier one at the same tick.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         if (a.first != b.first)
                             return a.first < b.first;
                         return a.second < b.second;
                     });
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ScheduleAtNowFiresImmediately)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runAll(); // curTick = 100
    int fired = 0;
    eq.schedule(eq.curTick(), [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 100u);
}

TEST(EventQueue, FarFutureEventsFireInTimeOrder)
{
    // Events hundreds of simulated seconds apart fire in time order
    // and move curTick all the way out.
    EventQueue eq;
    std::vector<int> order;
    const Tick horizon = Tick{1} << 50;
    eq.schedule(3 * horizon + 17, [&] { order.push_back(3); });
    eq.schedule(horizon + 5, [&] { order.push_back(2); });
    eq.schedule(42, [&] { order.push_back(1); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 3 * horizon + 17);
}

TEST(EventQueue, FarFutureSameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick when = (Tick{1} << 50) * 2 + 9;
    for (int i = 0; i < 8; ++i)
        eq.schedule(when, [&order, i] { order.push_back(i); });
    eq.runAll();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SameTickFifoAcrossEarlyAndLateSchedules)
{
    // Event 0 is scheduled far ahead; event 1 targets the same tick
    // but is scheduled just before it, from inside another event.
    // FIFO demands schedule order — the early-scheduled event first.
    EventQueue eq;
    std::vector<int> order;
    const Tick when = 100'000;
    eq.schedule(when, [&] { order.push_back(0); });
    eq.schedule(when - 50, [&] {
        eq.schedule(when, [&] { order.push_back(1); });
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, ScheduleAfterIdleAdvanceLandsCorrectly)
{
    // run(limit) past the last event moves curTick with nothing to
    // fire; the next schedules must still land relative to it.
    EventQueue eq;
    eq.run(123'456'789);
    EXPECT_EQ(eq.curTick(), 123'456'789u);
    std::vector<int> order;
    eq.schedule(eq.curTick() + 1, [&] { order.push_back(1); });
    eq.schedule(eq.curTick() + 5000, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/** Property: N randomly-ordered events fire in nondecreasing time. */
class EventQueueOrderProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(EventQueueOrderProperty, MonotoneFiringTimes)
{
    EventQueue eq;
    std::vector<Tick> fired_at;
    std::uint64_t x = static_cast<std::uint64_t>(GetParam()) * 2654435761u;
    for (int i = 0; i < 200; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Tick when = (x >> 33) % 1000;
        eq.schedule(when, [&fired_at, &eq] {
            fired_at.push_back(eq.curTick());
        });
    }
    eq.runAll();
    ASSERT_EQ(fired_at.size(), 200u);
    for (std::size_t i = 1; i < fired_at.size(); ++i)
        EXPECT_LE(fired_at[i - 1], fired_at[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrderProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

} // namespace
