/**
 * @file
 * Unit tests of the discrete-event kernel: ordering, same-tick
 * arrivals, window re-bases and callback storage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "sim/eventq.hh"

using namespace fafnir;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(3); });
    eq.schedule(5, [&] { order.push_back(1); }, DramPriority);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(eq.now() + 5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, RunWithLimitStops)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, OneShotCallbacks)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(20, [&] { order.push_back(2); });
    eq.schedule(10, [&] { order.push_back(1); });
    // A one-shot may schedule further one-shots.
    eq.schedule(5, [&] {
        order.push_back(0);
        eq.schedule(15, [&] { order.push_back(9); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 9, 2}));
    EXPECT_EQ(eq.executedCount(), 4u);
}

TEST(EventQueue, PendingCountTracksState)
{
    EventQueue eq;
    EXPECT_EQ(eq.pendingCount(), 0u);
    eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pendingCount(), 2u);
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.run();
    EXPECT_EQ(eq.pendingCount(), 0u);
}

TEST(EventQueue, ManyEventsStress)
{
    EventQueue eq;
    std::uint64_t sum = 0;
    for (int i = 0; i < 10000; ++i)
        eq.schedule((i * 7919) % 100000 + 1, [&sum, i] { sum += i; });
    Tick last = 0;
    // Verify monotonic execution via a tracking one-shot chain.
    eq.run();
    (void)last;
    EXPECT_EQ(sum, 10000ull * 9999 / 2);
}

// The queue promises a total order over (tick, priority, insertion
// sequence). This pins it against a stable-sort reference with ticks
// spanning the near-future window and the far-future overflow heap, so
// neither structure may reorder ties.
TEST(EventQueue, DeterministicTotalOrder)
{
    EventQueue eq;
    struct Ref
    {
        Tick when;
        int pri;
        int id;
    };
    std::vector<Ref> ref;
    std::vector<int> fired;
    std::mt19937 rng(1234);
    const int prios[] = {DramPriority, DefaultPriority, 90};

    Tick last_now = 0;
    for (int id = 0; id < 2000; ++id) {
        const Tick when = 1 + rng() % 50000; // crosses the window edge
        const int pri = prios[rng() % 3];
        const auto record = [&fired, &eq, &last_now, id] {
            EXPECT_GE(eq.now(), last_now);
            last_now = eq.now();
            fired.push_back(id);
        };
        eq.schedule(when, record, pri);
        ref.push_back({when, pri, id});
    }
    eq.run();

    std::stable_sort(ref.begin(), ref.end(),
                     [](const Ref &a, const Ref &b) {
                         return a.when != b.when ? a.when < b.when
                                                 : a.pri < b.pri;
                     });
    std::vector<int> expected;
    for (const Ref &r : ref)
        expected.push_back(r.id);
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(eq.empty());
}

// Scheduling into the tick being drained must respect priority against
// the entries still pending at that tick.
TEST(EventQueue, SameTickScheduleDuringDrain)
{
    EventQueue eq;
    constexpr int kLowPriority = 90;
    std::vector<char> fired;
    eq.schedule(5, [&] { fired.push_back('b'); }, kLowPriority);
    eq.schedule(
        5,
        [&] {
            fired.push_back('a');
            // Outranks the pending low-priority entry at this tick.
            eq.schedule(
                eq.now(), [&] { fired.push_back('d'); }, DramPriority);
        },
        DefaultPriority);
    eq.run();
    EXPECT_EQ(fired, (std::vector<char>{'a', 'd', 'b'}));
}

// step() may pause between two entries of the same tick; entries added
// to that tick while paused still run, in order.
TEST(EventQueue, StepPausesWithinTick)
{
    EventQueue eq;
    std::vector<int> fired;
    eq.schedule(10, [&] { fired.push_back(1); });
    eq.schedule(10, [&] { fired.push_back(2); });
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(fired, (std::vector<int>{1}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.schedule(10, [&] { fired.push_back(3); });
    eq.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(eq.step());
}

// A chain that always schedules beyond the near-future window forces a
// window re-base per link; time must stay monotonic and no link lost.
TEST(EventQueue, CrossWindowChain)
{
    EventQueue eq;
    int links = 0;
    std::function<void()> next = [&] {
        if (++links < 50)
            eq.schedule(eq.now() + 20000, next);
    };
    eq.schedule(1, next);
    eq.run();
    EXPECT_EQ(links, 50);
    EXPECT_EQ(eq.now(), 1u + 49u * 20000u);
}

// advanceTo runs what is due, then moves the clock. Moved more than one
// window ahead of an idle queue, the clock leaves the near-future window
// behind; events scheduled afterwards must still fire in order at their
// ticks.
TEST(EventQueue, AdvanceToPastTheWindow)
{
    EventQueue eq;
    std::vector<Tick> fired;
    const auto record = [&] { fired.push_back(eq.now()); };
    eq.schedule(5, record);
    eq.schedule(50, record);
    eq.advanceTo(20);
    EXPECT_EQ(fired, (std::vector<Tick>{5}));
    EXPECT_EQ(eq.now(), 20u);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{5, 50}));

    fired.clear();
    const Tick far = 50 + 100000; // past the 16,384-tick window
    eq.advanceTo(far);
    EXPECT_EQ(eq.now(), far);
    for (const Tick delta : {7u, 0u, 3u, 40000u, 3u})
        eq.schedule(far + delta, record);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{far, far + 3, far + 3, far + 7,
                                        far + 40000}));
    EXPECT_TRUE(eq.empty());
}

// Callables larger than the node's inline storage take the heap
// fallback; the payload must arrive intact.
TEST(EventQueue, OversizedCallableFallsBackToHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 32> payload; // 256 B, over the inline cap
    std::iota(payload.begin(), payload.end(), 1);
    std::uint64_t got = 0;
    eq.schedule(10, [payload, &got] {
        got = std::accumulate(payload.begin(), payload.end(),
                              std::uint64_t(0));
    });
    eq.run();
    EXPECT_EQ(got, 32u * 33 / 2);
}

// Destroying a queue with un-fired one-shots (in the bucket window, in
// the far-future heap, and in a partially drained tick) must destroy
// their callables exactly once.
TEST(EventQueue, TeardownDestroysPendingOneShots)
{
    auto token = std::make_shared<int>(42);
    {
        EventQueue eq;
        eq.schedule(10, [token] {});
        eq.schedule(10, [token] {});
        eq.schedule(200000, [token] {}); // far-future heap
        ASSERT_TRUE(eq.step()); // leaves one entry of tick 10 in the cache
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}
