/**
 * @file
 * Unit tests of the discrete-event kernel: ordering, cancellation,
 * rescheduling and one-shot callbacks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
    Event a("a", [&] { order.push_back(1); });
    Event b("b", [&] { order.push_back(2); });
    Event c("c", [&] { order.push_back(3); });
    eq.schedule(c, 30);
    eq.schedule(a, 10);
    eq.schedule(b, 20);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    Event low("low", [&] { order.push_back(1); }, Event::DramPriority);
    Event mid1("mid1", [&] { order.push_back(2); });
    Event mid2("mid2", [&] { order.push_back(3); });
    eq.schedule(mid1, 5);
    eq.schedule(mid2, 5);
    eq.schedule(low, 5);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue eq;
    int fired = 0;
    Event e("e", [&] { ++fired; });
    eq.schedule(e, 10);
    EXPECT_TRUE(e.scheduled());
    eq.deschedule(e);
    EXPECT_FALSE(e.scheduled());
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<Tick> fire_ticks;
    Event e("e", [&] { fire_ticks.push_back(eq.now()); });
    eq.schedule(e, 10);
    eq.schedule(e, 50); // move it
    eq.run();
    EXPECT_EQ(fire_ticks, (std::vector<Tick>{50}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    Event second("second", [&] { ++fired; });
    Event first("first", [&] {
        ++fired;
        eq.schedule(second, eq.now() + 5);
    });
    eq.schedule(first, 1);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, RunWithLimitStops)
{
    EventQueue eq;
    int fired = 0;
    Event a("a", [&] { ++fired; });
    Event b("b", [&] { ++fired; });
    eq.schedule(a, 10);
    eq.schedule(b, 100);
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
    eq.scheduleFn(20, [&] { order.push_back(2); });
    eq.scheduleFn(10, [&] { order.push_back(1); });
    // A one-shot may schedule further one-shots.
    eq.scheduleFn(5, [&] {
        order.push_back(0);
        eq.scheduleFn(15, [&] { order.push_back(9); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 9, 2}));
    EXPECT_EQ(eq.executedCount(), 4u);
}

TEST(EventQueue, PendingCountTracksState)
{
    EventQueue eq;
    Event e("e", [] {});
    EXPECT_EQ(eq.pendingCount(), 0u);
    eq.schedule(e, 10);
    eq.scheduleFn(20, [] {});
    EXPECT_EQ(eq.pendingCount(), 2u);
    eq.deschedule(e);
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.run();
    EXPECT_EQ(eq.pendingCount(), 0u);
}

TEST(EventQueue, ManyEventsStress)
{
    EventQueue eq;
    std::uint64_t sum = 0;
    for (int i = 0; i < 10000; ++i)
        eq.scheduleFn((i * 7919) % 100000 + 1, [&sum, i] { sum += i; });
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
    std::vector<std::unique_ptr<Event>> events;
    std::mt19937 rng(1234);
    const int prios[] = {Event::DramPriority, Event::DefaultPriority,
                         Event::StatsPriority};

    Tick last_now = 0;
    for (int id = 0; id < 2000; ++id) {
        const Tick when = 1 + rng() % 50000; // crosses the window edge
        const int pri = prios[rng() % 3];
        const auto record = [&fired, &eq, &last_now, id] {
            EXPECT_GE(eq.now(), last_now);
            last_now = eq.now();
            fired.push_back(id);
        };
        if (rng() % 2 == 0) {
            eq.scheduleFn(when, record, pri);
        } else {
            events.push_back(
                std::make_unique<Event>("det", record, pri));
            eq.schedule(*events.back(), when);
        }
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

// Interleaved schedule/reschedule/deschedule against a reference model:
// pendingCount() must track live entries exactly, staleCount() must stay
// bounded by the compaction policy, and the surviving entries must fire
// in (tick, priority, last-schedule order).
TEST(EventQueue, ChurnStressMatchesReference)
{
    EventQueue eq;
    constexpr int kEvents = 24;
    std::vector<int> fired;
    std::vector<std::unique_ptr<Event>> events;
    const int prios[] = {Event::DramPriority, Event::DefaultPriority,
                         Event::StatsPriority};
    for (int i = 0; i < kEvents; ++i) {
        events.push_back(std::make_unique<Event>(
            "churn", [&fired, i] { fired.push_back(i); },
            prios[i % 3]));
    }

    struct Ref
    {
        Tick when;
        int pri;
        std::uint64_t seq;
        int id;
    };
    // Model state: the live entry per event, keyed by last schedule.
    std::array<Ref, kEvents> live;
    std::array<bool, kEvents> alive{};
    std::vector<Ref> oneshots;
    std::uint64_t seq = 0;
    std::size_t model_pending = 0;

    std::mt19937 rng(99);
    int oneshot_id = kEvents;
    for (int op = 0; op < 4000; ++op) {
        const int i = static_cast<int>(rng() % kEvents);
        const Tick when = 1 + rng() % 30000;
        switch (rng() % 4) {
        case 0:
        case 1: // schedule or reschedule
            if (!alive[i])
                ++model_pending;
            alive[i] = true;
            live[i] = {when, events[i]->priority(), seq++, i};
            eq.schedule(*events[i], when);
            break;
        case 2: // deschedule (may be a no-op)
            if (alive[i]) {
                alive[i] = false;
                --model_pending;
            }
            eq.deschedule(*events[i]);
            break;
        case 3: { // one-shot
            const int id = oneshot_id++;
            oneshots.push_back(
                {when, Event::DefaultPriority, seq++, id});
            eq.scheduleFn(when, [&fired, id] { fired.push_back(id); });
            ++model_pending;
            break;
        }
        }
        ASSERT_EQ(eq.pendingCount(), model_pending);
        // Compaction keeps stale entries below max(63, live).
        ASSERT_LE(eq.staleCount(),
                  std::max<std::size_t>(63, eq.pendingCount()));
    }

    std::vector<Ref> expected_entries = oneshots;
    for (int i = 0; i < kEvents; ++i) {
        if (alive[i])
            expected_entries.push_back(live[i]);
    }
    std::sort(expected_entries.begin(), expected_entries.end(),
              [](const Ref &a, const Ref &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.pri != b.pri)
                      return a.pri < b.pri;
                  return a.seq < b.seq;
              });
    std::vector<int> expected;
    for (const Ref &r : expected_entries)
        expected.push_back(r.id);

    eq.run();
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingCount(), 0u);
    // A full drain also reclaims every stale entry.
    EXPECT_EQ(eq.staleCount(), 0u);
}

// Scheduling into the tick being drained must respect priority against
// the entries still pending at that tick, and a deschedule during the
// drain must cancel a not-yet-fired same-tick entry.
TEST(EventQueue, SameTickScheduleAndCancelDuringDrain)
{
    EventQueue eq;
    std::vector<char> fired;
    Event b("b", [&] { fired.push_back('b'); }, Event::StatsPriority);
    Event c("c", [&] { fired.push_back('c'); }, Event::StatsPriority);
    Event a(
        "a",
        [&] {
            fired.push_back('a');
            eq.deschedule(c);
            // Outranks the pending StatsPriority entries at this tick.
            eq.scheduleFn(
                eq.now(), [&] { fired.push_back('d'); },
                Event::DramPriority);
        },
        Event::DefaultPriority);
    eq.schedule(b, 5);
    eq.schedule(c, 5);
    eq.schedule(a, 5);
    eq.run();
    EXPECT_EQ(fired, (std::vector<char>{'a', 'd', 'b'}));
}

// step() may pause between two entries of the same tick; entries added
// to that tick while paused still run, in order.
TEST(EventQueue, StepPausesWithinTick)
{
    EventQueue eq;
    std::vector<int> fired;
    eq.scheduleFn(10, [&] { fired.push_back(1); });
    eq.scheduleFn(10, [&] { fired.push_back(2); });
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(fired, (std::vector<int>{1}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.scheduleFn(10, [&] { fired.push_back(3); });
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
            eq.scheduleFn(eq.now() + 20000, next);
    };
    eq.scheduleFn(1, next);
    eq.run();
    EXPECT_EQ(links, 50);
    EXPECT_EQ(eq.now(), 1u + 49u * 20000u);
}

// Callables larger than the node's inline storage take the heap
// fallback; the payload must arrive intact.
TEST(EventQueue, OversizedCallableFallsBackToHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 32> payload; // 256 B, over the inline cap
    std::iota(payload.begin(), payload.end(), 1);
    std::uint64_t got = 0;
    eq.scheduleFn(10, [payload, &got] {
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
        eq.scheduleFn(10, [token] {});
        eq.scheduleFn(10, [token] {});
        eq.scheduleFn(200000, [token] {}); // far-future heap
        ASSERT_TRUE(eq.step()); // leaves one entry of tick 10 in the cache
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}
