/**
 * @file
 * Fault-injection plan tests: determinism, zero-overhead disabled
 * hooks, configured firing rates, spec parsing, suspension, and the
 * event-queue perturbation hooks.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/faultinject.hh"
#include "sim/eventq.hh"

using namespace fafnir;

namespace
{

/** Draw @p n shouldFire decisions for @p hook. */
std::vector<bool>
drawSchedule(fault::FaultPlan &plan, fault::Hook hook, std::size_t n)
{
    std::vector<bool> schedule;
    schedule.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        schedule.push_back(plan.shouldFire(hook));
    return schedule;
}

} // namespace

TEST(FaultPlan, SameSeedSameSchedule)
{
    const std::string spec =
        "dram_latency:0.1,event_delay:0.25,pool_exhaust:0.5";
    fault::FaultPlan a = fault::FaultPlan::parse(spec, 42);
    fault::FaultPlan b = fault::FaultPlan::parse(spec, 42);

    for (fault::Hook hook : {fault::Hook::DramLatency,
                             fault::Hook::EventDelay,
                             fault::Hook::PoolExhaust}) {
        EXPECT_EQ(drawSchedule(a, hook, 10000),
                  drawSchedule(b, hook, 10000))
            << toString(hook);
    }
    EXPECT_EQ(a.totalFired(), b.totalFired());
    EXPECT_EQ(a.totalChecked(), b.totalChecked());
}

TEST(FaultPlan, SameSeedSameTypedDraws)
{
    const std::string spec = "dram_stall:0.5,event_delay:0.5";
    fault::FaultPlan a = fault::FaultPlan::parse(spec, 7);
    fault::FaultPlan b = fault::FaultPlan::parse(spec, 7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.dramStallTicks(), b.dramStallTicks());
        EXPECT_EQ(a.eventDelayTicks(), b.eventDelayTicks());
    }
}

TEST(FaultPlan, DifferentSeedsDiverge)
{
    const std::string spec = "dram_latency:0.5";
    fault::FaultPlan a = fault::FaultPlan::parse(spec, 1);
    fault::FaultPlan b = fault::FaultPlan::parse(spec, 2);
    EXPECT_NE(drawSchedule(a, fault::Hook::DramLatency, 10000),
              drawSchedule(b, fault::Hook::DramLatency, 10000));
}

TEST(FaultPlan, HooksAreIndependentStreams)
{
    // Arming (and drawing from) an extra hook must not perturb the
    // schedule of an already-armed hook.
    fault::FaultPlan lone = fault::FaultPlan::parse("dram_latency:0.3", 9);
    fault::FaultPlan both =
        fault::FaultPlan::parse("dram_latency:0.3,pool_exhaust:0.7", 9);
    std::vector<bool> interleaved;
    for (int i = 0; i < 5000; ++i) {
        interleaved.push_back(both.shouldFire(fault::Hook::DramLatency));
        both.shouldFire(fault::Hook::PoolExhaust);
    }
    EXPECT_EQ(drawSchedule(lone, fault::Hook::DramLatency, 5000),
              interleaved);
}

TEST(FaultPlan, HookStreamsKeepTheirSeeds)
{
    // Each hook's stream id is fixed, so no (spec, seed) schedule moves
    // when a hook is added or removed. These are the first four draws
    // of every hook's stream for seed 7.
    const struct
    {
        fault::Hook hook;
        std::uint64_t draws[4];
    } cases[] = {
        {fault::Hook::DramLatency,
         {0xfb5fd24ed1d15304ULL, 0xe5059939ed9457edULL,
          0xcb05141324fcbeccULL, 0xd9ead2d858b0c759ULL}},
        {fault::Hook::DramStall,
         {0x250f349333b35bcdULL, 0xf5802721c8b4e656ULL,
          0xed60383cb6544dbaULL, 0xef77af827643c0eaULL}},
        {fault::Hook::EventDelay,
         {0x80568daaa2ae92dbULL, 0x3bd7dfdf1447d9e7ULL,
          0x0b0ee703f039d915ULL, 0xd1fc9ba4b341df49ULL}},
        {fault::Hook::PeBackpressure,
         {0x0da9e32f9bcbe904ULL, 0xd34b86bb665c284dULL,
          0x73f5526334b8ca77ULL, 0x84a25a7198a7b2b9ULL}},
        {fault::Hook::PoolExhaust,
         {0x7e6e0ba9ce4df3bcULL, 0x4e21a9184c5d2ecfULL,
          0x855f4726fe0dd3a7ULL, 0x36f8a841085fb110ULL}},
        {fault::Hook::QueryMalformed,
         {0x8b34502b1b50f928ULL, 0xe88527d6aa633919ULL,
          0x3a435b7e635a84bfULL, 0x6e652ed75d65f3edULL}},
        {fault::Hook::QueryOversized,
         {0x58b4fc946401a239ULL, 0x88e42bee5c6b8711ULL,
          0xcc67f03ca4f3c493ULL, 0xf41d73619d7718c1ULL}},
        {fault::Hook::QueryDupIndex,
         {0x99e9469639aa6e1fULL, 0xbcd540effcba33c2ULL,
          0x0526ddb3557ada4cULL, 0xdd75c833a080e058ULL}},
    };
    static_assert(std::size(cases) == fault::kNumHooks);
    fault::FaultPlan plan(7);
    for (const auto &c : cases) {
        Rng &rng = plan.rngOf(c.hook);
        for (std::uint64_t want : c.draws)
            EXPECT_EQ(rng.next(), want) << toString(c.hook);
    }
}

TEST(FaultPlan, DisabledHooksCostNothing)
{
    fault::FaultPlan plan(3); // nothing armed
    EXPECT_FALSE(plan.anyEnabled());
    for (std::size_t i = 0; i < fault::kNumHooks; ++i) {
        const auto hook = static_cast<fault::Hook>(i);
        for (int k = 0; k < 100; ++k)
            EXPECT_FALSE(plan.shouldFire(hook));
        // Unarmed hooks never count checks and never draw.
        EXPECT_EQ(plan.checkedCount(hook), 0u);
        EXPECT_EQ(plan.firedCount(hook), 0u);
    }
    EXPECT_EQ(plan.totalChecked(), 0u);
    EXPECT_EQ(plan.totalFired(), 0u);
}

TEST(FaultPlan, NoPlanInstalledByDefault)
{
    EXPECT_EQ(fault::plan(), nullptr);
}

TEST(FaultPlan, FiringRateMatchesConfiguration)
{
    // 10k trials per armed hook; a binomial at these rates stays within
    // +/- 0.03 of the mean with overwhelming probability (> 6 sigma).
    const struct
    {
        fault::Hook hook;
        double rate;
    } cases[] = {
        {fault::Hook::DramLatency, 0.10},
        {fault::Hook::DramStall, 0.25},
        {fault::Hook::EventDelay, 0.50},
        {fault::Hook::PeBackpressure, 0.75},
        {fault::Hook::QueryMalformed, 0.90},
    };
    fault::FaultPlan plan(11);
    for (const auto &c : cases)
        plan.enable(c.hook, c.rate);
    constexpr std::size_t kTrials = 10000;
    for (const auto &c : cases) {
        std::size_t fired = 0;
        for (std::size_t i = 0; i < kTrials; ++i)
            fired += plan.shouldFire(c.hook) ? 1 : 0;
        const double observed =
            static_cast<double>(fired) / static_cast<double>(kTrials);
        EXPECT_NEAR(observed, c.rate, 0.03) << toString(c.hook);
        EXPECT_EQ(plan.checkedCount(c.hook), kTrials);
        EXPECT_EQ(plan.firedCount(c.hook), fired);
    }
}

TEST(FaultPlan, RateOneAlwaysFiresRateZeroNever)
{
    fault::FaultPlan plan(5);
    plan.enable(fault::Hook::PoolExhaust, 1.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(plan.shouldFire(fault::Hook::PoolExhaust));
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(plan.shouldFire(fault::Hook::DramStall));
}

TEST(FaultPlan, ParseAcceptsMagnitudeOverrides)
{
    const auto plan =
        fault::FaultPlan::tryParse("dram_latency:0.2:4,dram_stall:0.1", 1);
    ASSERT_TRUE(plan.has_value());
    EXPECT_TRUE(plan->enabled(fault::Hook::DramLatency));
    EXPECT_DOUBLE_EQ(plan->magnitude(fault::Hook::DramLatency), 4.0);
    // Unspecified magnitude falls back to the hook default.
    EXPECT_DOUBLE_EQ(plan->magnitude(fault::Hook::DramStall), 200.0);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs)
{
    const char *bad[] = {
        "",                          // arms nothing
        "dram_latency",              // missing rate
        "warp_core:0.5",             // unknown hook
        "dram_latency:1.5",          // rate out of [0, 1]
        "dram_latency:-0.1",         // negative rate
        "dram_latency:abc",          // non-numeric rate
        "dram_latency:0.1:-3",       // negative magnitude
        "dram_latency:0.1,,",        // empty entry
        "dram_latency:0.1,dram_latency:0.2", // hook twice
        // Magnitudes under which a fired hook changes nothing.
        "dram_latency:0.1:1",        // multiplier of 1
        "dram_latency:0.1:0.5",      // multiplier below 1
        "dram_stall:0.1:0",          // no stall
        "dram_stall:0.1:0.0009",     // under one tick
        "event_delay:0.1:0",         // no jitter
        "event_delay:0.1:0.0005",    // under one tick
        "pe_backpressure:0.1:0",     // no extra cycle
        "pe_backpressure:0.1:0.669765", // under one cycle
    };
    for (const char *spec : bad) {
        std::string error;
        EXPECT_FALSE(
            fault::FaultPlan::tryParse(spec, 1, &error).has_value())
            << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
}

TEST(FaultPlan, ParseNamesTheInertMagnitudeAndHook)
{
    std::string error;
    EXPECT_FALSE(fault::FaultPlan::tryParse("event_delay:0.05:0", 7, &error)
                     .has_value());
    EXPECT_NE(error.find("'0'"), std::string::npos) << error;
    EXPECT_NE(error.find("'event_delay'"), std::string::npos) << error;
    // The smallest magnitudes that still inject a fault are accepted.
    EXPECT_TRUE(fault::FaultPlan::tryParse(
                    "dram_latency:0.1:1.5,dram_stall:0.1:0.001,"
                    "event_delay:0.1:0.001,pe_backpressure:0.1:1",
                    7)
                    .has_value());
}

TEST(FaultPlanDeathTest, ParseDiesOnMalformedSpec)
{
    EXPECT_DEATH(fault::FaultPlan::parse("warp_core:0.5", 1),
                 "warp_core");
}

TEST(FaultPlan, DescribeRoundTrips)
{
    const std::string spec = "dram_latency:0.1,event_delay:0.05";
    fault::FaultPlan plan = fault::FaultPlan::parse(spec, 1);
    EXPECT_EQ(plan.describe(), spec);
    // Non-default magnitudes survive; defaults are omitted.
    fault::FaultPlan heavy =
        fault::FaultPlan::parse("dram_latency:0.5:8", 1);
    EXPECT_EQ(heavy.describe(), "dram_latency:0.5:8");
    fault::FaultPlan explicit_default =
        fault::FaultPlan::parse("dram_latency:0.5:32", 1);
    EXPECT_EQ(explicit_default.describe(), "dram_latency:0.5");
}

TEST(FaultPlan, DescribeReparsesToTheSamePlan)
{
    // Rates and magnitudes that a 6-digit print would round: the first
    // to an inert magnitude, the second to another rate.
    for (const char *spec :
         {"dram_latency:0.05:1.0000001", "dram_latency:0.123456789:2",
          "dram_stall:1e-07:123456.789,event_delay:0.333333333333:0.0015",
          "pe_backpressure:0.999999999:100000,query_oversized:1:2.5",
          "pool_exhaust:0.1,query_malformed:0.25,query_dup_index:1e-09"}) {
        SCOPED_TRACE(spec);
        const fault::FaultPlan plan = fault::FaultPlan::parse(spec, 3);
        const std::string text = plan.describe();
        std::string error;
        const std::optional<fault::FaultPlan> back =
            fault::FaultPlan::tryParse(text, 3, &error);
        ASSERT_TRUE(back.has_value()) << text << ": " << error;
        for (std::size_t i = 0; i < fault::kNumHooks; ++i) {
            const auto hook = static_cast<fault::Hook>(i);
            EXPECT_EQ(back->rate(hook), plan.rate(hook)) << text;
            EXPECT_EQ(back->magnitude(hook), plan.magnitude(hook)) << text;
        }
    }
}

TEST(FaultPlan, SuspensionDoesNotAdvanceStreams)
{
    fault::FaultPlan a = fault::FaultPlan::parse("pool_exhaust:0.4", 21);
    fault::FaultPlan b = fault::FaultPlan::parse("pool_exhaust:0.4", 21);

    // a takes a 500-check fault holiday in the middle; b does not.
    const auto head_a = drawSchedule(a, fault::Hook::PoolExhaust, 100);
    const auto head_b = drawSchedule(b, fault::Hook::PoolExhaust, 100);
    EXPECT_EQ(head_a, head_b);

    a.setSuspended(true);
    for (int i = 0; i < 500; ++i)
        EXPECT_FALSE(a.shouldFire(fault::Hook::PoolExhaust));
    a.setSuspended(false);

    // Post-resume, a's schedule continues exactly where b's does.
    EXPECT_EQ(drawSchedule(a, fault::Hook::PoolExhaust, 1000),
              drawSchedule(b, fault::Hook::PoolExhaust, 1000));
    // Suspended checks still count as checks, never as fires.
    EXPECT_EQ(a.checkedCount(fault::Hook::PoolExhaust),
              b.checkedCount(fault::Hook::PoolExhaust) + 500);
}

TEST(FaultPlan, ScopedInstallRestoresPrevious)
{
    fault::FaultPlan outer(1);
    fault::FaultPlan inner(2);
    ASSERT_EQ(fault::plan(), nullptr);
    {
        fault::ScopedPlanInstall install_outer(&outer);
        EXPECT_EQ(fault::plan(), &outer);
        {
            fault::ScopedPlanInstall install_inner(&inner);
            EXPECT_EQ(fault::plan(), &inner);
        }
        EXPECT_EQ(fault::plan(), &outer);
    }
    EXPECT_EQ(fault::plan(), nullptr);
}

TEST(FaultPlan, SuspendFaultsRaii)
{
    fault::FaultPlan plan = fault::FaultPlan::parse("pool_exhaust:1", 1);
    fault::ScopedPlanInstall install(&plan);
    {
        fault::SuspendFaults holiday;
        EXPECT_TRUE(plan.suspended());
        EXPECT_FALSE(plan.shouldFire(fault::Hook::PoolExhaust));
    }
    EXPECT_FALSE(plan.suspended());
    EXPECT_TRUE(plan.shouldFire(fault::Hook::PoolExhaust));
}

TEST(FaultEventQueue, DelayIsAdditiveOnly)
{
    fault::FaultPlan plan = fault::FaultPlan::parse("event_delay:1", 3);
    fault::ScopedPlanInstall install(&plan);

    EventQueue eq;
    std::vector<Tick> fired_at;
    for (Tick when = 100; when <= 1000; when += 100) {
        eq.schedule(when, [&fired_at, &eq] {
            fired_at.push_back(eq.now());
        });
    }
    eq.run();
    ASSERT_EQ(fired_at.size(), 10u);
    Tick previous = 0;
    for (Tick at : fired_at) {
        EXPECT_GE(at, previous); // delivery stays time-ordered
        previous = at;
    }
    // Jitter is bounded by the 50 ns default magnitude.
    EXPECT_GT(fired_at.front(), 100u - 1);
    EXPECT_LE(fired_at.back(), 1000 + 50 * kTicksPerNs);
}

TEST(FaultEventQueue, NoPlanLeavesScheduleExact)
{
    ASSERT_EQ(fault::plan(), nullptr);
    EventQueue eq;
    std::vector<Tick> fired_at;
    for (Tick when : {500, 300, 100, 400, 200}) {
        eq.schedule(when, [&fired_at, &eq] {
            fired_at.push_back(eq.now());
        });
    }
    eq.run();
    EXPECT_EQ(fired_at, (std::vector<Tick>{100, 200, 300, 400, 500}));
}
