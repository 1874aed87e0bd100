/**
 * @file
 * Fault-injection plan tests: determinism, zero-overhead disabled
 * hooks, configured firing rates, spec parsing, suspension, and the
 * event-queue perturbation hooks.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/faultinject.hh"
#include "common/logging.hh"
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
    };
    for (const char *spec : bad) {
        std::string error;
        EXPECT_FALSE(
            fault::FaultPlan::tryParse(spec, 1, &error).has_value())
            << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
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

TEST(FaultPlan, SkippedFiringsWarnOncePerHook)
{
    // Skips are counted every time but warned about once per hook per
    // process: after the first, every further skip is suppressed.
    fault::FaultPlan plan = fault::FaultPlan::parse("event_drop:1", 3);
    const std::string site = "faults.skipped.event_drop";
    plan.noteSkippedFiring(fault::Hook::EventDrop);
    const std::uint64_t suppressed = logging::warnEverySuppressed(site);
    for (int i = 0; i < 500; ++i)
        plan.noteSkippedFiring(fault::Hook::EventDrop);
    EXPECT_EQ(logging::warnEverySuppressed(site), suppressed + 500);
    EXPECT_EQ(plan.skippedCount(fault::Hook::EventDrop), 501u);
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

TEST(FaultEventQueue, DeliveriesFireExactlyOnceUnderLossyHooks)
{
    // schedule() draws the lossy hooks but does not apply them: each
    // callback fires once, and every drawn drop or dup is counted as a
    // skipped firing.
    for (const char *spec : {"event_drop:1", "event_dup:1"}) {
        SCOPED_TRACE(spec);
        fault::FaultPlan plan = fault::FaultPlan::parse(spec, 3);
        fault::ScopedPlanInstall install(&plan);
        const fault::Hook hook = std::string(spec) == "event_drop:1"
            ? fault::Hook::EventDrop
            : fault::Hook::EventDup;

        EventQueue eq;
        std::vector<Tick> fired_at;
        for (Tick when = 10; when <= 160; when += 10) {
            eq.schedule(when, [&fired_at, &eq] {
                fired_at.push_back(eq.now());
            });
        }
        eq.run();
        ASSERT_EQ(fired_at.size(), 16u);
        for (std::size_t i = 0; i < fired_at.size(); ++i)
            EXPECT_EQ(fired_at[i], 10 * (i + 1));
        EXPECT_EQ(plan.firedCount(hook), 16u);
        EXPECT_EQ(plan.skippedCount(hook), 16u);
    }
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

TEST(FaultEventQueue, UnarmedLossyHooksSkipNothing)
{
    // A delay-only plan touches callbacks legitimately: no skip
    // accounting, no warning.
    fault::FaultPlan plan = fault::FaultPlan::parse("event_delay:1", 3);
    fault::ScopedPlanInstall install(&plan);

    EventQueue eq;
    int delivered = 0;
    eq.schedule(10, [&delivered] { ++delivered; });
    eq.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(plan.totalSkipped(), 0u);
}
