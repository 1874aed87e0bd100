/**
 * @file
 * Open-loop serving model tests (serveGuardedOpenLoop): queueing
 * behavior at low and high offered load, percentile math, and
 * integration with the Fafnir engine.
 */

#include <gtest/gtest.h>

#include "embedding/generator.hh"
#include "embedding/service.hh"
#include "fafnir/engine.hh"

using namespace fafnir;
using namespace fafnir::embedding;

namespace
{

std::vector<Batch>
makeStream(unsigned count)
{
    WorkloadConfig wc;
    wc.tables = {32, 1u << 16, 512, 4};
    wc.batchSize = 8;
    wc.querySize = 8;
    BatchGenerator gen(wc, 33);
    std::vector<Batch> stream;
    for (unsigned i = 0; i < count; ++i)
        stream.push_back(gen.next());
    return stream;
}

/** A synthetic fixed-service-time engine. */
ServiceGuard::ServeFn
fixedService(Tick service_time)
{
    return [service_time](const Batch &, Tick start) {
        return ServeSample{start + service_time, {}};
    };
}

} // namespace

TEST(Service, NoQueueingBelowCapacity)
{
    const auto stream = makeStream(32);
    // Service 100 ns, arrivals every 200 ns: never queues.
    ServiceGuard guard({}, fixedService(100 * kTicksPerNs));
    const auto report =
        serveGuardedOpenLoop(stream, 200 * kTicksPerNs, guard);
    for (const auto &r : report.requests) {
        EXPECT_EQ(r.queueTime(), 0u);
        EXPECT_EQ(r.serviceTime(), 100 * kTicksPerNs);
    }
    EXPECT_FALSE(report.saturated());
}

TEST(Service, QueueGrowsBeyondCapacity)
{
    const auto stream = makeStream(64);
    // Service 300 ns, arrivals every 100 ns: backlog grows linearly.
    ServiceGuard guard({}, fixedService(300 * kTicksPerNs));
    const auto report =
        serveGuardedOpenLoop(stream, 100 * kTicksPerNs, guard);
    EXPECT_TRUE(report.saturated());
    // The last request queued for roughly (64-1) * 200 ns.
    const Tick last_queue = report.requests.back().queueTime();
    EXPECT_NEAR(static_cast<double>(last_queue),
                63.0 * 200 * kTicksPerNs, 5.0 * kTicksPerNs);
}

TEST(Service, PercentilesOrdered)
{
    const auto stream = makeStream(32);
    ServiceGuard guard({}, fixedService(150 * kTicksPerNs));
    const auto report =
        serveGuardedOpenLoop(stream, 100 * kTicksPerNs, guard);
    EXPECT_LE(report.percentileTotal(0.5), report.percentileTotal(0.9));
    EXPECT_LE(report.percentileTotal(0.9), report.percentileTotal(0.99));
    EXPECT_LE(report.percentileTotal(0.99), report.percentileTotal(1.0));
}

TEST(Service, IntegratesWithFafnirEngine)
{
    EventQueue eq;
    TableConfig tables{32, 1u << 16, 512, 4};
    dram::MemorySystem memory(eq, dram::Geometry{},
                              dram::Timing::ddr4_2400(),
                              dram::Interleave::BlockRank, 512);
    VectorLayout layout(tables, memory.mapper());
    core::FafnirEngine engine(memory, layout, core::EngineConfig{});

    const auto stream = makeStream(24);
    ServiceGuard guard({}, [&](const Batch &batch, Tick start) {
        return ServeSample{engine.lookup(batch, start).complete, {}};
    });
    const auto report = serveGuardedOpenLoop(stream, 5 * kTicksPerUs,
                                             guard);
    ASSERT_EQ(report.requests.size(), 24u);
    // Generous inter-arrival: no saturation, sub-arrival service.
    EXPECT_FALSE(report.saturated());
    for (const auto &r : report.requests)
        EXPECT_LT(r.serviceTime(), 5 * kTicksPerUs);
}

TEST(Service, SaturationDetectionIgnoresShortRuns)
{
    const auto stream = makeStream(4);
    ServiceGuard guard({}, fixedService(100 * kTicksPerNs));
    const auto report =
        serveGuardedOpenLoop(stream, 1 * kTicksPerNs, guard);
    // Too few requests to call saturation.
    EXPECT_FALSE(report.saturated());
}

// The saturated heuristic (tail-quarter mean queue > 2 x head-quarter
// mean + 1000 ticks, see GuardedReport::saturated) pinned at loads just
// either side of capacity.

TEST(Service, JustBelowCapacityIsNotSaturated)
{
    const auto stream = makeStream(64);
    // Service 100 ns, arrivals every 101 ns: 99% utilization. Any
    // backlog drains before the next arrival, so the tail quarter's
    // queueing matches the head quarter's and the verdict stays false.
    ServiceGuard guard({}, fixedService(100 * kTicksPerNs));
    const auto report =
        serveGuardedOpenLoop(stream, 101 * kTicksPerNs, guard);
    EXPECT_FALSE(report.saturated());
}

TEST(Service, ExactlyAtCapacityIsNotSaturated)
{
    const auto stream = makeStream(64);
    // Arrivals equal to service time: the queue neither grows nor
    // drains; head == tail == 0, kept false by the 1000-tick offset.
    ServiceGuard guard({}, fixedService(100 * kTicksPerNs));
    const auto report =
        serveGuardedOpenLoop(stream, 100 * kTicksPerNs, guard);
    EXPECT_FALSE(report.saturated());
    for (const auto &r : report.requests)
        EXPECT_EQ(r.queueTime(), 0u);
}

TEST(Service, JustAboveCapacityIsSaturated)
{
    const auto stream = makeStream(64);
    // Service 100 ns, arrivals every 99 ns: 1 ns of backlog per
    // request. Tail-quarter mean queue (~55.5 ns) clears twice the
    // head-quarter mean (~7.5 ns) plus the offset, so the linear-growth
    // signature trips the verdict even at 1% overload.
    ServiceGuard guard({}, fixedService(100 * kTicksPerNs));
    const auto report =
        serveGuardedOpenLoop(stream, 99 * kTicksPerNs, guard);
    EXPECT_TRUE(report.saturated());
}

TEST(Service, SubNanosecondGrowthStaysBelowTheOffset)
{
    const auto stream = makeStream(32);
    // 10 ticks (0.01 ns) of growth per request: real but negligible.
    // The tail mean (~275 ticks) stays inside 2 x head + 1000 ticks, so
    // the offset keeps sub-ns jitter from reading as saturation.
    ServiceGuard guard({}, fixedService(100 * kTicksPerNs));
    const auto report =
        serveGuardedOpenLoop(stream, 100 * kTicksPerNs - 10, guard);
    EXPECT_FALSE(report.saturated());
}

TEST(ServiceGuard, UnmeetableDeadlineTakesEveryAttempt)
{
    // Every attempt misses a 10-tick deadline: the guard retries until
    // maxAttempts, then drops the query as expired.
    GuardConfig config;
    config.queryDeadline = 10;
    config.maxAttempts = 3;
    config.retryBackoff = 5;
    ServiceGuard guard(config, [](const Batch &b, Tick at) {
        ServeSample sample;
        sample.complete = at + 1000;
        sample.queryComplete.assign(b.queries.size(), at + 1000);
        return sample;
    });

    Batch batch;
    batch.queries.push_back(Query{0, {1, 2, 3}});
    const GuardedRequest request = guard.serve(batch, 0);
    EXPECT_EQ(request.attempts, 3u);
    EXPECT_EQ(guard.retryCount(), 2u);
    EXPECT_EQ(guard.expiredQueryCount(), 1u);
}
