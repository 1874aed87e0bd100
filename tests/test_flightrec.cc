/**
 * @file
 * Flight-recorder tests: ring wrap/drop accounting, the ambient guard,
 * DRAM service records on both read paths, trigger rate-limiting and
 * the bundle cap, bundle JSON shape
 * (offender telescoping), and the headline determinism claim — two
 * same-seed runs under a fault plan write byte-identical bundles.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/tensordimm.hh"
#include "common/faultinject.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "fafnir/event_engine.hh"
#include "sim/eventq.hh"
#include "telemetry/attribution.hh"
#include "telemetry/flightrec.hh"

using namespace fafnir;
using namespace fafnir::telemetry;

namespace
{

/** Fresh empty directory under the test's cwd; removed by the guard. */
struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const std::string &name)
        : path(std::filesystem::path("flightrec_test") / name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream is(p, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace

TEST(FlightRecorder, RingWrapsOldestFirstAndCountsDrops)
{
    FlightRecorderConfig config;
    config.ringCapacity = 8;
    FlightRecorder rec(config);

    for (std::uint64_t i = 0; i < 20; ++i)
        rec.record(Stage::DramService, Tick(100 * i), 7, i, 2 * i);

    EXPECT_EQ(rec.recordedCount(Stage::DramService), 20u);
    EXPECT_EQ(rec.droppedCount(Stage::DramService), 12u);
    EXPECT_EQ(rec.ringSize(Stage::DramService), 8u);
    EXPECT_EQ(rec.totalRecorded(), 20u);
    EXPECT_EQ(rec.totalDropped(), 12u);
    // The retained window is the last 8 records, oldest first.
    for (std::size_t i = 0; i < 8; ++i) {
        const FlightRecord &r = rec.ringRecord(Stage::DramService, i);
        EXPECT_EQ(r.tick, Tick(100 * (12 + i)));
        EXPECT_EQ(r.code, 7u);
        EXPECT_EQ(r.a, 12 + i);
        EXPECT_EQ(r.b, 2 * (12 + i));
    }
    // Other stages untouched.
    EXPECT_EQ(rec.recordedCount(Stage::Prepare), 0u);
    EXPECT_EQ(rec.ringSize(Stage::Prepare), 0u);
}

TEST(FlightRecorder, PartiallyFilledRingKeepsInsertionOrder)
{
    FlightRecorderConfig config;
    config.ringCapacity = 16;
    FlightRecorder rec(config);
    for (std::uint64_t i = 0; i < 5; ++i)
        rec.record(Stage::Prepare, Tick(i), 0, i);
    EXPECT_EQ(rec.ringSize(Stage::Prepare), 5u);
    EXPECT_EQ(rec.droppedCount(Stage::Prepare), 0u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(rec.ringRecord(Stage::Prepare, i).a, i);
}

TEST(FlightRecorder, GuardOffMeansZeroRecords)
{
    ASSERT_EQ(flightRecorder(), nullptr);

    // The instrumented hot paths run; nothing is recorded anywhere
    // because no recorder is installed.
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(Tick(10 * (i + 1)), [&fired] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 10);

    FlightRecorder rec;
    EXPECT_EQ(rec.totalRecorded(), 0u);
    EXPECT_EQ(rec.totalTriggers(), 0u);
}

TEST(FlightRecorder, AmbientGuardSeesInstalledRecorder)
{
    ASSERT_EQ(flightRecorder(), nullptr);
    FlightRecorder rec;
    {
        ScopedContext install({.recorder = &rec});
#ifdef FAFNIR_FLIGHTREC_COMPILED_OUT
        EXPECT_EQ(flightRecorder(), nullptr);
#else
        EXPECT_EQ(flightRecorder(), &rec);
        EventQueue eq;
        eq.schedule(5, [] {});
        eq.run();
        EXPECT_GE(rec.recordedCount(Stage::EventqDispatch), 1u);
#endif
    }
    EXPECT_EQ(flightRecorder(), nullptr);
}

TEST(FlightRecorder, DramServiceCodesAreFlatRanksOnBothReadPaths)
{
    // A DramService record's code is the flat rank of the read's first
    // burst: below the memory's 32 ranks and spread across them, on
    // read() (the event engine) and on readAt() (TensorDIMM's only
    // read path) alike.
#ifdef FAFNIR_FLIGHTREC_COMPILED_OUT
    GTEST_SKIP() << "flight recorder compiled out";
#else
    const embedding::TableConfig tables{32, 1u << 16, 512, 4};
    embedding::WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = 8;
    wc.querySize = 16;
    const embedding::Batch batch = embedding::BatchGenerator(wc, 5).next();

    const auto expectFlatRanks = [](const FlightRecorder &rec) {
        ASSERT_GT(rec.ringSize(Stage::DramService), 0u);
        std::set<std::uint32_t> codes;
        for (std::size_t i = 0; i < rec.ringSize(Stage::DramService); ++i)
            codes.insert(rec.ringRecord(Stage::DramService, i).code);
        EXPECT_LT(*codes.rbegin(), 32u);
        EXPECT_GT(codes.size(), 2u);
    };
    const dram::Geometry geometry = dram::Geometry::withTotalRanks(32);
    {
        SCOPED_TRACE("event engine");
        EventQueue eq;
        dram::MemorySystem memory(eq, geometry, dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        embedding::VectorLayout layout(tables, memory.mapper());
        core::EventDrivenEngine engine(memory, layout,
                                       core::EventEngineConfig{});
        FlightRecorder rec;
        ScopedContext install({.recorder = &rec});
        engine.lookup(batch, 0);
        expectFlatRanks(rec);
    }
    {
        SCOPED_TRACE("tensordimm");
        EventQueue eq;
        dram::MemorySystem memory(eq, geometry, dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        baselines::TensorDimmEngine engine(memory, tables);
        FlightRecorder rec;
        ScopedContext install({.recorder = &rec});
        engine.lookup(batch, 0);
        expectFlatRanks(rec);
    }
#endif
}

TEST(FlightRecorder, TriggerRateLimitPerKindAndBundleCap)
{
    FlightRecorderConfig config;
    config.minGapTicks = 1000;
    config.maxBundles = 3;
    FlightRecorder rec(config); // bundleDir empty: no files, same gating

    EXPECT_TRUE(rec.trigger(Trigger::TailLatency, 100, "a"));
    // Within the gap of the accepted TailLatency capture: suppressed.
    EXPECT_FALSE(rec.trigger(Trigger::TailLatency, 900, "b"));
    // A different kind has its own rate-limit clock.
    EXPECT_TRUE(rec.trigger(Trigger::DeadlineMiss, 900, "c"));
    // Past the gap: accepted again — and that's bundle 3 of 3.
    EXPECT_TRUE(rec.trigger(Trigger::TailLatency, 1100, "d"));
    // The cap is global across kinds from here on.
    EXPECT_FALSE(rec.trigger(Trigger::SloAlert, 5000, "e"));
    EXPECT_FALSE(rec.trigger(Trigger::TailLatency, 9000, "f"));

    EXPECT_EQ(rec.triggerCount(Trigger::TailLatency), 4u);
    EXPECT_EQ(rec.triggerCount(Trigger::DeadlineMiss), 1u);
    EXPECT_EQ(rec.triggerCount(Trigger::SloAlert), 1u);
    EXPECT_EQ(rec.totalTriggers(), 6u);
    EXPECT_EQ(rec.acceptedCount(), 3u);
    EXPECT_EQ(rec.suppressedCount(), 3u);
    EXPECT_EQ(rec.bundlesWritten(), 0u); // no directory configured
}

TEST(FlightRecorder, BundleJsonShapeAndOffenderTelescoping)
{
    FlightRecorder rec;
    rec.setContext("tool", "unit-test");
    rec.record(Stage::DramService, 42, 1, 2, 3);

    QueryAttribution offender;
    offender.batch = 5;
    offender.query = 3;
    offender.issued = 1000;
    offender.complete = 1950;
    offender.batchPrepare = 0;
    offender.dispatchQueue = 100;
    offender.dramService = 400;
    offender.ctrlQueue = 50;
    offender.peCompute = 200;
    offender.forwardWait = 100;
    offender.serviceQueue = 100;
    offender.shardCombine = 0;
    offender.flow = 77;
    ASSERT_EQ(offender.total(), offender.componentSum());

    std::ostringstream os;
    rec.writeBundle(os, Trigger::TailLatency, 2000, "unit", &offender,
                    0);
    const std::string bundle = os.str();

    for (const char *needle :
         {"\"schemaVersion\": 1", "\"kind\": \"debug-bundle\"",
          "\"trigger\"", "\"tail_latency\"", "\"context\"",
          "\"tool\": \"unit-test\"", "\"offender\"",
          "\"total_ticks\": 950", "\"component_sum_ticks\": 950",
          "\"dram_service\"", "\"rings\"", "\"eventq_dispatch\"",
          "\"flow\": 77"}) {
        EXPECT_NE(bundle.find(needle), std::string::npos)
            << "missing " << needle << " in:\n"
            << bundle;
    }
}

TEST(FlightRecorder, SameSeedRunsWriteByteIdenticalBundles)
{
    // A deterministic mini-run: an event chain under a fault plan whose
    // fired hooks trigger bundle captures through the listener, exactly
    // as TelemetrySession wires it.
    auto run = [](const std::filesystem::path &dir) {
        FlightRecorderConfig config;
        config.ringCapacity = 32;
        config.maxBundles = 4;
        config.minGapTicks = 50;
        config.bundleDir = dir.string();
        FlightRecorder rec(config);
        ScopedContext install({.recorder = &rec});

        fault::FaultPlan plan =
            fault::FaultPlan::parse("event_delay:0.2", 99);
        fault::ScopedPlanInstall planInstall(&plan);
        plan.setFireListener([&rec](fault::Hook hook) {
            rec.trigger(Trigger::FaultHook, rec.lastSeenTick(),
                        std::string("hook:") + fault::toString(hook));
        });

        EventQueue eq;
        int hops = 0;
        std::function<void()> hop = [&] {
            if (++hops < 200)
                eq.schedule(eq.now() + 10, hop);
        };
        eq.schedule(10, hop);
        eq.run();
        plan.setFireListener(nullptr);

        std::vector<std::string> files;
        for (const std::string &p : rec.bundlePaths())
            files.push_back(p);
        return files;
    };

    TempDir a("same_seed_a");
    TempDir b("same_seed_b");
    const std::vector<std::string> filesA = run(a.path);
    const std::vector<std::string> filesB = run(b.path);

    ASSERT_FALSE(filesA.empty()) << "fault plan never fired";
    ASSERT_EQ(filesA.size(), filesB.size());
    for (std::size_t i = 0; i < filesA.size(); ++i) {
        EXPECT_EQ(std::filesystem::path(filesA[i]).filename(),
                  std::filesystem::path(filesB[i]).filename());
        EXPECT_EQ(slurp(filesA[i]), slurp(filesB[i]))
            << filesA[i] << " vs " << filesB[i];
    }
}

TEST(FlightRecorder, EmptyBundleDirCountsButWritesNothing)
{
    TempDir dir("no_writes");
    FlightRecorder rec; // default config: bundleDir empty
    rec.record(Stage::Writeback, 10, 0, 1);
    EXPECT_TRUE(rec.trigger(Trigger::ValueMismatch, 10, "x"));
    EXPECT_EQ(rec.bundlesWritten(), 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}
