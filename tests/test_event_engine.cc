/**
 * @file
 * Event-driven engine tests: agreement with the analytic engine's
 * functional quantities, pipeline-semantics properties (early queries
 * finish early, no stalls/deadlocks), determinism, and cross-engine
 * latency relationships.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "embedding/generator.hh"
#include "fafnir/engine.hh"
#include "fafnir/event_engine.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

struct EventRig
{
    EventQueue eq;
    TableConfig tables{32, 1u << 16, 512, 4};
    dram::MemorySystem memory;
    VectorLayout layout;

    explicit EventRig(unsigned ranks = 32)
        : memory(eq, dram::Geometry::withTotalRanks(ranks),
                 dram::Timing::ddr4_2400(), dram::Interleave::BlockRank,
                 512),
          layout(tables, memory.mapper())
    {}

    Batch
    makeBatch(unsigned batch_size, unsigned query_size, std::uint64_t seed,
              double skew = 0.9)
    {
        WorkloadConfig wc;
        wc.tables = tables;
        wc.batchSize = batch_size;
        wc.querySize = query_size;
        wc.zipfSkew = skew;
        wc.hotFraction = 0.01;
        return BatchGenerator(wc, seed).next();
    }
};

} // namespace

TEST(EventEngine, CompletesAndOrders)
{
    EventRig rig;
    EventDrivenEngine engine(rig.memory, rig.layout, EventEngineConfig{});
    const Batch batch = rig.makeBatch(8, 16, 1);
    const EventLookupTiming t = engine.lookup(batch, 0);

    EXPECT_GT(t.complete, 0u);
    EXPECT_GE(t.memLast, t.memFirst);
    EXPECT_GE(t.complete, t.memLast);
    ASSERT_EQ(t.queryComplete.size(), 8u);
    for (Tick qc : t.queryComplete) {
        EXPECT_GT(qc, 0u);
        EXPECT_LE(qc, t.complete);
    }
}

TEST(EventEngine, FunctionalQuantitiesMatchAnalyticEngine)
{
    // Both engines replay the same functional run, so on batches that fit
    // one hardware batch they agree on every work count and, issuing the
    // same reads to fresh memory systems, on the DRAM window. Seeded sweep
    // over tree sizes, batch and query shapes, dedup and payload formats.
    std::mt19937 rng(71);
    std::size_t cases = 0;
    for (unsigned ranks : {1u, 2u, 4u, 8u, 16u, 32u}) {
        for (bool dedup : {true, false}) {
            for (PayloadFormat payload :
                 {PayloadFormat::Fp32, PayloadFormat::Int8,
                  PayloadFormat::TwoBit}) {
                for (int round = 0; round < 16; ++round, ++cases) {
                    EngineConfig base;
                    base.dedup = dedup;
                    base.payload = payload;
                    const unsigned batch_size = 1 + rng() % base.hwBatch;
                    const unsigned query_size = 1 + rng() % 32;
                    EventRig a_rig(ranks);
                    const Batch batch =
                        a_rig.makeBatch(batch_size, query_size, rng());
                    SCOPED_TRACE(testing::Message()
                                 << "ranks=" << ranks << " dedup=" << dedup
                                 << " payload=" << payloadFormatName(payload)
                                 << " B=" << batch_size
                                 << " q=" << query_size);

                    FafnirEngine analytic(a_rig.memory, a_rig.layout, base);
                    const LookupTiming a = analytic.lookup(batch, 0);
                    EventRig e_rig(ranks);
                    EventEngineConfig ecfg;
                    ecfg.base = base;
                    EventDrivenEngine event(e_rig.memory, e_rig.layout, ecfg);
                    const EventLookupTiming e = event.lookup(batch, 0);

                    EXPECT_EQ(a.memAccesses, e.memAccesses);
                    EXPECT_EQ(a.uniqueCount, e.uniqueCount);
                    EXPECT_EQ(a.totalReferences, e.totalReferences);
                    EXPECT_EQ(a.activity.reduces, e.activity.reduces);
                    EXPECT_EQ(a.activity.forwards, e.activity.forwards);
                    EXPECT_EQ(a.rootCombines, e.rootCombines);
                    EXPECT_EQ(a.maxPeOutputs, e.maxPeOutputs);
                    EXPECT_EQ(a.bufferOverflows, e.bufferOverflows);
                    EXPECT_EQ(a.dramPayloadBytes, e.dramPayloadBytes);
                    EXPECT_EQ(a.linkPayloadBytes, e.linkPayloadBytes);
                    EXPECT_EQ(a.memFirst, e.memFirst);
                    EXPECT_EQ(a.memLast, e.memLast);
                }
            }
        }
    }
    EXPECT_EQ(cases, 576u);
}

TEST(EventEngine, PipeliningBeatsTheBarrierModel)
{
    // The analytic engine holds every PE until its last input arrives;
    // the event pipeline lets early routes through, so batch completion
    // should not be (much) worse, and per-query medians should improve.
    const Batch batch = EventRig().makeBatch(32, 16, 3, 1.0);

    EventRig a_rig;
    FafnirEngine analytic(a_rig.memory, a_rig.layout, EngineConfig{});
    const LookupTiming a = analytic.lookup(batch, 0);

    EventRig e_rig;
    EventDrivenEngine event(e_rig.memory, e_rig.layout,
                            EventEngineConfig{});
    const EventLookupTiming e = event.lookup(batch, 0);

    // Allow a small overflow-penalty margin.
    EXPECT_LE(e.complete, a.complete + a.complete / 4);

    std::vector<Tick> a_sorted = a.queryComplete;
    std::vector<Tick> e_sorted = e.queryComplete;
    std::sort(a_sorted.begin(), a_sorted.end());
    std::sort(e_sorted.begin(), e_sorted.end());
    // Earliest-finishing query benefits most from distinct-route flow.
    EXPECT_LE(e_sorted.front(), a_sorted.front());
}

TEST(EventEngine, DeterministicAcrossRuns)
{
    const Batch batch = EventRig().makeBatch(16, 16, 4);
    auto run_once = [&] {
        EventRig rig;
        EventDrivenEngine engine(rig.memory, rig.layout,
                                 EventEngineConfig{});
        return engine.lookup(batch, 0);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.queryComplete, b.queryComplete);
    EXPECT_EQ(a.fifoOverflows, b.fifoOverflows);
}

TEST(EventEngine, OverflowsReportedUnderPressure)
{
    EventRig rig;
    EventEngineConfig cfg;
    cfg.base.hwBatch = 2; // tiny FIFOs
    cfg.base.dedup = true;
    EventDrivenEngine engine(rig.memory, rig.layout, cfg);
    const Batch batch = rig.makeBatch(32, 16, 5, 1.1);
    const EventLookupTiming t = engine.lookup(batch, 0);
    EXPECT_GT(t.fifoOverflows, 0u);
    EXPECT_GT(t.complete, 0u); // no deadlock despite pressure
}

TEST(EventEngine, ForwardWaitsObserved)
{
    // Forwards must wait for the opposite side; with uneven rank loads
    // some waits are inevitable on skewed batches.
    EventRig rig;
    EventDrivenEngine engine(rig.memory, rig.layout, EventEngineConfig{});
    const Batch batch = rig.makeBatch(32, 16, 6, 1.1);
    const EventLookupTiming t = engine.lookup(batch, 0);
    EXPECT_GT(t.forwardWaits, 0u);
}

TEST(EventEngine, SmallSystems)
{
    for (unsigned ranks : {1u, 2u, 4u}) {
        EventRig rig(ranks);
        EventDrivenEngine engine(rig.memory, rig.layout,
                                 EventEngineConfig{});
        const Batch batch = rig.makeBatch(4, 8, 7 + ranks);
        const EventLookupTiming t = engine.lookup(batch, 0);
        EXPECT_GT(t.complete, 0u) << ranks << " ranks";
        EXPECT_EQ(t.queryComplete.size(), 4u);
    }
}

TEST(EventEngine, TimelineRecordsPipelineActivity)
{
    EventRig rig;
    EventEngineConfig cfg;
    cfg.recordTimeline = true;
    EventDrivenEngine engine(rig.memory, rig.layout, cfg);
    const Batch batch = rig.makeBatch(8, 8, 15);
    const EventLookupTiming t = engine.lookup(batch, 0);

    ASSERT_FALSE(t.timeline.empty());
    // Chronological and within the run window.
    for (std::size_t i = 1; i < t.timeline.size(); ++i)
        EXPECT_GE(t.timeline[i].tick, t.timeline[i - 1].tick);
    std::size_t deliveries = 0;
    std::size_t emissions = 0;
    for (const auto &event : t.timeline) {
        EXPECT_LE(event.tick, t.complete);
        EXPECT_GE(event.pe, 1u);
        EXPECT_LE(event.pe, engine.topology().numPes());
        if (std::string(event.kind) == "deliver")
            ++deliveries;
        else if (std::string(event.kind) == "emit")
            ++emissions;
    }
    // Every DRAM read produces a leaf delivery; internal edges add more.
    EXPECT_GE(deliveries, t.memAccesses);
    EXPECT_GT(emissions, 0u);

    std::ostringstream os;
    writeTimeline(os, t.timeline);
    EXPECT_NE(os.str().find("tick\tpe\tkind\tindex"), std::string::npos);
    EXPECT_NE(os.str().find("emit"), std::string::npos);
}

TEST(EventEngine, TimelineOffByDefault)
{
    EventRig rig;
    EventDrivenEngine engine(rig.memory, rig.layout, EventEngineConfig{});
    const Batch batch = rig.makeBatch(4, 8, 16);
    EXPECT_TRUE(engine.lookup(batch, 0).timeline.empty());
}

TEST(EventEngine, SequentialBatchesAdvanceTime)
{
    EventRig rig;
    EventDrivenEngine engine(rig.memory, rig.layout, EventEngineConfig{});
    Tick t = 0;
    for (int i = 0; i < 3; ++i) {
        const Batch batch = rig.makeBatch(8, 16, 100 + i);
        const auto timing = engine.lookup(batch, t);
        EXPECT_GE(timing.issued, t);
        EXPECT_GT(timing.complete, t);
        t = timing.complete;
    }
}
