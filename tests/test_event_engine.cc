/**
 * @file
 * Event-driven engine tests: agreement with the analytic engine's
 * functional quantities, pipeline-semantics properties (early queries
 * finish early, no stalls/deadlocks), determinism, and cross-engine
 * latency relationships.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <random>
#include <sstream>
#include <string>

#include "common/faultinject.hh"
#include "embedding/generator.hh"
#include "fafnir/engine.hh"
#include "fafnir/event_engine.hh"
#include "fafnir/functional.hh"
#include "fafnir/host.hh"

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
    // Both engines serve a batch through TreeReplay::lookup and replay
    // the same functional runs, so they agree on every work count and,
    // issuing the same reads to fresh memory systems, on memFirst; memLast
    // too when the batch is one hardware batch (the engines admit later
    // sub-batches at different ticks). Seeded sweep over tree sizes,
    // batches up to 3 x hwBatch, query shapes, dedup, interactive and
    // payload formats.
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
                    base.interactive = round % 2 == 1;
                    const unsigned batch_size =
                        1 + rng() % (3 * base.hwBatch);
                    const unsigned query_size = 1 + rng() % 32;
                    EventRig a_rig(ranks);
                    const Batch batch =
                        a_rig.makeBatch(batch_size, query_size, rng());
                    SCOPED_TRACE(testing::Message()
                                 << "ranks=" << ranks << " dedup=" << dedup
                                 << " interactive=" << base.interactive
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
                    const unsigned capacity =
                        base.interactive ? 1 : base.hwBatch;
                    if (batch_size <= capacity) {
                        EXPECT_EQ(a.memLast, e.memLast);
                    }
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

TEST(EventEngine, SubBatchesMergeValuesAndTimeline)
{
    // A batch above hwBatch runs as hardware sub-batches; the merged
    // timing carries every query's value in batch order and one
    // chronological timeline. (On this shape a sub-batch's timeline ends
    // after the next sub-batch's begins.)
    EventRig rig;
    const EmbeddingStore store(rig.tables);
    EventEngineConfig cfg;
    cfg.base.hwBatch = 16;
    cfg.computeValues = true;
    cfg.recordTimeline = true;
    EventDrivenEngine engine(rig.memory, rig.layout, cfg, &store);
    const Batch batch = rig.makeBatch(47, 8, 1); // 3 sub-batches
    const EventLookupTiming t = engine.lookup(batch, 0);

    ASSERT_EQ(t.results.size(), batch.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
        EXPECT_EQ(t.results[q], store.reduce(batch.queries[q].indices))
            << "query " << q;
    }
    EXPECT_TRUE(std::is_sorted(t.timeline.begin(), t.timeline.end()));
    std::size_t deliveries = 0;
    for (const TimelineEvent &ev : t.timeline)
        deliveries += std::string(ev.kind) == "deliver";
    EXPECT_GE(deliveries, t.memAccesses);
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

TEST(EventEngine, ReadinessRulesHold)
{
    // The pipeline's readiness rules, checked from outside: the recorded
    // timeline against the functional trace of the same prepared batch,
    // on shapes that overflow the FIFOs and under injected backpressure
    // (both delay arrivals past the delivery event's tick), and under
    // delivery jitter, which brings a child's flits to its parent out of
    // emission order.
    struct Case
    {
        const char *name;
        unsigned batchSize;
        unsigned hwBatch;
        double skew;
        const char *faults;
    };
    const Case cases[] = {
        {"B=32", 32, 32, 0.9, ""},
        {"B=48", 48, 32, 0.9, ""},
        {"hwBatch=2", 32, 2, 1.1, ""},
        {"pe_backpressure", 32, 32, 0.9, "pe_backpressure:0.05"},
        {"event_delay", 32, 32, 0.9, "event_delay:0.05"},
        {"event_delay+pe_backpressure", 48, 2, 1.1,
         "event_delay:0.2,pe_backpressure:0.05"},
    };
    for (const Case &c : cases) {
        std::size_t early_emits = 0;
        std::size_t early_forwards = 0;
        std::size_t crowded_emits = 0;
        std::size_t forwards = 0;
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << c.name << " seed=" << seed);
            std::optional<fault::FaultPlan> plan;
            if (*c.faults != '\0')
                plan.emplace(fault::FaultPlan::parse(c.faults, seed));
            // Installed before the rig: the queue samples the plan once.
            fault::ScopedPlanInstall install(plan ? &*plan : nullptr);
            EventRig rig;
            EventEngineConfig cfg;
            cfg.base.hwBatch = c.hwBatch;
            cfg.recordTimeline = true;
            EventDrivenEngine engine(rig.memory, rig.layout, cfg);
            PreparedBatch prepared = Host(rig.layout).prepare(
                rig.makeBatch(c.batchSize, 16, seed, c.skew),
                cfg.base.dedup);
            const EventLookupTiming t = engine.lookupPrepared(prepared, 0);
            const TreeRun run = FunctionalTree(engine.topology())
                                    .run(prepared, false, true);
            const TreeReplay replay(rig.memory, rig.layout, cfg.base);

            // Per PE: arrival tick per side-major input, emission tick
            // per output.
            const unsigned num_pes = engine.topology().numPes();
            std::vector<std::vector<Tick>> arrival(num_pes + 1);
            std::vector<std::vector<Tick>> emitted(num_pes + 1);
            for (unsigned pe = 1; pe <= num_pes; ++pe) {
                const PeTrace &trace = run.trace[pe];
                arrival[pe].assign(trace.inputs[0] + trace.inputs[1],
                                   MaxTick);
                emitted[pe].assign(trace.outputs.size(), MaxTick);
            }
            for (const TimelineEvent &ev : t.timeline) {
                const bool deliver = std::string(ev.kind) == "deliver";
                std::vector<Tick> &ticks =
                    deliver ? arrival[ev.pe] : emitted[ev.pe];
                ASSERT_LT(ev.index, ticks.size()) << ev.kind;
                EXPECT_EQ(ticks[ev.index], MaxTick)
                    << ev.kind << " twice: pe " << ev.pe << " #"
                    << ev.index;
                ticks[ev.index] = ev.tick;
            }

            for (unsigned pe = 1; pe <= num_pes; ++pe) {
                const PeTrace &trace = run.trace[pe];
                std::array<Tick, 2> side_last{0, 0};
                for (std::size_t i = 0; i < arrival[pe].size(); ++i) {
                    ASSERT_NE(arrival[pe][i], MaxTick)
                        << "pe " << pe << " input " << i << " never "
                        << "delivered";
                    const unsigned side = i < trace.inputs[0] ? 0 : 1;
                    side_last[side] =
                        std::max(side_last[side], arrival[pe][i]);
                }
                for (std::size_t k = 0; k < trace.outputs.size(); ++k) {
                    const TracedOutput &out = trace.outputs[k];
                    const Tick emit = emitted[pe][k];
                    ASSERT_NE(emit, MaxTick)
                        << "pe " << pe << " output " << k
                        << " never emitted";
                    Tick latest = 0;
                    for (const Provenance &src : out.sources) {
                        const std::size_t input =
                            src.side * trace.inputs[0] + src.index;
                        latest = std::max(latest, arrival[pe][input]);
                    }
                    early_emits += emit < replay.align(latest) +
                                              replay.pathTicks(pe,
                                                               out.action);
                    if (out.action != PeAction::Forward)
                        continue;
                    ++forwards;
                    bool early = false;
                    for (const Provenance &src : out.sources)
                        early |= emit < side_last[1 - src.side];
                    early_forwards += early;
                }
                std::vector<Tick> ticks = emitted[pe];
                std::sort(ticks.begin(), ticks.end());
                for (std::size_t i = 1; i < ticks.size(); ++i)
                    crowded_emits +=
                        ticks[i] - ticks[i - 1] < replay.issueTicks();
            }
        }
        EXPECT_GT(forwards, 0u) << c.name;
        EXPECT_EQ(early_emits, 0u)
            << c.name << ": emissions before their sources' arrival "
            << "plus the path latency";
        EXPECT_EQ(early_forwards, 0u)
            << c.name << ": of " << forwards << " forwards, emitted "
            << "before an opposite side's last arrival";
        EXPECT_EQ(crowded_emits, 0u)
            << c.name << ": emissions closer than one issue interval";
    }
}
