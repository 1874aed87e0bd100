/**
 * @file
 * Engine-mode tests: hardware sub-batch splitting and interactive
 * processing on both engines and both batch entry points, root-delivery
 * order across batches, tree scales, parallel host links, and the HBM
 * pseudo-channel integration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "embedding/generator.hh"
#include "fafnir/engine.hh"
#include "fafnir/event_engine.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

struct ModeRig
{
    EventQueue eq;
    TableConfig tables{32, 1u << 16, 512, 4};
    dram::Geometry geometry;
    dram::MemorySystem memory;
    VectorLayout layout;

    explicit ModeRig(dram::Geometry g = dram::Geometry{},
                     dram::Timing t = dram::Timing::ddr4_2400())
        : geometry(g),
          memory(eq, geometry, t, dram::Interleave::BlockRank, 512),
          layout(tables, memory.mapper())
    {}

    Batch
    makeBatch(unsigned batch_size, unsigned query_size, std::uint64_t seed,
              double skew = 0.9, double hot_fraction = 0.01)
    {
        WorkloadConfig wc;
        wc.tables = tables;
        wc.batchSize = batch_size;
        wc.querySize = query_size;
        wc.zipfSkew = skew;
        wc.hotFraction = hot_fraction;
        return BatchGenerator(wc, seed).next();
    }
};

/** One engine and one batch entry point: lookup, or lookupMany over a
 *  stream that holds only the batch. */
struct Path
{
    bool event;
    bool many;
};

constexpr Path kPaths[] = {
    {false, false}, {false, true}, {true, false}, {true, true}};

std::string
pathName(const Path &path)
{
    return std::string(path.event ? "event" : "analytic") + " engine, " +
           (path.many ? "lookupMany" : "lookup");
}

/** Serve @p batch on a fresh rig with @p cfg through @p path. */
LookupTiming
serve(const Path &path, const EngineConfig &cfg, const Batch &batch)
{
    ModeRig rig;
    const auto run = [&](auto &engine) -> LookupTiming {
        if (path.many)
            return engine.lookupMany({batch}, 0).front();
        return engine.lookup(batch, 0);
    };
    if (!path.event) {
        FafnirEngine engine(rig.memory, rig.layout, cfg);
        return run(engine);
    }
    EventEngineConfig ecfg;
    ecfg.base = cfg;
    EventDrivenEngine engine(rig.memory, rig.layout, ecfg);
    return run(engine);
}

/** Reads of @p batch served as hardware batches of @p capacity queries
 *  that each dedup on their own. */
std::size_t
subBatchReads(const Batch &batch, std::size_t capacity)
{
    std::size_t reads = 0;
    for (std::size_t first = 0; first < batch.size(); first += capacity) {
        Batch sub;
        sub.queries.assign(batch.queries.begin() + first,
                           batch.queries.begin() +
                               std::min(batch.size(), first + capacity));
        reads += sub.uniqueIndices();
    }
    return reads;
}

/** Every query of a hardware batch completes after every query of the
 *  one before it: root deliveries stay ordered. */
void
expectSubBatchesInOrder(const LookupTiming &t, std::size_t capacity)
{
    const std::vector<Tick> &qc = t.queryComplete;
    for (std::size_t first = capacity; first < qc.size();
         first += capacity) {
        const Tick prev_last =
            *std::max_element(qc.begin() + (first - capacity),
                              qc.begin() + first);
        const Tick next_first = *std::min_element(
            qc.begin() + first,
            qc.begin() + std::min(qc.size(), first + capacity));
        EXPECT_GT(next_first, prev_last) << "hardware batch at " << first;
    }
}

} // namespace

TEST(EngineModes, OversizedBatchSplitsIntoHwBatches)
{
    const Batch batch = ModeRig().makeBatch(20, 8, 5); // 3 sub-batches
    EngineConfig cfg;
    cfg.hwBatch = 8;
    ASSERT_LT(batch.uniqueIndices(), subBatchReads(batch, 8));
    for (const Path &path : kPaths) {
        SCOPED_TRACE(pathName(path));
        const LookupTiming t = serve(path, cfg, batch);
        ASSERT_EQ(t.queryComplete.size(), 20u);
        for (Tick qc : t.queryComplete) {
            EXPECT_GT(qc, 0u);
            EXPECT_LE(qc, t.complete);
        }
        EXPECT_EQ(t.totalReferences, batch.totalIndices());
        // Each sub-batch dedups on its own.
        EXPECT_EQ(t.memAccesses, subBatchReads(batch, 8));
        expectSubBatchesInOrder(t, 8);
    }
}

TEST(EngineModes, SplittingPreservesTotalWork)
{
    const Batch batch = ModeRig().makeBatch(32, 16, 6);
    EngineConfig whole;
    whole.hwBatch = 32;
    whole.dedup = false;
    EngineConfig split = whole;
    split.hwBatch = 8;
    for (const Path &path : kPaths) {
        SCOPED_TRACE(pathName(path));
        const LookupTiming a = serve(path, whole, batch);
        const LookupTiming b = serve(path, split, batch);
        EXPECT_EQ(a.memAccesses, b.memAccesses); // no-dedup: same reads
        // Splitting can only reduce cross-query dedup, never total
        // coverage.
        EXPECT_EQ(a.totalReferences, b.totalReferences);
        EXPECT_EQ(a.activity.reduces + a.rootCombines,
                  b.activity.reduces + b.rootCombines);
        expectSubBatchesInOrder(b, 8);
    }
}

TEST(EngineModes, SplittingWeakensDedup)
{
    // Cross-sub-batch repeats are re-read: dedup scope is the hardware
    // batch.
    const Batch batch = ModeRig().makeBatch(32, 16, 9, 1.1, 0.0001);
    ASSERT_LT(batch.uniqueIndices(), subBatchReads(batch, 4));
    ASSERT_LT(subBatchReads(batch, 4), batch.totalIndices());

    EngineConfig whole;
    whole.hwBatch = 32;
    EngineConfig split;
    split.hwBatch = 4;
    for (const Path &path : kPaths) {
        SCOPED_TRACE(pathName(path));
        const auto a = serve(path, whole, batch);
        const auto b = serve(path, split, batch);
        EXPECT_EQ(a.memAccesses, batch.uniqueIndices());
        EXPECT_EQ(b.memAccesses, subBatchReads(batch, 4));
    }
}

TEST(EngineModes, InteractiveServesQueriesIndividually)
{
    const Batch batch = ModeRig().makeBatch(6, 8, 7, 1.1, 0.0001);
    EngineConfig cfg;
    cfg.interactive = true;
    ASSERT_LT(batch.uniqueIndices(), batch.totalIndices());
    for (const Path &path : kPaths) {
        SCOPED_TRACE(pathName(path));
        const LookupTiming t = serve(path, cfg, batch);
        EXPECT_EQ(t.queryComplete.size(), 6u);
        // No cross-query dedup in interactive mode.
        EXPECT_EQ(t.memAccesses, batch.totalIndices());
        // Queries drain in admission order.
        expectSubBatchesInOrder(t, 1);
    }
}

TEST(EngineModes, InteractiveSlowerThanBatchedOnStreams)
{
    const Batch batch = ModeRig().makeBatch(16, 16, 8);
    EngineConfig icfg;
    icfg.interactive = true;
    for (const Path &path : kPaths) {
        SCOPED_TRACE(pathName(path));
        EXPECT_LT(serve(path, EngineConfig{}, batch).complete,
                  serve(path, icfg, batch).complete);
    }
}

TEST(EngineModes, BatchStreamsKeepRootDeliveriesOrdered)
{
    // A slow root link makes one batch's vectors queue behind the
    // previous batch's: on both engines, a batch leaves the root only
    // after the previous batch's complete.
    ModeRig shapes;
    std::vector<Batch> batches;
    for (std::uint64_t seed = 30; seed < 34; ++seed)
        batches.push_back(shapes.makeBatch(16, 16, seed));
    EngineConfig cfg;
    cfg.rootLinkGBs = 4.0;
    for (bool event : {false, true}) {
        SCOPED_TRACE(event ? "event engine" : "analytic engine");
        ModeRig rig;
        std::vector<LookupTiming> timings;
        if (event) {
            EventEngineConfig ecfg;
            ecfg.base = cfg;
            for (auto &t : EventDrivenEngine(rig.memory, rig.layout, ecfg)
                               .lookupMany(batches, 0))
                timings.push_back(std::move(t));
        } else {
            timings = FafnirEngine(rig.memory, rig.layout, cfg)
                          .lookupMany(batches, 0);
        }
        ASSERT_EQ(timings.size(), batches.size());
        for (std::size_t b = 1; b < timings.size(); ++b) {
            for (Tick qc : timings[b].queryComplete)
                EXPECT_GE(qc, timings[b - 1].complete) << "batch " << b;
        }
    }
}

TEST(EngineModes, TreeScalesProduceSameResultsDifferentShapes)
{
    const Batch batch = ModeRig().makeBatch(8, 16, 11);
    std::vector<Tick> completes;
    for (unsigned rpl : {1u, 2u, 4u}) {
        ModeRig rig;
        EngineConfig cfg;
        cfg.ranksPerLeafPe = rpl;
        FafnirEngine engine(rig.memory, rig.layout, cfg);
        EXPECT_EQ(engine.topology().numPes(), 2 * (32 / rpl) - 1);
        const auto t = engine.lookup(batch, 0);
        EXPECT_EQ(t.memAccesses, batch.uniqueIndices());
        completes.push_back(t.complete);
    }
    // All scales complete; shapes differ but within the same regime.
    for (Tick c : completes)
        EXPECT_GT(c, 0u);
}

TEST(EngineModes, HbmPseudoChannelsWork)
{
    ModeRig rig(dram::Geometry::hbm2(), dram::Timing::hbm2());
    FafnirEngine engine(rig.memory, rig.layout, EngineConfig{});
    EXPECT_EQ(engine.topology().numRanks(), 32u);
    const Batch batch = rig.makeBatch(8, 16, 13);
    const auto t = engine.lookup(batch, 0);
    EXPECT_GT(t.complete, 0u);
    EXPECT_EQ(t.memAccesses, batch.uniqueIndices());
}

TEST(EngineModes, RowHitFirstSchedulingNeverLosesWork)
{
    // Reordering reads within a rank changes timing, not results: same
    // access counts, every query still completes; with row-adjacent
    // indices it should produce more row hits.
    ModeRig in_order;
    ModeRig row_first;
    // A query of row-adjacent vectors: indices k and k + 32*16 share a
    // rank; clusters of consecutive multiples of 32 share rows.
    Batch batch;
    Query q;
    q.id = 0;
    for (IndexId i = 0; i < 16; ++i)
        q.indices.push_back(i * 32); // all on one rank, few rows
    batch.queries.push_back(q);

    EngineConfig a;
    a.readOrder = ReadOrder::InOrder;
    FafnirEngine ea(in_order.memory, in_order.layout, a);
    EngineConfig b;
    b.readOrder = ReadOrder::RowHitFirst;
    FafnirEngine eb(row_first.memory, row_first.layout, b);

    const auto ta = ea.lookup(batch, 0);
    const auto tb = eb.lookup(batch, 0);
    EXPECT_EQ(ta.memAccesses, tb.memAccesses);
    EXPECT_EQ(ta.queryComplete.size(), tb.queryComplete.size());
    EXPECT_GE(row_first.memory.rowHitCount(),
              in_order.memory.rowHitCount());
    EXPECT_LE(tb.complete, ta.complete);
}

TEST(EngineModes, ParallelHostLinksRelieveTheRootBottleneck)
{
    // With many queries finishing together, c parallel root links drain
    // the results faster than one (Section IV-A's c connections), on
    // both engines: the root-to-host tail is their shared replay core.
    const Batch batch = ModeRig().makeBatch(32, 16, 21);
    auto run = [&](bool event, unsigned links) -> LookupTiming {
        ModeRig rig;
        EngineConfig cfg;
        cfg.hostLinks = links;
        if (!event)
            return FafnirEngine(rig.memory, rig.layout, cfg).lookup(batch, 0);
        EventEngineConfig ecfg;
        ecfg.base = cfg;
        return EventDrivenEngine(rig.memory, rig.layout, ecfg)
            .lookup(batch, 0);
    };
    for (bool event : {false, true}) {
        SCOPED_TRACE(event ? "event engine" : "analytic engine");
        const LookupTiming t1 = run(event, 1);
        const LookupTiming t4 = run(event, 4);
        EXPECT_LT(t4.complete, t1.complete);
        EXPECT_EQ(t4.memAccesses, t1.memAccesses);
        // Every query still completes within the batch window.
        for (Tick qc : t4.queryComplete)
            EXPECT_LE(qc, t4.complete);
    }
}

TEST(EngineModes, HbmFasterThanDdr4)
{
    const Batch batch = ModeRig().makeBatch(16, 16, 14);

    ModeRig ddr;
    FafnirEngine ddr_engine(ddr.memory, ddr.layout, EngineConfig{});
    ModeRig hbm(dram::Geometry::hbm2(), dram::Timing::hbm2());
    FafnirEngine hbm_engine(hbm.memory, hbm.layout, EngineConfig{});

    EXPECT_LT(hbm_engine.lookup(batch, 0).complete,
              ddr_engine.lookup(batch, 0).complete);
}
