/**
 * @file
 * Engine-mode tests: hardware sub-batch splitting, interactive
 * processing, tree scales, parallel host links, and the HBM
 * pseudo-channel integration.
 */

#include <gtest/gtest.h>

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
    makeBatch(unsigned batch_size, unsigned query_size, std::uint64_t seed)
    {
        WorkloadConfig wc;
        wc.tables = tables;
        wc.batchSize = batch_size;
        wc.querySize = query_size;
        wc.zipfSkew = 0.9;
        wc.hotFraction = 0.01;
        return BatchGenerator(wc, seed).next();
    }
};

} // namespace

TEST(EngineModes, OversizedBatchSplitsIntoHwBatches)
{
    ModeRig rig;
    EngineConfig cfg;
    cfg.hwBatch = 8;
    FafnirEngine engine(rig.memory, rig.layout, cfg);
    const Batch batch = rig.makeBatch(20, 8, 5); // 3 sub-batches
    const LookupTiming t = engine.lookup(batch, 0);
    EXPECT_EQ(t.queryComplete.size(), 20u);
    for (Tick qc : t.queryComplete) {
        EXPECT_GT(qc, 0u);
        EXPECT_LE(qc, t.complete);
    }
    EXPECT_EQ(t.totalReferences, batch.totalIndices());
    EXPECT_GE(t.memAccesses, batch.uniqueIndices());
}

TEST(EngineModes, SplittingPreservesTotalWork)
{
    ModeRig rig_whole;
    ModeRig rig_split;
    const Batch batch = rig_whole.makeBatch(32, 16, 6);

    EngineConfig whole;
    whole.hwBatch = 32;
    whole.dedup = false;
    FafnirEngine engine_whole(rig_whole.memory, rig_whole.layout, whole);

    EngineConfig split;
    split.hwBatch = 8;
    split.dedup = false;
    FafnirEngine engine_split(rig_split.memory, rig_split.layout, split);

    const auto a = engine_whole.lookup(batch, 0);
    const auto b = engine_split.lookup(batch, 0);
    EXPECT_EQ(a.memAccesses, b.memAccesses); // no-dedup: same reads
    // Splitting can only reduce cross-query dedup, never total coverage.
    EXPECT_EQ(a.totalReferences, b.totalReferences);
}

TEST(EngineModes, SplittingWeakensDedup)
{
    // Cross-sub-batch repeats are re-read: dedup scope is the hardware
    // batch.
    ModeRig rig_whole;
    ModeRig rig_split;
    WorkloadConfig wc;
    wc.tables = rig_whole.tables;
    wc.batchSize = 32;
    wc.querySize = 16;
    wc.zipfSkew = 1.1;
    wc.hotFraction = 0.0001;
    const Batch batch = BatchGenerator(wc, 9).next();
    ASSERT_LT(batch.uniqueIndices(), batch.totalIndices());

    EngineConfig whole;
    whole.hwBatch = 32;
    FafnirEngine ew(rig_whole.memory, rig_whole.layout, whole);
    EngineConfig split;
    split.hwBatch = 4;
    FafnirEngine es(rig_split.memory, rig_split.layout, split);

    const auto a = ew.lookup(batch, 0);
    const auto b = es.lookup(batch, 0);
    EXPECT_EQ(a.memAccesses, batch.uniqueIndices());
    EXPECT_GE(b.memAccesses, a.memAccesses);
    EXPECT_LE(b.memAccesses, batch.totalIndices());
}

TEST(EngineModes, InteractiveServesQueriesIndividually)
{
    ModeRig rig;
    EngineConfig cfg;
    cfg.interactive = true;
    FafnirEngine engine(rig.memory, rig.layout, cfg);
    const Batch batch = rig.makeBatch(6, 8, 7);
    const LookupTiming t = engine.lookup(batch, 0);
    EXPECT_EQ(t.queryComplete.size(), 6u);
    // No cross-query dedup in interactive mode.
    EXPECT_EQ(t.memAccesses, batch.totalIndices());
    // Queries drain in admission order.
    for (std::size_t i = 1; i < t.queryComplete.size(); ++i)
        EXPECT_GE(t.queryComplete[i], t.queryComplete[i - 1]);
}

TEST(EngineModes, InteractiveSlowerThanBatchedOnStreams)
{
    ModeRig batched_rig;
    ModeRig interactive_rig;
    const Batch batch = batched_rig.makeBatch(16, 16, 8);

    FafnirEngine batched(batched_rig.memory, batched_rig.layout,
                         EngineConfig{});
    EngineConfig icfg;
    icfg.interactive = true;
    FafnirEngine interactive(interactive_rig.memory,
                             interactive_rig.layout, icfg);

    EXPECT_LT(batched.lookup(batch, 0).complete,
              interactive.lookup(batch, 0).complete);
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
