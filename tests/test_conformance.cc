/**
 * @file
 * Differential conformance suite: the functional tree, the event-driven
 * engine, and all three baseline value paths must produce bit-identical
 * reduced vectors for every reduce op — against the EmbeddingStore
 * reference and against each other — both fault-free and under every
 * recoverable fault hook. The store's synthetic values are multiples of
 * 1/16 in [0, 64), so fp32 summation is exact and any summation order
 * must agree to the bit; a mismatch is a real reduction bug, never
 * floating-point noise.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "baselines/cpu.hh"
#include "baselines/recnmp.hh"
#include "baselines/tensordimm.hh"
#include "common/faultinject.hh"
#include "dram/memsystem.hh"
#include "embedding/batcher.hh"
#include "embedding/generator.hh"
#include "embedding/service.hh"
#include "sim/eventq.hh"
#include "fafnir/event_engine.hh"
#include "fafnir/functional.hh"
#include "fafnir/host.hh"
#include "fafnir/serving.hh"

using namespace fafnir;
using namespace fafnir::embedding;

namespace
{

constexpr ReduceOp kAllOps[] = {ReduceOp::Sum, ReduceOp::Min,
                                ReduceOp::Max, ReduceOp::Mean};

/** Bitwise equality — no tolerance. */
::testing::AssertionResult
bitIdentical(const Vector &a, const Vector &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    if (!a.empty() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] != b[i])
                return ::testing::AssertionFailure()
                       << "element " << i << ": " << a[i] << " vs "
                       << b[i];
        }
    }
    return ::testing::AssertionSuccess();
}

void
expectAllBitIdentical(const std::vector<Vector> &got,
                      const std::vector<Vector> &want, const char *path,
                      ReduceOp op)
{
    ASSERT_EQ(got.size(), want.size()) << path;
    for (std::size_t q = 0; q < want.size(); ++q) {
        EXPECT_TRUE(bitIdentical(got[q], want[q]))
            << path << " op=" << toString(op) << " query " << q;
    }
}

/** One 32-rank system with real values behind every reduction path. */
struct ConformanceRig
{
    TableConfig tables{32, 4096, 512, 4};
    EventQueue eq;
    dram::MemorySystem memory;
    EmbeddingStore store;
    VectorLayout layout;

    ConformanceRig()
        : memory(eq, dram::Geometry::withTotalRanks(32),
                 dram::Timing::ddr4_2400(), dram::Interleave::BlockRank,
                 512),
          store(tables), layout(tables, memory.mapper())
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

    std::vector<Vector>
    functionalTree(const Batch &batch, ReduceOp op, bool dedup)
    {
        const core::TreeTopology topology(32);
        const core::FunctionalTree tree(topology);
        return tree
            .run(core::prepareBatch(layout, &store, batch, dedup),
                 /*values=*/true, /*keep_trace=*/false, op)
            .results;
    }

    std::vector<Vector>
    eventEngine(const Batch &batch, ReduceOp op, bool dedup)
    {
        core::EventEngineConfig cfg;
        cfg.base.dedup = dedup;
        cfg.computeValues = true;
        cfg.reduceOp = op;
        core::EventDrivenEngine engine(memory, layout, cfg, &store);
        return engine.lookup(batch, 0).results;
    }
};

} // namespace

TEST(Conformance, FunctionalTreeMatchesReferenceAllOps)
{
    ConformanceRig rig;
    const Batch batch = rig.makeBatch(16, 24, 101);
    for (ReduceOp op : kAllOps) {
        const auto want = rig.store.reduceBatch(batch, op);
        expectAllBitIdentical(rig.functionalTree(batch, op, true), want,
                              "tree-dedup", op);
        expectAllBitIdentical(rig.functionalTree(batch, op, false), want,
                              "tree-raw", op);
    }
}

TEST(Conformance, EventEngineMatchesReferenceAllOps)
{
    const Batch batch = ConformanceRig().makeBatch(12, 16, 102);
    for (ReduceOp op : kAllOps) {
        ConformanceRig rig;
        const auto want = rig.store.reduceBatch(batch, op);
        expectAllBitIdentical(rig.eventEngine(batch, op, true), want,
                              "event-dedup", op);
        expectAllBitIdentical(rig.eventEngine(batch, op, false), want,
                              "event-raw", op);
    }
}

TEST(Conformance, CpuBaselineMatchesReferenceAllOps)
{
    ConformanceRig rig;
    baselines::CpuEngine engine(rig.memory, rig.layout);
    const Batch batch = rig.makeBatch(16, 24, 103);
    for (ReduceOp op : kAllOps) {
        expectAllBitIdentical(engine.reduceBatch(rig.store, batch, op),
                              rig.store.reduceBatch(batch, op), "cpu",
                              op);
    }
}

TEST(Conformance, TensorDimmBaselineMatchesReferenceAllOps)
{
    ConformanceRig rig;
    baselines::TensorDimmEngine engine(rig.memory, rig.tables);
    const Batch batch = rig.makeBatch(16, 24, 104);
    for (ReduceOp op : kAllOps) {
        expectAllBitIdentical(engine.reduceBatch(rig.store, batch, op),
                              rig.store.reduceBatch(batch, op),
                              "tensordimm", op);
    }
}

TEST(Conformance, RecNmpBaselineMatchesReferenceAllOps)
{
    ConformanceRig rig;
    baselines::RecNmpEngine engine(rig.memory, rig.layout);
    const Batch batch = rig.makeBatch(16, 24, 105);
    for (ReduceOp op : kAllOps) {
        expectAllBitIdentical(engine.reduceBatch(rig.store, batch, op),
                              rig.store.reduceBatch(batch, op), "recnmp",
                              op);
    }
}

TEST(Conformance, AllFivePathsAgreeOnSingleIndexQueries)
{
    // Degenerate width-1 queries: reduction is the identity, finalize
    // still applies (Mean divides by 1).
    ConformanceRig rig;
    const Batch batch = rig.makeBatch(8, 1, 106);
    baselines::CpuEngine cpu(rig.memory, rig.layout);
    baselines::TensorDimmEngine tdimm(rig.memory, rig.tables);
    baselines::RecNmpEngine recnmp(rig.memory, rig.layout);
    for (ReduceOp op : kAllOps) {
        const auto want = rig.store.reduceBatch(batch, op);
        expectAllBitIdentical(rig.functionalTree(batch, op, true), want,
                              "tree", op);
        expectAllBitIdentical(rig.eventEngine(batch, op, true), want,
                              "event", op);
        expectAllBitIdentical(cpu.reduceBatch(rig.store, batch, op), want,
                              "cpu", op);
        expectAllBitIdentical(tdimm.reduceBatch(rig.store, batch, op),
                              want, "tensordimm", op);
        expectAllBitIdentical(recnmp.reduceBatch(rig.store, batch, op),
                              want, "recnmp", op);
    }
}

TEST(Conformance, RecoverableFaultsNeverChangeValues)
{
    // Every recoverable hook armed hard: timing warps, values must not.
    fault::FaultPlan plan = fault::FaultPlan::parse(
        "dram_latency:0.3,dram_stall:0.2,event_delay:0.3,"
        "pe_backpressure:0.3,pool_exhaust:0.5",
        77);
    fault::ScopedPlanInstall install(&plan);

    const Batch batch = ConformanceRig().makeBatch(12, 16, 107);
    for (ReduceOp op : kAllOps) {
        ConformanceRig rig;
        const auto want = [&] {
            fault::SuspendFaults holiday;
            return rig.store.reduceBatch(batch, op);
        }();
        expectAllBitIdentical(rig.eventEngine(batch, op, true), want,
                              "event-faulted", op);
        expectAllBitIdentical(rig.functionalTree(batch, op, true), want,
                              "tree-faulted", op);
    }
    EXPECT_GT(plan.totalFired(), 0u);
}

TEST(Conformance, FaultedTimingIsSeedDeterministic)
{
    const Batch batch = ConformanceRig().makeBatch(8, 16, 108);
    auto run_once = [&batch] {
        fault::FaultPlan plan = fault::FaultPlan::parse(
            "dram_latency:0.2,event_delay:0.2", 13);
        fault::ScopedPlanInstall install(&plan);
        ConformanceRig rig;
        core::EventEngineConfig cfg;
        core::EventDrivenEngine engine(rig.memory, rig.layout, cfg);
        const auto timing = engine.lookup(batch, 0);
        return std::make_pair(timing.complete, plan.totalFired());
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    EXPECT_GT(a.second, 0u);
}

namespace
{

/** Replicas + pipeline over the rig's geometry, values computed. */
core::PipelineReport
servePipelined(const std::vector<Batch> &batches, ReduceOp op,
               unsigned engines, unsigned depth, double hedge_pct,
               const EmbeddingStore &store)
{
    core::ReplicaMemoryConfig mem; // matches ConformanceRig's system
    core::EventEngineConfig ecfg;
    ecfg.computeValues = true;
    ecfg.reduceOp = op;
    std::vector<core::EngineReplica> replicas = core::makeEventReplicas(
        engines, mem, TableConfig{32, 4096, 512, 4}, ecfg, &store);

    core::ServingConfig sc;
    sc.engines = engines;
    sc.pipelineDepth = depth;
    sc.hedgePct = hedge_pct;
    sc.hedgeWarmup = 4;
    core::ServingPipeline pipeline(sc, replicas, &store);
    return pipeline.serve(batches, 0);
}

} // namespace

TEST(Conformance, PipelinedServingMatchesReferenceAllShapes)
{
    // Served values must be bit-identical to the store reference (and
    // hence the serial single-engine path) at every replica count and
    // pipeline depth — sharding and overlap change timing only.
    ConformanceRig rig;
    std::vector<Batch> batches;
    for (unsigned i = 0; i < 6; ++i)
        batches.push_back(rig.makeBatch(8, 12, 300 + i));

    for (ReduceOp op : kAllOps) {
        std::vector<std::vector<Vector>> want;
        for (const auto &batch : batches)
            want.push_back(rig.store.reduceBatch(batch, op));
        for (unsigned engines : {1u, 2u, 4u}) {
            for (unsigned depth : {1u, 2u}) {
                const auto report = servePipelined(
                    batches, op, engines, depth, 0.0, rig.store);
                ASSERT_EQ(report.batches.size(), batches.size());
                for (std::size_t b = 0; b < batches.size(); ++b) {
                    expectAllBitIdentical(
                        report.batches[b].timing.results, want[b],
                        "pipelined", op);
                }
            }
        }
    }
}

TEST(Conformance, PipelinedServingDeterministicUnderFaultsWithHedging)
{
    // One run exercises the full stack: a fault plan warping timing,
    // two replicas, depth-2 overlap, and hedged requests — values must
    // still match the fault-free reference, hedges must actually fire,
    // and a second identical run must reproduce every completion tick.
    ConformanceRig shape_rig;
    std::vector<Batch> batches;
    for (unsigned i = 0; i < 12; ++i)
        batches.push_back(shape_rig.makeBatch(4, 8, 400 + i));
    for (unsigned i = 0; i < 4; ++i)
        batches.push_back(shape_rig.makeBatch(24, 24, 420 + i));

    auto run_once = [&batches] {
        fault::FaultPlan plan = fault::FaultPlan::parse(
            "dram_latency:0.2,event_delay:0.2,pool_exhaust:0.3", 23);
        fault::ScopedPlanInstall install(&plan);
        ConformanceRig rig;
        return servePipelined(batches, ReduceOp::Sum, 2, 2, 50.0,
                              rig.store);
    };

    const auto want = [&] {
        ConformanceRig rig;
        std::vector<std::vector<Vector>> refs;
        for (const auto &batch : batches)
            refs.push_back(rig.store.reduceBatch(batch, ReduceOp::Sum));
        return refs;
    }();

    const auto first = run_once();
    ASSERT_EQ(first.batches.size(), batches.size());
    for (std::size_t b = 0; b < batches.size(); ++b) {
        expectAllBitIdentical(first.batches[b].timing.results, want[b],
                              "pipelined-faulted", ReduceOp::Sum);
    }
    EXPECT_GT(first.hedgesIssued, 0u);

    const auto second = run_once();
    ASSERT_EQ(second.batches.size(), first.batches.size());
    for (std::size_t b = 0; b < first.batches.size(); ++b) {
        EXPECT_EQ(second.batches[b].complete, first.batches[b].complete)
            << "batch " << b;
        EXPECT_EQ(second.batches[b].engine, first.batches[b].engine);
        EXPECT_EQ(second.batches[b].hedged, first.batches[b].hedged);
    }
    EXPECT_EQ(second.hedgesIssued, first.hedgesIssued);
    EXPECT_EQ(second.hedgesWon, first.hedgesWon);
}

TEST(Conformance, GuardServesOrTagsUnderFaults)
{
    fault::FaultPlan plan = fault::FaultPlan::parse(
        "dram_latency:0.2,query_malformed:0.15,query_dup_index:0.1", 19);
    fault::ScopedPlanInstall install(&plan);

    ConformanceRig rig;
    core::EventDrivenEngine engine(rig.memory, rig.layout,
                                   core::EventEngineConfig{});
    GuardConfig gc;
    gc.indexLimit = rig.tables.totalVectors();
    gc.maxQueryWidth = 256;
    ServiceGuard guard(gc, [&engine](const Batch &b, Tick at) {
        const auto t = engine.lookup(b, at);
        return ServeSample{t.complete, t.queryComplete};
    });

    std::vector<Batch> batches;
    for (unsigned i = 0; i < 6; ++i)
        batches.push_back(rig.makeBatch(8, 16, 200 + i));
    std::size_t corrupted = 0;
    for (auto &batch : batches)
        corrupted += injectQueryFaults(batch, rig.tables.totalVectors());
    ASSERT_GT(corrupted, 0u);

    for (const auto &batch : batches) {
        const GuardedRequest r = guard.serve(batch, 0);
        ASSERT_EQ(r.outcomes.size(), batch.size());
        for (const auto &outcome : r.outcomes) {
            // The contract: served, or dropped with a tagged reason —
            // never silently lost.
            if (outcome.served())
                continue;
            EXPECT_NE(outcome.reason, DegradeReason::None);
            if (outcome.reason == DegradeReason::InvalidQuery) {
                EXPECT_NE(outcome.defect, QueryDefect::None);
            }
        }
        EXPECT_EQ(r.servedQueries + r.droppedQueries, batch.size());
    }
    EXPECT_GT(guard.rejectedQueryCount(), 0u);
}
