/**
 * @file
 * Sharded serving-tier conformance: served values are bit-identical to
 * the single-store reference reduction at every shard count —
 * including under an installed fault plan and with hedging on — the
 * placement is always a partition of the table space, the 8-component
 * attribution split stays exact through the cross-shard combine stage,
 * and a one-shard tier is the serving pipeline.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <sstream>
#include <tuple>

#include "common/faultinject.hh"
#include "embedding/generator.hh"
#include "fafnir/serving.hh"
#include "fafnir/sharding.hh"
#include "telemetry/attribution.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

constexpr ReduceOp kAllOps[] = {ReduceOp::Sum, ReduceOp::Min,
                                ReduceOp::Max, ReduceOp::Mean};

TableConfig
smallTables()
{
    return TableConfig{32, 4096, 512, 4};
}

std::vector<Batch>
makeBatches(std::size_t count, unsigned batch_size, unsigned query_size,
            std::uint64_t seed, double skew = 0.9)
{
    WorkloadConfig wc;
    wc.tables = smallTables();
    wc.batchSize = batch_size;
    wc.querySize = query_size;
    wc.popularity =
        skew > 0 ? Popularity::Zipfian : Popularity::Uniform;
    wc.zipfSkew = skew;
    wc.hotFraction = 0.01;
    BatchGenerator gen(wc, seed);
    std::vector<Batch> batches;
    batches.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        batches.push_back(gen.next());
    return batches;
}

EventEngineConfig
valueConfig(ReduceOp op)
{
    EventEngineConfig cfg;
    cfg.computeValues = true;
    cfg.reduceOp = op;
    return cfg;
}

::testing::AssertionResult
bitIdentical(const Vector &a, const Vector &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    if (!a.empty() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)
        return ::testing::AssertionFailure() << "contents differ";
    return ::testing::AssertionSuccess();
}

/** Build a tier over @p shards x @p replicas engines and serve. */
ShardedReport
serveSharded(const std::vector<Batch> &batches,
             const EmbeddingStore &store, unsigned shards, ReduceOp op,
             unsigned replicas = 1, double hedge_pct = 0.0)
{
    auto groups = makeShardReplicas(shards, replicas, {}, smallTables(),
                                    valueConfig(op), &store);
    ShardTierConfig tc;
    tc.shards = shards;
    tc.reduceOp = op;
    tc.serving.engines = replicas;
    tc.serving.pipelineDepth = 2 * replicas;
    tc.serving.hedgePct = hedge_pct;
    ShardedServingTier tier(tc, groups, &store);
    return tier.serve(batches, 2 * kTicksPerUs);
}

/** Every served vector must equal the single-store reduction to the
 *  bit, whatever the tier's shape was. */
void
expectMatchesReference(const ShardedReport &report,
                       const std::vector<Batch> &batches,
                       const EmbeddingStore &store, ReduceOp op)
{
    ASSERT_EQ(report.batches.size(), batches.size());
    for (const ShardedBatchTrace &trace : report.batches) {
        const std::vector<Vector> want =
            store.reduceBatch(batches[trace.batch], op);
        ASSERT_EQ(trace.results.size(), want.size());
        for (std::size_t q = 0; q < want.size(); ++q)
            EXPECT_TRUE(bitIdentical(trace.results[q], want[q]))
                << "op=" << toString(op) << " batch=" << trace.batch
                << " query=" << q;
    }
}

} // namespace

TEST(ShardedTier, BitIdenticalAtAnyShardCountOpAndSkew)
{
    // The headline conformance claim: the shard count is a pure
    // deployment choice — it may move ticks, never bits.
    EmbeddingStore store(smallTables());
    for (double skew : {0.9, 0.0}) {
        const auto batches = makeBatches(6, 12, 20, 42, skew);
        for (ReduceOp op : kAllOps) {
            for (unsigned shards : {1u, 2u, 4u, 8u}) {
                SCOPED_TRACE(std::string("op=") + toString(op) +
                             " shards=" + std::to_string(shards) +
                             " skew=" + std::to_string(skew));
                expectMatchesReference(
                    serveSharded(batches, store, shards, op), batches,
                    store, op);
            }
        }
    }
}

TEST(ShardedTier, BitIdenticalUnderFaultPlan)
{
    // Timing faults perturb every shard's engines independently and
    // shift the combine order's arrival times — values still may not
    // move.
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(5, 12, 16, 67);
    fault::FaultPlan plan =
        fault::FaultPlan::parse("dram_latency:0.3,event_delay:0.2", 5);
    fault::ScopedPlanInstall install(&plan);
    for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Mean}) {
        for (unsigned shards : {2u, 4u}) {
            SCOPED_TRACE(std::string("op=") + toString(op) +
                         " shards=" + std::to_string(shards));
            expectMatchesReference(
                serveSharded(batches, store, shards, op), batches, store,
                op);
        }
    }
    EXPECT_GT(plan.totalFired(), 0u);
}

TEST(ShardedTier, BitIdenticalWithHedgingOn)
{
    // Mostly small batches plus oversized stragglers so per-shard
    // hedges actually fire; a backup winning must not change values.
    EmbeddingStore store(smallTables());
    auto batches = makeBatches(12, 8, 12, 55);
    const auto big = makeBatches(3, 32, 48, 56);
    batches.insert(batches.end(), big.begin(), big.end());
    const ShardedReport report =
        serveSharded(batches, store, 2, ReduceOp::Sum, /*replicas=*/2,
                     /*hedge_pct=*/50.0);
    std::uint64_t hedges = 0;
    for (const PipelineReport &shard : report.perShard)
        hedges += shard.hedgesIssued;
    EXPECT_GT(hedges, 0u) << "no shard hedged a straggler";
    expectMatchesReference(report, batches, store, ReduceOp::Sum);
}

TEST(ShardRouter, PlacementPartitionsTheTableSpace)
{
    const TableConfig tables = smallTables();
    for (unsigned shards : {1u, 2u, 3u, 4u, 8u}) {
        ShardRouter router(shards, tables);
        ASSERT_EQ(router.placement().size(), tables.numTables);
        std::vector<unsigned> perShard(shards, 0);
        for (unsigned t = 0; t < tables.numTables; ++t) {
            // Exactly one shard per table, and it is in range.
            ASSERT_LT(router.shardOfTable(t), shards)
                << "shards=" << shards;
            ++perShard[router.shardOfTable(t)];
        }
        // A partition: the per-shard owner counts cover every table
        // exactly once.
        EXPECT_EQ(std::accumulate(perShard.begin(), perShard.end(), 0u),
                  tables.numTables);
    }
}

TEST(ShardRouter, SplitCoversEveryReferenceExactlyOnce)
{
    const TableConfig tables = smallTables();
    ShardRouter router(4, tables);
    for (const Batch &batch : makeBatches(4, 16, 24, 77)) {
        const ShardRouter::SplitBatch split = router.split(batch);
        std::size_t refs = 0;
        for (unsigned s = 0; s < 4; ++s) {
            const auto &sub = split.perShard[s];
            ASSERT_EQ(sub.globalQuery.size(), sub.batch.queries.size());
            for (std::size_t lq = 0; lq < sub.batch.queries.size(); ++lq) {
                const Query &query = sub.batch.queries[lq];
                // Dense local ids in global order.
                EXPECT_EQ(query.id, lq);
                if (lq > 0) {
                    EXPECT_GT(sub.globalQuery[lq],
                              sub.globalQuery[lq - 1]);
                }
                EXPECT_FALSE(query.indices.empty());
                for (IndexId index : query.indices)
                    EXPECT_EQ(router.shardOfIndex(index), s);
                refs += query.indices.size();
            }
        }
        EXPECT_EQ(refs, batch.totalIndices());
        ASSERT_EQ(split.totalIndices.size(), batch.queries.size());
        for (std::size_t g = 0; g < batch.queries.size(); ++g)
            EXPECT_EQ(split.totalIndices[g],
                      batch.queries[g].indices.size());
    }
}

TEST(ShardedTier, AttributionStaysExactThroughShardCombine)
{
    // The 8-component breakdown must still telescope to end-to-end
    // latency when the cross-shard combine extends `complete`, and
    // multi-shard queries must actually carry the new component.
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(5, 12, 20, 101);
    auto groups = makeShardReplicas(2, 1, {}, smallTables(),
                                    valueConfig(ReduceOp::Sum), &store);
    ShardTierConfig tc;
    tc.shards = 2;
    ShardedServingTier tier(tc, groups, &store);

    telemetry::Attribution attr;
    {
        telemetry::ScopedContext install({.attribution = &attr});
        tier.serve(batches, kTicksPerUs);
    }
    ASSERT_FALSE(attr.queries().empty());
    std::uint64_t with_combine = 0;
    for (const auto &q : attr.queries()) {
        EXPECT_EQ(q.componentSum(), q.total())
            << "batch " << q.batch << " query " << q.query;
        if (q.shardCombine > 0)
            ++with_combine;
    }
    EXPECT_GT(with_combine, 0u) << "no query saw the combine stage";
    EXPECT_DOUBLE_EQ(attr.componentCoverage(), 1.0);
}

TEST(ShardedTier, OneShardTierIsThePipeline)
{
    // fafnir_sim serves --serve-engines=N as a one-shard tier, so one
    // shard must reproduce the pipeline on the same batches: the same
    // per-batch schedule, makespan, hedges, and per-query attribution
    // (a batch that touched one shard books no shardCombine).
    EmbeddingStore store(smallTables());
    auto batches = makeBatches(16, 8, 12, 55);
    const auto big = makeBatches(4, 32, 48, 56);
    batches.insert(batches.end(), big.begin(), big.end());
    ServingConfig sc;
    sc.engines = 2;
    sc.hedgePct = 50.0;

    auto replicas = makeEventReplicas(2, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingPipeline pipeline(sc, replicas, &store);
    telemetry::Attribution piped_attr;
    PipelineReport piped;
    {
        telemetry::ScopedContext install({.attribution = &piped_attr});
        piped = pipeline.serve(batches, kTicksPerUs);
    }

    auto groups = makeShardReplicas(1, 2, {}, smallTables(),
                                    valueConfig(ReduceOp::Sum), &store);
    ShardTierConfig tc;
    tc.shards = 1;
    tc.serving = sc;
    ShardedServingTier tier(tc, groups, &store);
    telemetry::Attribution tier_attr;
    ShardedReport tiered;
    {
        telemetry::ScopedContext install({.attribution = &tier_attr});
        tiered = tier.serve(batches, kTicksPerUs);
    }

    ASSERT_EQ(tiered.perShard.size(), 1u);
    const PipelineReport &shard = tiered.perShard[0];
    ASSERT_EQ(shard.batches.size(), piped.batches.size());
    ASSERT_EQ(tiered.batches.size(), piped.batches.size());
    for (std::size_t k = 0; k < piped.batches.size(); ++k) {
        EXPECT_EQ(shard.batches[k].started, piped.batches[k].started);
        EXPECT_EQ(shard.batches[k].complete, piped.batches[k].complete);
        EXPECT_EQ(tiered.batches[k].combineDone, piped.batches[k].done)
            << "batch " << k;
    }
    EXPECT_EQ(tiered.makespan, piped.makespan);
    EXPECT_GT(piped.hedgesIssued, 0u);
    EXPECT_EQ(shard.hedgesIssued, piped.hedgesIssued);
    EXPECT_EQ(shard.hedgesWon, piped.hedgesWon);

    const auto fields = [](const telemetry::QueryAttribution &q) {
        return std::make_tuple(q.batch, q.query, q.issued, q.complete,
                               q.batchPrepare, q.dispatchQueue,
                               q.dramService, q.ctrlQueue, q.peCompute,
                               q.forwardWait, q.serviceQueue,
                               q.shardCombine, q.criticalRank, q.hops,
                               q.flow);
    };
    // One record per served query: a hedge backup replays its batch
    // with attribution muted, so it never records a second copy.
    std::size_t served = 0;
    for (const auto &b : batches)
        served += b.queries.size();
    EXPECT_EQ(piped_attr.queries().size(), served);
    ASSERT_EQ(tier_attr.queries().size(), piped_attr.queries().size());
    for (std::size_t i = 0; i < piped_attr.queries().size(); ++i)
        EXPECT_EQ(fields(tier_attr.queries()[i]),
                  fields(piped_attr.queries()[i]))
            << "attribution record " << i;
}

TEST(ShardedTier, ReportAccountsLoadAndCrossShardQueries)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(6, 12, 24, 13);
    auto groups = makeShardReplicas(2, 1, {}, smallTables(),
                                    valueConfig(ReduceOp::Sum), &store);
    ShardTierConfig tc;
    tc.shards = 2;
    ShardedServingTier tier(tc, groups, &store);
    StatRegistry registry;
    tier.registerStats(registry.group("serving.shard"));
    const ShardedReport report = tier.serve(batches, 0);

    ASSERT_EQ(report.refsPerShard.size(), 2u);
    std::uint64_t refs =
        report.refsPerShard[0] + report.refsPerShard[1];
    std::size_t want = 0;
    for (const Batch &b : batches)
        want += b.totalIndices();
    EXPECT_EQ(refs, want);
    // 24 indices over 32 tables on 2 shards: essentially every query
    // spans both shards.
    EXPECT_GT(report.crossShardQueries, 0u);
    EXPECT_GE(report.loadImbalance(), 1.0);
    // After one serve the tier's cumulative imbalance stat is the
    // report's.
    std::ostringstream csv, row;
    registry.group("serving.shard").writeCsv(csv);
    row << "serving.shard.imbalance," << report.loadImbalance() << '\n';
    EXPECT_NE(csv.str().find(row.str()), std::string::npos) << csv.str();
    EXPECT_GT(report.makespan, 0u);
    for (const ShardedBatchTrace &trace : report.batches) {
        EXPECT_GE(trace.combineDone, trace.shardsDone);
        if (trace.shardsTouched > 1) {
            EXPECT_GT(trace.combineDone, trace.shardsDone);
        }
    }
    EXPECT_GT(report.combineBusy, 0u);
}
