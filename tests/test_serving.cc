/**
 * @file
 * Serving-pipeline unit tests: the sorted-dedup prepare matches the
 * ordered-map reference bit for bit, pipelined multi-engine serving
 * returns the same values as the serial single-engine path, dispatch
 * is work-conserving, hedging fires and never changes
 * values, slot arenas actually recycle buffers, and the back-annotated
 * attribution split stays exact.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "common/faultinject.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "sim/eventq.hh"
#include "fafnir/host.hh"
#include "fafnir/serving.hh"
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

/** Serial reference: one engine, plain lookups, same batches. */
std::vector<std::vector<Vector>>
serialResults(const std::vector<Batch> &batches, ReduceOp op,
              const EmbeddingStore &store)
{
    auto replicas = makeEventReplicas(1, {}, smallTables(),
                                      valueConfig(op), &store);
    std::vector<std::vector<Vector>> results;
    Tick t = 0;
    for (const auto &batch : batches) {
        auto timing = replicas[0].engine->lookup(batch, t);
        t = timing.complete;
        results.push_back(std::move(timing.results));
    }
    return results;
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

/** Structural equality of two prepared batches, to the bit. */
void
expectPreparedIdentical(const PreparedBatch &a, const PreparedBatch &b)
{
    ASSERT_EQ(a.rankReads.size(), b.rankReads.size());
    EXPECT_EQ(a.uniqueCount, b.uniqueCount);
    EXPECT_EQ(a.totalReferences, b.totalReferences);
    EXPECT_EQ(a.accessCount, b.accessCount);
    for (std::size_t r = 0; r < a.rankReads.size(); ++r) {
        ASSERT_EQ(a.rankReads[r].size(), b.rankReads[r].size())
            << "rank " << r;
        for (std::size_t i = 0; i < a.rankReads[r].size(); ++i) {
            const RankRead &ra = a.rankReads[r][i];
            const RankRead &rb = b.rankReads[r][i];
            EXPECT_EQ(ra.index, rb.index) << "rank " << r << " read " << i;
            EXPECT_EQ(ra.address, rb.address);
            ASSERT_EQ(ra.queries.size(), rb.queries.size());
            for (std::size_t q = 0; q < ra.queries.size(); ++q) {
                EXPECT_EQ(ra.queries[q], rb.queries[q])
                    << "rank " << r << " read " << i << " user " << q;
            }
            EXPECT_TRUE(bitIdentical(ra.value, rb.value));
        }
    }
}

} // namespace

TEST(PrepareBatch, SortedDedupMatchesOrderedMapReference)
{
    // Every input in both modes: reads, their order, users and values.
    const auto check = [](const VectorLayout &layout,
                          const EmbeddingStore &store, const Batch &batch) {
        for (bool dedup : {true, false}) {
            SCOPED_TRACE("dedup=" + std::to_string(dedup));
            expectPreparedIdentical(
                prepareBatch(layout, &store, batch, dedup),
                prepareBatchReference(layout, &store, batch, dedup));
        }
    };
    EmbeddingStore store(smallTables());
    auto replicas = makeEventReplicas(1, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    const VectorLayout &layout = *replicas[0].layout;
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        for (const Batch &batch : makeBatches(3, 24, 20, seed))
            check(layout, store, batch);
    }
    for (const Batch &batch : makeBatches(4, 1, 20, 17)) {
        SCOPED_TRACE("one query");
        check(layout, store, batch);
    }
    {
        SCOPED_TRACE("256 queries");
        check(layout, store, makeBatches(1, 256, 20, 19).front());
    }
    {
        // Strided ids: each query takes 12 ids 64 apart, offset by 8 per
        // query, in one of four tables.
        SCOPED_TRACE("strided");
        Batch batch;
        for (QueryId q = 0; q < 8; ++q) {
            Query query;
            query.id = q;
            for (unsigned i = 0; i < 12; ++i)
                query.indices.push_back(((i * 64 + q * 8) % 4096) +
                                        (q % 4) * 4096);
            batch.queries.push_back(std::move(query));
        }
        check(layout, store, batch);
    }
    {
        // Hot batches on full-size tables (2^20 rows each): at hot
        // fraction 0.0001 about 0.7 of the references are unique.
        SCOPED_TRACE("hot");
        const TableConfig tables{32, 1u << 20, 512, 4};
        const dram::AddressMapper mapper(
            dram::Geometry{}, dram::Interleave::BlockRank, 512);
        const VectorLayout hot_layout(tables, mapper);
        const EmbeddingStore hot_store(tables);
        WorkloadConfig wc;
        wc.tables = tables;
        wc.batchSize = 32;
        wc.querySize = 24;
        wc.hotFraction = 0.0001;
        BatchGenerator gen(wc, 23);
        std::size_t unique = 0;
        std::size_t references = 0;
        for (int b = 0; b < 4; ++b) {
            const Batch batch = gen.next();
            check(hot_layout, hot_store, batch);
            const PreparedBatch p =
                prepareBatch(hot_layout, nullptr, batch, true);
            unique += p.uniqueCount;
            references += p.totalReferences;
        }
        EXPECT_LT(unique * 10, references * 8)
            << unique << " unique of " << references << " references";
    }
    {
        // The top of the key's index half: ids 0, 1, 2^31, 2^32 - 2 and
        // 2^32 - 1, shared across queries. One table of 2^32 64 B
        // vectors fills the 32-rank system's 256 GiB.
        SCOPED_TRACE("extreme ids");
        const TableConfig tables{1, std::uint64_t{1} << 32, 64, 4};
        const dram::AddressMapper mapper(
            dram::Geometry{}, dram::Interleave::BlockRank, 64);
        const VectorLayout wide_layout(tables, mapper);
        const EmbeddingStore wide_store(tables);
        const IndexId top = std::numeric_limits<IndexId>::max();
        const IndexId half = IndexId{1} << 31;
        Batch batch;
        batch.queries = {{0, {0, 1, half, top}},
                         {1, {1, top - 1, top}},
                         {2, {0, half, top - 1}},
                         {3, {top}}};
        check(wide_layout, wide_store, batch);
    }

    // Through a recycled slot arena, as the serving pipeline prepares:
    // buffers cycle through one VectorPool across batches and payload
    // formats, and the contents must never depend on buffer provenance.
    PreparePool pool;
    PreparePool::SlotArenas arenas = pool.makeSlotArenas();
    for (const PayloadFormat payload :
         {PayloadFormat::Fp32, PayloadFormat::Int8}) {
        for (double skew : {0.9, 0.0}) {
            for (const Batch &batch : makeBatches(6, 16, 24, 29, skew)) {
                for (bool dedup : {true, false}) {
                    PreparedBatch got = pool.prepare(
                        layout, &store, batch, dedup, &arenas, payload);
                    PreparedBatch ref = prepareBatchReference(
                        layout, &store, batch, dedup, nullptr, payload);
                    SCOPED_TRACE(std::string(payloadFormatName(payload)) +
                                 " skew=" + std::to_string(skew) +
                                 " dedup=" + std::to_string(dedup));
                    expectPreparedIdentical(got, ref);
                    pool.recycleAsync(std::move(got), arenas);
                }
            }
        }
    }
    EXPECT_GT(arenas.pool.stats().reuses, 0u)
        << "the slot arena never recycled a buffer";
}

TEST(ServingPipeline, ValuesBitIdenticalToSerialAllShapes)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(10, 16, 24, 42);
    for (ReduceOp op : kAllOps) {
        const auto want = serialResults(batches, op, store);
        for (unsigned engines : {1u, 2u, 4u}) {
            for (unsigned depth : {1u, 2u}) {
                auto replicas = makeEventReplicas(
                    engines, {}, smallTables(), valueConfig(op), &store);
                ServingConfig cfg;
                cfg.engines = engines;
                cfg.pipelineDepth = depth;
                ServingPipeline pipeline(cfg, replicas, &store);
                auto report =
                    pipeline.serve(batches, 2 * kTicksPerUs);
                ASSERT_EQ(report.batches.size(), batches.size());
                for (std::size_t b = 0; b < batches.size(); ++b) {
                    const auto &got = report.batches[b].timing.results;
                    ASSERT_EQ(got.size(), want[b].size())
                        << "engines " << engines << " depth " << depth;
                    for (std::size_t q = 0; q < got.size(); ++q) {
                        EXPECT_TRUE(bitIdentical(got[q], want[b][q]))
                            << "engines=" << engines << " depth=" << depth
                            << " op=" << toString(op) << " batch=" << b
                            << " query=" << q;
                    }
                }
            }
        }
    }
}

TEST(ServingPipeline, ParallelPrepareKeepsServedValuesBitIdentical)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(8, 16, 24, 61);
    const auto want = serialResults(batches, ReduceOp::Sum, store);
    for (unsigned workers : {2u, 4u}) {
        auto replicas = makeEventReplicas(
            2, {}, smallTables(), valueConfig(ReduceOp::Sum), &store);
        ServingConfig cfg;
        cfg.engines = 2;
        cfg.pipelineDepth = 2;
        cfg.prepareWorkers = workers;
        ServingPipeline pipeline(cfg, replicas, &store);
        auto report = pipeline.serve(batches, kTicksPerUs);
        ASSERT_EQ(report.batches.size(), batches.size());
        for (std::size_t b = 0; b < batches.size(); ++b) {
            const auto &got = report.batches[b].timing.results;
            ASSERT_EQ(got.size(), want[b].size());
            for (std::size_t q = 0; q < got.size(); ++q)
                EXPECT_TRUE(bitIdentical(got[q], want[b][q]))
                    << "workers=" << workers << " batch=" << b
                    << " query=" << q;
        }
    }
}

TEST(ServingPipeline, ParallelPrepareUnderFaultPlanStaysExact)
{
    // With a fault plan installed and a modelled 4-worker prepare, the
    // served values must still match the unfaulted serial reference —
    // timing faults move ticks, never bits.
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(6, 12, 16, 67);
    const auto want = serialResults(batches, ReduceOp::Sum, store);
    fault::FaultPlan plan =
        fault::FaultPlan::parse("dram_latency:0.3,event_delay:0.2", 5);
    fault::ScopedPlanInstall install(&plan);
    auto replicas = makeEventReplicas(2, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 2;
    cfg.prepareWorkers = 4;
    ServingPipeline pipeline(cfg, replicas, &store);
    auto report = pipeline.serve(batches, kTicksPerUs);
    ASSERT_EQ(report.batches.size(), batches.size());
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const auto &got = report.batches[b].timing.results;
        ASSERT_EQ(got.size(), want[b].size());
        for (std::size_t q = 0; q < got.size(); ++q)
            EXPECT_TRUE(bitIdentical(got[q], want[b][q]))
                << "batch=" << b << " query=" << q;
    }
}

TEST(ServingPipeline, LeastLoadedIsWorkConserving)
{
    // Under a burst (gap 0) no engine may sit idle while another has
    // more than one batch queued beyond it.
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(16, 8, 16, 9);
    auto replicas = makeEventReplicas(4, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 4;
    cfg.pipelineDepth = 4;
    ServingPipeline pipeline(cfg, replicas, &store);
    auto report = pipeline.serve(batches, 0);
    std::uint64_t total = 0;
    for (unsigned e = 0; e < 4; ++e) {
        EXPECT_GT(report.batchesPerEngine[e], 0u) << "engine " << e;
        total += report.batchesPerEngine[e];
    }
    EXPECT_EQ(total, batches.size());
}

TEST(ServingPipeline, FourReplicasOutpaceOne)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(24, 16, 24, 21);
    auto run = [&](unsigned engines) {
        auto replicas =
            makeEventReplicas(engines, {}, smallTables(),
                              valueConfig(ReduceOp::Sum), &store);
        ServingConfig cfg;
        cfg.engines = engines;
        cfg.pipelineDepth = engines + 1;
        ServingPipeline pipeline(cfg, replicas, &store);
        return pipeline.serve(batches, 0).requestsPerSecond();
    };
    const double one = run(1);
    const double four = run(4);
    EXPECT_GT(four, 2.0 * one);
}

TEST(ServingPipeline, SlotArenasRecycleBuffers)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(8, 16, 24, 33);
    auto replicas = makeEventReplicas(2, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 2;
    cfg.pipelineDepth = 2;
    ServingPipeline pipeline(cfg, replicas, &store);
    pipeline.serve(batches, 0);
    for (const auto &stats : pipeline.slotPoolStats()) {
        EXPECT_GT(stats.acquires, 0u);
        EXPECT_GT(stats.reuses, 0u)
            << "slot arena never recycled a buffer";
    }
}

TEST(ServingPipeline, HedgingFiresAndKeepsValues)
{
    EmbeddingStore store(smallTables());
    // Mostly small batches with a few much larger stragglers, so the
    // running p50 is small and the big batches overshoot it.
    auto batches = makeBatches(16, 8, 12, 55);
    const auto big = makeBatches(4, 32, 48, 56);
    batches.insert(batches.end(), big.begin(), big.end());
    const auto want = serialResults(batches, ReduceOp::Sum, store);

    auto replicas = makeEventReplicas(2, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 2;
    cfg.hedgePct = 50.0;
    ServingPipeline pipeline(cfg, replicas, &store);
    auto report = pipeline.serve(batches, 4 * kTicksPerUs);
    EXPECT_GT(report.hedgesIssued, 0u);
    EXPECT_GE(report.hedgesIssued, report.hedgesWon);
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const auto &got = report.batches[b].timing.results;
        ASSERT_EQ(got.size(), want[b].size());
        for (std::size_t q = 0; q < got.size(); ++q)
            EXPECT_TRUE(bitIdentical(got[q], want[b][q]))
                << "batch " << b << " query " << q;
    }
}

TEST(ServingPipeline, AttributionStaysExactWithPipelineStages)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(6, 12, 16, 77);
    auto replicas = makeEventReplicas(2, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 2;
    ServingPipeline pipeline(cfg, replicas, &store);

    telemetry::Attribution attr;
    {
        telemetry::ScopedContext install({.attribution = &attr});
        pipeline.serve(batches, kTicksPerUs);
    }
    ASSERT_FALSE(attr.queries().empty());
    std::uint64_t with_stages = 0;
    for (const auto &q : attr.queries()) {
        EXPECT_EQ(q.componentSum(), q.total())
            << "batch " << q.batch << " query " << q.query;
        if (q.batchPrepare > 0)
            ++with_stages;
    }
    EXPECT_GT(with_stages, 0u) << "no query saw a batchPrepare stage";
    EXPECT_DOUBLE_EQ(attr.componentCoverage(), 1.0);
}

TEST(ServingPipeline, StatsCountServedWork)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(6, 8, 12, 88);
    auto replicas = makeEventReplicas(2, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 2;
    ServingPipeline pipeline(cfg, replicas, &store);
    StatRegistry registry;
    pipeline.registerStats(registry.group("serving"));
    const auto report = pipeline.serve(batches, 0);
    // Every batch lands on exactly one engine and the report's per-engine
    // split accounts for all of them.
    std::uint64_t total = 0;
    for (auto count : report.batchesPerEngine)
        total += count;
    EXPECT_EQ(total, batches.size());
    EXPECT_GT(report.makespan, 0u);
    EXPECT_GT(report.requestsPerSecond(), 0.0);
}
