/**
 * @file
 * Batch-composer tests: conservation (every query batched exactly once),
 * FIFO semantics, similarity gains, window bounding, and engine
 * integration (fewer reads under similarity batching).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/faultinject.hh"
#include "embedding/batcher.hh"
#include "embedding/generator.hh"
#include "fafnir/engine.hh"

using namespace fafnir;
using namespace fafnir::embedding;

namespace
{

std::vector<Query>
queryStream(unsigned count, double skew, double hot, std::uint64_t seed)
{
    WorkloadConfig wc;
    wc.tables = {32, 1u << 20, 512, 4};
    wc.batchSize = 1;
    wc.querySize = 16;
    wc.popularity = skew > 0 ? Popularity::Zipfian : Popularity::Uniform;
    wc.zipfSkew = skew;
    wc.hotFraction = hot;
    BatchGenerator gen(wc, seed);
    std::vector<Query> stream;
    for (unsigned i = 0; i < count; ++i) {
        Query q = gen.next().queries.front();
        q.id = 0;
        stream.push_back(std::move(q));
    }
    return stream;
}

/** Every input query appears in exactly one output slot. */
void
expectConservation(const ComposedBatches &composed, std::size_t count)
{
    std::set<std::size_t> seen;
    for (const auto &origin : composed.originalIndex)
        for (std::size_t pos : origin)
            EXPECT_TRUE(seen.insert(pos).second) << "duplicate " << pos;
    EXPECT_EQ(seen.size(), count);
}

} // namespace

TEST(Batcher, FifoChunksInOrder)
{
    const auto stream = queryStream(70, 0.9, 0.001, 1);
    BatcherConfig cfg;
    cfg.batchSize = 32;
    cfg.policy = BatchPolicy::Fifo;
    const auto composed = composeBatches(stream, cfg);
    ASSERT_EQ(composed.batches.size(), 3u);
    EXPECT_EQ(composed.batches[0].size(), 32u);
    EXPECT_EQ(composed.batches[2].size(), 6u); // remainder
    expectConservation(composed, 70);
    // FIFO preserves arrival order.
    std::size_t expect = 0;
    for (const auto &origin : composed.originalIndex)
        for (std::size_t pos : origin)
            EXPECT_EQ(pos, expect++);
}

TEST(Batcher, SimilarityConservesQueries)
{
    const auto stream = queryStream(100, 1.05, 0.00001, 2);
    BatcherConfig cfg;
    cfg.batchSize = 16;
    cfg.windowSize = 64;
    const auto composed = composeBatches(stream, cfg);
    expectConservation(composed, 100);
    for (const auto &batch : composed.batches) {
        EXPECT_LE(batch.size(), 16u);
        batch.check();
    }
}

TEST(Batcher, SimilarityImprovesSharingOnHotTraffic)
{
    const auto stream = queryStream(256, 1.05, 0.00002, 3);
    BatcherConfig fifo;
    fifo.batchSize = 32;
    fifo.policy = BatchPolicy::Fifo;
    BatcherConfig sim;
    sim.batchSize = 32;
    sim.windowSize = 256;
    sim.policy = BatchPolicy::Similarity;

    const double fifo_unique =
        composeBatches(stream, fifo).meanUniqueFraction();
    const double sim_unique =
        composeBatches(stream, sim).meanUniqueFraction();
    EXPECT_LT(sim_unique, fifo_unique);
}

TEST(Batcher, UniformTrafficGainsLittle)
{
    const auto stream = queryStream(128, 0.0, 1.0, 4);
    BatcherConfig fifo;
    fifo.policy = BatchPolicy::Fifo;
    BatcherConfig sim;
    sim.policy = BatchPolicy::Similarity;
    const double gap =
        composeBatches(stream, fifo).meanUniqueFraction() -
        composeBatches(stream, sim).meanUniqueFraction();
    EXPECT_NEAR(gap, 0.0, 0.02);
}

TEST(Batcher, WindowBoundsReordering)
{
    // With windowSize == batchSize, similarity degenerates to FIFO-like
    // membership: the first batch must consist of the first window.
    const auto stream = queryStream(64, 1.05, 0.00002, 5);
    BatcherConfig cfg;
    cfg.batchSize = 16;
    cfg.windowSize = 16;
    const auto composed = composeBatches(stream, cfg);
    for (std::size_t pos : composed.originalIndex[0])
        EXPECT_LT(pos, 16u);
}

TEST(Batcher, OldestQuerySeedsEachBatch)
{
    const auto stream = queryStream(96, 1.05, 0.00002, 6);
    BatcherConfig cfg;
    cfg.batchSize = 8;
    cfg.windowSize = 96;
    const auto composed = composeBatches(stream, cfg);
    // The seed (first member) of each batch is the oldest not yet
    // served, so seeds are strictly increasing.
    std::size_t prev_seed = 0;
    bool first = true;
    for (const auto &origin : composed.originalIndex) {
        if (!first) {
            EXPECT_GT(origin[0], prev_seed);
        }
        prev_seed = origin[0];
        first = false;
    }
}

TEST(Batcher, IncrementalScoringMatchesReferenceExactly)
{
    // The incremental-overlap fast path must reproduce the O(window^2)
    // reference batch-for-batch: same membership, same pick order, same
    // original positions. Sweep traffic shapes and window/batch ratios,
    // including windows larger than the stream and remainder batches.
    struct Shape
    {
        double skew;
        double hot;
        unsigned batch;
        unsigned window;
    };
    const std::vector<Shape> shapes = {
        {1.05, 0.00002, 16, 64},  {0.9, 0.001, 32, 256},
        {0.0, 1.0, 8, 24},        {1.05, 0.00002, 32, 20},
        {1.2, 0.0001, 7, 1000},
    };
    for (std::uint64_t seed = 11; seed <= 13; ++seed) {
        const auto stream = queryStream(150, 1.05, 0.0001, seed);
        for (const Shape &s : shapes) {
            BatcherConfig cfg;
            cfg.batchSize = s.batch;
            cfg.windowSize = s.window;
            const auto fast = composeBatches(stream, cfg);
            const auto ref = composeBatchesReference(stream, cfg);
            ASSERT_EQ(fast.batches.size(), ref.batches.size());
            ASSERT_EQ(fast.originalIndex, ref.originalIndex)
                << "seed " << seed << " batch " << s.batch << " window "
                << s.window;
            for (std::size_t b = 0; b < fast.batches.size(); ++b) {
                ASSERT_EQ(fast.batches[b].size(), ref.batches[b].size());
                for (std::size_t q = 0; q < fast.batches[b].size(); ++q) {
                    EXPECT_EQ(fast.batches[b].queries[q].id,
                              ref.batches[b].queries[q].id);
                    EXPECT_EQ(fast.batches[b].queries[q].indices,
                              ref.batches[b].queries[q].indices);
                }
            }
        }
    }
}

TEST(Batcher, SimilarityReducesEngineReads)
{
    const auto stream = queryStream(256, 1.05, 0.00002, 7);

    auto total_reads = [&](BatchPolicy policy) {
        BatcherConfig cfg;
        cfg.batchSize = 32;
        cfg.windowSize = 256;
        cfg.policy = policy;
        const auto composed = composeBatches(stream, cfg);

        EventQueue eq;
        embedding::TableConfig tables{32, 1u << 20, 512, 4};
        dram::MemorySystem memory(eq, dram::Geometry{},
                                  dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        VectorLayout layout(tables, memory.mapper());
        core::FafnirEngine engine(memory, layout, core::EngineConfig{});
        const auto timings = engine.lookupMany(composed.batches, 0);
        std::size_t reads = 0;
        for (const auto &t : timings)
            reads += t.memAccesses;
        return reads;
    };

    EXPECT_LT(total_reads(BatchPolicy::Similarity),
              total_reads(BatchPolicy::Fifo));
}

TEST(QueryFaults, DupIndexFiresOnlyWhenItDuplicates)
{
    // query_malformed empties some queries before query_dup_index sees
    // them; a fired dup hook must leave its query with a repeated index.
    fault::FaultPlan plan =
        fault::FaultPlan::parse("query_malformed:1,query_dup_index:1", 7);
    fault::ScopedPlanInstall install(&plan);

    WorkloadConfig wc;
    wc.tables = {32, 1u << 20, 512, 4};
    wc.batchSize = 16;
    wc.querySize = 16;
    BatchGenerator gen(wc, 7);
    std::size_t empty = 0;
    std::size_t repeated = 0;
    for (int b = 0; b < 4; ++b) {
        Batch batch = gen.next();
        injectQueryFaults(batch, wc.tables.totalVectors());
        for (const Query &q : batch.queries) {
            std::vector<IndexId> sorted(q.indices.begin(), q.indices.end());
            std::sort(sorted.begin(), sorted.end());
            empty += sorted.empty();
            repeated += std::adjacent_find(sorted.begin(), sorted.end()) !=
                        sorted.end();
        }
    }
    // The plan must have exercised both sides of the rule.
    EXPECT_GT(empty, 0u);
    EXPECT_GT(repeated, 0u);
    EXPECT_EQ(plan.firedCount(fault::Hook::QueryDupIndex), repeated);
}
