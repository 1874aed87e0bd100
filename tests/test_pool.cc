/**
 * @file
 * VectorPool: buffer recycling semantics, and the guarantee that pooled
 * and unpooled PE evaluation produce bit-identical outputs.
 */

#include <gtest/gtest.h>

#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "fafnir/functional.hh"
#include "fafnir/host.hh"
#include "fafnir/pool.hh"
#include "fafnir/tree.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

TEST(VectorPool, RecyclesReleasedCapacity)
{
    VectorPool pool;
    Vector a = pool.acquire(16);
    EXPECT_EQ(a.size(), 16u);
    EXPECT_EQ(pool.stats().reuses, 0u);

    const float *data = a.data();
    pool.release(std::move(a));
    EXPECT_EQ(pool.idleBuffers(), 1u);

    Vector b = pool.acquire(8);
    EXPECT_EQ(b.size(), 8u);
    EXPECT_EQ(b.data(), data); // same buffer came back
    EXPECT_EQ(pool.stats().reuses, 1u);
    EXPECT_EQ(pool.idleBuffers(), 0u);
}

TEST(VectorPool, IgnoresEmptyBuffers)
{
    VectorPool pool;
    pool.release(Vector{});
    EXPECT_EQ(pool.idleBuffers(), 0u);
    EXPECT_EQ(pool.stats().releases, 0u);
}

namespace
{

/** Two reducible input sides plus an unpaired forward; @p query_sets
 *  gets each query's full index set. */
void
makeInputs(std::vector<Item> &a, std::vector<Item> &b,
           std::vector<IndexSet> &query_sets, std::size_t dim)
{
    for (IndexId i = 0; i < 6; i += 2) {
        const QueryId q = i / 2;
        query_sets.push_back({i, i + 1});
        Item left;
        left.indices = IndexSet::single(i);
        left.queries = {q};
        left.value.assign(dim, 1.0f + static_cast<float>(i));
        Item right;
        right.indices = IndexSet::single(i + 1);
        right.queries = {q};
        right.value.assign(dim, 0.5f + static_cast<float>(i));
        a.push_back(std::move(left));
        b.push_back(std::move(right));
    }
    // Query 3 has both vectors on side A: one reduceless forward each.
    query_sets.push_back({40, 41});
    Item lone;
    lone.indices = IndexSet::single(40);
    lone.queries = {3};
    lone.value.assign(dim, 7.0f);
    a.push_back(std::move(lone));
}

} // namespace

TEST(VectorPool, PooledPeOutputsBitIdentical)
{
    std::vector<Item> a;
    std::vector<Item> b;
    std::vector<IndexSet> query_sets;
    makeInputs(a, b, query_sets, 33); // odd length: no convenient width

    PeActivity plain_activity;
    const auto plain = ProcessingElement::process(
        a, b, query_sets, plain_activity, true, ReduceOp::Sum, nullptr);

    VectorPool pool;
    PeActivity pooled_activity;
    // Two rounds so round two actually reuses round one's buffers.
    for (int round = 0; round < 2; ++round) {
        auto pooled = ProcessingElement::process(
            a, b, query_sets, pooled_activity, true, ReduceOp::Sum, &pool);
        ASSERT_EQ(pooled.size(), plain.size());
        for (std::size_t i = 0; i < plain.size(); ++i) {
            EXPECT_EQ(pooled[i].item.indices, plain[i].item.indices);
            EXPECT_EQ(pooled[i].item.queries, plain[i].item.queries);
            EXPECT_EQ(pooled[i].item.value, plain[i].item.value);
            EXPECT_EQ(pooled[i].action, plain[i].action);
        }
        for (auto &out : pooled)
            pool.release(std::move(out.item.value));
    }
    EXPECT_GT(pool.stats().reuses, 0u);
}

// A full multi-level tree evaluation must recycle buffers (levels above
// the leaves are served from dead lower-level outputs) and still match
// the reference gather-reduce exactly.
TEST(VectorPool, FunctionalTreeReusesBuffers)
{
    const TableConfig tables{32, 4096, 512, 4};
    const auto geometry = dram::Geometry::withTotalRanks(32);
    const dram::AddressMapper mapper(geometry, dram::Interleave::BlockRank,
                                     tables.vectorBytes);
    EmbeddingStore store(tables);
    const VectorLayout layout(tables, mapper);
    const Host host(layout, &store);
    const TreeTopology topology(32);
    const FunctionalTree tree(topology);

    WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = 16;
    wc.querySize = 8;
    BatchGenerator gen(wc, 7);
    const Batch batch = gen.next();

    const PreparedBatch prepared = host.prepare(batch, /*dedup=*/true);
    const TreeRun run = tree.run(prepared, /*values=*/true);

    EXPECT_GT(run.poolStats.acquires, 0u);
    EXPECT_GT(run.poolStats.reuses, 0u);
    EXPECT_GT(run.poolStats.releases, 0u);

    const auto reference = store.reduceBatch(batch);
    ASSERT_EQ(run.results.size(), reference.size());
    for (std::size_t q = 0; q < reference.size(); ++q) {
        EXPECT_TRUE(vectorsEqual(run.results[q], reference[q]))
            << "query " << q << " mismatch with pooling";
    }
}
