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
    EXPECT_EQ(pool.stats().releases, 1u);

    Vector b = pool.acquire(8);
    EXPECT_EQ(b.size(), 8u);
    EXPECT_EQ(b.data(), data); // same buffer came back
    EXPECT_EQ(pool.stats().reuses, 1u);
    // Every released buffer went back out: none is left idle.
    EXPECT_EQ(pool.stats().reuses, pool.stats().releases);
}

TEST(VectorPool, IgnoresEmptyBuffers)
{
    VectorPool pool;
    pool.release(Vector{});
    EXPECT_EQ(pool.stats().releases, 0u);
}

namespace
{

/** A leaf flit reading vector @p index for query @p q, its value filled
 *  with @p fill; @p headers interns its header. */
Flit
leafFlit(HeaderTable &headers, IndexId index, QueryId q, std::size_t dim,
         float fill)
{
    Flit flit;
    flit.indices = headers.intern({&index, 1});
    flit.queries = {q};
    flit.value.assign(dim, fill);
    return flit;
}

/** Two reducible input sides plus an unpaired forward; @p query_sets
 *  gets each query's full index set. */
void
makeInputs(std::vector<Flit> &a, std::vector<Flit> &b,
           std::vector<IndexSet> &query_sets, HeaderTable &headers,
           std::size_t dim)
{
    for (IndexId i = 0; i < 6; i += 2) {
        const QueryId q = i / 2;
        query_sets.push_back({i, i + 1});
        const auto base = static_cast<float>(i);
        a.push_back(leafFlit(headers, i, q, dim, 1.0f + base));
        b.push_back(leafFlit(headers, i + 1, q, dim, 0.5f + base));
    }
    // Query 3 has both vectors on side A: one reduceless forward each.
    query_sets.push_back({40, 41});
    a.push_back(leafFlit(headers, 40, 3, dim, 7.0f));
}

} // namespace

TEST(VectorPool, PooledPeOutputsBitIdentical)
{
    std::vector<Flit> a;
    std::vector<Flit> b;
    std::vector<IndexSet> query_sets;
    PeBatch batch{.querySets = query_sets, .headers = HeaderTable(),
                  .stash = {}};
    // Odd length: no convenient width.
    makeInputs(a, b, query_sets, batch.headers, 33);

    PeActivity plain_activity;
    const auto plain = ProcessingElement::process(a, b, batch, plain_activity);

    VectorPool pool;
    batch.pool = &pool;
    PeActivity pooled_activity;
    // Two rounds so round two actually reuses round one's buffers.
    for (int round = 0; round < 2; ++round) {
        auto pooled = ProcessingElement::process(a, b, batch, pooled_activity);
        ASSERT_EQ(pooled.size(), plain.size());
        for (std::size_t i = 0; i < plain.size(); ++i) {
            EXPECT_EQ(pooled[i].indices, plain[i].indices);
            EXPECT_EQ(pooled[i].queries, plain[i].queries);
            EXPECT_EQ(pooled[i].value, plain[i].value);
            EXPECT_EQ(pooled[i].action, plain[i].action);
        }
        for (auto &out : pooled)
            pool.release(std::move(out.value));
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
    const TreeTopology topology(32);
    const FunctionalTree tree(topology);

    WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = 16;
    wc.querySize = 8;
    BatchGenerator gen(wc, 7);
    const Batch batch = gen.next();

    const PreparedBatch prepared =
        prepareBatch(layout, &store, batch, /*dedup=*/true);
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
