/**
 * @file
 * Embedding substrate tests: table configs, the deterministic store,
 * batch validity, the generators' statistical properties, and the
 * layout's rank-spreading behavior.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/random.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "embedding/query.hh"
#include "embedding/table.hh"

using namespace fafnir;
using namespace fafnir::embedding;

TEST(TableConfig, FlattenRoundTrip)
{
    const TableConfig t{32, 1u << 16, 512, 4};
    EXPECT_EQ(t.dim(), 128u);
    EXPECT_EQ(t.totalVectors(), 32ull << 16);
    const IndexId id = t.flatten(5, 1234);
    EXPECT_EQ(t.tableOf(id), 5u);
    EXPECT_EQ(t.rowOf(id), 1234u);
}

TEST(EmbeddingStore, Deterministic)
{
    const TableConfig t{4, 1024, 64, 4};
    const EmbeddingStore a(t);
    const EmbeddingStore b(t);
    EXPECT_EQ(a.vector(37), b.vector(37));
    EXPECT_NE(a.vector(37), a.vector(38));
}

TEST(EmbeddingStore, ReduceIsElementwiseSum)
{
    const TableConfig t{4, 1024, 64, 4};
    const EmbeddingStore store(t);
    const Vector sum = store.reduce({3, 9, 100});
    for (unsigned e = 0; e < t.dim(); ++e) {
        EXPECT_FLOAT_EQ(sum[e], store.element(3, e) + store.element(9, e) +
                                    store.element(100, e));
    }
}

TEST(EmbeddingStore, FillMatchesElement)
{
    // Ids around 2^13, where the index's high bits start to fold into
    // the hash's low word, and at the top of the 32-bit id space.
    std::vector<IndexId> ids{0,          1,           8191,      8192,
                             1u << 31, 0xfffffffeu, 0xffffffffu};
    Rng rng(29);
    for (int k = 0; k < 3000; ++k)
        ids.push_back(static_cast<IndexId>(rng.next()));
    // Dims below, at and around the eight-element vector step.
    for (const unsigned dim : {1u, 7u, 8u, 9u, 64u, 128u, 129u, 1000u}) {
        const EmbeddingStore store({1, 1024, 4 * dim, 4});
        std::vector<float> row(dim);
        std::size_t mismatches = 0;
        for (const IndexId id : ids) {
            std::fill(row.begin(), row.end(),
                      std::numeric_limits<float>::quiet_NaN());
            store.fill(id, row);
            for (unsigned e = 0; e < dim; ++e) {
                mismatches += std::bit_cast<std::uint32_t>(row[e]) !=
                              std::bit_cast<std::uint32_t>(
                                  store.element(id, e));
            }
        }
        EXPECT_EQ(mismatches, 0u) << "dim " << dim;
    }
}

TEST(EmbeddingStore, FillRejectsWrongShapes)
{
    const EmbeddingStore store({4, 1024, 64, 4});
    std::vector<float> short_row(store.config().dim() - 1);
    EXPECT_DEATH(store.fill(3, short_row), "filling 15 elements");
    // element() keeps the element below bit 20 of its hash input.
    EXPECT_DEATH(EmbeddingStore({1, 1, 4u << 20, 4}),
                 "does not fit the element hash");
}

TEST(EmbeddingStore, VectorsEqualTolerance)
{
    Vector a{1.0f, 2.0f};
    Vector b{1.0f, 2.0005f};
    EXPECT_TRUE(vectorsEqual(a, b, 1e-3f));
    EXPECT_FALSE(vectorsEqual(a, b, 1e-5f));
    EXPECT_FALSE(vectorsEqual(a, {1.0f}));
}

TEST(Batch, UniqueCounting)
{
    Batch batch;
    batch.queries.push_back({0, {1, 2, 3}});
    batch.queries.push_back({1, {2, 3, 4}});
    EXPECT_EQ(batch.totalIndices(), 6u);
    EXPECT_EQ(batch.uniqueIndices(), 4u);
    EXPECT_NEAR(batch.uniqueFraction(), 4.0 / 6.0, 1e-9);
    batch.check();
}

TEST(Generator, ProducesValidBatches)
{
    WorkloadConfig wc;
    wc.tables = {32, 1u << 16, 512, 4};
    wc.batchSize = 16;
    wc.querySize = 16;
    BatchGenerator gen(wc, 9);
    for (int i = 0; i < 20; ++i) {
        const Batch batch = gen.next();
        EXPECT_EQ(batch.size(), 16u);
        for (const auto &q : batch.queries)
            EXPECT_EQ(q.indices.size(), 16u);
        batch.check(); // sorted, unique, dense ids
    }
}

TEST(Generator, VariableQuerySizes)
{
    WorkloadConfig wc;
    wc.tables = {32, 1u << 16, 512, 4};
    wc.batchSize = 64;
    wc.querySize = 16;
    wc.minQuerySize = 4;
    BatchGenerator gen(wc, 10);
    const Batch batch = gen.next();
    std::set<std::size_t> sizes;
    for (const auto &q : batch.queries) {
        EXPECT_GE(q.size(), 4u);
        EXPECT_LE(q.size(), 16u);
        sizes.insert(q.size());
    }
    EXPECT_GT(sizes.size(), 3u); // actually varies
}

TEST(Generator, DeterministicPerSeed)
{
    WorkloadConfig wc;
    wc.tables = {32, 1u << 16, 512, 4};
    wc.batchSize = 8;
    wc.querySize = 8;
    BatchGenerator a(wc, 123);
    BatchGenerator b(wc, 123);
    const Batch ba = a.next();
    const Batch bb = b.next();
    for (std::size_t i = 0; i < ba.size(); ++i)
        EXPECT_EQ(ba.queries[i].indices, bb.queries[i].indices);
}

TEST(Generator, SkewIncreasesSharing)
{
    auto unique_fraction = [](double skew, double hot) {
        WorkloadConfig wc;
        wc.tables = {32, 1u << 20, 512, 4};
        wc.batchSize = 32;
        wc.querySize = 16;
        wc.popularity = skew > 0 ? Popularity::Zipfian
                                 : Popularity::Uniform;
        wc.zipfSkew = skew;
        wc.hotFraction = hot;
        BatchGenerator gen(wc, 11);
        double sum = 0;
        for (int i = 0; i < 30; ++i)
            sum += gen.next().uniqueFraction();
        return sum / 30;
    };
    const double uniform = unique_fraction(0.0, 1.0);
    const double hot = unique_fraction(1.05, 0.00001);
    EXPECT_GT(uniform, 0.99);
    EXPECT_LT(hot, 0.6);
}

TEST(Layout, SpreadsVectorsOverAllRanks)
{
    EventQueue eq;
    const TableConfig tables{32, 1u << 16, 512, 4};
    dram::MemorySystem mem(eq, dram::Geometry{}, dram::Timing::ddr4_2400(),
                           dram::Interleave::BlockRank, 512);
    const VectorLayout layout(tables, mem.mapper());

    std::set<unsigned> ranks;
    for (IndexId i = 0; i < 64; ++i)
        ranks.insert(layout.rankOf(i));
    EXPECT_EQ(ranks.size(), 32u);
}

TEST(Layout, HotRowsOfTablesAreStaggered)
{
    // Row 0 of each table must NOT all alias to one rank (the staggered
    // placement fix; see VectorLayout::addressOf).
    EventQueue eq;
    const TableConfig tables{32, 1u << 20, 512, 4};
    dram::MemorySystem mem(eq, dram::Geometry{}, dram::Timing::ddr4_2400(),
                           dram::Interleave::BlockRank, 512);
    const VectorLayout layout(tables, mem.mapper());

    std::set<unsigned> head_ranks;
    for (unsigned t = 0; t < tables.numTables; ++t)
        head_ranks.insert(layout.rankOf(tables.flatten(t, 0)));
    EXPECT_EQ(head_ranks.size(), 32u);
}

TEST(Layout, DimmAndChannelConsistent)
{
    EventQueue eq;
    const TableConfig tables{32, 1u << 16, 512, 4};
    dram::MemorySystem mem(eq, dram::Geometry{}, dram::Timing::ddr4_2400(),
                           dram::Interleave::BlockRank, 512);
    const VectorLayout layout(tables, mem.mapper());
    const dram::Geometry &g = mem.geometry();
    for (IndexId i = 0; i < 256; i += 7) {
        const unsigned rank = layout.rankOf(i);
        EXPECT_EQ(layout.dimmOf(i), rank / g.ranksPerDimm);
        EXPECT_EQ(layout.channelOf(i),
                  rank / g.ranksPerChannel());
    }
}
