/**
 * @file
 * Tests of the tree topology, host batch compilation, and
 * the buffer-sizing model (Table I).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "dram/memsystem.hh"
#include "embedding/layout.hh"
#include "embedding/quantize.hh"
#include "fafnir/host.hh"
#include "fafnir/sizing.hh"
#include "fafnir/tree.hh"

using namespace fafnir;
using namespace fafnir::core;

TEST(TreeTopology, PaperConfiguration)
{
    const TreeTopology topo(32, 2);
    EXPECT_EQ(topo.numLeafPes(), 16u);
    EXPECT_EQ(topo.numPes(), 31u);
    EXPECT_EQ(topo.numLevels(), 5u);
}

TEST(TreeTopology, HeapRelations)
{
    const TreeTopology topo(32);
    EXPECT_EQ(TreeTopology::rootPe(), 1u);
    EXPECT_EQ(topo.parent(2), 1u);
    EXPECT_EQ(topo.parent(3), 1u);
    EXPECT_EQ(topo.leftChild(1), 2u);
    EXPECT_EQ(topo.rightChild(1), 3u);
    for (unsigned pe = 2; pe <= topo.numPes(); ++pe)
        EXPECT_EQ(topo.parent(pe), pe / 2);
}

TEST(TreeTopology, LeafClassification)
{
    const TreeTopology topo(32);
    for (unsigned pe = 1; pe <= topo.numPes(); ++pe)
        EXPECT_EQ(topo.isLeafPe(pe), pe >= 16);
}

TEST(TreeTopology, HeightsFromLeaves)
{
    const TreeTopology topo(32);
    EXPECT_EQ(topo.heightOf(16), 0u);
    EXPECT_EQ(topo.heightOf(31), 0u);
    EXPECT_EQ(topo.heightOf(8), 1u);
    EXPECT_EQ(topo.heightOf(1), 4u);
}

TEST(TreeTopology, RankAttachment)
{
    const TreeTopology topo(32, 2);
    for (unsigned rank = 0; rank < 32; ++rank) {
        const unsigned pe = topo.leafPeOf(rank);
        EXPECT_TRUE(topo.isLeafPe(pe));
        EXPECT_EQ(pe, 16 + rank / 2);
        EXPECT_EQ(topo.sideOf(rank), rank % 2);
    }
}

TEST(TreeTopology, OtherScales)
{
    // 1PE:1R and 1PE:4R are the other scales of Section IV-B.
    const TreeTopology one_to_one(32, 1);
    EXPECT_EQ(one_to_one.numLeafPes(), 32u);
    EXPECT_EQ(one_to_one.numPes(), 63u);

    const TreeTopology one_to_four(32, 4);
    EXPECT_EQ(one_to_four.numLeafPes(), 8u);
    EXPECT_EQ(one_to_four.numPes(), 15u);
    EXPECT_EQ(one_to_four.leafPeOf(5), 8u + 1);
}

TEST(TreeTopology, DegenerateSingleRank)
{
    const TreeTopology topo(1);
    EXPECT_EQ(topo.numPes(), 1u);
    EXPECT_EQ(topo.numLevels(), 1u);
    EXPECT_TRUE(topo.isLeafPe(1));
    EXPECT_EQ(topo.leafPeOf(0), 1u);
}

TEST(TreeTopology, ConnectionCounts)
{
    // Section IV-A: (2m - 2) + c beats c x m as devices grow.
    const TreeTopology topo(32, 2);
    const unsigned cores = 4;
    EXPECT_LT(topo.connectionCount(cores) - 32, // minus rank attachments
              TreeTopology::allToAllConnections(cores, 16));
}

namespace
{

struct HostRig
{
    EventQueue eq;
    embedding::TableConfig tables{32, 1u << 16, 512, 4};
    dram::MemorySystem memory;
    embedding::VectorLayout layout;

    HostRig()
        : memory(eq, dram::Geometry{}, dram::Timing::ddr4_2400(),
                 dram::Interleave::BlockRank, 512),
          layout(tables, memory.mapper())
    {}

    embedding::Batch
    batch(std::initializer_list<std::vector<IndexId>> queries)
    {
        embedding::Batch b;
        QueryId id = 0;
        for (auto q : queries) {
            std::sort(q.begin(), q.end());
            b.queries.push_back({id++, std::move(q)});
        }
        return b;
    }
};

} // namespace

TEST(Host, DedupReadsUniqueOnce)
{
    HostRig rig;
    const auto batch = rig.batch({{1, 2, 5}, {2, 5, 9}});
    const PreparedBatch p = prepareBatch(rig.layout, nullptr, batch, true);
    EXPECT_EQ(p.totalReferences, 6u);
    EXPECT_EQ(p.uniqueCount, 4u);
    EXPECT_EQ(p.accessCount, 4u);
    EXPECT_NEAR(p.accessSavings(), 1.0 - 4.0 / 6.0, 1e-9);
}

TEST(Host, NoDedupReadsEveryReference)
{
    HostRig rig;
    const auto batch = rig.batch({{1, 2, 5}, {2, 5, 9}});
    const PreparedBatch p = prepareBatch(rig.layout, nullptr, batch, false);
    EXPECT_EQ(p.accessCount, 6u);
    EXPECT_EQ(p.uniqueCount, 4u);
}

TEST(Host, HeadersCarryResidualsOfAllUsers)
{
    HostRig rig;
    const auto batch = rig.batch({{1, 2, 5}, {2, 5, 9}});
    const PreparedBatch p = prepareBatch(rig.layout, nullptr, batch, true);

    // Find the read of index 2 and check its header: shared by both
    // queries; residuals exclude 2 itself.
    const RankRead *read2 = nullptr;
    for (const auto &rank : p.rankReads)
        for (const auto &r : rank)
            if (r.index == 2)
                read2 = &r;
    ASSERT_NE(read2, nullptr);
    ASSERT_EQ(read2->queries.size(), 2u);
    EXPECT_EQ(read2->queries[0], 0u);
    EXPECT_EQ(read2->queries[1], 1u);
    // Each user's residual on the wire, Q(q) \ indices.
    const auto remaining = [&](std::size_t k) {
        std::vector<IndexId> rest;
        std::ranges::remove_copy(p.querySets[read2->queries[k]],
                                 std::back_inserter(rest), read2->index);
        return IndexSet(rest);
    };
    EXPECT_EQ(remaining(0), IndexSet({1, 5}));
    EXPECT_EQ(remaining(1), IndexSet({5, 9}));
}

TEST(Host, ReadsLandOnTheLayoutRank)
{
    HostRig rig;
    const auto batch = rig.batch({{3, 64, 999}});
    const PreparedBatch p = prepareBatch(rig.layout, nullptr, batch, true);
    for (unsigned rank = 0; rank < p.rankReads.size(); ++rank)
        for (const auto &r : p.rankReads[rank]) {
            EXPECT_EQ(rig.layout.rankOf(r.index), rank);
            EXPECT_EQ(rig.layout.addressOf(r.index), r.address);
        }
}

TEST(Host, AttachesValuesWhenStoreGiven)
{
    HostRig rig;
    const embedding::EmbeddingStore store(rig.tables);
    const auto batch = rig.batch({{7, 8}, {8, 70001}});
    // The element() row of @p index after the payload's round trip.
    const auto expected = [&](IndexId index,
                              embedding::PayloadFormat payload) {
        embedding::Vector v(rig.tables.dim());
        for (unsigned e = 0; e < v.size(); ++e)
            v[e] = store.element(index, e);
        embedding::payloadRoundTrip(payload, v.data(), v.size());
        return v;
    };
    // The pooled runs after the first draw the buffers the one before
    // released, so stale contents would show.
    VectorPool pool;
    for (const auto payload : {embedding::PayloadFormat::Fp32,
                               embedding::PayloadFormat::Int8}) {
        for (VectorPool *const pl : {static_cast<VectorPool *>(nullptr),
                                     &pool}) {
            PreparedBatch p = prepareBatch(rig.layout, &store, batch, true,
                                           pl, payload);
            unsigned seen = 0;
            for (const auto &rank : p.rankReads)
                for (const auto &r : rank) {
                    EXPECT_EQ(r.value, expected(r.index, payload));
                    ++seen;
                }
            EXPECT_EQ(seen, 3u);
            if (pl)
                releasePrepared(p, pool);
        }
    }
    EXPECT_GT(pool.stats().reuses, 0u);
}

TEST(Host, DedupFlattensRankLoad)
{
    // Without dedup, repeated hot indices hammer their ranks; dedup
    // reads each once, so the rank-load imbalance (max per-rank reads
    // over the mean) can only improve (or stay equal).
    HostRig rig;
    embedding::Batch batch;
    // Eight queries all sharing index 7 plus one private index each.
    for (QueryId q = 0; q < 8; ++q) {
        std::vector<IndexId> indices{7,
                                     static_cast<IndexId>(100 + 33 * q)};
        std::sort(indices.begin(), indices.end());
        batch.queries.push_back({q, std::move(indices)});
    }
    const PreparedBatch with = prepareBatch(rig.layout, nullptr, batch, true);
    const PreparedBatch without =
        prepareBatch(rig.layout, nullptr, batch, false);
    const auto imbalance = [](const PreparedBatch &p) {
        const double mean = static_cast<double>(p.accessCount) /
                            static_cast<double>(p.rankReads.size());
        return static_cast<double>(p.maxReadsPerRank()) / mean;
    };
    EXPECT_LE(imbalance(with), imbalance(without));
    EXPECT_GT(imbalance(without), imbalance(with));
}

TEST(Host, RejectsMalformedBatches)
{
    HostRig rig;
    embedding::Batch unsorted;
    unsorted.queries.push_back({0, {5, 2}}); // not sorted
    EXPECT_DEATH(prepareBatch(rig.layout, nullptr, unsorted, true),
                 "not sorted");

    embedding::Batch duplicate;
    duplicate.queries.push_back({0, {2, 2, 5}});
    EXPECT_DEATH(prepareBatch(rig.layout, nullptr, duplicate, true),
                 "duplicate");

    embedding::Batch empty_query;
    empty_query.queries.push_back({0, {}});
    EXPECT_DEATH(prepareBatch(rig.layout, nullptr, empty_query, true),
                 "empty query");

    embedding::Batch bad_ids;
    bad_ids.queries.push_back({3, {1, 2}}); // id not dense
    EXPECT_DEATH(prepareBatch(rig.layout, nullptr, bad_ids, true), "dense");
}

TEST(BufferSizing, MatchesTableOne)
{
    const BufferSizing sizing;
    EXPECT_NEAR(sizing.peBufferKiB(8), 4.6, 0.1);
    EXPECT_NEAR(sizing.peBufferKiB(16), 9.3, 0.1);
    EXPECT_NEAR(sizing.peBufferKiB(32), 18.5, 0.1);
    EXPECT_NEAR(sizing.dimmRankNodeKiB(8), 32.4, 0.2);
    EXPECT_NEAR(sizing.dimmRankNodeKiB(16), 64.8, 0.2);
    EXPECT_NEAR(sizing.dimmRankNodeKiB(32), 129.5, 0.5);
}

TEST(BufferSizing, HeaderIsTenBytesPerQuery)
{
    // "a 10 B header (16 x 5/8) for q = 16" — the indices field.
    const BufferSizing sizing;
    EXPECT_DOUBLE_EQ(sizing.qMax * sizing.indexBits / 8.0, 10.0);
}
