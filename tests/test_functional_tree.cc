/**
 * @file
 * End-to-end functional tests of the Fafnir batch-processing algorithm:
 * prepared batches flow through the tree and the per-query results must
 * equal the reference gather-reduce, for the paper's running example, for
 * adversarial placements, and for randomized property sweeps.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "fafnir/functional.hh"
#include "fafnir/host.hh"
#include "fafnir/pe.hh"
#include "fafnir/tree.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

/** Common fixture: 32-rank system, small tables, real values. */
struct TreeHarness
{
    TableConfig tables;
    dram::Geometry geometry;
    dram::AddressMapper mapper;
    EmbeddingStore store;
    VectorLayout layout;
    Host host;
    TreeTopology topology;
    FunctionalTree tree;

    explicit TreeHarness(unsigned total_ranks = 32,
                         unsigned rows_per_table = 4096,
                         unsigned vector_bytes = 512)
        : tables{32, rows_per_table, vector_bytes, 4},
          geometry(dram::Geometry::withTotalRanks(total_ranks)),
          mapper(geometry, dram::Interleave::BlockRank, vector_bytes),
          store(tables), layout(tables, mapper), host(layout, &store),
          topology(total_ranks), tree(topology)
    {
    }

    /** Run a batch through the tree and check against the reference. */
    void
    checkBatch(const Batch &batch, bool dedup)
    {
        const PreparedBatch prepared = host.prepare(batch, dedup);
        const TreeRun run = tree.run(prepared, /*values=*/true,
                                     /*keep_trace=*/false);
        const auto reference = store.reduceBatch(batch);
        ASSERT_EQ(run.results.size(), reference.size());
        for (std::size_t q = 0; q < reference.size(); ++q) {
            EXPECT_TRUE(vectorsEqual(run.results[q], reference[q]))
                << "query " << q << " mismatch (dedup=" << dedup << ")";
        }
    }
};

Batch
makeBatch(std::initializer_list<std::vector<IndexId>> queries)
{
    Batch batch;
    QueryId id = 0;
    for (const auto &indices : queries) {
        Query q;
        q.id = id++;
        q.indices = indices;
        std::sort(q.indices.begin(), q.indices.end());
        batch.queries.push_back(std::move(q));
    }
    return batch;
}

} // namespace

TEST(FunctionalTree, SingleQuerySingleIndex)
{
    TreeHarness h;
    h.checkBatch(makeBatch({{7}}), true);
}

TEST(FunctionalTree, SingleQueryManyIndices)
{
    TreeHarness h;
    h.checkBatch(makeBatch({{1, 2, 5, 6, 100, 900, 77, 4093}}), true);
    h.checkBatch(makeBatch({{1, 2, 5, 6, 100, 900, 77, 4093}}), false);
}

TEST(FunctionalTree, PaperRunningExample)
{
    // Figure 6: batch of four queries over eight tables, with the shared
    // index structure of the paper (11 shared by a and c, etc.). Indices
    // here are flat ids standing in for the paper's table-digit notation.
    TreeHarness h;
    const Batch batch = makeBatch({
        {11, 44, 32, 83, 77},
        {32, 83, 26},
        {50, 11, 44, 94, 26},
        {50, 94, 77},
    });
    h.checkBatch(batch, true);
    h.checkBatch(batch, false);

    // The dedup mechanism reads each of the 7 unique indices once.
    const PreparedBatch dedup = h.host.prepare(batch, true);
    EXPECT_EQ(dedup.uniqueCount, 8u); // 50,11,44,32,83,94,26,77
    EXPECT_EQ(dedup.accessCount, dedup.uniqueCount);
    EXPECT_EQ(dedup.totalReferences, 16u);

    const PreparedBatch raw = h.host.prepare(batch, false);
    EXPECT_EQ(raw.accessCount, 16u);
}

TEST(FunctionalTree, SharedIndicesAcrossQueries)
{
    TreeHarness h;
    // Every query shares index 5 — the v5 case of Figures 1 and 2.
    h.checkBatch(makeBatch({{5, 1}, {5, 2}, {5, 3}, {5, 4}}), true);
}

TEST(FunctionalTree, SameRankCollision)
{
    TreeHarness h;
    // Indices 0 and 32 land on the same rank (32 ranks, block interleave),
    // forcing same-side flow and a root combine.
    const Batch batch = makeBatch({{0, 32}});
    const PreparedBatch prepared = h.host.prepare(batch, true);
    EXPECT_EQ(h.layout.rankOf(0), h.layout.rankOf(32));
    const TreeRun run = h.tree.run(prepared, true, false);
    EXPECT_TRUE(vectorsEqual(run.results[0],
                             h.store.reduce(batch.queries[0].indices)));
    EXPECT_GE(run.rootCombines, 1u);
}

TEST(FunctionalTree, ManyIndicesSameRank)
{
    TreeHarness h;
    // Five vectors, all on rank 3: the tree cannot reduce any of them
    // (all same side); the root output stage must sum all five.
    const Batch batch = makeBatch({{3, 35, 67, 99, 131}});
    for (IndexId i : batch.queries[0].indices)
        ASSERT_EQ(h.layout.rankOf(i), h.layout.rankOf(3));
    h.checkBatch(batch, true);
}

TEST(FunctionalTree, DuplicateValuesDistinctIndices)
{
    TreeHarness h;
    // Queries with disjoint index sets must not interfere.
    h.checkBatch(makeBatch({{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}),
                 true);
}

TEST(FunctionalTree, SingleRankSystem)
{
    TreeHarness h(1);
    h.checkBatch(makeBatch({{1, 2, 3}, {2, 9}}), true);
}

TEST(FunctionalTree, TwoRankSystem)
{
    TreeHarness h(2);
    h.checkBatch(makeBatch({{1, 2, 3, 4}, {2, 4, 8}}), true);
    h.checkBatch(makeBatch({{1, 2, 3, 4}, {2, 4, 8}}), false);
}

TEST(FunctionalTree, MergeBoundsOutputsByConstruction)
{
    TreeHarness h;
    WorkloadConfig wc;
    wc.tables = h.tables;
    wc.batchSize = 8;
    wc.querySize = 16;
    wc.popularity = Popularity::Zipfian;
    wc.zipfSkew = 0.9;
    wc.hotFraction = 0.02;
    BatchGenerator gen(wc, 42);
    const Batch batch = gen.next();
    const PreparedBatch prepared = h.host.prepare(batch, true);
    const TreeRun run = h.tree.run(prepared, false, false);
    // Section IV-B: merged output counts stay bounded near the batch size.
    // Occupancy can exceed B transiently when many vectors of distinct
    // queries share a subtree; it must never approach n*m.
    EXPECT_LE(run.maxPeOutputs,
              static_cast<std::size_t>(wc.batchSize) * wc.querySize);
}

/** Property sweep: random workloads across shapes x skew x dedup. */
struct SweepParam
{
    unsigned ranks;
    unsigned batch;
    unsigned querySize;
    double skew;
    bool dedup;
};

class FunctionalSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(FunctionalSweep, MatchesReference)
{
    const SweepParam p = GetParam();
    TreeHarness h(p.ranks, 512);
    WorkloadConfig wc;
    wc.tables = h.tables;
    wc.batchSize = p.batch;
    wc.querySize = p.querySize;
    wc.popularity = p.skew == 0.0 ? Popularity::Uniform
                                  : Popularity::Zipfian;
    wc.zipfSkew = p.skew;
    wc.hotFraction = 0.05;
    BatchGenerator gen(wc, 1234 + p.ranks * 7 + p.batch);
    for (int round = 0; round < 3; ++round)
        h.checkBatch(gen.next(), p.dedup);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FunctionalSweep,
    ::testing::Values(
        SweepParam{32, 8, 16, 0.9, true},
        SweepParam{32, 8, 16, 0.9, false},
        SweepParam{32, 16, 16, 0.9, true},
        SweepParam{32, 32, 16, 0.9, true},
        SweepParam{32, 32, 16, 1.1, true},
        SweepParam{32, 8, 16, 0.0, true},
        SweepParam{32, 8, 16, 0.0, false},
        SweepParam{16, 8, 8, 0.9, true},
        SweepParam{8, 8, 4, 0.9, true},
        SweepParam{4, 4, 4, 0.6, true},
        SweepParam{2, 8, 16, 0.9, true},
        SweepParam{1, 4, 8, 0.9, true},
        SweepParam{32, 32, 1, 0.9, true},
        SweepParam{32, 1, 16, 0.9, false},
        SweepParam{64, 16, 16, 0.9, true},
        SweepParam{64, 8, 8, 1.1, false}));

TEST(FunctionalTree, NonDefaultVectorSizes)
{
    for (unsigned vector_bytes : {128u, 256u, 1024u}) {
        TreeHarness h(32, 1024, vector_bytes);
        WorkloadConfig wc;
        wc.tables = h.tables;
        wc.batchSize = 8;
        wc.querySize = 12;
        wc.zipfSkew = 0.9;
        wc.hotFraction = 0.05;
        BatchGenerator gen(wc, 900 + vector_bytes);
        h.checkBatch(gen.next(), true);
        h.checkBatch(gen.next(), false);
    }
}

TEST(FunctionalTree, RerunIsIdempotent)
{
    TreeHarness h;
    WorkloadConfig wc;
    wc.tables = h.tables;
    wc.batchSize = 16;
    wc.querySize = 12;
    wc.zipfSkew = 1.0;
    wc.hotFraction = 0.01;
    const Batch batch = BatchGenerator(wc, 31).next();
    const PreparedBatch prepared = h.host.prepare(batch, true);
    const TreeRun a = h.tree.run(prepared, true, false);
    const TreeRun b = h.tree.run(prepared, true, false);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t q = 0; q < a.results.size(); ++q)
        EXPECT_EQ(a.results[q], b.results[q]);
    EXPECT_EQ(a.total.reduces, b.total.reduces);
    EXPECT_EQ(a.rootCombines, b.rootCombines);
}

TEST(FunctionalTree, QueryOrderPermutationPermutesResults)
{
    // Reordering the queries of a batch must permute per-query results
    // identically — no cross-query interference.
    TreeHarness h;
    WorkloadConfig wc;
    wc.tables = h.tables;
    wc.batchSize = 8;
    wc.querySize = 10;
    wc.zipfSkew = 1.05;
    wc.hotFraction = 0.01;
    const Batch batch = BatchGenerator(wc, 32).next();

    Batch reversed;
    for (std::size_t i = batch.size(); i > 0; --i) {
        Query q = batch.queries[i - 1];
        q.id = static_cast<QueryId>(batch.size() - i);
        reversed.queries.push_back(std::move(q));
    }

    const TreeRun fwd = h.tree.run(h.host.prepare(batch, true));
    const TreeRun rev = h.tree.run(h.host.prepare(reversed, true));
    for (std::size_t q = 0; q < batch.size(); ++q) {
        EXPECT_TRUE(vectorsEqual(fwd.results[q],
                                 rev.results[batch.size() - 1 - q]))
            << "query " << q;
    }
}

TEST(FunctionalTree, SupersetBatchPreservesSubsetResults)
{
    // Adding more queries to a batch must not change the results of the
    // ones already present.
    TreeHarness h;
    const Batch small = makeBatch({{1, 2, 5, 6}, {2, 5, 9}});
    const Batch big =
        makeBatch({{1, 2, 5, 6}, {2, 5, 9}, {5, 100, 333}, {6, 9}});
    const TreeRun a = h.tree.run(h.host.prepare(small, true));
    const TreeRun b = h.tree.run(h.host.prepare(big, true));
    for (std::size_t q = 0; q < small.size(); ++q)
        EXPECT_TRUE(vectorsEqual(a.results[q], b.results[q]));
}

TEST(FunctionalTree, Figure6ExactPlacement)
{
    // The paper's worked example: four queries over eight embedding
    // tables, one table per tree leaf input, indices written as
    // <row><table> (index 50 = row 5 of table 0). We build the
    // PreparedBatch by hand so each index enters exactly at its table's
    // rank, as in Figure 6a.
    const TableConfig tables{8, 128, 512, 4};
    const EmbeddingStore store(tables);
    const TreeTopology topology(8); // 4 leaf PEs, 3 levels, 7 PEs
    const FunctionalTree tree(topology);

    const std::vector<std::vector<IndexId>> queries = {
        {11, 44, 32, 83, 77}, // a
        {32, 83, 26},         // b
        {50, 11, 44, 94, 26}, // c
        {50, 94, 77},         // d
    };

    PreparedBatch prepared;
    prepared.rankReads.resize(8);
    for (const auto &q : queries)
        prepared.querySets.emplace_back(q);
    prepared.totalReferences = 16;

    std::map<IndexId, std::vector<QueryId>> users;
    for (QueryId qid = 0; qid < queries.size(); ++qid)
        for (IndexId index : queries[qid])
            users[index].push_back(qid);
    prepared.uniqueCount = users.size();
    for (const auto &[index, qids] : users) {
        RankRead read;
        read.index = index;
        for (QueryId qid : qids)
            read.queries.push_back(qid);
        read.value = store.vector(index);
        prepared.rankReads[index % 10].push_back(std::move(read));
        ++prepared.accessCount;
    }
    // 8 unique indices across 16 references: dedup halves the reads.
    EXPECT_EQ(prepared.accessCount, 8u);

    const TreeRun run = tree.run(prepared, true, true);

    // Queries a, b, d resolve entirely inside the tree (one root item
    // each). Query c holds TWO indices of table 4 (44 and 94), which
    // enter the tree on the same input side and can never meet a PE's
    // opposite input — the root output stage sums the two disjoint
    // partials (the one case the paper's "at least at the root" elides).
    for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(run.rootOutputsOf[q].size(), q == 2 ? 2u : 1u)
            << "query " << q;
        EXPECT_TRUE(vectorsEqual(run.results[q],
                                 store.reduce(queries[q])))
            << "query " << q;
    }
    EXPECT_EQ(run.rootCombines, 1u);

    // PE (0|1) — leaf over tables 0 and 1 — sees {50} on A and {11} on
    // B and must emit the three unique outputs of Figure 6c: forwarded
    // {50}, forwarded {11}, and reduced {50,11}.
    const unsigned pe01 = topology.leafPeOf(0);
    const auto &trace = run.trace[pe01];
    EXPECT_EQ(trace.inputs[0], 1u);
    EXPECT_EQ(trace.inputs[1], 1u);
    ASSERT_EQ(trace.outputs.size(), 3u);
    std::size_t reduces = 0;
    for (const auto &out : trace.outputs) {
        if (out.action != PeAction::Reduce)
            continue;
        ++reduces;
        EXPECT_EQ(out.sources, (SmallVec<Provenance, 4>{{0, 0}, {1, 0}}));
    }
    EXPECT_EQ(reduces, 1u);

    // The trace keeps no items: run the leaf on its two rank-read lists
    // to see which header the reduce built.
    PeBatch batch{.querySets = prepared.querySets,
                  .headers = HeaderTable(),
                  .values = false,
                  .stash = {}};
    std::vector<Flit> side_a, side_b;
    for (unsigned rank = 0; rank < topology.numRanks(); ++rank) {
        if (topology.leafPeOf(rank) != pe01)
            continue;
        auto &side = topology.sideOf(rank) == 0 ? side_a : side_b;
        for (const auto &read : prepared.rankReads[rank]) {
            Flit flit;
            flit.indices = batch.headers.intern({&read.index, 1});
            flit.queries = read.queries;
            side.push_back(std::move(flit));
        }
    }
    PeActivity activity;
    bool saw_reduced = false;
    for (const auto &out :
         ProcessingElement::process(side_a, side_b, batch, activity))
        if (IndexSet(batch.headers[out.indices]) == IndexSet({50, 11}))
            saw_reduced = out.action == PeAction::Reduce;
    EXPECT_TRUE(saw_reduced);
}

TEST(FunctionalTree, ForwardedQueryOutsideBatchAborts)
{
    // A two-rank tree is one PE. Query 0 = {1} arrives on A; B carries a
    // read for query 40, which the one-query batch does not have. It
    // only forwards, so no pairing check sees it: the PE must reject it
    // before the root stage indexes its results by query.
    const TreeTopology topology(2);
    const FunctionalTree tree(topology);
    PreparedBatch prepared;
    prepared.querySets = {IndexSet({1})};
    prepared.rankReads.resize(2);
    RankRead wanted;
    wanted.index = 1;
    wanted.queries.push_back(0);
    prepared.rankReads[0].push_back(wanted);
    RankRead stray;
    stray.index = 2;
    stray.queries.push_back(40);
    prepared.rankReads[1].push_back(stray);
    EXPECT_DEATH(tree.run(prepared, false), "query 40 outside the batch");
}

TEST(FunctionalTree, TraceIsObservationOnly)
{
    // Keeping the per-PE trace must not perturb the evaluation, and the
    // trace's input counts must match what actually flowed into each PE.
    TreeHarness h;
    WorkloadConfig wc;
    wc.tables = h.tables;
    wc.batchSize = 16;
    wc.querySize = 12;
    wc.popularity = Popularity::Zipfian;
    wc.zipfSkew = 0.9;
    wc.hotFraction = 0.01;
    BatchGenerator gen(wc, 4242);
    const TreeTopology &topo = h.topology;
    for (int round = 0; round < 4; ++round) {
        const PreparedBatch prepared = h.host.prepare(gen.next(), true);
        const TreeRun plain = h.tree.run(prepared, true, false);
        const TreeRun traced = h.tree.run(prepared, true, true);

        ASSERT_EQ(plain.results.size(), traced.results.size());
        for (std::size_t q = 0; q < plain.results.size(); ++q)
            EXPECT_EQ(plain.results[q], traced.results[q]) << "query " << q;
        EXPECT_EQ(plain.total.compares, traced.total.compares);
        EXPECT_EQ(plain.total.reduces, traced.total.reduces);
        EXPECT_EQ(plain.total.forwards, traced.total.forwards);
        EXPECT_EQ(plain.total.duplicatesDropped,
                  traced.total.duplicatesDropped);
        EXPECT_EQ(plain.total.headersMerged, traced.total.headersMerged);
        EXPECT_EQ(plain.total.dequants, traced.total.dequants);
        EXPECT_EQ(plain.total.requants, traced.total.requants);
        EXPECT_EQ(plain.rootCombines, traced.rootCombines);
        EXPECT_EQ(plain.rootOutputsOf, traced.rootOutputsOf);
        EXPECT_EQ(plain.maxPeOutputs, traced.maxPeOutputs);
        EXPECT_EQ(plain.poolStats.acquires, traced.poolStats.acquires);
        EXPECT_EQ(plain.poolStats.reuses, traced.poolStats.reuses);
        EXPECT_EQ(plain.poolStats.releases, traced.poolStats.releases);
        EXPECT_EQ(plain.poolStats.exhaustions,
                  traced.poolStats.exhaustions);
        EXPECT_TRUE(plain.trace.empty());

        ASSERT_EQ(traced.trace.size(), topo.numPes() + 1);
        std::vector<std::array<std::size_t, 2>> leaf_reads(topo.numPes() +
                                                           1);
        for (unsigned rank = 0; rank < topo.numRanks(); ++rank)
            leaf_reads[topo.leafPeOf(rank)][topo.sideOf(rank)] +=
                prepared.rankReads[rank].size();
        for (unsigned pe = 1; pe <= topo.numPes(); ++pe) {
            const PeTrace &trace = traced.trace[pe];
            if (topo.isLeafPe(pe)) {
                EXPECT_EQ(trace.inputs, leaf_reads[pe]) << "leaf PE " << pe;
            } else {
                EXPECT_EQ(trace.inputs[0],
                          traced.trace[topo.leftChild(pe)].outputs.size())
                    << "PE " << pe;
                EXPECT_EQ(trace.inputs[1],
                          traced.trace[topo.rightChild(pe)].outputs.size())
                    << "PE " << pe;
            }
        }
    }
}

TEST(FunctionalTree, HighSharingStress)
{
    // Tiny hot set: nearly every index is shared by several queries.
    TreeHarness h(32, 512);
    WorkloadConfig wc;
    wc.tables = h.tables;
    wc.batchSize = 32;
    wc.querySize = 8;
    wc.popularity = Popularity::Zipfian;
    wc.zipfSkew = 1.2;
    wc.hotFraction = 0.004; // ~2 rows per table
    BatchGenerator gen(wc, 777);
    for (int round = 0; round < 5; ++round) {
        const Batch batch = gen.next();
        h.checkBatch(batch, true);
        h.checkBatch(batch, false);
    }
}
