/**
 * @file
 * Unit tests of the processing element: compare/reduce/forward decisions,
 * the merge unit's dedup and header concatenation, pairing under
 * same-side multiplicity, and activity accounting — including the
 * concrete PE steps of the paper's Figure 6 walkthrough.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>

#include "fafnir/pe.hh"

using namespace fafnir;
using namespace fafnir::core;

namespace
{

/** One test's batch: each query's full index set, Q(q), by query id, and
 *  the PeBatch whose table interns the test's headers. */
struct TestBatch
{
    std::vector<IndexSet> querySets;
    PeBatch batch{.querySets = querySets, .headers = HeaderTable(),
                  .values = false, .stash = {}};

    /** A flit summing `indices` for `queries`; records no query set. */
    Flit
    makeFlit(std::initializer_list<IndexId> indices,
             std::initializer_list<QueryId> queries)
    {
        Flit flit;
        flit.indices = batch.headers.intern(IndexSet(indices));
        flit.queries = queries;
        return flit;
    }

    /**
     * A flit summing `indices`, wanted by residuals {query -> remaining}.
     * Records Q(query) = indices ∪ remaining, on which every flit of the
     * query must agree.
     */
    Flit
    makeItem(std::initializer_list<IndexId> indices,
             std::initializer_list<
                 std::pair<QueryId, std::initializer_list<IndexId>>>
                 residuals)
    {
        Flit flit = makeFlit(indices, {});
        for (const auto &[q, rem] : residuals) {
            std::vector<IndexId> ids(indices);
            ids.insert(ids.end(), rem.begin(), rem.end());
            const IndexSet full(ids);
            EXPECT_EQ(full.size(), indices.size() + rem.size())
                << "query " << q << ": indices and residual overlap";
            if (querySets.size() <= q)
                querySets.resize(q + 1);
            EXPECT_TRUE(querySets[q].empty() || querySets[q] == full)
                << "query " << q;
            querySets[q] = full;
            flit.queries.push_back(q);
        }
        return flit;
    }

    std::vector<Flit>
    run(const std::vector<Flit> &a, const std::vector<Flit> &b)
    {
        PeActivity activity;
        return ProcessingElement::process(a, b, batch, activity);
    }

    /** @p flit's indices field. */
    IndexSet
    indicesOf(const Flit &flit) const
    {
        return IndexSet(batch.headers[flit.indices]);
    }

    /** Query @p q's residual in @p flit's header: Q(q) \ indices. */
    IndexSet
    remaining(const Flit &flit, QueryId q) const
    {
        std::vector<IndexId> rest;
        std::ranges::set_difference(querySets[q],
                                    batch.headers[flit.indices],
                                    std::back_inserter(rest));
        return IndexSet(rest);
    }

    const Flit *
    findByIndices(const std::vector<Flit> &outputs,
                  std::initializer_list<IndexId> indices) const
    {
        const IndexSet key(indices);
        for (const auto &out : outputs)
            if (indicesOf(out) == key)
                return &out;
        return nullptr;
    }
};

/** Each Pe test runs one batch. */
class Pe : public ::testing::Test, public TestBatch
{};

} // namespace

TEST_F(Pe, ReducesMatchingPair)
{
    // Query 0 = {1, 2}: item {1} on A, item {2} on B -> one reduce.
    const auto out = run({makeItem({1}, {{0, {2}}})},
                         {makeItem({2}, {{0, {1}}})});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].action, PeAction::Reduce);
    EXPECT_EQ(indicesOf(out[0]), IndexSet({1, 2}));
    ASSERT_EQ(out[0].queries.size(), 1u);
    EXPECT_TRUE(remaining(out[0], out[0].queries[0]).empty());
}

TEST_F(Pe, ForwardsWhenNoMatch)
{
    // Query 0 = {1, 9}; B holds an unrelated query's item.
    const auto out = run({makeItem({1}, {{0, {9}}})},
                         {makeItem({5}, {{1, {7}}})});
    ASSERT_EQ(out.size(), 2u);
    for (const auto &o : out)
        EXPECT_EQ(o.action, PeAction::Forward);
}

TEST_F(Pe, EmptySideForwardsEverything)
{
    // "In some cases only one of the inputs exists, which automatically
    // leads to a forward action" (Figure 6, PE (4|15)).
    const auto out = run({makeItem({1}, {{0, {9}}}),
                          makeItem({2}, {{1, {5}}})},
                         {});
    ASSERT_EQ(out.size(), 2u);
    for (const auto &o : out)
        EXPECT_EQ(o.action, PeAction::Forward);
}

TEST_F(Pe, SharedItemReducesAndForwards)
{
    // Figure 6 step 1: index 11's value reduces with 50 for query c but
    // must also forward for query a.
    // query a = {11, 44}; query c = {50, 11}.
    const auto out = run({makeItem({50}, {{2, {11}}})},
                         {makeItem({11}, {{0, {44}}, {2, {50}}})});
    // Expect: reduced {50,11} for query c; forwarded {11} for query a.
    const Flit *reduced = findByIndices(out, {50, 11});
    ASSERT_NE(reduced, nullptr);
    EXPECT_EQ(reduced->queries.size(), 1u);
    EXPECT_EQ(reduced->queries[0], 2u);

    const Flit *forwarded = findByIndices(out, {11});
    ASSERT_NE(forwarded, nullptr);
    ASSERT_EQ(forwarded->queries.size(), 1u);
    EXPECT_EQ(forwarded->queries[0], 0u);
    EXPECT_EQ(remaining(*forwarded, forwarded->queries[0]), IndexSet({44}));
}

TEST_F(Pe, MergeUnitDropsDuplicateOutputs)
{
    // The symmetric scan produces the reduced item from both sides; the
    // merge unit must emit it once.
    PeActivity activity;
    const std::vector<Flit> a = {makeItem({1}, {{0, {2}}})};
    const std::vector<Flit> b = {makeItem({2}, {{0, {1}}})};
    const auto out = ProcessingElement::process(a, b, batch, activity);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(activity.reduces, 1u);
}

TEST_F(Pe, MergeUnitConcatenatesHeaders)
{
    // Two queries both need {1} u {2}: same value, two residuals — the
    // merge unit concatenates the queries fields (Figure 6 step at
    // PE (2|3)).
    // q0 = {1,2,7}, q1 = {1,2,9}.
    const auto out = run({makeItem({1}, {{0, {2, 7}}, {1, {2, 9}}})},
                         {makeItem({2}, {{0, {1, 7}}, {1, {1, 9}}})});
    const Flit *merged = findByIndices(out, {1, 2});
    ASSERT_NE(merged, nullptr);
    ASSERT_EQ(merged->queries.size(), 2u);
    EXPECT_EQ(remaining(*merged, merged->queries[0]), IndexSet({7}));
    EXPECT_EQ(remaining(*merged, merged->queries[1]), IndexSet({9}));
}

TEST_F(Pe, SameSideMultiplicityPairsOnce)
{
    // Query 0 = {1, 2, 3}; A holds {1} and {2}, B holds {3}. Exactly one
    // of A's items may reduce with B's; the other must forward.
    const auto out = run({makeItem({1}, {{0, {2, 3}}}),
                          makeItem({2}, {{0, {1, 3}}})},
                         {makeItem({3}, {{0, {1, 2}}})});
    unsigned reduces = 0;
    unsigned forwards = 0;
    std::vector<IndexId> covered;
    for (const auto &o : out) {
        if (o.action == PeAction::Reduce)
            ++reduces;
        else
            ++forwards;
        // Items of one query stay pairwise disjoint.
        const auto ids = batch.headers[o.indices];
        EXPECT_EQ(std::ranges::find_first_of(covered, ids), covered.end());
        covered.insert(covered.end(), ids.begin(), ids.end());
    }
    EXPECT_EQ(reduces, 1u);
    EXPECT_EQ(forwards, 1u);
    EXPECT_EQ(covered.size(), 3u);
    EXPECT_EQ(IndexSet(covered), IndexSet({1, 2, 3}));
}

TEST_F(Pe, ValuesAreSummedWhenPresent)
{
    Flit a = makeItem({1}, {{0, {2}}});
    Flit b = makeItem({2}, {{0, {1}}});
    a.value = {1.0f, 2.0f};
    b.value = {10.0f, 20.0f};
    batch.values = true;
    const auto out = run({a}, {b});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].value.size(), 2u);
    EXPECT_FLOAT_EQ(out[0].value[0], 11.0f);
    EXPECT_FLOAT_EQ(out[0].value[1], 22.0f);
}

TEST_F(Pe, ActivityCountsCompares)
{
    PeActivity activity;
    const std::vector<Flit> a = {makeItem({1}, {{0, {9}}}),
                                 makeItem({2}, {{1, {9}}})};
    const std::vector<Flit> b = {makeItem({3}, {{2, {9}}}),
                                 makeItem({4}, {{3, {9}}}),
                                 makeItem({5}, {{4, {9}}})};
    ProcessingElement::process(a, b, batch, activity);
    EXPECT_EQ(activity.compares, 6u); // 2 x 3 fabric comparisons
}

TEST_F(Pe, PartialChainOverTwoLevels)
{
    // Level 1 reduces {1}+{2}; level 2 reduces the partial with {3}.
    const auto l1 = run({makeItem({1}, {{0, {2, 3}}})},
                        {makeItem({2}, {{0, {1, 3}}})});
    ASSERT_EQ(l1.size(), 1u);
    EXPECT_EQ(remaining(l1[0], l1[0].queries[0]), IndexSet({3}));

    const auto l2 = run({l1[0]}, {makeItem({3}, {{0, {1, 2}}})});
    ASSERT_EQ(l2.size(), 1u);
    EXPECT_EQ(indicesOf(l2[0]), IndexSet({1, 2, 3}));
    EXPECT_TRUE(remaining(l2[0], l2[0].queries[0]).empty());
    EXPECT_EQ(batch.headers.sizeOf(l2[0].indices),
              querySets[l2[0].queries[0]].size());
}

TEST_F(Pe, OutputsAscendByIndicesAndMergeInArrivalOrder)
{
    // Seeded random inputs. Ids form disjoint chunks, each living on one
    // side; every query is a union of chunks. A chunk's entry is one
    // shared item carrying all its queries (in shuffled order) or one
    // item per query, and some entries repeat on their side.
    std::mt19937 rng(1515);
    PeActivity seen;
    for (int round = 0; round < 300; ++round) {
        const unsigned num_chunks = 2 + rng() % 10;
        std::vector<std::vector<IndexId>> chunks(num_chunks);
        IndexId next = 0;
        for (auto &chunk : chunks)
            for (unsigned len = 1 + rng() % 3; len > 0; --len)
                chunk.push_back(next++);
        const unsigned num_queries = 1 + rng() % 6;
        std::vector<std::vector<unsigned>> members(num_queries);
        std::vector<IndexSet> query_sets;
        for (auto &chunk_ids : members) {
            std::vector<IndexId> ids;
            for (unsigned c = 0; c < num_chunks; ++c) {
                if (rng() % 2 == 0 && !(c + 1 == num_chunks && ids.empty()))
                    continue;
                chunk_ids.push_back(c);
                ids.insert(ids.end(), chunks[c].begin(), chunks[c].end());
            }
            query_sets.emplace_back(ids);
        }

        PeBatch round_batch{.querySets = query_sets,
                            .headers = HeaderTable(),
                            .values = false,
                            .stash = {}};
        std::vector<Flit> sides[2];
        for (unsigned c = 0; c < num_chunks; ++c) {
            const SetId indices = round_batch.headers.intern(chunks[c]);
            std::vector<QueryId> wanting;
            for (QueryId q = 0; q < num_queries; ++q)
                if (std::find(members[q].begin(), members[q].end(), c) !=
                    members[q].end())
                    wanting.push_back(q);
            std::shuffle(wanting.begin(), wanting.end(), rng);
            std::vector<Flit> items;
            if (rng() % 2 == 0) {
                Flit shared;
                shared.indices = indices;
                for (QueryId r : wanting)
                    shared.queries.push_back(r);
                if (!wanting.empty())
                    items.push_back(shared);
            } else {
                for (QueryId r : wanting) {
                    Flit own;
                    own.indices = indices;
                    own.queries.push_back(r);
                    items.push_back(own);
                }
            }
            auto &side = sides[rng() % 2];
            for (const Flit &item : items) {
                side.push_back(item);
                if (rng() % 4 == 0)
                    side.push_back(item); // same-side duplicate
            }
        }
        std::shuffle(sides[0].begin(), sides[0].end(), rng);
        std::shuffle(sides[1].begin(), sides[1].end(), rng);

        PeActivity activity;
        const auto outputs = ProcessingElement::process(
            sides[0], sides[1], round_batch, activity);
        seen += activity;

        std::size_t carried = 0;
        for (std::size_t k = 0; k < outputs.size(); ++k) {
            const Flit &out = outputs[k];
            if (k > 0) {
                EXPECT_TRUE(std::ranges::lexicographical_compare(
                    round_batch.headers[outputs[k - 1].indices],
                    round_batch.headers[out.indices]))
                    << "round " << round << " output " << k;
            }
            for (std::size_t i = 0; i < out.sources.size(); ++i)
                for (std::size_t j = i + 1; j < out.sources.size(); ++j)
                    EXPECT_FALSE(out.sources[i] == out.sources[j])
                        << "round " << round << " output " << k;
            // Query ids fold in the order the merge unit meets them:
            // raw outputs are produced query by query.
            for (std::size_t i = 1; i < out.queries.size(); ++i)
                EXPECT_LT(out.queries[i - 1], out.queries[i])
                    << "round " << round << " output " << k;
            carried += out.queries.size();
        }
        const std::uint64_t raw = activity.reduces + activity.forwards;
        EXPECT_EQ(carried, raw - activity.duplicatesDropped)
            << "round " << round;
        EXPECT_EQ(raw - outputs.size(),
                  activity.duplicatesDropped + activity.headersMerged)
            << "round " << round;
    }
    // The inputs exercised both kinds of merge.
    EXPECT_GT(seen.reduces, 0u);
    EXPECT_GT(seen.duplicatesDropped, 0u);
    EXPECT_GT(seen.headersMerged, 0u);
}

TEST_F(Pe, PairingChecksAbortOnUnwantedOperands)
{
    // Query 0 = {1, 2}. A pairing whose operand lies outside Q(0), whose
    // operands overlap, or whose query is not in the batch must abort
    // rather than reduce.
    const Flit left = makeItem({1}, {{0, {2}}});
    const Flit stray = makeFlit({3}, {0});
    EXPECT_DEATH(run({left}, {stray}), "not wanted");

    const Flit overlap = makeFlit({1, 2}, {0});
    EXPECT_DEATH(run({left}, {overlap}), "overlapping");

    Flit unknown_left = left;
    Flit unknown_right = stray;
    unknown_left.queries = {7};
    unknown_right.queries = {7};
    EXPECT_DEATH(run({unknown_left}, {unknown_right}), "outside the batch");
}

TEST_F(Pe, ForwardedQueryOutsideBatchAborts)
{
    // Query 0 = {1, 2}. An item carrying query 7, which the batch does
    // not have, must abort even when it only forwards.
    const Flit known = makeItem({1}, {{0, {2}}});
    const Flit lone = makeFlit({2}, {7});
    EXPECT_DEATH(run({lone}, {}), "query 7 outside the batch");
    EXPECT_DEATH(run({known}, {lone}), "query 7 outside the batch");
}

TEST_F(Pe, ProvenanceIndexDoesNotWrap)
{
    // 65,537 single-query items on side A: every one forwards, and each
    // output's provenance must name its own buffer position, past the
    // 16-bit range too (the event engine counts FIFO uses by it).
    constexpr IndexId kItems = 65537;
    std::vector<Flit> a;
    a.reserve(kItems);
    for (IndexId i = 0; i < kItems; ++i)
        a.push_back(makeItem({i}, {{i, {}}}));
    const auto out = run(a, {});
    ASSERT_EQ(out.size(), kItems);
    for (IndexId k = 0; k < kItems; ++k) {
        ASSERT_EQ(out[k].sources.size(), 1u);
        EXPECT_EQ(out[k].sources[0].side, 0u);
        ASSERT_EQ(out[k].sources[0].index, k);
    }
}
