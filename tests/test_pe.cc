/**
 * @file
 * Unit tests of the processing element: compare/reduce/forward decisions,
 * the merge unit's dedup and header concatenation, pairing under
 * same-side multiplicity, and activity accounting — including the
 * concrete PE steps of the paper's Figure 6 walkthrough.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "fafnir/pe.hh"

using namespace fafnir;
using namespace fafnir::core;

namespace
{

/** An item summing `indices`, wanted by residuals {query -> remaining}. */
Item
makeItem(std::initializer_list<IndexId> indices,
         std::initializer_list<std::pair<QueryId,
                                         std::initializer_list<IndexId>>>
             residuals)
{
    Item item;
    item.indices = IndexSet(std::vector<IndexId>(indices));
    for (const auto &[q, rem] : residuals)
        item.queries.push_back({q, IndexSet(std::vector<IndexId>(rem))});
    return item;
}

std::vector<PeOutput>
run(const std::vector<Item> &a, const std::vector<Item> &b)
{
    PeActivity activity;
    return ProcessingElement::process(a, b, activity, /*values=*/false);
}

const Item *
findByIndices(const std::vector<PeOutput> &outputs,
              std::initializer_list<IndexId> indices)
{
    const IndexSet key{std::vector<IndexId>(indices)};
    for (const auto &out : outputs)
        if (out.item.indices == key)
            return &out.item;
    return nullptr;
}

} // namespace

TEST(Pe, ReducesMatchingPair)
{
    // Query 0 = {1, 2}: item {1} on A, item {2} on B -> one reduce.
    const auto out = run({makeItem({1}, {{0, {2}}})},
                         {makeItem({2}, {{0, {1}}})});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].action, PeAction::Reduce);
    EXPECT_EQ(out[0].item.indices, IndexSet({1, 2}));
    ASSERT_EQ(out[0].item.queries.size(), 1u);
    EXPECT_TRUE(out[0].item.queries[0].remaining.empty());
}

TEST(Pe, ForwardsWhenNoMatch)
{
    // Query 0 = {1, 9}; B holds an unrelated query's item.
    const auto out = run({makeItem({1}, {{0, {9}}})},
                         {makeItem({5}, {{1, {7}}})});
    ASSERT_EQ(out.size(), 2u);
    for (const auto &o : out)
        EXPECT_EQ(o.action, PeAction::Forward);
}

TEST(Pe, EmptySideForwardsEverything)
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

TEST(Pe, SharedItemReducesAndForwards)
{
    // Figure 6 step 1: index 11's value reduces with 50 for query c but
    // must also forward for query a.
    // query a = {11, 44}; query c = {50, 11}.
    const auto out = run({makeItem({50}, {{2, {11}}})},
                         {makeItem({11}, {{0, {44}}, {2, {50}}})});
    // Expect: reduced {50,11} for query c; forwarded {11} for query a.
    const Item *reduced = findByIndices(out, {50, 11});
    ASSERT_NE(reduced, nullptr);
    EXPECT_EQ(reduced->queries.size(), 1u);
    EXPECT_EQ(reduced->queries[0].query, 2u);

    const Item *forwarded = findByIndices(out, {11});
    ASSERT_NE(forwarded, nullptr);
    ASSERT_EQ(forwarded->queries.size(), 1u);
    EXPECT_EQ(forwarded->queries[0].query, 0u);
    EXPECT_EQ(forwarded->queries[0].remaining, IndexSet({44}));
}

TEST(Pe, MergeUnitDropsDuplicateOutputs)
{
    // The symmetric scan produces the reduced item from both sides; the
    // merge unit must emit it once.
    PeActivity activity;
    const auto out = ProcessingElement::process(
        {makeItem({1}, {{0, {2}}})}, {makeItem({2}, {{0, {1}}})},
        activity, false);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(activity.reduces, 1u);
}

TEST(Pe, MergeUnitConcatenatesHeaders)
{
    // Two queries both need {1} u {2}: same value, two residuals — the
    // merge unit concatenates the queries fields (Figure 6 step at
    // PE (2|3)).
    // q0 = {1,2,7}, q1 = {1,2,9}.
    const auto out = run({makeItem({1}, {{0, {2, 7}}, {1, {2, 9}}})},
                         {makeItem({2}, {{0, {1, 7}}, {1, {1, 9}}})});
    const Item *merged = findByIndices(out, {1, 2});
    ASSERT_NE(merged, nullptr);
    ASSERT_EQ(merged->queries.size(), 2u);
    EXPECT_EQ(merged->queries[0].remaining, IndexSet({7}));
    EXPECT_EQ(merged->queries[1].remaining, IndexSet({9}));
}

TEST(Pe, SameSideMultiplicityPairsOnce)
{
    // Query 0 = {1, 2, 3}; A holds {1} and {2}, B holds {3}. Exactly one
    // of A's items may reduce with B's; the other must forward.
    const auto out = run({makeItem({1}, {{0, {2, 3}}}),
                          makeItem({2}, {{0, {1, 3}}})},
                         {makeItem({3}, {{0, {1, 2}}})});
    unsigned reduces = 0;
    unsigned forwards = 0;
    IndexSet covered;
    for (const auto &o : out) {
        if (o.action == PeAction::Reduce)
            ++reduces;
        else
            ++forwards;
        // Items of one query stay pairwise disjoint.
        EXPECT_TRUE(covered.disjointWith(o.item.indices));
        covered = covered.disjointUnion(o.item.indices);
    }
    EXPECT_EQ(reduces, 1u);
    EXPECT_EQ(forwards, 1u);
    EXPECT_EQ(covered, IndexSet({1, 2, 3}));
}

TEST(Pe, ValuesAreSummedWhenPresent)
{
    Item a = makeItem({1}, {{0, {2}}});
    Item b = makeItem({2}, {{0, {1}}});
    a.value = {1.0f, 2.0f};
    b.value = {10.0f, 20.0f};
    PeActivity activity;
    const auto out =
        ProcessingElement::process({a}, {b}, activity, /*values=*/true);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].item.value.size(), 2u);
    EXPECT_FLOAT_EQ(out[0].item.value[0], 11.0f);
    EXPECT_FLOAT_EQ(out[0].item.value[1], 22.0f);
}

TEST(Pe, ActivityCountsCompares)
{
    PeActivity activity;
    ProcessingElement::process(
        {makeItem({1}, {{0, {9}}}), makeItem({2}, {{1, {9}}})},
        {makeItem({3}, {{2, {9}}}), makeItem({4}, {{3, {9}}}),
         makeItem({5}, {{4, {9}}})},
        activity, false);
    EXPECT_EQ(activity.compares, 6u); // 2 x 3 fabric comparisons
}

TEST(Pe, OutputBoundFormula)
{
    EXPECT_EQ(ProcessingElement::outputBound(3, 4, 100), 19u); // nm+n+m
    EXPECT_EQ(ProcessingElement::outputBound(8, 8, 32), 32u);  // capped at B
}

TEST(Pe, PartialChainOverTwoLevels)
{
    // Level 1 reduces {1}+{2}; level 2 reduces the partial with {3}.
    const auto l1 = run({makeItem({1}, {{0, {2, 3}}})},
                        {makeItem({2}, {{0, {1, 3}}})});
    ASSERT_EQ(l1.size(), 1u);
    EXPECT_EQ(l1[0].item.queries[0].remaining, IndexSet({3}));

    const auto l2 = run({l1[0].item}, {makeItem({3}, {{0, {1, 2}}})});
    ASSERT_EQ(l2.size(), 1u);
    EXPECT_EQ(l2[0].item.indices, IndexSet({1, 2, 3}));
    EXPECT_TRUE(l2[0].item.queries[0].remaining.empty());
    EXPECT_TRUE(l2[0].item.completesAnyQuery());
}

TEST(Pe, OutputsAscendByIndicesAndMergeInArrivalOrder)
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

        std::vector<Item> sides[2];
        for (unsigned c = 0; c < num_chunks; ++c) {
            const IndexSet indices(chunks[c]);
            std::vector<QueryResidual> residuals;
            for (QueryId q = 0; q < num_queries; ++q)
                if (std::find(members[q].begin(), members[q].end(), c) !=
                    members[q].end())
                    residuals.push_back({q, query_sets[q].minus(indices)});
            std::shuffle(residuals.begin(), residuals.end(), rng);
            std::vector<Item> items;
            if (rng() % 2 == 0) {
                Item shared;
                shared.indices = indices;
                for (const auto &r : residuals)
                    shared.queries.push_back(r);
                if (!residuals.empty())
                    items.push_back(shared);
            } else {
                for (const auto &r : residuals) {
                    Item own;
                    own.indices = indices;
                    own.queries.push_back(r);
                    items.push_back(own);
                }
            }
            auto &side = sides[rng() % 2];
            for (const Item &item : items) {
                side.push_back(item);
                if (rng() % 4 == 0)
                    side.push_back(item); // same-side duplicate
            }
        }
        std::shuffle(sides[0].begin(), sides[0].end(), rng);
        std::shuffle(sides[1].begin(), sides[1].end(), rng);

        PeActivity activity;
        const auto outputs = ProcessingElement::process(
            sides[0], sides[1], activity, /*values=*/false);
        seen += activity;

        std::size_t carried = 0;
        for (std::size_t k = 0; k < outputs.size(); ++k) {
            const PeOutput &out = outputs[k];
            if (k > 0) {
                EXPECT_TRUE(outputs[k - 1].item.indices < out.item.indices)
                    << "round " << round << " output " << k;
            }
            for (std::size_t i = 0; i < out.sources.size(); ++i)
                for (std::size_t j = i + 1; j < out.sources.size(); ++j)
                    EXPECT_FALSE(out.sources[i] == out.sources[j])
                        << "round " << round << " output " << k;
            // Residuals fold in the order the merge unit meets them:
            // raw outputs are produced query by query.
            for (std::size_t i = 1; i < out.item.queries.size(); ++i)
                EXPECT_LT(out.item.queries[i - 1].query,
                          out.item.queries[i].query)
                    << "round " << round << " output " << k;
            carried += out.item.queries.size();
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

TEST(Item, HeaderBitsAccounting)
{
    const Item item = makeItem({1, 2}, {{0, {3, 4, 5}}, {1, {9}}});
    // 2 indices + 4 residual indices at 5 bits each.
    EXPECT_EQ(item.headerBits(5), 30u);
}

TEST(Item, ToStringReadable)
{
    const Item item = makeItem({50, 11}, {{2, {94, 26}}});
    const std::string s = item.toString();
    EXPECT_NE(s.find("{11,50}"), std::string::npos);
    EXPECT_NE(s.find("q2"), std::string::npos);
}
