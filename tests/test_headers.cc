/**
 * @file
 * Unit and property tests of the HeaderTable: interned ids are equal
 * exactly when contents are, however a set was built, interning checks
 * its input is a set, unions keep the disjointness check, the table's
 * order is the lexicographic order on contents, and growth keeps every
 * id.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "fafnir/headers.hh"
#include "fafnir/indexset.hh"

using namespace fafnir;
using namespace fafnir::core;

namespace
{

std::vector<IndexId>
contents(const HeaderTable &table, SetId id)
{
    const auto ids = table[id];
    return {ids.begin(), ids.end()};
}

} // namespace

TEST(HeaderTable, EqualContentsShareOneId)
{
    HeaderTable table;
    const SetId one = table.intern(IndexSet{1});
    const SetId two = table.intern(IndexSet{2});
    const SetId both = table.intern(IndexSet{1, 2});
    EXPECT_NE(one, two);
    EXPECT_NE(one, both);
    EXPECT_EQ(table.unite(one, two), both);
    EXPECT_EQ(table.unite(two, one), both);
    EXPECT_EQ(table.intern(IndexSet{2, 1}), both);
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(contents(table, both), (std::vector<IndexId>{1, 2}));
    EXPECT_EQ(IndexSet(table[both]), IndexSet({1, 2}));

    // A union first reached by unite is found again by intern.
    const SetId three = table.intern(IndexSet{3});
    const SetId all = table.unite(both, three);
    EXPECT_EQ(table.intern(IndexSet{1, 2, 3}), all);
    EXPECT_EQ(table.unite(one, table.unite(two, three)), all);
}

TEST(HeaderTable, DuplicateSingletonsShareOneId)
{
    // No-dedup leaves read one vector once per query: every copy of
    // its singleton header is one set.
    HeaderTable table;
    const IndexId index = 42;
    const SetId first = table.intern({&index, 1});
    for (int copy = 0; copy < 5; ++copy)
        EXPECT_EQ(table.intern({&index, 1}), first);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.sizeOf(first), 1u);

    const SetId empty = table.intern(IndexSet{});
    EXPECT_EQ(table.intern(IndexSet{}), empty);
    EXPECT_EQ(table.sizeOf(empty), 0u);
    EXPECT_EQ(table.unite(first, empty), first);
}

TEST(HeaderTable, UniteOfOverlappingSetsDies)
{
    HeaderTable table;
    const SetId a = table.intern(IndexSet{1, 2});
    const SetId b = table.intern(IndexSet{2, 3});
    EXPECT_EQ(table.unite(a, table.intern(IndexSet{3, 4})),
              table.intern(IndexSet{1, 2, 3, 4}));
    EXPECT_DEATH(table.unite(a, b), "unite on overlapping sets");
    EXPECT_DEATH(table.unite(a, a), "unite on overlapping sets");
}

TEST(HeaderTable, InternOfUnsortedOrRepeatedIdsDies)
{
    HeaderTable table;
    const std::vector<IndexId> descending = {2, 1};
    const std::vector<IndexId> repeated = {1, 1};
    EXPECT_DEATH(table.intern(descending), "not ascending and distinct");
    EXPECT_DEATH(table.intern(repeated), "not ascending and distinct");
}

TEST(HeaderTable, OrderIsLexicographicOnContents)
{
    // Random sets plus the edges of the two-id key: the empty set,
    // prefixes, and the smallest and largest ids.
    constexpr IndexId kMax = 0xFFFFFFFF;
    std::vector<IndexSet> sets = {
        IndexSet{},
        IndexSet{0},
        IndexSet{0, 1},
        IndexSet{0, kMax},
        IndexSet{5},
        IndexSet{5, 9},
        IndexSet{5, 9, 11},
        IndexSet{5, 9, 12},
        IndexSet{5, 10},
        IndexSet{kMax - 1},
        IndexSet{kMax - 1, kMax},
        IndexSet{kMax},
        IndexSet{0, kMax - 1, kMax},
    };
    std::mt19937 rng(2626);
    for (int i = 0; i < 300; ++i) {
        std::vector<IndexId> ids;
        const unsigned len = rng() % 6;
        for (unsigned k = 0; k < len; ++k) {
            // Small ids collide often, so keys tie and contents decide.
            ids.push_back(rng() % 4 == 0 ? static_cast<IndexId>(rng())
                                         : rng() % 8);
        }
        sets.emplace_back(ids);
    }

    HeaderTable table;
    std::vector<SetId> ids;
    for (const IndexSet &set : sets)
        ids.push_back(table.intern(set));
    for (std::size_t i = 0; i < sets.size(); ++i) {
        for (std::size_t j = 0; j < sets.size(); ++j) {
            const bool want =
                std::ranges::lexicographical_compare(sets[i], sets[j]);
            ASSERT_EQ(table.less(ids[i], ids[j]), want)
                << sets[i].toString() << " vs " << sets[j].toString();
            if (want) {
                ASSERT_LE(table.orderKey(ids[i]), table.orderKey(ids[j]))
                    << sets[i].toString() << " vs " << sets[j].toString();
            }
        }
    }

    // Sorting ids by the table's order sorts their contents.
    std::sort(ids.begin(), ids.end(), [&table](SetId x, SetId y) {
        return table.less(x, y);
    });
    for (std::size_t k = 1; k < ids.size(); ++k)
        EXPECT_FALSE(std::ranges::lexicographical_compare(table[ids[k]],
                                                          table[ids[k - 1]]))
            << "position " << k;
}

TEST(HeaderTable, GrowthKeepsEveryIdAndItsContents)
{
    HeaderTable table(4);
    std::vector<IndexSet> sets;
    std::vector<SetId> ids;
    for (IndexId i = 0; i < 2000; ++i) {
        sets.push_back(IndexSet{i, i + 5000, i + 9000});
        ids.push_back(table.intern(sets.back()));
        EXPECT_EQ(ids.back(), i);
    }
    EXPECT_EQ(table.size(), sets.size());
    for (std::size_t k = 0; k < sets.size(); ++k) {
        EXPECT_EQ(IndexSet(table[ids[k]]), sets[k]) << "set " << k;
        EXPECT_EQ(table.intern(sets[k]), ids[k]) << "set " << k;
    }
    EXPECT_EQ(table.size(), sets.size());
}
