/**
 * @file
 * Unit and property tests of IndexSet, the batch's per-query index
 * sets: every PE pairing check rests on containsAll.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/random.hh"
#include "fafnir/indexset.hh"

using namespace fafnir;
using namespace fafnir::core;

TEST(IndexSet, ConstructionNormalizes)
{
    const IndexSet s(std::vector<IndexId>{5, 1, 3, 1, 5});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(std::vector<IndexId>(s.begin(), s.end()),
              (std::vector<IndexId>{1, 3, 5}));
}

TEST(IndexSet, ContainsAll)
{
    const IndexSet s{2, 4, 6};
    EXPECT_TRUE(s.containsAll(IndexSet{2, 6}));
    EXPECT_FALSE(s.containsAll(IndexSet{2, 5}));
    EXPECT_TRUE(s.containsAll(IndexSet{})); // empty subset of anything
}

TEST(IndexSet, Equality)
{
    EXPECT_EQ(IndexSet({1, 2}), IndexSet({2, 1}));
}

TEST(IndexSet, ToString)
{
    EXPECT_EQ(IndexSet({3, 1}).toString(), "{1,3}");
    EXPECT_EQ(IndexSet{}.toString(), "{}");
}

/** Property sweep against std::set as the oracle. */
TEST(IndexSet, RandomizedAgainstStdSet)
{
    Rng rng(99);
    for (int round = 0; round < 300; ++round) {
        std::set<IndexId> sa, sb;
        std::vector<IndexId> va, vb;
        const unsigned na = 1 + rng.nextBelow(10);
        const unsigned nb = 1 + rng.nextBelow(10);
        for (unsigned i = 0; i < na; ++i) {
            const auto v = static_cast<IndexId>(rng.nextBelow(30));
            sa.insert(v);
            va.push_back(v);
        }
        for (unsigned i = 0; i < nb; ++i) {
            const auto v = static_cast<IndexId>(rng.nextBelow(30));
            sb.insert(v);
            vb.push_back(v);
        }
        const IndexSet a(va);
        const IndexSet b(vb);

        EXPECT_EQ(a.containsAll(b),
                  std::includes(sa.begin(), sa.end(), sb.begin(),
                                sb.end()));
    }
}
