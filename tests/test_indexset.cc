/**
 * @file
 * Unit and property tests of the IndexSet header algebra — the
 * correctness of every PE decision rests on these operations.
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

TEST(IndexSet, Contains)
{
    const IndexSet s{2, 4, 6};
    EXPECT_TRUE(s.contains(4));
    EXPECT_FALSE(s.contains(5));
    EXPECT_TRUE(s.containsAll(IndexSet{2, 6}));
    EXPECT_FALSE(s.containsAll(IndexSet{2, 5}));
    EXPECT_TRUE(s.containsAll(IndexSet{})); // empty subset of anything
}

TEST(IndexSet, Disjointness)
{
    EXPECT_TRUE(IndexSet({1, 3}).disjointWith(IndexSet{2, 4}));
    EXPECT_FALSE(IndexSet({1, 3}).disjointWith(IndexSet{3}));
    EXPECT_TRUE(IndexSet{}.disjointWith(IndexSet{1}));
}

TEST(IndexSet, DisjointUnionMerges)
{
    const IndexSet u = IndexSet({1, 5}).disjointUnion(IndexSet{2, 7});
    EXPECT_EQ(std::vector<IndexId>(u.begin(), u.end()),
              (std::vector<IndexId>{1, 2, 5, 7}));
}

TEST(IndexSet, DisjointUnionFaultsOnOverlap)
{
    EXPECT_DEATH(IndexSet({1, 2}).disjointUnion(IndexSet{2, 3}),
                 "disjointUnion");
}

TEST(IndexSet, Minus)
{
    const IndexSet d = IndexSet({1, 2, 3, 4}).minus(IndexSet{2, 4, 9});
    EXPECT_EQ(std::vector<IndexId>(d.begin(), d.end()),
              (std::vector<IndexId>{1, 3}));
    EXPECT_TRUE(IndexSet({1}).minus(IndexSet{1}).empty());
}

TEST(IndexSet, OrderingAndEquality)
{
    EXPECT_EQ(IndexSet({1, 2}), IndexSet({2, 1}));
    EXPECT_LT(IndexSet({1, 2}), IndexSet({1, 3}));
    EXPECT_LT(IndexSet({1}), IndexSet({1, 0xffffffff}));
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

        // contains / containsAll
        for (IndexId v = 0; v < 30; ++v)
            EXPECT_EQ(a.contains(v), sa.count(v) == 1);
        EXPECT_EQ(a.containsAll(b),
                  std::includes(sa.begin(), sa.end(), sb.begin(),
                                sb.end()));

        // disjointness
        bool overlap = false;
        for (IndexId v : sb)
            overlap |= sa.count(v) == 1;
        EXPECT_EQ(a.disjointWith(b), !overlap);

        // minus
        std::vector<IndexId> expect_minus;
        for (IndexId v : sa)
            if (!sb.count(v))
                expect_minus.push_back(v);
        {
            const IndexSet m = a.minus(b);
            EXPECT_EQ(std::vector<IndexId>(m.begin(), m.end()), expect_minus);
        }

        // union when disjoint
        if (!overlap) {
            std::set<IndexId> su = sa;
            su.insert(sb.begin(), sb.end());
            const std::vector<IndexId> expect_union(su.begin(), su.end());
            const IndexSet un = a.disjointUnion(b);
            EXPECT_EQ(std::vector<IndexId>(un.begin(), un.end()),
                      expect_union);
        }
    }
}
