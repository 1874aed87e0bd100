/**
 * @file
 * Unit tests of the common substrate: integer math, RNG and Zipfian
 * sampling statistics, the stats package, and the table printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

using namespace fafnir;

TEST(IntMath, PowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(IntMath, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(IntMath, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(IntMath, BitExtraction)
{
    EXPECT_EQ(bits(0xdeadbeef, 7, 0), 0xefu);
    EXPECT_EQ(bits(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(bits(0xff, 3, 2), 0x3u);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
}

TEST(Types, ClockConversion)
{
    EXPECT_EQ(periodFromMhz(200.0), 5000u); // 5 ns in ps
    EXPECT_EQ(periodFromMhz(1000.0), 1000u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedDrawsInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        const auto v = rng.nextRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, UniformityRoughCheck)
{
    Rng rng(11);
    std::map<std::uint64_t, int> counts;
    const int draws = 80000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.nextBelow(8)];
    for (const auto &[bucket, count] : counts) {
        EXPECT_NEAR(static_cast<double>(count), draws / 8.0,
                    draws / 8.0 * 0.1)
            << "bucket " << bucket;
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(5);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Zipfian, SkewZeroIsUniform)
{
    Rng rng(13);
    ZipfianGenerator zipf(100, 0.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    // Hottest and coldest items should be within a factor ~1.5.
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    EXPECT_LT(static_cast<double>(*hi) / std::max(1, *lo), 1.6);
}

TEST(Zipfian, SkewConcentratesMass)
{
    Rng rng(17);
    ZipfianGenerator zipf(10000, 0.99);
    std::uint64_t head = 0;
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        if (zipf.sample(rng) < 100)
            ++head;
    // Under zipf(0.99), the top 1% of items draws a large share.
    EXPECT_GT(static_cast<double>(head) / draws, 0.35);
}

TEST(Zipfian, SamplesInRange)
{
    Rng rng(19);
    for (double skew : {0.0, 0.5, 0.9, 1.0, 1.3}) {
        ZipfianGenerator zipf(37, skew);
        for (int i = 0; i < 5000; ++i)
            EXPECT_LT(zipf.sample(rng), 37u);
    }
}

TEST(Zipfian, HigherSkewMoreConcentrated)
{
    auto head_share = [](double skew) {
        Rng rng(23);
        ZipfianGenerator zipf(1000, skew);
        int head = 0;
        for (int i = 0; i < 50000; ++i)
            if (zipf.sample(rng) < 10)
                ++head;
        return head;
    };
    EXPECT_LT(head_share(0.5), head_share(0.9));
    EXPECT_LT(head_share(0.9), head_share(1.2));
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, DistributionTracksMoments)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_TRUE(std::isnan(d.mean()));
    d.sample(2.0);
    d.sample(4.0);
    d.sample(9.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_DOUBLE_EQ(d.sum(), 15.0);
}

TEST(Stats, GroupDumpFormat)
{
    Counter c;
    c += 3;
    StatGroup group("mem");
    group.addCounter("reads", c, "read requests");
    group.addFormula("double_reads", [&c] { return c.value() * 2.0; });
    std::ostringstream os;
    group.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("mem.reads 3 # read requests"), std::string::npos);
    EXPECT_NE(out.find("mem.double_reads 6.0000"), std::string::npos);
}

TEST(Table, AlignsAndCounts)
{
    TextTable t("demo");
    t.setHeader({"name", "value"});
    t.row("alpha", 1);
    t.row("b", 2.5);
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("2.50"), std::string::npos);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

// --- Rate-limited warnings (logging::TokenBucket / warnEvery) ---------

TEST(TokenBucket, StartsFullThenSuppressesUntilRefill)
{
    logging::TokenBucket bucket(2, 3); // 2 tokens, refill per 3 misses
    EXPECT_TRUE(bucket.allow());
    EXPECT_TRUE(bucket.allow());
    // Empty: the next three calls are suppressed and earn one token.
    EXPECT_FALSE(bucket.allow());
    EXPECT_FALSE(bucket.allow());
    EXPECT_FALSE(bucket.allow());
    EXPECT_TRUE(bucket.allow());
    // Spent again; back to suppressing.
    EXPECT_FALSE(bucket.allow());
    EXPECT_EQ(bucket.allowed(), 3u);
    EXPECT_EQ(bucket.suppressed(), 4u);
}

TEST(TokenBucket, DegenerateConfigClampsToOne)
{
    logging::TokenBucket bucket(0, 0); // both clamp to >= 1
    EXPECT_TRUE(bucket.allow());
    EXPECT_FALSE(bucket.allow()); // suppressed, earns the refill token
    EXPECT_TRUE(bucket.allow());
    EXPECT_EQ(bucket.allowed(), 2u);
    EXPECT_EQ(bucket.suppressed(), 1u);
}

TEST(WarnEvery, SitesAreIndependentAndCountSuppressions)
{
    // Site names are process-global; make them unique to this test.
    const std::string a = "test.warnevery.a";
    const std::string b = "test.warnevery.b";
    EXPECT_TRUE(logging::warnEvery(a));
    EXPECT_FALSE(logging::warnEvery(a));
    EXPECT_FALSE(logging::warnEvery(a));
    // Another site has its own bucket.
    EXPECT_TRUE(logging::warnEvery(b));
    EXPECT_EQ(logging::warnEverySuppressed(a), 2u);
    EXPECT_EQ(logging::warnEverySuppressed(b), 0u);
}

// A user error exits with the command-line usage status, not a crash.
TEST(LoggingDeathTest, FatalExitsWithStatusTwo)
{
    EXPECT_EXIT(FAFNIR_FATAL("bad flag value ", 42),
                ::testing::ExitedWithCode(2), "fatal: bad flag value 42");
}
