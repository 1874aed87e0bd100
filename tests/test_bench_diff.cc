/**
 * @file
 * Unit tests for the bench_diff comparison machinery
 * (tools/bench_diff_util.hh): override parsing with both separators,
 * metric-direction inference, per-metric tolerance gating, and the
 * directory walk.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "tools/bench_diff_util.hh"

namespace
{

using namespace benchdiff;

JsonValue
report(const std::map<std::string, double> &metrics)
{
    std::string text = "{\"tool\":\"test\",\"metrics\":{";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        if (!first)
            text += ",";
        first = false;
        text += "\"" + name + "\":" + std::to_string(value);
    }
    text += "}}";
    return JsonReader(text).parse();
}

TEST(ParseOverrides, AcceptsColonSeparator)
{
    const auto out = parseOverrides("burst_per_sec:0.02");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out.at("burst_per_sec"), 0.02);
}

TEST(ParseOverrides, AcceptsEqualsSeparator)
{
    const auto out =
        parseOverrides("burst_per_sec=0.02,lookup_totalUs=0.25");
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out.at("burst_per_sec"), 0.02);
    EXPECT_DOUBLE_EQ(out.at("lookup_totalUs"), 0.25);
}

TEST(ParseOverrides, MixedSeparatorsInOneSpec)
{
    const auto out = parseOverrides("a:0.1,b=0.2,c:0.3");
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out.at("a"), 0.1);
    EXPECT_DOUBLE_EQ(out.at("b"), 0.2);
    EXPECT_DOUBLE_EQ(out.at("c"), 0.3);
}

TEST(ParseOverrides, EmptySpecYieldsNoOverrides)
{
    EXPECT_TRUE(parseOverrides("").empty());
}

TEST(ParseOverrides, RejectsMissingSeparator)
{
    EXPECT_THROW(parseOverrides("just_a_name"), std::runtime_error);
}

TEST(ParseOverrides, RejectsEmptyName)
{
    EXPECT_THROW(parseOverrides("=0.1"), std::runtime_error);
}

TEST(ParseOverrides, RejectsNonNumericTolerance)
{
    EXPECT_THROW(parseOverrides("name=loose"), std::runtime_error);
}

TEST(DirectionOf, ThroughputLatencyAndInfo)
{
    EXPECT_EQ(directionOf("eventq_burst_events_per_sec"),
              Direction::HigherBetter);
    EXPECT_EQ(directionOf("replica_scaling_speedup"),
              Direction::HigherBetter);
    EXPECT_EQ(directionOf("burst_goodput_qps"),
              Direction::HigherBetter);
    EXPECT_EQ(directionOf("burst_offered_load_qps"),
              Direction::HigherBetter);
    EXPECT_EQ(directionOf("totalUs"), Direction::LowerBetter);
    EXPECT_EQ(directionOf("batchPrepareNs"), Direction::LowerBetter);
    EXPECT_EQ(directionOf("burst_windowed_p99_latency_us"),
              Direction::LowerBetter);
    EXPECT_EQ(directionOf("hedgesIssued"), Direction::Informational);
    EXPECT_EQ(directionOf("slo_alert_fires"), Direction::Informational);
}

TEST(CompareReports, DefaultToleranceGates)
{
    std::vector<Comparison> results;
    compareReports("r", report({{"rate_per_sec", 100.0}}),
                   report({{"rate_per_sec", 90.0}}), 0.05, {}, 0.0,
                   results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].regressed);
    EXPECT_NEAR(results[0].improvement(), -0.10, 1e-9);
}

TEST(CompareReports, PerMetricOverrideLoosens)
{
    std::vector<Comparison> results;
    compareReports("r", report({{"rate_per_sec", 100.0}}),
                   report({{"rate_per_sec", 90.0}}), 0.05,
                   parseOverrides("rate_per_sec=0.15"), 0.0, results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].regressed);
    EXPECT_DOUBLE_EQ(results[0].tolerance, 0.15);
}

TEST(CompareReports, PerMetricOverrideTightens)
{
    // A 3% drop passes the default 5% gate but trips a 1% override —
    // the CI pattern: steady wall-clock-free metrics (burst) gate
    // tighter than noisy wall-clock ones.
    std::vector<Comparison> results;
    compareReports("r",
                   report({{"burst_per_sec", 100.0},
                           {"wall_per_sec", 100.0}}),
                   report({{"burst_per_sec", 97.0},
                           {"wall_per_sec", 97.0}}),
                   0.05, parseOverrides("burst_per_sec=0.01"), 0.0,
                   results);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].regressed);  // burst: 3% > 1% override
    EXPECT_FALSE(results[1].regressed); // wall: 3% < 5% default
}

TEST(CompareReports, LatencyDirectionGatesOnGrowth)
{
    std::vector<Comparison> results;
    compareReports("r", report({{"totalUs", 100.0}}),
                   report({{"totalUs", 110.0}}), 0.05, {}, 0.0,
                   results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].regressed);
}

TEST(CompareReports, InformationalNeverGates)
{
    std::vector<Comparison> results;
    compareReports("r", report({{"hedgesIssued", 2.0}}),
                   report({{"hedgesIssued", 50.0}}), 0.0, {}, 0.0,
                   results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].regressed);
}

TEST(CompareReports, InjectedSlowdownTripsGate)
{
    std::vector<Comparison> results;
    compareReports("r", report({{"rate_per_sec", 100.0}}),
                   report({{"rate_per_sec", 100.0}}), 0.05, {}, 0.10,
                   results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].regressed);
}

TEST(CompareReports, MissingCurrentMetricFails)
{
    // A metric the current report dropped is a failing row, not a
    // silent skip; a metric only the current report has is ignored.
    std::vector<Comparison> results;
    compareReports("r", report({{"gone_per_sec", 100.0}}),
                   report({{"other_per_sec", 100.0}}), 0.05, {}, 0.0,
                   results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].name, "gone_per_sec");
    EXPECT_TRUE(results[0].missing);
    EXPECT_FALSE(results[0].regressed);
    EXPECT_DOUBLE_EQ(results[0].baseline, 100.0);
}

TEST(CompareDirectories, MissingCurrentReportFailsEveryMetric)
{
    // The baseline tree holds two reports, the current tree only one:
    // the absent report's metrics are failing rows, not a skipped file.
    namespace fs = std::filesystem;
    const fs::path root = "bench_diff_test";
    fs::remove_all(root);
    fs::create_directories(root / "base");
    fs::create_directories(root / "cur");
    const auto write = [](const fs::path &path, const std::string &text) {
        std::ofstream(path) << text;
    };
    write(root / "base" / "kept.json", "{\"metrics\":{\"a_per_sec\":10}}");
    write(root / "base" / "gone.json",
          "{\"metrics\":{\"b_per_sec\":20,\"cUs\":30}}");
    write(root / "cur" / "kept.json", "{\"metrics\":{\"a_per_sec\":10}}");

    std::vector<Comparison> results;
    compareDirectories((root / "base").string(), (root / "cur").string(),
                       0.05, {}, 0.0, results);
    fs::remove_all(root);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].file, "gone.json");
    EXPECT_EQ(results[0].name, "b_per_sec");
    EXPECT_TRUE(results[0].missing);
    EXPECT_EQ(results[1].file, "gone.json");
    EXPECT_EQ(results[1].name, "cUs");
    EXPECT_TRUE(results[1].missing);
    EXPECT_EQ(results[2].file, "kept.json");
    EXPECT_FALSE(results[2].missing);
    EXPECT_FALSE(results[2].regressed);
}

} // namespace
