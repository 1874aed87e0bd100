/**
 * @file
 * Perf-regression gate over benchmark report artifacts.
 *
 * Compares the "metrics" object of a fresh report (micro_hotpath's
 * BENCH_hotpath.json, micro_serving's BENCH_serving.json, fafnir_sim
 * run reports, ablation sweeps) against a committed baseline and fails
 * — non-zero exit — when any metric regressed beyond tolerance. The
 * improvement direction is inferred from the metric name:
 * throughput-style names (per_sec, PerSec, speedup, GBs, throughput)
 * must not drop; latency-style names (Us, Ns, latency, Time) must not
 * grow; anything else is reported but never gates. A baseline metric
 * the fresh report lacks is a failing `missing` row.
 *
 *   bench_diff --baseline=results/BENCH_hotpath.json \
 *              --current=build/BENCH_hotpath.json --tolerance=0.05
 *
 * Per-metric overrides tighten or loosen individual gates; `:` and `=`
 * are both accepted as the separator:
 * `--metrics=eventq_burst_events_per_sec=0.02,reduced_elements_per_sec:0.10`.
 * Directory mode compares every *.json of the baseline tree with the
 * same-named report of the current tree; a report the current tree
 * lacks fails each of its metrics as `missing`.
 * `--inject-slowdown=0.1` degrades the current side by 10% before
 * comparing — the self-test the CI gate runs to prove the gate can
 * fail. Exit codes: 0 ok, 1 regression or missing metric, 2 usage or
 * I/O error.
 *
 * The comparison machinery lives in bench_diff_util.hh so the unit
 * suite can test it directly.
 */

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "tools/bench_diff_util.hh"

using namespace benchdiff;

int
main(int argc, char **argv)
{
    std::string baseline_path;
    std::string current_path;
    std::string metric_spec;
    double tolerance = 0.05;
    double inject_slowdown = 0.0;

    fafnir::FlagParser flags(
        "bench_diff: gate benchmark reports against a baseline");
    flags.addString("baseline", baseline_path,
                    "committed baseline report (or directory of them)");
    flags.addString("current", current_path,
                    "freshly produced report (or directory)");
    flags.addDouble("tolerance", tolerance,
                    "allowed relative regression per metric (0.05 = 5%)");
    flags.addString("metrics", metric_spec,
                    "per-metric tolerance overrides, "
                    "name:tol[,name=tol]");
    flags.addDouble("inject-slowdown", inject_slowdown,
                    "self-test: degrade current metrics by this fraction");
    flags.parse(argc, argv);

    if (baseline_path.empty() || current_path.empty()) {
        std::fprintf(stderr,
                     "usage: bench_diff --baseline=PATH --current=PATH "
                     "[--tolerance=F] [--metrics=name:tol,...]\n");
        return 2;
    }

    std::vector<Comparison> results;
    try {
        const auto overrides = parseOverrides(metric_spec);
        namespace fs = std::filesystem;
        if (fs::is_directory(baseline_path) &&
            fs::is_directory(current_path)) {
            compareDirectories(baseline_path, current_path, tolerance,
                               overrides, inject_slowdown, results);
        } else {
            compareReports(fs::path(current_path).filename().string(),
                           loadJson(baseline_path),
                           loadJson(current_path), tolerance, overrides,
                           inject_slowdown, results);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    if (results.empty()) {
        std::fprintf(stderr,
                     "error: no comparable metrics between %s and %s\n",
                     baseline_path.c_str(), current_path.c_str());
        return 2;
    }

    // The diff table (markdown; CI uploads it as the job artifact).
    std::printf("| metric | dir | baseline | current | change | "
                "tol | verdict |\n");
    std::printf("|---|---|---|---|---|---|---|\n");
    unsigned regressions = 0;
    unsigned missing = 0;
    for (const Comparison &c : results) {
        if (c.missing) {
            ++missing;
            std::printf("| %s:%s | %s | %.4g | - | - | %.0f%% | missing |\n",
                        c.file.c_str(), c.name.c_str(),
                        toString(c.direction), c.baseline,
                        100.0 * c.tolerance);
            continue;
        }
        const double change = c.improvement();
        const char *verdict = "ok";
        if (c.direction == Direction::Informational)
            verdict = "-";
        else if (c.regressed)
            verdict = "REGRESSED";
        regressions += c.regressed;
        std::printf("| %s:%s | %s | %.4g | %.4g | %+.2f%% | %.0f%% | "
                    "%s |\n",
                    c.file.c_str(), c.name.c_str(),
                    toString(c.direction), c.baseline, c.current,
                    100.0 * change, 100.0 * c.tolerance, verdict);
    }
    std::printf("\n%zu metrics compared, %u regression%s, %u missing\n",
                results.size(), regressions,
                regressions == 1 ? "" : "s", missing);
    return regressions == 0 && missing == 0 ? 0 : 1;
}
