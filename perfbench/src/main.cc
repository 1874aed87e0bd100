/**
 * @file
 * simbench — end-to-end benchmark of the Fafnir simulator.
 *
 *   simbench --workload lookup-analytic --seed 1 --seconds 10 --trace 0
 *
 * Untraced runs (--trace 0) serve calls in a closed loop for --seconds,
 * in five slices with a fresh set-up before each (reporting the median
 * set-up time), time a calibration kernel between calls, and print the
 * end-to-end metrics with host times scaled to the kernel's reference
 * speed (calibrate.hh). Traced runs (--trace 1)
 * set up once, serve a traced segment (two thirds of --seconds) that
 * records a span around every public call and re-times the inner
 * layers on the same inputs, then an untraced segment (one third) that
 * prices the tracing, and print the per-layer metrics.
 *
 * Every run prints "digest <hex>", a hash of the simulated statistics
 * of the first warm-up + window batches; it must not depend on tracing
 * or on the process. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The exit code
 * is 0 only when every served output checked out.
 *
 * Other flags: --digest-only 1 serves just the digest prefix;
 * --inject value|count corrupts one output of the first timed call
 * (the self-test); --spans-out PATH writes the traced run's spans.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "calibrate.hh"

namespace perfbench
{

std::map<std::string, double>
Tracer::totalNsByLayer() const
{
    std::map<std::string, double> total;
    for (const Span &s : spans_)
        total[s.layer] += static_cast<double>(s.durNs());
    return total;
}

std::map<std::string, double>
Tracer::selfNsByLayer() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = static_cast<double>(spans_[i].durNs());
    for (const Span &s : spans_)
        if (s.kind == SpanKind::Nested && s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                static_cast<double>(s.durNs());
    std::map<std::string, double> byLayer;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        byLayer[spans_[i].layer] += self[i];
    return byLayer;
}

double
Tracer::callNs() const
{
    double ns = 0;
    for (const Span &s : spans_)
        if (s.kind == SpanKind::Call)
            ns += static_cast<double>(s.durNs());
    return ns;
}

double
Tracer::probeNs() const
{
    double ns = 0;
    for (const Span &s : spans_)
        if (s.kind != SpanKind::Call)
            ns += static_cast<double>(s.durNs());
    return ns;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    static const char *const kinds[] = {"call", "nested", "probe"};
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const int kind = static_cast<int>(s.kind);
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%zu,\"batch\":%llu,"
                     "\"parent\":%d}}",
                     i == 0 ? "" : ",", s.layer, kinds[kind], kind,
                     static_cast<double>(s.startNs) / 1000.0,
                     static_cast<double>(s.durNs()) / 1000.0, i,
                     static_cast<unsigned long long>(s.batch), s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

namespace
{

/** End-to-end metrics (--trace 0), in BENCHMARK.json order. */
const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"sim_queries_per_host_s", "queries/s"},
    {"host_ms_per_batch_p50", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"sim_ns_per_query", "ns"},
    {"ok_query_ratio", "ratio"},
};

/** Per-layer metrics (--trace 1), in BENCHMARK.json order. */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"host.prepare_us_per_batch", "us"},
    {"host.unique_per_reference", "ratio"},
    {"tree.run_us_per_batch", "us"},
    {"tree.reduces_per_batch", "count"},
    {"tree.forwards_per_batch", "count"},
    {"tree.root_combines_per_batch", "count"},
    {"tree.max_pe_outputs", "count"},
    {"tree.pool_reuse_ratio", "ratio"},
    {"engine.replay_us_per_batch", "us"},
    {"event.replay_us_per_batch", "us"},
    {"eventq.events_per_batch", "count"},
    {"event.host_ns_per_event", "ns"},
    {"event.fifo_overflows_per_batch", "count"},
    {"event.forward_waits_per_batch", "count"},
    {"dram.reads_per_query", "count"},
    {"dram.row_hit_ratio", "ratio"},
    {"dram.rank_bus_utilization", "ratio"},
    {"dram.host_ns_per_read", "ns"},
    {"serving.serve_us_per_batch", "us"},
    {"serving.overhead_us_per_batch", "us"},
    {"serving.sim_dispatch_wait_ns_per_batch", "ns"},
    {"shard.split_us_per_batch", "us"},
    {"shard.cross_shard_query_ratio", "ratio"},
    {"shard.imbalance", "ratio"},
    {"shard.sim_combine_ns_per_batch", "ns"},
    {"baselines.cpu_us_per_batch", "us"},
    {"baselines.recnmp_us_per_batch", "us"},
    {"baselines.tensordimm_us_per_batch", "us"},
    {"baselines.cpu.sim_ns_per_query", "ns"},
    {"baselines.recnmp.sim_ns_per_query", "ns"},
    {"baselines.tensordimm.sim_ns_per_query", "ns"},
    {"baselines.host_ns_per_read", "ns"},
    {"embedding.gen_us_per_batch", "us"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.layer_coverage", "ratio"},
};

/** Set-ups per untraced run (the first builds the timed rig). */
constexpr int kSetups = 5;

/** Wall time between calibration kernel runs in an untraced run: the
 *  kernel takes about 1.4 ms, so it costs about 7% of the run. */
constexpr std::int64_t kCalibrationPeriodNs = 20'000'000;

/** Kernel runs per calibration window (about 200 ms of the run). */
constexpr std::size_t kWindowCalibrations = 10;

/** Kernel runs after each set-up, to scale that set-up's time. */
constexpr int kSetupCalibrations = 5;

/** The traced run fails below this share of wall time in layer spans. */
constexpr double kMinLayerCoverage = 0.9;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool digestOnly = false;
    Inject inject = Inject::None;
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "simbench: %s\n"
                 "usage: simbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--digest-only 0|1] [--inject value|count] "
                 "[--spans-out PATH]\n",
                 error.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        if (const auto eq = key.find('='); eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage("missing value for " + key);
        }
        try {
            if (key == "--workload")
                opt.workload = value;
            else if (key == "--seed")
                opt.seed = std::stoull(value);
            else if (key == "--seconds")
                opt.seconds = std::stod(value);
            else if (key == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (key == "--digest-only")
                opt.digestOnly = std::stoi(value) != 0;
            else if (key == "--spans-out")
                opt.spansOut = value;
            else if (key == "--inject" && value == "value")
                opt.inject = Inject::Value;
            else if (key == "--inject" && value == "count")
                opt.inject = Inject::Count;
            else
                usage("unknown argument " + key + " " + value);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + value);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        usage("unknown workload '" + opt.workload + "'");
    if (!(opt.seconds >= 0.0 && opt.seconds <= 600.0))
        usage("--seconds must be in [0, 600]");
    return opt;
}

/** Linearly interpolated quantile @p p in [0, 1] of @p v. */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** Peak resident set of this process in MiB (VmHWM). */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** A workload after set-up, with what set-up cost. */
struct Rig
{
    std::unique_ptr<Workload> workload;
    double setupSeconds = 0;
    double genSeconds = 0;
    std::uint64_t queries = 0;
    std::uint64_t failed = 0;
};

/** Draw inputs, build the rig, and serve the warm-up batches. */
Rig
setUp(const Options &opt, const Plan &plan)
{
    Rig rig;
    const auto s0 = Clock::now();
    std::vector<fafnir::embedding::Batch> pool =
        generateInputs(opt.workload, opt.seed, plan);
    const auto g1 = Clock::now();
    rig.workload = makeWorkload(opt.workload, std::move(pool), plan);
    const unsigned per = rig.workload->batchesPerCall();
    for (std::uint64_t call = 0; call < plan.warmupBatches / per; ++call) {
        const StepStats st = rig.workload->step(call, nullptr, Inject::None);
        rig.queries += st.queries;
        rig.failed += st.failedQueries;
    }
    const auto s1 = Clock::now();
    rig.setupSeconds = static_cast<double>(nsBetween(s0, s1)) * 1e-9;
    rig.genSeconds = static_cast<double>(nsBetween(s0, g1)) * 1e-9;
    return rig;
}

/** Totals of a stretch of closed-loop calls. */
struct Segment
{
    std::uint64_t calls = 0, batches = 0, queries = 0, failed = 0;
    double checkNs = 0, wallNs = 0;
    /** Every call, in order. */
    std::vector<StepStats> steps;
    /** Per call: ns of the calibration kernel run right after it, or 0. */
    std::vector<double> calibrationNs;

    void
    add(const StepStats &st)
    {
        ++calls;
        batches += st.batches;
        queries += st.queries;
        failed += st.failedQueries;
        checkNs += static_cast<double>(st.checkNs);
        steps.push_back(st);
        calibrationNs.push_back(0.0);
    }

    void
    append(const Segment &o)
    {
        for (std::size_t i = 0; i < o.steps.size(); ++i) {
            add(o.steps[i]);
            calibrationNs.back() = o.calibrationNs[i];
        }
        wallNs += o.wallNs;
    }
};

/**
 * Serve calls from @p call on until the digest prefix is served and
 * @p seconds of wall time have passed; @p inject hits the first call.
 * With @p cal, run the calibration kernel after a call once per
 * kCalibrationPeriodNs of wall time, and after the last call.
 */
Segment
serve(Workload &w, std::uint64_t &call, Tracer *tracer, double seconds,
      const Plan &plan, Inject inject, const Calibration *cal = nullptr)
{
    Segment seg;
    const std::uint64_t prefixCalls =
        plan.prefixBatches() / w.batchesPerCall();
    const auto w0 = Clock::now();
    auto lastCal = w0;
    while (call < prefixCalls ||
           static_cast<double>(nsBetween(w0, Clock::now())) <
               seconds * 1e9) {
        seg.add(w.step(call, tracer, seg.calls == 0 ? inject : Inject::None));
        ++call;
        if (cal != nullptr &&
            nsBetween(lastCal, Clock::now()) >= kCalibrationPeriodNs) {
            seg.calibrationNs.back() = cal->timeOnceNs();
            lastCal = Clock::now();
        }
    }
    if (cal != nullptr && seg.calls > 0 && seg.calibrationNs.back() == 0.0)
        seg.calibrationNs.back() = cal->timeOnceNs();
    seg.wallNs = static_cast<double>(nsBetween(w0, Clock::now()));
    return seg;
}

/** Host time of a calibrated segment, stated at the reference speed. */
struct AtReference
{
    /** Host ms per batch of every call. */
    std::vector<double> msPerBatch;
    /** Simulated queries per host second of every window. */
    std::vector<double> queriesPerSecond;
};

/**
 * Group the calls of a segment served with calibration into windows
 * that each end with the call after their kWindowCalibrations-th kernel
 * run (the last window may hold fewer; serve() ends every segment with
 * one), and scale each call's time by kReferenceNs over the median
 * kernel time of its window.
 */
AtReference
atReference(const Segment &seg)
{
    AtReference out;
    std::size_t begin = 0;
    std::vector<double> kernelNs;
    for (std::size_t end = 0; end < seg.steps.size(); ++end) {
        if (seg.calibrationNs[end] > 0.0)
            kernelNs.push_back(seg.calibrationNs[end]);
        if (kernelNs.size() < kWindowCalibrations &&
            end + 1 < seg.steps.size())
            continue;
        const double scale =
            Calibration::kReferenceNs / quantile(kernelNs, 0.5);
        double ns = 0, queries = 0;
        for (std::size_t i = begin; i <= end; ++i) {
            const StepStats &st = seg.steps[i];
            const double scaled = static_cast<double>(st.callNs) * scale;
            out.msPerBatch.push_back(scaled * 1e-6 / st.batches);
            ns += scaled;
            queries += static_cast<double>(st.queries);
        }
        out.queriesPerSecond.push_back(queries / (ns * 1e-9));
        begin = end + 1;
        kernelNs.clear();
    }
    return out;
}

/** Per-layer metrics of a traced segment followed by an untraced one. */
Metrics
perLayerMetrics(const Workload &w, const Tracer &tracer,
                const Segment &traced, const Segment &untraced,
                const Plan &plan, double genSeconds)
{
    Metrics m;
    for (const auto &[name, unit] : kPerLayer)
        m[name] = 0.0;
    for (const auto &[name, value] : w.prefixCounts())
        m.at(name) = value;

    const auto self = tracer.selfNsByLayer();
    const auto total = tracer.totalNsByLayer();
    const Metrics &probes = w.probeCounts();
    auto get = [](const auto &map, const char *key) {
        const auto it = map.find(key);
        return it == map.end() ? 0.0 : it->second;
    };
    const double batches = static_cast<double>(traced.batches);
    auto usPerBatch = [&](double ns) { return ns / 1000.0 / batches; };
    auto div = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };

    m["host.prepare_us_per_batch"] = usPerBatch(get(self, "fafnir.host"));
    m["tree.run_us_per_batch"] = usPerBatch(get(self, "fafnir.tree"));
    m["tree.pool_reuse_ratio"] = div(get(probes, "tree.pool_reuses"),
                                     get(probes, "tree.pool_acquires"));
    m["engine.replay_us_per_batch"] =
        usPerBatch(get(self, "fafnir.engine"));
    m["event.replay_us_per_batch"] =
        usPerBatch(get(self, "fafnir.event_engine"));
    m["event.host_ns_per_event"] = div(get(self, "fafnir.event_engine"),
                                       get(probes, "event.events"));
    m["dram.host_ns_per_read"] =
        div(get(total, "dram"), get(probes, "dram.reads"));
    m["serving.serve_us_per_batch"] =
        usPerBatch(get(total, "fafnir.serving"));
    m["serving.overhead_us_per_batch"] =
        usPerBatch(get(self, "fafnir.serving"));
    m["shard.split_us_per_batch"] =
        usPerBatch(get(self, "fafnir.sharding"));
    double baselineNs = 0;
    for (const char *d : {"cpu", "recnmp", "tensordimm"}) {
        const double ns = get(total, ("baselines." + std::string(d)).c_str());
        m["baselines." + std::string(d) + "_us_per_batch"] = usPerBatch(ns);
        baselineNs += ns;
    }
    m["baselines.host_ns_per_read"] =
        div(baselineNs, get(probes, "baselines.reads"));
    m["embedding.gen_us_per_batch"] = genSeconds * 1e6 / plan.poolBatches;

    // Wall time net of re-timings and output checks, per batch.
    const double tracedNet =
        traced.wallNs - tracer.probeNs() - traced.checkNs;
    const double untracedNet = untraced.wallNs - untraced.checkNs;
    m["trace.overhead_ratio"] =
        div(tracedNet / batches,
            untracedNet / static_cast<double>(untraced.batches)) -
        1.0;
    m["trace.layer_coverage"] = div(tracer.callNs(), tracedNet);
    return m;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &metrics,
            const std::vector<std::pair<const char *, const char *>> &order)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto &[name, unit] : order) {
        const auto it = metrics.find(name);
        if (it == metrics.end())
            continue;
        const double v = std::isfinite(it->second) ? it->second : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name, v, unit);
        first = false;
    }
    std::printf("}}\n");
}

int
run(const Options &opt)
{
    const Plan plan;
    if (opt.digestOnly) {
        Rig rig = setUp(opt, plan);
        Tracer tracer(Clock::now());
        std::uint64_t call =
            plan.warmupBatches / rig.workload->batchesPerCall();
        const Segment seg = serve(*rig.workload, call,
                                  opt.trace ? &tracer : nullptr, 0.0, plan,
                                  Inject::None);
        const std::uint64_t failed = rig.failed + seg.failed;
        std::printf("digest %016llx\n",
                    static_cast<unsigned long long>(rig.workload->digest()));
        const bool correct = failed == 0 && rig.workload->invariantsHold();
        printResult(correct, rig.queries + seg.queries, failed, {},
                    kEndToEnd);
        return correct ? 0 : 1;
    }

    if (!opt.trace) {
        // Time the closed loop in kSetups slices with a set-up between
        // slices (built and dropped), so the set-ups sample the host at
        // moments spread over the run; set-up time is their median.
        // Every host time is scaled to the reference speed by kernel
        // runs taken right after it (see calibrate.hh).
        const Calibration cal;
        std::vector<double> setups, rawSetups;
        auto timedSetUp = [&] {
            Rig rig = setUp(opt, plan);
            rawSetups.push_back(rig.setupSeconds);
            setups.push_back(rig.setupSeconds *
                             cal.toReference(kSetupCalibrations));
            return rig;
        };
        Rig rig = timedSetUp();
        Workload &w = *rig.workload;
        std::uint64_t call = plan.warmupBatches / w.batchesPerCall();
        Segment seg;
        double peakRss = 0;
        for (int slice = 0; slice < kSetups; ++slice) {
            seg.append(serve(w, call, nullptr, opt.seconds / kSetups, plan,
                             slice == 0 ? opt.inject : Inject::None, &cal));
            // Read before any further set-up adds a second rig.
            if (slice == 0)
                peakRss = peakRssMib();
            if (slice + 1 < kSetups)
                timedSetUp();
        }

        const AtReference ref = atReference(seg);
        std::vector<double> rawMs, kernelNs;
        for (std::size_t i = 0; i < seg.steps.size(); ++i) {
            rawMs.push_back(static_cast<double>(seg.steps[i].callNs) * 1e-6 /
                            seg.steps[i].batches);
            if (seg.calibrationNs[i] > 0.0)
                kernelNs.push_back(seg.calibrationNs[i]);
        }
        std::fprintf(stderr,
                     "simbench: unscaled ms/batch p50 %.4f, setup %.4f s; "
                     "calibration kernel p50 %.0f ns over %zu runs\n",
                     quantile(rawMs, 0.5), quantile(rawSetups, 0.5),
                     quantile(kernelNs, 0.5), kernelNs.size());

        const std::uint64_t attempted = rig.queries + seg.queries;
        const std::uint64_t failed = rig.failed + seg.failed;
        Metrics m;
        m["sim_queries_per_host_s"] = quantile(ref.queriesPerSecond, 0.5);
        m["host_ms_per_batch_p50"] = quantile(ref.msPerBatch, 0.5);
        m["setup_s"] = quantile(setups, 0.5);
        m["peak_rss_mib"] = peakRss;
        m["sim_ns_per_query"] = w.simNsPerQuery();
        m["ok_query_ratio"] = 1.0 -
            static_cast<double>(failed) / static_cast<double>(attempted);
        std::printf("digest %016llx\n",
                    static_cast<unsigned long long>(w.digest()));
        const bool correct = failed == 0 && w.invariantsHold();
        printResult(correct, attempted, failed, m, kEndToEnd);
        return correct ? 0 : 1;
    }

    Rig rig = setUp(opt, plan);
    Workload &w = *rig.workload;
    std::uint64_t call = plan.warmupBatches / w.batchesPerCall();
    Tracer tracer(Clock::now());
    const Segment traced =
        serve(w, call, &tracer, opt.seconds * 2.0 / 3.0, plan, opt.inject);
    const Segment untraced =
        serve(w, call, nullptr, opt.seconds / 3.0, plan, Inject::None);
    if (!opt.spansOut.empty() && !tracer.writeJson(opt.spansOut))
        std::fprintf(stderr, "simbench: cannot write %s\n",
                     opt.spansOut.c_str());

    const Metrics m = perLayerMetrics(w, tracer, traced, untraced, plan,
                                      rig.genSeconds);
    const std::uint64_t attempted =
        rig.queries + traced.queries + untraced.queries;
    const std::uint64_t failed = rig.failed + traced.failed + untraced.failed;
    const double coverage = m.at("trace.layer_coverage");
    if (coverage < kMinLayerCoverage)
        std::fprintf(stderr,
                     "simbench: layer coverage %.3f is below %.2f\n",
                     coverage, kMinLayerCoverage);
    if (!w.invariantsHold())
        std::fprintf(stderr, "simbench: a probe did different work than "
                             "the call it re-times\n");
    std::printf("digest %016llx\n",
                static_cast<unsigned long long>(w.digest()));
    const bool correct = failed == 0 && w.invariantsHold() &&
        coverage >= kMinLayerCoverage;
    printResult(correct, attempted, failed, m, kPerLayer);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options opt = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 2;
    }
}
