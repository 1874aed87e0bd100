/**
 * @file
 * fafnir_sim — the command-line driver for the simulator.
 *
 * Runs a lookup, SpMV, or SpTRSV experiment with every model knob
 * exposed as a flag and prints timing, work, memory, and energy
 * summaries. This is the entry point for exploring configurations the
 * bench harnesses don't sweep.
 *
 *   fafnir_sim --mode=lookup --ranks=32 --batch=32 --batches=64 \
 *              --skew=1.05 --engine=event --dedup=true
 *   fafnir_sim --mode=lookup --engine=event --serve-engines=4 --shards=2
 *   fafnir_sim --mode=spmv --matrix=road --nodes=65536
 *   fafnir_sim --mode=sptrsv --nodes=16384 --reach=64
 *
 * Lookup mode serves one workload on one of two shapes. By default one
 * --engine (a Fafnir model or a baseline) runs the stream back to back,
 * behind the hardened ServiceGuard when --faults installs a plan
 * (--deadline-us, --max-attempts, --retry-backoff-ns).
 * --serve-engines=N or --shards=S serves it through the sharded tier
 * instead: max(1, S) shards of max(1, N) event-engine replicas, so
 * --serve-engines=N alone is the one-shard tier, the pipelined front
 * end. The tier runs each batch whole, so --interactive (one query per
 * hardware batch) needs the single-engine shape. Event-engine runs
 * that serve replicas, a quantized --payload, or --payload-accuracy
 * check every served value in-process.
 *
 * Telemetry flags (see docs/OBSERVABILITY.md):
 *   --stats-json=out.json   every registered stat as one JSON object
 *   --stats-csv=out.csv     the same stats flattened to CSV
 *   --trace=trace.json      Chrome trace of the run (Perfetto-viewable)
 *   --report=run.json       per-run report artifact (config + metrics)
 *
 * Fault injection (see docs/ROBUSTNESS.md):
 *   --faults=dram_latency:0.1,event_delay:0.05   install a fault plan
 *   --fault-seed=7          deterministic fault-schedule seed
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <type_traits>

#include "baselines/cpu.hh"
#include "baselines/recnmp.hh"
#include "baselines/tensordimm.hh"
#include "baselines/two_step.hh"
#include "common/cli.hh"
#include "common/intmath.hh"
#include "common/stats.hh"
#include "dram/cmdlog.hh"
#include "dram/memsystem.hh"
#include "embedding/batcher.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "embedding/quantize.hh"
#include "embedding/service.hh"
#include "fafnir/engine.hh"
#include "fafnir/event_engine.hh"
#include "fafnir/sharding.hh"
#include "hwmodel/energy.hh"
#include "hwmodel/energy_report.hh"
#include "sparse/fafnir_spmv.hh"
#include "sparse/matgen.hh"
#include "sparse/sptrsv.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/session.hh"

using namespace fafnir;

namespace
{

struct Options
{
    std::string mode = "lookup";
    std::string engine = "analytic"; // analytic | event | cpu | recnmp |
                                     // tensordimm
    unsigned ranks = 32;
    unsigned batches = 32;
    unsigned batch = 16;
    unsigned querySize = 16;
    double skew = 0.9;
    double hotFraction = 0.001;
    bool dedup = true;
    bool interactive = false;
    bool hbm = false;
    std::uint64_t seed = 1;
    // Serving shape: either count > 0 serves the sharded tier.
    unsigned serveEngines = 0;
    unsigned shards = 0;
    unsigned pipelineDepth = 2;
    unsigned prepareWorkers = 1;
    double hedgePct = 0.0;
    // Guarded-serving knobs (single-engine runs under --faults).
    double deadlineUs = 0.0;
    unsigned maxAttempts = 3;
    std::uint64_t retryBackoffNs = 200;
    // Transport payload; `payload` is parsed from payloadName in main.
    std::string payloadName = "fp32";
    embedding::PayloadFormat payload = embedding::PayloadFormat::Fp32;
    std::string payloadAccuracy;
    // SpMV / SpTRSV knobs.
    std::string matrix = "web"; // web | road | banded | uniform
    unsigned nodes = 1u << 14;
    unsigned reach = 64;
    double nnzPerRow = 8.0;

    bool replicated() const { return serveEngines > 0 || shards > 0; }
    /** Checked runs report quantization accuracy. */
    bool
    payloadReport() const
    {
        return payload != embedding::PayloadFormat::Fp32 ||
               !payloadAccuracy.empty();
    }
};

embedding::TableConfig
tableConfig()
{
    return {32, 1u << 20, 512, 4};
}

/** The memory system under every lookup engine and replica. */
core::ReplicaMemoryConfig
memoryShape(const Options &opt)
{
    core::ReplicaMemoryConfig mem;
    mem.geometry = opt.hbm ? dram::Geometry::hbm2()
                           : dram::Geometry::withTotalRanks(opt.ranks);
    mem.timing = opt.hbm ? dram::Timing::hbm2() : dram::Timing::ddr4_2400();
    return mem;
}

/** The lookup workload's generator knobs. */
embedding::WorkloadConfig
workloadConfig(const Options &opt, const embedding::TableConfig &tables)
{
    embedding::WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = opt.batch;
    wc.querySize = opt.querySize;
    wc.popularity = opt.skew > 0 ? embedding::Popularity::Zipfian
                                 : embedding::Popularity::Uniform;
    wc.zipfSkew = opt.skew;
    wc.hotFraction = opt.hotFraction;
    return wc;
}

/**
 * Why a numeric flag of @p opt is out of range, or "" when none is.
 * Such values would otherwise reach library assertions or print NaN.
 */
std::string
flagRangeError(const Options &opt)
{
    // Lookup runs on HBM take their geometry from --hbm alone.
    const bool ranked = opt.mode != "lookup" || !opt.hbm;
    const embedding::TableConfig tables = tableConfig();
    const std::uint64_t table_bytes = tables.totalBytes();
    std::ostringstream why;
    if (ranked && !isPowerOf2(opt.ranks))
        why << "--ranks=" << opt.ranks << " is not a power of two";
    else if (opt.mode == "lookup" &&
             table_bytes > memoryShape(opt).geometry.capacityBytes())
        why << "--ranks=" << opt.ranks << " cannot hold the "
            << (table_bytes >> 30) << " GiB of embedding tables";
    else if (opt.mode == "lookup" && opt.engine == "tensordimm" &&
             tables.vectorBytes % (memoryShape(opt).geometry.totalRanks() *
                                   tables.elementBytes) != 0)
        why << "--ranks=" << opt.ranks << " cannot split a "
            << tables.vectorBytes << " B vector into whole "
            << tables.elementBytes << " B elements per TensorDIMM rank";
    else if (opt.batches == 0)
        why << "--batches must be at least 1";
    else if (opt.batch == 0)
        why << "--batch must be at least 1";
    else if (opt.querySize == 0)
        why << "--query-size must be at least 1";
    else if (!(opt.hotFraction > 0.0 && opt.hotFraction <= 1.0))
        why << "--hot-fraction=" << opt.hotFraction << " is not in (0, 1]";
    else if (const std::uint64_t population =
                 workloadConfig(opt, tables).population();
             opt.mode == "lookup" && opt.querySize > population)
        why << "--query-size=" << opt.querySize << " exceeds the "
            << population << " distinct indices at --hot-fraction="
            << opt.hotFraction;
    else if (std::isnan(opt.skew))
        why << "--skew is not a number";
    else if (opt.skew < 0.0)
        why << "--skew=" << opt.skew << " is negative";
    else if (!(opt.hedgePct >= 0.0 && opt.hedgePct <= 100.0))
        why << "--hedge-pct=" << opt.hedgePct
            << " is not a percentile in [0, 100]";
    else if (opt.nodes == 0)
        why << "--nodes must be at least 1";
    else if (opt.mode == "spmv" &&
             (opt.matrix == "web" || opt.matrix == "uniform") &&
             !(opt.nnzPerRow >= 0.0 && opt.nnzPerRow <= opt.nodes))
        why << "--nnz-per-row=" << opt.nnzPerRow << " is not in [0, --nodes="
            << opt.nodes << "]";
    else if (opt.reach == 0)
        why << "--reach must be at least 1";
    return why.str();
}

std::vector<embedding::Batch>
makeWorkload(const Options &opt, const embedding::TableConfig &tables)
{
    embedding::BatchGenerator gen(workloadConfig(opt, tables), opt.seed);
    std::vector<embedding::Batch> batches;
    for (unsigned i = 0; i < opt.batches; ++i)
        batches.push_back(gen.next());
    return batches;
}

/** Record @p metrics on @p run, in order. */
void
setMetrics(telemetry::RunReport &run,
           std::initializer_list<std::pair<const char *, double>> metrics)
{
    for (const auto &[name, value] : metrics)
        run.setMetric(name, value);
}

/** Served values against embedding::quantizedReduce, plus the
 *  reference's error against the exact fp32 reduction. */
struct ValueCheck
{
    std::size_t mismatches = 0;
    double maxAbs = 0.0;
    double meanAbs = 0.0;
    double relL2 = 0.0;
};

/**
 * Check every value in @p served (one trace with `results` per batch)
 * bit for bit. A batch with mismatches triggers the flight recorder at
 * its @p doneTick.
 */
template <typename Trace, typename DoneTick>
ValueCheck
checkValues(const Options &opt, const embedding::EmbeddingStore &store,
            const std::vector<embedding::Batch> &batches,
            const std::vector<Trace> &served, DoneTick doneTick)
{
    ValueCheck check;
    double sum_abs = 0.0, l2_num = 0.0, l2_den = 0.0;
    std::size_t elements = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        std::size_t batch_mismatches = 0;
        for (std::size_t q = 0; q < batches[b].queries.size(); ++q) {
            const auto &indices = batches[b].queries[q].indices;
            const embedding::Vector want =
                embedding::quantizedReduce(opt.payload, store, indices);
            const embedding::Vector &got = served[b].results[q];
            if (got.size() != want.size() ||
                (!got.empty() &&
                 std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(float)) != 0))
                ++batch_mismatches;
            const embedding::Vector exact = store.reduce(indices);
            for (std::size_t i = 0; i < exact.size(); ++i) {
                const double err =
                    std::fabs(static_cast<double>(want[i]) - exact[i]);
                check.maxAbs = std::max(check.maxAbs, err);
                sum_abs += err;
                l2_num += err * err;
                l2_den += static_cast<double>(exact[i]) * exact[i];
                ++elements;
            }
        }
        if (batch_mismatches == 0)
            continue;
        check.mismatches += batch_mismatches;
        if (auto *rec = telemetry::flightRecorder()) {
            char detail[96];
            std::snprintf(detail, sizeof detail,
                          "batch %zu: %zu values differ from reference", b,
                          batch_mismatches);
            rec->trigger(telemetry::Trigger::ValueMismatch,
                         doneTick(served[b]), detail);
        }
    }
    check.meanAbs =
        elements > 0 ? sum_abs / static_cast<double>(elements) : 0.0;
    check.relL2 = l2_den > 0.0 ? std::sqrt(l2_num / l2_den) : 0.0;
    return check;
}

/**
 * Print and record a checked run's quantization accuracy, and write the
 * --payload-accuracy artifact when asked. @return false when the
 * artifact could not be written.
 */
bool
reportPayloadCheck(const Options &opt, const ValueCheck &check,
                   telemetry::RunReport &run)
{
    std::printf("payload check: %zu mismatches vs the quantized "
                "reference; vs exact fp32: max abs %.4f, mean abs "
                "%.4f, rel-L2 %.5f\n",
                check.mismatches, check.maxAbs, check.meanAbs,
                check.relL2);
    setMetrics(run, {{"payloadValueMismatches", check.mismatches},
                     {"payloadMaxAbsError", check.maxAbs},
                     {"payloadMeanAbsError", check.meanAbs},
                     {"payloadRelL2", check.relL2}});
    if (opt.payloadAccuracy.empty())
        return true;
    std::ofstream os(opt.payloadAccuracy);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     opt.payloadAccuracy.c_str());
        return false;
    }
    os << "{\n  \"schemaVersion\": 1,\n  \"tool\": \"fafnir_sim\",\n"
       << "  \"format\": \"" << embedding::payloadFormatName(opt.payload)
       << "\",\n  \"backend\": \"" << embedding::quantizeKernelBackend()
       << "\",\n  \"queries\": "
       << static_cast<std::uint64_t>(opt.batches) * opt.batch << ",\n"
       << "  \"payloadValueMismatches\": " << check.mismatches << ",\n"
       << "  \"maxAbsError\": " << check.maxAbs << ",\n"
       << "  \"meanAbsError\": " << check.meanAbs << ",\n"
       << "  \"relativeL2\": " << check.relL2 << "\n"
       << "}\n";
    run.noteArtifact("payloadAccuracy", opt.payloadAccuracy);
    return true;
}

/** Payload bytes and codec work over a run's Fafnir-engine timings. */
struct PayloadTally
{
    std::uint64_t dram = 0;
    std::uint64_t link = 0;
    std::uint64_t codecOps = 0;

    void
    add(const core::LookupTiming &t)
    {
        dram += t.dramPayloadBytes;
        link += t.linkPayloadBytes;
        codecOps += t.activity.dequants + t.activity.requants;
    }

    /** Print the tally and its link energy; record both as metrics. */
    void
    report(const Options &opt, const embedding::TableConfig &tables,
           telemetry::RunReport &run) const
    {
        const double link_uj = hwmodel::LinkEnergyModel{}.energyNj(
                                   link, codecOps, tables.dim()) /
                               1000.0;
        std::printf("payload: %s (%zu B/vector vs %u fp32), "
                    "%.2f MB dram, %.2f MB links, %.2f uJ link energy\n",
                    embedding::payloadFormatName(opt.payload),
                    embedding::payloadBytes(opt.payload, tables.dim()),
                    tables.vectorBytes, static_cast<double>(dram) / 1e6,
                    static_cast<double>(link) / 1e6, link_uj);
        setMetrics(run, {{"dramPayloadBytes", dram},
                         {"linkPayloadBytes", link},
                         {"payloadCodecOps", codecOps},
                         {"linkEnergyUj", link_uj}});
    }
};

/** Print the attribution summary (when collected) and finish the run. */
int
finishLookup(telemetry::TelemetrySession &session)
{
    if (auto *attr = telemetry::attribution();
        attr != nullptr && !attr->queries().empty()) {
        Tick dram = 0, ctrl = 0, compute = 0, wait = 0, service = 0,
             total = 0;
        for (const auto &q : attr->queries()) {
            dram += q.dramService;
            ctrl += q.ctrlQueue;
            compute += q.peCompute;
            wait += q.forwardWait;
            service += q.serviceQueue;
            total += q.total();
        }
        const double t = total != 0 ? static_cast<double>(total) : 1.0;
        const auto pct = [t](Tick part) {
            return 100.0 * static_cast<double>(part) / t;
        };
        std::printf("attribution: %zu queries — dram %.1f%%, "
                    "ctrl-queue %.1f%%, pe-compute %.1f%%, "
                    "forward-wait %.1f%%, service %.1f%% "
                    "(mean meeting height %.2f)\n",
                    attr->queries().size(), pct(dram), pct(ctrl),
                    pct(compute), pct(wait), pct(service),
                    attr->meanMeetingHeight());
    }
    return session.finish();
}

/**
 * Build the --engine model over @p memory and pass it to @p run: the
 * one engine factory of plain and guarded single-engine runs. The event
 * engine computes values when @p store is given. @return run's exit
 * code, or 2 for an unknown engine.
 */
template <typename Run>
int
withEngine(const Options &opt, dram::MemorySystem &memory,
           const embedding::VectorLayout &layout,
           const embedding::EmbeddingStore *store, Run &&run)
{
    core::EngineConfig cfg;
    cfg.dedup = opt.dedup;
    cfg.interactive = opt.interactive;
    cfg.payload = opt.payload;
    if (opt.engine == "analytic") {
        core::FafnirEngine engine(memory, layout, cfg);
        return run(engine);
    }
    if (opt.engine == "event") {
        core::EventEngineConfig ecfg;
        ecfg.base = cfg;
        ecfg.computeValues = store != nullptr;
        core::EventDrivenEngine engine(memory, layout, ecfg, store);
        return run(engine);
    }
    if (opt.engine == "cpu") {
        baselines::CpuEngine engine(memory, layout);
        return run(engine);
    }
    if (opt.engine == "recnmp") {
        baselines::RecNmpConfig rcfg;
        rcfg.cacheEnabled = true;
        baselines::RecNmpEngine engine(memory, layout, rcfg);
        return run(engine);
    }
    if (opt.engine == "tensordimm") {
        baselines::TensorDimmEngine engine(memory, layout.tables());
        return run(engine);
    }
    std::fprintf(stderr, "error: unknown --engine '%s'\n"
                         "run with --help for usage\n",
                 opt.engine.c_str());
    return 2;
}

/** One engine serves the whole stream back to back. */
template <typename Engine>
int
serveStream(const Options &opt, telemetry::TelemetrySession &session,
            const embedding::TableConfig &tables,
            const std::vector<embedding::Batch> &batches,
            dram::MemorySystem &memory, Engine &engine,
            const embedding::EmbeddingStore *store,
            const dram::CommandLog &cmdlog)
{
    telemetry::RunReport &run = session.report();
    const auto timings = engine.lookupMany(batches, 0);
    constexpr bool event_engine =
        std::is_same_v<Engine, core::EventDrivenEngine>;
    // Only the Fafnir engines' timings carry payload bytes.
    constexpr bool fafnir_timing = std::is_base_of_v<
        core::LookupTiming,
        typename std::decay_t<decltype(timings)>::value_type>;

    Tick complete = 0;
    std::size_t reads = 0;
    std::size_t references = 0;
    Distribution batch_latency_us;
    PayloadTally payload;
    for (const auto &t : timings) {
        complete = std::max(complete, t.complete);
        reads += t.memAccesses;
        batch_latency_us.sample(static_cast<double>(t.totalTime()) /
                                kTicksPerUs);
        if constexpr (fafnir_timing)
            payload.add(t);
    }
    for (const auto &b : batches)
        references += b.totalIndices();

    const double us_total = static_cast<double>(complete) / kTicksPerUs;
    const auto queries = static_cast<double>(opt.batches) * opt.batch;
    std::printf("engine=%s ranks=%u batches=%u batch=%u q=%u\n",
                opt.engine.c_str(), opt.ranks, opt.batches, opt.batch,
                opt.querySize);
    std::printf("time: %.2f us total, %.1f ns/query, %.2f Mquery/s\n",
                us_total, us_total * 1000.0 / queries,
                queries / us_total);
    if (batch_latency_us.count() > 0)
        std::printf("batch latency: p50 %.2f us, p99 %.2f us\n",
                    batch_latency_us.p50(), batch_latency_us.p99());
    std::printf("bandwidth: %.1f GB/s achieved, rank-bus utilization "
                "%.1f%%\n",
                memory.achievedBandwidthGBs(complete),
                memory.rankBusUtilization(complete) * 100.0);
    std::printf("memory: %zu reads for %zu references (%.1f%% saved), "
                "%llu row hits / %llu misses\n",
                reads, references,
                100.0 * (1.0 - static_cast<double>(reads) /
                                   static_cast<double>(references)),
                static_cast<unsigned long long>(memory.rowHitCount()),
                static_cast<unsigned long long>(memory.rowMissCount()));
    const hwmodel::EnergyReport energy;
    const auto e = energy.account(memory, complete);
    std::printf("energy: %.1f uJ DRAM + %.2f uJ NDP + %.1f uJ host IO = "
                "%.1f uJ (%.2f nJ/query)\n",
                e.dramUj, e.ndpUj, e.hostIoUj, e.total(),
                e.total() * 1000.0 / queries);

    if constexpr (event_engine) {
        if (store != nullptr &&
            !reportPayloadCheck(
                opt,
                checkValues(opt, *store, batches, timings,
                            [](const auto &t) { return t.complete; }),
                run))
            return 1;
    }

    StatRegistry &registry = StatRegistry::instance();
    memory.registerStats(registry.group("memory"));
    if constexpr (event_engine)
        engine.registerStats(registry.group("tree"));
    registry.group("lookup").addDistribution(
        "batchLatencyUs", batch_latency_us, "per-batch end-to-end latency");

    setMetrics(run,
               {{"totalUs", us_total},
                {"nsPerQuery", us_total * 1000.0 / queries},
                {"mQueriesPerSec", queries / us_total},
                {"achievedGBs", memory.achievedBandwidthGBs(complete)},
                {"rankBusUtilization", memory.rankBusUtilization(complete)},
                {"memReads", reads},
                {"references", references},
                {"energyUj", e.total()},
                {"energyNjPerQuery", e.total() * 1000.0 / queries}});
    if constexpr (fafnir_timing)
        payload.report(opt, tables, run);

    if (auto *ts = telemetry::sink())
        dram::writeTrace(cmdlog, *ts);
    return finishLookup(session);
}

/**
 * One engine behind a ServiceGuard under an installed fault plan: armed
 * query hooks corrupt the stream, and faults surface as retries,
 * timeouts, and tagged partial results (see docs/ROBUSTNESS.md).
 */
template <typename Engine>
int
serveGuarded(const Options &opt, telemetry::TelemetrySession &session,
             const embedding::TableConfig &tables,
             std::vector<embedding::Batch> batches,
             dram::MemorySystem &memory, Engine &engine)
{
    telemetry::RunReport &run = session.report();
    // Armed query hooks corrupt the stream before admission, modeling
    // buggy or hostile clients.
    std::size_t corrupted = 0;
    for (auto &batch : batches)
        corrupted +=
            embedding::injectQueryFaults(batch, tables.totalVectors());

    embedding::GuardConfig gc;
    gc.queryDeadline = static_cast<Tick>(opt.deadlineUs * kTicksPerUs);
    gc.maxAttempts = opt.maxAttempts;
    gc.retryBackoff = opt.retryBackoffNs * kTicksPerNs;
    gc.indexLimit = tables.totalVectors();
    gc.maxQueryWidth = static_cast<std::size_t>(opt.querySize) * 4;
    embedding::ServiceGuard guard(
        gc, [&engine](const embedding::Batch &b, Tick at) {
            auto t = engine.lookup(b, at);
            embedding::ServeSample s;
            s.complete = t.complete;
            s.queryComplete = std::move(t.queryComplete);
            return s;
        });

    run.setConfig("deadlineUs", opt.deadlineUs);
    run.setConfig("maxAttempts", std::uint64_t{opt.maxAttempts});
    run.setConfig("retryBackoffNs", opt.retryBackoffNs);

    const embedding::GuardedReport served =
        embedding::serveGuardedOpenLoop(batches, 0, guard);

    Tick complete = 0;
    for (const auto &r : served.requests)
        complete = std::max(complete, r.completed);
    const double us_total = static_cast<double>(complete) / kTicksPerUs;

    const fault::FaultPlan &plan = *fault::plan();
    std::printf("engine=%s ranks=%u batches=%u batch=%u q=%u "
                "(guarded, faults=%s seed=%llu)\n",
                opt.engine.c_str(), opt.ranks, opt.batches, opt.batch,
                opt.querySize, plan.describe().c_str(),
                static_cast<unsigned long long>(plan.seed()));
    std::printf("time: %.2f us total\n", us_total);
    std::printf("faults: %llu injected, %zu queries corrupted at the "
                "client\n",
                static_cast<unsigned long long>(plan.totalFired()),
                corrupted);
    std::printf("recovery: %llu retries, %llu timeouts, %llu rejected, "
                "%llu expired, %llu suspect\n",
                static_cast<unsigned long long>(guard.retryCount()),
                static_cast<unsigned long long>(guard.timeoutCount()),
                static_cast<unsigned long long>(guard.rejectedQueryCount()),
                static_cast<unsigned long long>(guard.expiredQueryCount()),
                static_cast<unsigned long long>(guard.suspectQueryCount()));
    std::printf("served: %zu queries, %zu dropped, %zu partial requests\n",
                served.servedQueries(), served.droppedQueries(),
                served.partialRequests());

    StatRegistry &registry = StatRegistry::instance();
    memory.registerStats(registry.group("memory"));
    if constexpr (std::is_same_v<Engine, core::EventDrivenEngine>)
        engine.registerStats(registry.group("tree"));
    guard.registerStats(registry.group("service.guard"));

    setMetrics(run, {{"totalUs", us_total},
                     {"corruptedQueries", corrupted},
                     {"retries", guard.retryCount()},
                     {"timeouts", guard.timeoutCount()},
                     {"rejectedQueries", guard.rejectedQueryCount()},
                     {"servedQueries", served.servedQueries()},
                     {"droppedQueries", served.droppedQueries()},
                     {"partialRequests", served.partialRequests()}});
    return finishLookup(session);
}

/**
 * Replicas serve the stream through the sharded tier (see
 * docs/PERFORMANCE.md, "Sharded serving"); one shard is the pipelined
 * front end. The engines compute real values, and `valueMismatches`
 * must be 0 (CI's shard-conformance smoke).
 */
int
serveTier(const Options &opt, telemetry::TelemetrySession &session,
          const core::ReplicaMemoryConfig &mem,
          const embedding::TableConfig &tables,
          const std::vector<embedding::Batch> &batches)
{
    core::ShardTierConfig tc;
    tc.shards = std::max(1u, opt.shards);
    tc.serving.engines = std::max(1u, opt.serveEngines);
    tc.serving.pipelineDepth = opt.pipelineDepth;
    tc.serving.hedgePct = opt.hedgePct;
    tc.serving.dedup = opt.dedup;
    tc.serving.payload = opt.payload;
    tc.serving.prepareWorkers = std::max(1u, opt.prepareWorkers);

    telemetry::RunReport &run = session.report();
    if (opt.shards > 0) {
        run.setConfig("shards", std::uint64_t{tc.shards});
        run.setConfig("placement", std::string("hash"));
    }
    run.setConfig("serveEngines", std::uint64_t{tc.serving.engines});
    run.setConfig("pipelineDepth", std::uint64_t{opt.pipelineDepth});
    run.setConfig("hedgePct", opt.hedgePct);
    run.setConfig("prepareWorkers", std::uint64_t{tc.serving.prepareWorkers});

    core::EventEngineConfig ecfg;
    ecfg.base.dedup = opt.dedup;
    ecfg.computeValues = true;
    const embedding::EmbeddingStore store(tables);
    std::vector<std::vector<core::EngineReplica>> groups =
        core::makeShardReplicas(tc.shards, tc.serving.engines, mem, tables,
                                ecfg, &store);
    core::ShardedServingTier tier(tc, groups, &store);
    const core::ShardedReport served = tier.serve(batches, 0);

    const ValueCheck check = checkValues(
        opt, store, batches, served.batches,
        [](const core::ShardedBatchTrace &t) { return t.combineDone; });
    if (opt.payloadReport() && !reportPayloadCheck(opt, check, run))
        return 1;

    PayloadTally payload;
    std::uint64_t hedges_issued = 0, hedges_won = 0;
    for (const core::PipelineReport &shard : served.perShard) {
        hedges_issued += shard.hedgesIssued;
        hedges_won += shard.hedgesWon;
        for (const auto &trace : shard.batches)
            payload.add(trace.timing);
    }
    const double us_total =
        static_cast<double>(served.makespan) / kTicksPerUs;
    const auto queries = static_cast<double>(opt.batches) * opt.batch;
    std::printf("engine=event serving: %u shard(s) x %u replicas, depth "
                "%u, hedge %.0f%%, %u prepare workers\n",
                tc.shards, tc.serving.engines, tc.serving.pipelineDepth,
                opt.hedgePct, tc.serving.prepareWorkers);
    std::printf("time: %.2f us makespan, %.1f ns/query, %.0f batches/s\n",
                us_total, us_total * 1000.0 / queries,
                served.requestsPerSecond());
    std::printf("hedging: %llu issued, %llu won; routing: %llu "
                "cross-shard queries, load imbalance %.2f; values: %zu "
                "mismatches vs the single-store reference\n",
                static_cast<unsigned long long>(hedges_issued),
                static_cast<unsigned long long>(hedges_won),
                static_cast<unsigned long long>(served.crossShardQueries),
                served.loadImbalance(), check.mismatches);
    tier.printShardScoreboard(std::cout, served);

    StatRegistry &registry = StatRegistry::instance();
    tier.registerStats(registry.group("serving.shard"));
    for (unsigned s = 0; s < tc.shards; ++s) {
        const std::string shard = "shard" + std::to_string(s);
        tier.pipeline(s).registerStats(registry.group("serving." + shard));
        for (std::size_t e = 0; e < tc.serving.engines; ++e)
            groups[s][e].engine->registerStats(registry.group(
                "tree." + shard + ".engine" + std::to_string(e)));
    }

    setMetrics(run, {{"totalUs", us_total},
                     {"nsPerQuery", us_total * 1000.0 / queries},
                     {"batchesPerSec", served.requestsPerSecond()},
                     {"hedgesIssued", hedges_issued},
                     {"hedgesWon", hedges_won},
                     {"crossShardQueries", served.crossShardQueries},
                     {"shardImbalance", served.loadImbalance()},
                     {"valueMismatches", check.mismatches}});
    payload.report(opt, tables, run);
    return finishLookup(session);
}

/**
 * The lookup driver: one workload and one memory shape, served by one
 * engine (guarded under a fault plan) or by the sharded tier.
 */
int
runLookup(const Options &opt, telemetry::TelemetrySession &session)
{
    const bool fafnir = opt.engine == "analytic" || opt.engine == "event";
    if (opt.replicated() && opt.engine != "event") {
        std::fprintf(stderr, "error: --serve-engines and --shards "
                             "require --engine=event\n");
        return 2;
    }
    // The tier replays each prepared batch as one hardware batch, so it
    // cannot serve queries one at a time.
    if (opt.replicated() && opt.interactive) {
        std::fprintf(stderr, "error: --interactive cannot be combined "
                             "with --serve-engines or --shards\n");
        return 2;
    }
    if (opt.payload != embedding::PayloadFormat::Fp32 && !fafnir) {
        std::fprintf(stderr, "error: --payload=%s requires "
                             "--engine=analytic or --engine=event\n",
                     embedding::payloadFormatName(opt.payload));
        return 2;
    }

    const embedding::TableConfig tables = tableConfig();
    const core::ReplicaMemoryConfig mem = memoryShape(opt);
    const std::vector<embedding::Batch> batches = makeWorkload(opt, tables);
    if (opt.replicated())
        return serveTier(opt, session, mem, tables, batches);

    // Unguarded event-engine runs that report accuracy check their
    // served values against the store.
    const bool guarded = fault::plan() != nullptr;
    std::optional<embedding::EmbeddingStore> store;
    if (opt.engine == "event" && !guarded && opt.payloadReport())
        store.emplace(tables);
    const embedding::EmbeddingStore *values = store ? &*store : nullptr;
    dram::CommandLog cmdlog;
    EventQueue eq;
    dram::MemorySystem memory(eq, mem.geometry, mem.timing, mem.interleave,
                              mem.blockBytes);
    const embedding::VectorLayout layout(tables, memory.mapper());
    if (!guarded && telemetry::sink() != nullptr)
        memory.attachCommandLog(&cmdlog);
    return withEngine(opt, memory, layout, values, [&](auto &engine) {
        if (guarded)
            return serveGuarded(opt, session, tables, batches, memory,
                                engine);
        return serveStream(opt, session, tables, batches, memory, engine,
                           values, cmdlog);
    });
}

sparse::CsrMatrix
makeMatrix(const Options &opt, Rng &rng)
{
    if (opt.matrix == "web")
        return sparse::makePowerLawGraph(opt.nodes, opt.nnzPerRow, 0.9,
                                         rng);
    if (opt.matrix == "road")
        return sparse::makeRoadNetwork(opt.nodes, rng);
    if (opt.matrix == "banded")
        return sparse::makeBanded(opt.nodes, 48, rng);
    if (opt.matrix == "uniform")
        return sparse::makeUniformRandom(opt.nodes, opt.nodes,
                                         opt.nnzPerRow, rng);
    FAFNIR_FATAL("unknown --matrix '", opt.matrix, "'");
}

int
runSpmv(const Options &opt, telemetry::TelemetrySession &session)
{
    telemetry::RunReport &run = session.report();
    Rng rng(opt.seed);
    const sparse::CsrMatrix csr = makeMatrix(opt, rng);
    if (csr.nnz() == 0) {
        // Nothing to multiply: both timings would be zero.
        std::fprintf(stderr,
                     "error: --matrix=%s --nodes=%u generated no "
                     "nonzeros\n",
                     opt.matrix.c_str(), opt.nodes);
        return 2;
    }
    const sparse::LilMatrix lil = sparse::LilMatrix::fromCsr(csr);
    const sparse::DenseVector x = sparse::makeOperand(csr.cols());
    const sparse::DenseVector expect = csr.multiply(x);

    EventQueue eq;
    dram::MemorySystem memory(eq,
                              dram::Geometry::withTotalRanks(opt.ranks),
                              dram::Timing::ddr4_2400());

    sparse::SpmvTiming fafnir_t;
    {
        sparse::FafnirSpmv engine(memory, sparse::FafnirSpmvConfig{});
        const auto y = engine.multiply(lil, x, 0, fafnir_t);
        if (!sparse::denseEqual(y, expect)) {
            std::printf("FAIL: Fafnir SpMV mismatch\n");
            return 1;
        }
    }
    sparse::SpmvTiming twostep_t;
    {
        EventQueue eq2;
        dram::MemorySystem memory2(
            eq2, dram::Geometry::withTotalRanks(opt.ranks),
            dram::Timing::ddr4_2400());
        baselines::TwoStepEngine engine(memory2,
                                        baselines::TwoStepConfig{});
        const auto y = engine.multiply(lil, x, 0, twostep_t);
        if (!sparse::denseEqual(y, expect)) {
            std::printf("FAIL: Two-Step SpMV mismatch\n");
            return 1;
        }
    }

    std::printf("matrix=%s n=%u nnz=%zu merge-iterations=%u\n",
                opt.matrix.c_str(), csr.rows(), csr.nnz(),
                fafnir_t.plan.mergeIterations());
    std::printf("Fafnir: %.2f us (%llu multiplies, %.1f MB streamed)\n",
                static_cast<double>(fafnir_t.totalTime()) / kTicksPerUs,
                static_cast<unsigned long long>(fafnir_t.multiplies),
                static_cast<double>(fafnir_t.streamedBytes) / 1e6);
    std::printf("Two-Step: %.2f us  -> speedup %.2fx\n",
                static_cast<double>(twostep_t.totalTime()) / kTicksPerUs,
                static_cast<double>(twostep_t.totalTime()) /
                    static_cast<double>(fafnir_t.totalTime()));

    StatRegistry &registry = StatRegistry::instance();
    memory.registerStats(registry.group("memory"));

    run.setMetric("nnz", static_cast<double>(csr.nnz()));
    run.setMetric("fafnirUs",
                  static_cast<double>(fafnir_t.totalTime()) / kTicksPerUs);
    run.setMetric("twoStepUs", static_cast<double>(twostep_t.totalTime()) /
                                   kTicksPerUs);
    run.setMetric("speedup", static_cast<double>(twostep_t.totalTime()) /
                                 static_cast<double>(fafnir_t.totalTime()));
    return session.finish();
}

int
runSptrsv(const Options &opt, telemetry::TelemetrySession &session)
{
    telemetry::RunReport &run = session.report();
    Rng rng(opt.seed);
    const sparse::CsrMatrix l =
        sparse::makeLowerTriangular(opt.nodes, 3.0, opt.reach, rng);
    const sparse::DenseVector b(opt.nodes, 1.0f);

    EventQueue eq;
    dram::MemorySystem memory(eq,
                              dram::Geometry::withTotalRanks(opt.ranks),
                              dram::Timing::ddr4_2400());
    sparse::SptrsvTiming timing;
    const auto x = sparse::sptrsvSolve(memory, l, b, 0, timing);
    if (!sparse::denseEqual(l.multiply(x), b, 1e-2f)) {
        std::printf("FAIL: SpTRSV residual too large\n");
        return 1;
    }
    const auto schedule = sparse::levelSchedule(l);
    std::printf("n=%u nnz=%zu levels=%zu rows/level=%.1f\n", opt.nodes,
                l.nnz(), schedule.depth(), schedule.parallelism());
    std::printf("time: %.2f us (%.3f us/level)\n",
                static_cast<double>(timing.totalTime()) / kTicksPerUs,
                static_cast<double>(timing.totalTime()) / kTicksPerUs /
                    static_cast<double>(schedule.depth()));

    StatRegistry &registry = StatRegistry::instance();
    memory.registerStats(registry.group("memory"));

    run.setMetric("nnz", static_cast<double>(l.nnz()));
    run.setMetric("levels", static_cast<double>(schedule.depth()));
    run.setMetric("totalUs",
                  static_cast<double>(timing.totalTime()) / kTicksPerUs);
    return session.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    FlagParser flags("Fafnir simulator driver");
    flags.addString("mode", opt.mode, "lookup | spmv | sptrsv");
    flags.addString("engine", opt.engine,
                    "lookup engine: analytic | event | cpu | recnmp | "
                    "tensordimm");
    flags.addUnsigned("ranks", opt.ranks, "memory ranks (power of two)");
    flags.addUnsigned("batches", opt.batches, "batches in the stream");
    flags.addUnsigned("batch", opt.batch, "queries per batch");
    flags.addUnsigned("query-size", opt.querySize, "indices per query");
    flags.addDouble("skew", opt.skew, "Zipfian skew (0 = uniform)");
    flags.addDouble("hot-fraction", opt.hotFraction,
                    "hot fraction of table rows");
    flags.addBool("dedup", opt.dedup, "unique-index mechanism");
    flags.addBool("interactive", opt.interactive,
                  "query-at-a-time processing");
    flags.addBool("hbm", opt.hbm, "HBM2 pseudo channels instead of DDR4");
    flags.addUint64("seed", opt.seed, "workload seed");
    flags.addString("matrix", opt.matrix,
                    "spmv matrix: web | road | banded | uniform");
    flags.addUnsigned("nodes", opt.nodes, "matrix dimension");
    flags.addUnsigned("reach", opt.reach, "sptrsv dependency reach");
    flags.addDouble("nnz-per-row", opt.nnzPerRow, "matrix density");
    flags.addUnsigned("serve-engines", opt.serveEngines,
                      "event-engine replicas per shard of the serving "
                      "tier (0 with --shards=0 = one engine)");
    flags.addUnsigned("shards", opt.shards,
                      "shard tables across this many stores in the "
                      "serving tier (0 = one store)");
    flags.addUnsigned("pipeline-depth", opt.pipelineDepth,
                      "prepared batches in flight (1 = serial rhythm)");
    flags.addUnsigned("prepare-workers", opt.prepareWorkers,
                      "modelled host prepare workers (divide the "
                      "modelled prepare cost; prepare runs serially)");
    flags.addDouble("hedge-pct", opt.hedgePct,
                    "hedge a straggling batch onto a second engine past "
                    "this running service-time percentile (0 = off)");
    flags.addString("payload", opt.payloadName,
                    "transport payload format for tree links and DRAM "
                    "reads: fp32, int8, or twobit");
    flags.addString("payload-accuracy", opt.payloadAccuracy,
                    "write the quantization accuracy report (max/mean "
                    "abs error and relative L2 vs. the exact fp32 path) "
                    "to this path");
    flags.addDouble("deadline-us", opt.deadlineUs,
                    "guarded serving: per-query deadline (0 = none)");
    flags.addUnsigned("max-attempts", opt.maxAttempts,
                      "guarded serving: attempts per request");
    flags.addUint64("retry-backoff-ns", opt.retryBackoffNs,
                    "guarded serving: first retry backoff (doubles)");
    telemetry::TelemetrySession session("fafnir_sim");
    session.registerFlags(flags);
    flags.parse(argc, argv);
    if (const std::string error = flagRangeError(opt); !error.empty()) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    session.start();

    if (!embedding::parsePayloadFormat(opt.payloadName, opt.payload)) {
        std::fprintf(stderr,
                     "error: unknown --payload '%s' (expected fp32, int8, "
                     "or twobit)\nrun with --help for usage\n",
                     opt.payloadName.c_str());
        return 2;
    }

    telemetry::RunReport &report = session.report();
    report.setConfig("mode", opt.mode);
    report.setConfig("engine", opt.engine);
    report.setConfig("payload",
                     std::string(embedding::payloadFormatName(opt.payload)));
    report.setConfig("ranks", static_cast<std::uint64_t>(opt.ranks));
    report.setConfig("batches", static_cast<std::uint64_t>(opt.batches));
    report.setConfig("batch", static_cast<std::uint64_t>(opt.batch));
    report.setConfig("querySize",
                     static_cast<std::uint64_t>(opt.querySize));
    report.setConfig("skew", opt.skew);
    report.setConfig("dedup", opt.dedup);
    report.setConfig("hbm", opt.hbm);
    report.setConfig("seed", opt.seed);
    if (opt.mode != "lookup") {
        report.setConfig("matrix", opt.matrix);
        report.setConfig("nodes", static_cast<std::uint64_t>(opt.nodes));
        report.setConfig("reach", static_cast<std::uint64_t>(opt.reach));
        report.setConfig("nnzPerRow", opt.nnzPerRow);
    }

    if (opt.mode == "lookup")
        return runLookup(opt, session);
    if (opt.mode == "spmv")
        return runSpmv(opt, session);
    if (opt.mode == "sptrsv")
        return runSptrsv(opt, session);
    std::fprintf(stderr,
                 "error: unknown --mode '%s'\nrun with --help for usage\n",
                 opt.mode.c_str());
    return 2;
}
