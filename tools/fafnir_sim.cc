/**
 * @file
 * fafnir_sim — the command-line driver for the simulator.
 *
 * Runs a lookup or SpMV experiment with every model knob exposed as a
 * flag and prints timing, work, memory, and energy summaries. This is
 * the entry point for exploring configurations the bench harnesses
 * don't sweep.
 *
 *   fafnir_sim --mode=lookup --ranks=32 --batch=32 --batches=64 \
 *              --skew=1.05 --engine=event --dedup=true
 *   fafnir_sim --mode=spmv --matrix=road --nodes=65536
 *   fafnir_sim --mode=sptrsv --nodes=16384 --reach=64
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
 * With a plan installed, lookup mode serves through the hardened
 * ServiceGuard (--deadline-us, --max-attempts, --retry-backoff-ns).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "baselines/cpu.hh"
#include "baselines/recnmp.hh"
#include "baselines/tensordimm.hh"
#include "baselines/two_step.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "dram/cmdlog.hh"
#include "dram/memsystem.hh"
#include "embedding/batcher.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "embedding/quantize.hh"
#include "embedding/reduce_kernels.hh"
#include "embedding/service.hh"
#include "fafnir/engine.hh"
#include "fafnir/event_engine.hh"
#include "fafnir/serving.hh"
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
    // Guarded-serving knobs (active when --faults installs a plan).
    double deadlineUs = 0.0;
    unsigned maxAttempts = 3;
    std::uint64_t retryBackoffNs = 200;
    bool sloShed = false;
    // SpMV / SpTRSV knobs.
    std::string matrix = "web"; // web | road | banded | uniform
    unsigned nodes = 1u << 14;
    unsigned reach = 64;
    double nnzPerRow = 8.0;
    // Parsed from --payload after flag parsing (see main).
    embedding::PayloadFormat payload = embedding::PayloadFormat::Fp32;
};

embedding::TableConfig
tableConfig()
{
    return {32, 1u << 20, 512, 4};
}

/**
 * Store-side reference for one query under quantized transport: every
 * vector round-trips the payload codec once (exactly as the leaf rank
 * read does), then reduces in query order. Power-of-two quantizer
 * scales make the fp32 sums exact, so this matches the tree's
 * meeting-order partials bit for bit (see embedding/quantize.hh).
 */
embedding::Vector
quantizedReduce(const embedding::EmbeddingStore &store,
                const std::vector<IndexId> &indices,
                embedding::ReduceOp op, embedding::PayloadFormat fmt)
{
    embedding::Vector acc;
    for (IndexId idx : indices) {
        embedding::Vector v = store.vector(idx);
        embedding::payloadRoundTrip(fmt, v.data(), v.size());
        if (acc.empty())
            acc = std::move(v);
        else
            embedding::combineSpan(op, acc.data(), v.data(), acc.size());
    }
    embedding::finalizeSpan(op, acc.data(), acc.size(), indices.size());
    return acc;
}

/**
 * Lookup serving under an installed fault plan: the batch stream is
 * corrupted by whatever query hooks are armed, then served through a
 * ServiceGuard so faults surface as retries, timeouts, and tagged
 * partial results instead of wrong numbers (see docs/ROBUSTNESS.md).
 */
int
runGuardedLookup(const Options &opt, telemetry::TelemetrySession &session)
{
    telemetry::RunReport &run = session.report();
    EventQueue eq;
    const dram::Geometry geometry = opt.hbm
        ? dram::Geometry::hbm2()
        : dram::Geometry::withTotalRanks(opt.ranks);
    const dram::Timing timing =
        opt.hbm ? dram::Timing::hbm2() : dram::Timing::ddr4_2400();
    dram::MemorySystem memory(eq, geometry, timing,
                              dram::Interleave::BlockRank, 512);
    const embedding::TableConfig tables = tableConfig();
    const embedding::VectorLayout layout(tables, memory.mapper());

    embedding::WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = opt.batch;
    wc.querySize = opt.querySize;
    wc.popularity = opt.skew > 0 ? embedding::Popularity::Zipfian
                                 : embedding::Popularity::Uniform;
    wc.zipfSkew = opt.skew;
    wc.hotFraction = opt.hotFraction;
    embedding::BatchGenerator gen(wc, opt.seed);
    std::vector<embedding::Batch> batches;
    for (unsigned i = 0; i < opt.batches; ++i)
        batches.push_back(gen.next());

    // Armed query hooks corrupt the stream before admission, modeling
    // buggy or hostile clients.
    std::size_t corrupted = 0;
    for (auto &batch : batches)
        corrupted +=
            embedding::injectQueryFaults(batch, tables.totalVectors());

    std::unique_ptr<core::FafnirEngine> analytic;
    std::unique_ptr<core::EventDrivenEngine> event_engine;
    std::unique_ptr<baselines::CpuEngine> cpu;
    std::unique_ptr<baselines::RecNmpEngine> recnmp;
    std::unique_ptr<baselines::TensorDimmEngine> tensordimm;
    embedding::ServiceGuard::ServeFn serve;

    auto sample_of = [](const auto &t) {
        embedding::ServeSample s;
        s.complete = t.complete;
        s.queryComplete = t.queryComplete;
        return s;
    };

    if (opt.engine == "analytic" || opt.engine == "event") {
        core::EngineConfig cfg;
        cfg.dedup = opt.dedup;
        cfg.interactive = opt.interactive;
        cfg.payload = opt.payload;
        if (opt.engine == "event") {
            core::EventEngineConfig ecfg;
            ecfg.base = cfg;
            event_engine = std::make_unique<core::EventDrivenEngine>(
                memory, layout, ecfg);
            serve = [&event_engine,
                     sample_of](const embedding::Batch &b, Tick at) {
                return sample_of(event_engine->lookup(b, at));
            };
        } else {
            analytic = std::make_unique<core::FafnirEngine>(memory,
                                                            layout, cfg);
            serve = [&analytic,
                     sample_of](const embedding::Batch &b, Tick at) {
                return sample_of(analytic->lookup(b, at));
            };
        }
    } else if (opt.engine == "cpu") {
        cpu = std::make_unique<baselines::CpuEngine>(memory, layout);
        serve = [&cpu, sample_of](const embedding::Batch &b, Tick at) {
            return sample_of(cpu->lookup(b, at));
        };
    } else if (opt.engine == "recnmp") {
        baselines::RecNmpConfig cfg;
        cfg.cacheEnabled = true;
        recnmp = std::make_unique<baselines::RecNmpEngine>(memory, layout,
                                                           cfg);
        serve = [&recnmp, sample_of](const embedding::Batch &b, Tick at) {
            return sample_of(recnmp->lookup(b, at));
        };
    } else if (opt.engine == "tensordimm") {
        tensordimm =
            std::make_unique<baselines::TensorDimmEngine>(memory, tables);
        serve = [&tensordimm,
                 sample_of](const embedding::Batch &b, Tick at) {
            return sample_of(tensordimm->lookup(b, at));
        };
    } else {
        std::fprintf(stderr, "error: unknown --engine '%s'\n"
                             "run with --help for usage\n",
                     opt.engine.c_str());
        return 2;
    }

    embedding::GuardConfig gc;
    gc.queryDeadline = static_cast<Tick>(opt.deadlineUs * kTicksPerUs);
    gc.maxAttempts = opt.maxAttempts;
    gc.retryBackoff = opt.retryBackoffNs * kTicksPerNs;
    gc.indexLimit = tables.totalVectors();
    gc.maxQueryWidth = static_cast<std::size_t>(opt.querySize) * 4;
    gc.sloLoadShed = opt.sloShed;
    embedding::ServiceGuard guard(gc, serve);

    run.setConfig("deadlineUs", opt.deadlineUs);
    run.setConfig("maxAttempts",
                  static_cast<std::uint64_t>(opt.maxAttempts));
    run.setConfig("retryBackoffNs", opt.retryBackoffNs);

    const embedding::GuardedReport served =
        embedding::serveGuardedOpenLoop(batches, 0, guard);

    Tick complete = 0;
    for (const auto &r : served.requests)
        complete = std::max(complete, r.completed);
    const double us_total = static_cast<double>(complete) / kTicksPerUs;

    const fault::FaultPlan &plan = *session.faultPlan();
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
    if (gc.sloLoadShed)
        std::printf("load-shed: %llu requests served single-attempt "
                    "under SLO alert, %llu retries suppressed\n",
                    static_cast<unsigned long long>(
                        guard.shedRequestCount()),
                    static_cast<unsigned long long>(
                        guard.shedRetryCount()));

    StatRegistry &registry = StatRegistry::instance();
    memory.registerStats(registry.group("memory"));
    if (event_engine)
        event_engine->registerStats(registry.group("tree"));
    guard.registerStats(registry.group("service.guard"));

    run.setMetric("totalUs", us_total);
    run.setMetric("corruptedQueries", static_cast<double>(corrupted));
    run.setMetric("retries", static_cast<double>(guard.retryCount()));
    run.setMetric("timeouts", static_cast<double>(guard.timeoutCount()));
    run.setMetric("rejectedQueries",
                  static_cast<double>(guard.rejectedQueryCount()));
    run.setMetric("servedQueries",
                  static_cast<double>(served.servedQueries()));
    run.setMetric("droppedQueries",
                  static_cast<double>(served.droppedQueries()));
    run.setMetric("partialRequests",
                  static_cast<double>(served.partialRequests()));
    if (gc.sloLoadShed) {
        run.setMetric("shedRequests",
                      static_cast<double>(guard.shedRequestCount()));
        run.setMetric("shedRetries",
                      static_cast<double>(guard.shedRetryCount()));
    }
    return session.finish();
}

/**
 * Pipelined multi-engine serving (--serve-engines > 0): batches flow
 * through prepare -> dispatch -> engine replicas -> writeback with
 * prepare/execute overlap (see docs/PERFORMANCE.md, "Pipelined
 * serving"). Event-engine only — the replicas are event-driven trees.
 */
int
runPipelinedLookup(const Options &opt,
                   telemetry::TelemetrySession &session)
{
    if (opt.engine != "event") {
        std::fprintf(stderr,
                     "error: --serve-engines requires --engine=event\n");
        return 2;
    }
    const telemetry::ServingOptions &so = session.serving();

    core::ServingConfig sc;
    sc.engines = so.engines;
    sc.pipelineDepth = so.pipelineDepth;
    sc.hedgePct = so.hedgePct;
    sc.dedup = opt.dedup;
    sc.payload = opt.payload;
    sc.prepareWorkers = std::max(1u, so.prepareWorkers);
    if (so.dispatch == "least-loaded")
        sc.dispatch = core::DispatchPolicy::LeastLoaded;
    else if (so.dispatch == "round-robin")
        sc.dispatch = core::DispatchPolicy::RoundRobin;
    else
        FAFNIR_FATAL("unknown --dispatch '", so.dispatch,
                     "' (expected least-loaded or round-robin)");

    telemetry::RunReport &run = session.report();
    run.setConfig("serveEngines",
                  static_cast<std::uint64_t>(so.engines));
    run.setConfig("pipelineDepth",
                  static_cast<std::uint64_t>(so.pipelineDepth));
    run.setConfig("dispatch", so.dispatch);
    run.setConfig("hedgePct", so.hedgePct);
    run.setConfig("prepareWorkers",
                  static_cast<std::uint64_t>(sc.prepareWorkers));

    core::ReplicaMemoryConfig mem;
    mem.geometry = opt.hbm ? dram::Geometry::hbm2()
                           : dram::Geometry::withTotalRanks(opt.ranks);
    mem.timing = opt.hbm ? dram::Timing::hbm2()
                         : dram::Timing::ddr4_2400();
    const embedding::TableConfig tables = tableConfig();

    core::EventEngineConfig ecfg;
    ecfg.base.dedup = opt.dedup;
    ecfg.base.interactive = opt.interactive;
    std::vector<core::EngineReplica> replicas =
        core::makeEventReplicas(so.engines, mem, tables, ecfg, nullptr);

    embedding::WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = opt.batch;
    wc.querySize = opt.querySize;
    wc.popularity = opt.skew > 0 ? embedding::Popularity::Zipfian
                                 : embedding::Popularity::Uniform;
    wc.zipfSkew = opt.skew;
    wc.hotFraction = opt.hotFraction;
    embedding::BatchGenerator gen(wc, opt.seed);
    std::vector<embedding::Batch> batches;
    for (unsigned i = 0; i < opt.batches; ++i)
        batches.push_back(gen.next());

    core::ServingPipeline pipeline(sc, replicas, nullptr);
    const core::PipelineReport served = pipeline.serve(batches, 0);

    const double us_total =
        static_cast<double>(served.makespan) / kTicksPerUs;
    const auto queries = static_cast<double>(opt.batches) * opt.batch;
    std::printf("engine=event serving: %u replicas, depth %u, %s "
                "dispatch, hedge %.0f%%, %u prepare workers\n",
                so.engines, sc.pipelineDepth, so.dispatch.c_str(),
                so.hedgePct, sc.prepareWorkers);
    std::printf("time: %.2f us makespan, %.1f ns/query, "
                "%.0f batches/s\n",
                us_total, us_total * 1000.0 / queries,
                served.requestsPerSecond());
    std::printf("hedging: %llu issued, %llu won\n",
                static_cast<unsigned long long>(served.hedgesIssued),
                static_cast<unsigned long long>(served.hedgesWon));
    std::ostringstream shards;
    for (std::size_t e = 0; e < served.batchesPerEngine.size(); ++e)
        shards << (e == 0 ? "" : " ") << served.batchesPerEngine[e];
    std::printf("shards: [%s] batches per engine\n",
                shards.str().c_str());
    pipeline.printHealthScoreboard(std::cout, served);

    StatRegistry &registry = StatRegistry::instance();
    pipeline.registerStats(registry.group("serving"));
    for (std::size_t e = 0; e < replicas.size(); ++e)
        replicas[e].engine->registerStats(
            registry.group("tree.engine" + std::to_string(e)));

    std::uint64_t dram_payload = 0, link_payload = 0, codec_ops = 0;
    for (const auto &trace : served.batches) {
        dram_payload += trace.timing.dramPayloadBytes;
        link_payload += trace.timing.linkPayloadBytes;
        codec_ops +=
            trace.timing.activity.dequants + trace.timing.activity.requants;
    }
    const hwmodel::LinkEnergyModel link_energy;
    const double link_uj =
        link_energy.energyNj(link_payload, codec_ops, tables.dim()) /
        1000.0;

    run.setMetric("totalUs", us_total);
    run.setMetric("nsPerQuery", us_total * 1000.0 / queries);
    run.setMetric("batchesPerSec", served.requestsPerSecond());
    run.setMetric("hedgesIssued",
                  static_cast<double>(served.hedgesIssued));
    run.setMetric("hedgesWon", static_cast<double>(served.hedgesWon));
    run.setMetric("dramPayloadBytes", static_cast<double>(dram_payload));
    run.setMetric("linkPayloadBytes", static_cast<double>(link_payload));
    run.setMetric("payloadCodecOps", static_cast<double>(codec_ops));
    run.setMetric("linkEnergyUj", link_uj);
    return session.finish();
}

/**
 * Sharded serving (--shards > 0): tables are placed onto S shards, each
 * shard runs its own replica group, and a fixed-order cross-shard
 * combine reassembles every batch (see docs/PERFORMANCE.md, "Sharded
 * serving"). The engines compute real values and every served vector is
 * checked bit-for-bit against the single-store reference — the
 * `valueMismatches` metric must be 0 (CI's shard-conformance smoke).
 */
int
runShardedLookup(const Options &opt, telemetry::TelemetrySession &session)
{
    if (opt.engine != "event") {
        std::fprintf(stderr,
                     "error: --shards requires --engine=event\n");
        return 2;
    }
    const telemetry::ServingOptions &so = session.serving();

    core::ShardTierConfig tc;
    tc.shards = so.shards;
    tc.placement = core::parsePlacement(so.placement);
    tc.serving.engines = std::max(1u, so.shardReplicas);
    tc.serving.pipelineDepth = so.pipelineDepth;
    tc.serving.hedgePct = so.hedgePct;
    tc.serving.dedup = opt.dedup;
    tc.serving.payload = opt.payload;
    tc.serving.prepareWorkers = std::max(1u, so.prepareWorkers);
    if (so.dispatch == "least-loaded")
        tc.serving.dispatch = core::DispatchPolicy::LeastLoaded;
    else if (so.dispatch == "round-robin")
        tc.serving.dispatch = core::DispatchPolicy::RoundRobin;
    else
        FAFNIR_FATAL("unknown --dispatch '", so.dispatch,
                     "' (expected least-loaded or round-robin)");

    telemetry::RunReport &run = session.report();
    run.setConfig("shards", static_cast<std::uint64_t>(tc.shards));
    run.setConfig("placement", so.placement);
    run.setConfig("shardReplicas",
                  static_cast<std::uint64_t>(tc.serving.engines));
    run.setConfig("pipelineDepth",
                  static_cast<std::uint64_t>(so.pipelineDepth));
    run.setConfig("dispatch", so.dispatch);
    run.setConfig("hedgePct", so.hedgePct);
    run.setConfig("prepareWorkers",
                  static_cast<std::uint64_t>(tc.serving.prepareWorkers));

    core::ReplicaMemoryConfig mem;
    mem.geometry = opt.hbm ? dram::Geometry::hbm2()
                           : dram::Geometry::withTotalRanks(opt.ranks);
    mem.timing = opt.hbm ? dram::Timing::hbm2()
                         : dram::Timing::ddr4_2400();
    const embedding::TableConfig tables = tableConfig();
    const embedding::EmbeddingStore store(tables);

    core::EventEngineConfig ecfg;
    ecfg.base.dedup = opt.dedup;
    ecfg.base.interactive = opt.interactive;
    ecfg.computeValues = true;
    std::vector<std::vector<core::EngineReplica>> groups =
        core::makeShardReplicas(tc.shards, tc.serving.engines, mem,
                                tables, ecfg, &store);

    embedding::WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = opt.batch;
    wc.querySize = opt.querySize;
    wc.popularity = opt.skew > 0 ? embedding::Popularity::Zipfian
                                 : embedding::Popularity::Uniform;
    wc.zipfSkew = opt.skew;
    wc.hotFraction = opt.hotFraction;
    embedding::BatchGenerator gen(wc, opt.seed);
    std::vector<embedding::Batch> batches;
    for (unsigned i = 0; i < opt.batches; ++i)
        batches.push_back(gen.next());

    core::ShardedServingTier tier(tc, groups, &store);
    const core::ShardedReport served = tier.serve(batches, 0);

    // Differential value check: every served vector must be
    // bit-identical to the single-store reference reduction (under
    // quantized transport, the reference round-trips each vector
    // through the payload codec — exact power-of-two-scale sums keep
    // the comparison a memcmp).
    std::size_t mismatches = 0;
    for (const core::ShardedBatchTrace &trace : served.batches) {
        std::vector<embedding::Vector> reference;
        if (opt.payload == embedding::PayloadFormat::Fp32) {
            reference =
                store.reduceBatch(batches[trace.batch], tc.reduceOp);
        } else {
            for (const auto &query : batches[trace.batch].queries)
                reference.push_back(quantizedReduce(store, query.indices,
                                                    tc.reduceOp,
                                                    opt.payload));
        }
        std::size_t batch_mismatches = 0;
        for (std::size_t q = 0; q < reference.size(); ++q) {
            const embedding::Vector &got = trace.results[q];
            if (got.size() != reference[q].size() ||
                (!got.empty() &&
                 std::memcmp(got.data(), reference[q].data(),
                             got.size() * sizeof(float)) != 0))
                ++batch_mismatches;
        }
        if (batch_mismatches > 0) {
            mismatches += batch_mismatches;
            if (auto *rec = telemetry::flightRecorder()) {
                char detail[96];
                std::snprintf(
                    detail, sizeof detail,
                    "batch %zu: %zu values differ from reference",
                    trace.batch, batch_mismatches);
                rec->trigger(telemetry::Trigger::ValueMismatch,
                             trace.combineDone, detail);
            }
        }
    }

    const double us_total =
        static_cast<double>(served.makespan) / kTicksPerUs;
    std::printf("engine=event sharded serving: %u shards (%s "
                "placement), %u replicas/shard, depth %u, %u prepare "
                "workers\n",
                tc.shards, so.placement.c_str(), tc.serving.engines,
                tc.serving.pipelineDepth, tc.serving.prepareWorkers);
    std::printf("time: %.2f us makespan, %.0f batches/s\n", us_total,
                served.requestsPerSecond());
    std::printf("routing: %llu cross-shard queries, load imbalance "
                "%.2f\n",
                static_cast<unsigned long long>(
                    served.crossShardQueries),
                served.loadImbalance());
    std::printf("values: %zu mismatches vs the single-store reference\n",
                mismatches);
    tier.printShardScoreboard(std::cout, served);

    // The deterministic rebalance hook: plan + apply moves over the
    // observed per-table load (empty when the placement is balanced).
    const double imbalance_before = tier.observedImbalance();
    const std::vector<core::ShardMove> moves = tier.rebalance();
    for (const core::ShardMove &m : moves)
        std::printf("rebalance: move table %u from shard %u to shard "
                    "%u\n",
                    m.table, m.from, m.to);
    if (!moves.empty())
        std::printf("rebalance: imbalance %.2f -> %.2f after %zu "
                    "moves\n",
                    imbalance_before, tier.observedImbalance(),
                    moves.size());

    StatRegistry &registry = StatRegistry::instance();
    tier.registerStats(registry.group("serving.shard"));

    // Payload byte/energy accounting telescopes over the per-shard
    // pipeline traces (the tier itself moves only combined partials).
    std::uint64_t dram_payload = 0, link_payload = 0, codec_ops = 0;
    for (const core::PipelineReport &shard : served.perShard) {
        for (const auto &trace : shard.batches) {
            dram_payload += trace.timing.dramPayloadBytes;
            link_payload += trace.timing.linkPayloadBytes;
            codec_ops += trace.timing.activity.dequants +
                         trace.timing.activity.requants;
        }
    }
    const hwmodel::LinkEnergyModel link_energy;
    const double link_uj =
        link_energy.energyNj(link_payload, codec_ops, tables.dim()) /
        1000.0;

    run.setMetric("totalUs", us_total);
    run.setMetric("batchesPerSec", served.requestsPerSecond());
    run.setMetric("crossShardQueries",
                  static_cast<double>(served.crossShardQueries));
    run.setMetric("shardImbalance", served.loadImbalance());
    run.setMetric("valueMismatches", static_cast<double>(mismatches));
    run.setMetric("rebalanceMoves", static_cast<double>(moves.size()));
    run.setMetric("dramPayloadBytes", static_cast<double>(dram_payload));
    run.setMetric("linkPayloadBytes", static_cast<double>(link_payload));
    run.setMetric("payloadCodecOps", static_cast<double>(codec_ops));
    run.setMetric("linkEnergyUj", link_uj);
    return session.finish();
}

int
runLookup(const Options &opt, telemetry::TelemetrySession &session)
{
    telemetry::RunReport &run = session.report();
    EventQueue eq;
    const dram::Geometry geometry = opt.hbm
        ? dram::Geometry::hbm2()
        : dram::Geometry::withTotalRanks(opt.ranks);
    const dram::Timing timing =
        opt.hbm ? dram::Timing::hbm2() : dram::Timing::ddr4_2400();
    dram::MemorySystem memory(eq, geometry, timing,
                              dram::Interleave::BlockRank, 512);
    dram::CommandLog cmdlog;
    if (session.traceSink() != nullptr)
        memory.attachCommandLog(&cmdlog);
    const embedding::TableConfig tables = tableConfig();
    const embedding::VectorLayout layout(tables, memory.mapper());

    embedding::WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = opt.batch;
    wc.querySize = opt.querySize;
    wc.popularity = opt.skew > 0 ? embedding::Popularity::Zipfian
                                 : embedding::Popularity::Uniform;
    wc.zipfSkew = opt.skew;
    wc.hotFraction = opt.hotFraction;
    embedding::BatchGenerator gen(wc, opt.seed);
    std::vector<embedding::Batch> batches;
    for (unsigned i = 0; i < opt.batches; ++i)
        batches.push_back(gen.next());

    Tick complete = 0;
    std::size_t reads = 0;
    std::size_t references = 0;
    std::uint64_t dram_payload = 0;
    std::uint64_t link_payload = 0;
    std::uint64_t codec_ops = 0;
    std::vector<Tick> batch_latency;
    Distribution batch_latency_us;

    auto consume = [&](const auto &timings) {
        for (const auto &t : timings) {
            complete = std::max(complete, t.complete);
            reads += t.memAccesses;
            batch_latency.push_back(t.totalTime());
            batch_latency_us.sample(
                static_cast<double>(t.totalTime()) / kTicksPerUs);
            if constexpr (requires { t.dramPayloadBytes; }) {
                dram_payload += t.dramPayloadBytes;
                link_payload += t.linkPayloadBytes;
                codec_ops += t.activity.dequants + t.activity.requants;
            }
        }
    };

    if (opt.payload != embedding::PayloadFormat::Fp32 &&
        opt.engine != "analytic" && opt.engine != "event") {
        std::fprintf(stderr, "error: --payload=%s requires "
                             "--engine=analytic or --engine=event\n",
                     embedding::payloadFormatName(opt.payload));
        return 2;
    }

    // Quantized transport runs re-check served values in-process: the
    // event engine computes real vectors and every one must match the
    // store-side quantized reference bit for bit (CI's quant-conformance
    // smoke asserts payloadValueMismatches == 0).
    const bool quant_check =
        opt.engine == "event" &&
        (opt.payload != embedding::PayloadFormat::Fp32 ||
         !session.serving().payloadAccuracy.empty());
    std::unique_ptr<embedding::EmbeddingStore> store;

    // The event engine outlives the run so its per-PE counters can be
    // exported after the lookups finish.
    std::unique_ptr<core::EventDrivenEngine> event_engine;
    std::vector<core::EventLookupTiming> event_timings;

    if (opt.engine == "analytic" || opt.engine == "event") {
        core::EngineConfig cfg;
        cfg.dedup = opt.dedup;
        cfg.interactive = opt.interactive;
        cfg.payload = opt.payload;
        if (opt.engine == "event") {
            core::EventEngineConfig ecfg;
            ecfg.base = cfg;
            if (quant_check) {
                store = std::make_unique<embedding::EmbeddingStore>(
                    tables);
                ecfg.computeValues = true;
            }
            event_engine = std::make_unique<core::EventDrivenEngine>(
                memory, layout, ecfg, store.get());
            event_timings = event_engine->lookupMany(batches, 0);
            consume(event_timings);
        } else {
            core::FafnirEngine engine(memory, layout, cfg);
            consume(engine.lookupMany(batches, 0));
        }
    } else if (opt.engine == "cpu") {
        baselines::CpuEngine engine(memory, layout);
        consume(engine.lookupMany(batches, 0));
    } else if (opt.engine == "recnmp") {
        baselines::RecNmpConfig cfg;
        cfg.cacheEnabled = true;
        baselines::RecNmpEngine engine(memory, layout, cfg);
        consume(engine.lookupMany(batches, 0));
    } else if (opt.engine == "tensordimm") {
        baselines::TensorDimmEngine engine(memory, tables);
        consume(engine.lookupMany(batches, 0));
    } else {
        std::fprintf(stderr, "error: unknown --engine '%s'\n"
                             "run with --help for usage\n",
                     opt.engine.c_str());
        return 2;
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
    if (!batch_latency.empty()) {
        std::sort(batch_latency.begin(), batch_latency.end());
        std::printf("batch latency: p50 %.2f us, p99 %.2f us\n",
                    static_cast<double>(
                        batch_latency[batch_latency.size() / 2]) /
                        kTicksPerUs,
                    static_cast<double>(
                        batch_latency[batch_latency.size() * 99 / 100]) /
                        kTicksPerUs);
    }
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

    const hwmodel::LinkEnergyModel link_energy;
    const double link_uj =
        link_energy.energyNj(link_payload, codec_ops, tables.dim()) /
        1000.0;
    if (opt.engine == "analytic" || opt.engine == "event") {
        std::printf("payload: %s (%zu B/vector vs %u fp32), "
                    "%.2f MB dram, %.2f MB links, %.2f uJ link energy\n",
                    embedding::payloadFormatName(opt.payload),
                    embedding::payloadBytes(opt.payload, tables.dim()),
                    tables.vectorBytes,
                    static_cast<double>(dram_payload) / 1e6,
                    static_cast<double>(link_payload) / 1e6,
                    link_uj);
    }

    // Differential value + accuracy pass over the computed results.
    std::size_t payload_mismatches = 0;
    double max_abs = 0.0, sum_abs = 0.0, l2_num = 0.0, l2_den = 0.0;
    std::size_t elements = 0;
    if (quant_check) {
        for (std::size_t b = 0; b < batches.size(); ++b) {
            const auto &results = event_timings[b].results;
            for (std::size_t q = 0; q < batches[b].queries.size(); ++q) {
                const auto &indices = batches[b].queries[q].indices;
                const embedding::Vector qref = quantizedReduce(
                    *store, indices, embedding::ReduceOp::Sum,
                    opt.payload);
                const embedding::Vector &got = results[q];
                if (got.size() != qref.size() ||
                    (!got.empty() &&
                     std::memcmp(got.data(), qref.data(),
                                 got.size() * sizeof(float)) != 0))
                    ++payload_mismatches;
                const embedding::Vector exact = store->reduce(indices);
                for (std::size_t i = 0; i < exact.size(); ++i) {
                    const double err = std::fabs(
                        static_cast<double>(qref[i]) - exact[i]);
                    max_abs = std::max(max_abs, err);
                    sum_abs += err;
                    l2_num += err * err;
                    l2_den += static_cast<double>(exact[i]) * exact[i];
                    ++elements;
                }
            }
        }
        const double mean_abs =
            elements > 0 ? sum_abs / static_cast<double>(elements) : 0.0;
        const double rel_l2 =
            l2_den > 0.0 ? std::sqrt(l2_num / l2_den) : 0.0;
        std::printf("payload check: %zu mismatches vs the quantized "
                    "reference; vs exact fp32: max abs %.4f, mean abs "
                    "%.4f, rel-L2 %.5f\n",
                    payload_mismatches, max_abs, mean_abs, rel_l2);
        run.setMetric("payloadValueMismatches",
                      static_cast<double>(payload_mismatches));
        run.setMetric("payloadMaxAbsError", max_abs);
        run.setMetric("payloadMeanAbsError", mean_abs);
        run.setMetric("payloadRelL2", rel_l2);
        const std::string &acc_path = session.serving().payloadAccuracy;
        if (!acc_path.empty()) {
            std::ofstream os(acc_path);
            if (!os) {
                std::fprintf(stderr, "error: cannot write %s\n",
                             acc_path.c_str());
                return 1;
            }
            os << "{\n"
               << "  \"schemaVersion\": 1,\n"
               << "  \"tool\": \"fafnir_sim\",\n"
               << "  \"format\": \""
               << embedding::payloadFormatName(opt.payload) << "\",\n"
               << "  \"backend\": \""
               << embedding::quantizeKernelBackend() << "\",\n"
               << "  \"queries\": "
               << static_cast<std::uint64_t>(queries) << ",\n"
               << "  \"payloadValueMismatches\": " << payload_mismatches
               << ",\n"
               << "  \"maxAbsError\": " << max_abs << ",\n"
               << "  \"meanAbsError\": " << mean_abs << ",\n"
               << "  \"relativeL2\": " << rel_l2 << "\n"
               << "}\n";
            run.noteArtifact("payloadAccuracy", acc_path);
        }
    }

    if (auto *attr = session.attribution();
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
        std::printf("attribution: %zu queries — dram %.1f%%, "
                    "ctrl-queue %.1f%%, pe-compute %.1f%%, "
                    "forward-wait %.1f%%, service %.1f%% "
                    "(mean meeting height %.2f)\n",
                    attr->queries().size(),
                    100.0 * static_cast<double>(dram) / t,
                    100.0 * static_cast<double>(ctrl) / t,
                    100.0 * static_cast<double>(compute) / t,
                    100.0 * static_cast<double>(wait) / t,
                    100.0 * static_cast<double>(service) / t,
                    attr->meanMeetingHeight());
    }

    StatRegistry &registry = StatRegistry::instance();
    memory.registerStats(registry.group("memory"));
    if (event_engine)
        event_engine->registerStats(registry.group("tree"));
    StatGroup &lookup = registry.group("lookup");
    lookup.addDistribution("batchLatencyUs", batch_latency_us,
                           "per-batch end-to-end latency");

    run.setMetric("totalUs", us_total);
    run.setMetric("nsPerQuery", us_total * 1000.0 / queries);
    run.setMetric("mQueriesPerSec", queries / us_total);
    run.setMetric("achievedGBs", memory.achievedBandwidthGBs(complete));
    run.setMetric("rankBusUtilization",
                  memory.rankBusUtilization(complete));
    run.setMetric("memReads", static_cast<double>(reads));
    run.setMetric("references", static_cast<double>(references));
    run.setMetric("energyUj", e.total());
    run.setMetric("energyNjPerQuery", e.total() * 1000.0 / queries);
    if (opt.engine == "analytic" || opt.engine == "event") {
        run.setMetric("dramPayloadBytes",
                      static_cast<double>(dram_payload));
        run.setMetric("linkPayloadBytes",
                      static_cast<double>(link_payload));
        run.setMetric("payloadCodecOps",
                      static_cast<double>(codec_ops));
        run.setMetric("linkEnergyUj", link_uj);
    }

    if (auto *ts = session.traceSink())
        dram::writeTrace(cmdlog, *ts);
    return session.finish();
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
    flags.addDouble("deadline-us", opt.deadlineUs,
                    "guarded serving: per-query deadline (0 = none)");
    flags.addUnsigned("max-attempts", opt.maxAttempts,
                      "guarded serving: attempts per request");
    flags.addUint64("retry-backoff-ns", opt.retryBackoffNs,
                    "guarded serving: first retry backoff (doubles)");
    flags.addBool("slo-shed", opt.sloShed,
                  "guarded serving: shed retries (single attempt) while "
                  "an --slo burn-rate alert is active");
    telemetry::TelemetrySession session("fafnir_sim");
    session.registerFlags(flags);
    flags.parse(argc, argv);
    session.start();

    if (!embedding::parsePayloadFormat(session.serving().payload,
                                       opt.payload)) {
        std::fprintf(stderr,
                     "error: unknown --payload '%s' (expected fp32, int8, "
                     "or twobit)\nrun with --help for usage\n",
                     session.serving().payload.c_str());
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

    if (opt.mode == "lookup") {
        // With a fault plan installed, serving runs behind the guard so
        // injected faults surface as recovery actions, not bad numbers.
        if (session.faultPlan() != nullptr)
            return runGuardedLookup(opt, session);
        if (session.serving().sharded())
            return runShardedLookup(opt, session);
        if (session.serving().enabled())
            return runPipelinedLookup(opt, session);
        return runLookup(opt, session);
    }
    if (opt.mode == "spmv")
        return runSpmv(opt, session);
    if (opt.mode == "sptrsv")
        return runSptrsv(opt, session);
    std::fprintf(stderr,
                 "error: unknown --mode '%s'\nrun with --help for usage\n",
                 opt.mode.c_str());
    return 2;
}
