/**
 * @file
 * One-object telemetry wiring for a CLI harness.
 *
 * A TelemetrySession bundles the telemetry outputs every harness
 * offers — `--stats-json`, `--stats-csv`, `--trace`, `--report` — into
 * one object: it registers the flags, installs the process-global
 * TraceSink when tracing is requested, and writes whichever artifacts
 * were asked for in finish(). It also owns the run's fault plan:
 * `--faults <spec> --fault-seed <n>` (see docs/ROBUSTNESS.md) parses
 * and installs a process-global fault::FaultPlan for the run, registers
 * its counters under the "faults" stat group, and lands injected/checked
 * totals in the report's metrics. `--timeline <path>` turns on the
 * windowed metrics engine (window width `--window-us`) and writes the
 * JSON-lines timeline artifact; `--slo <spec>` additionally installs a
 * burn-rate SLO monitor (see docs/OBSERVABILITY.md). All three compose
 * with --trace: windowed series and SLO burn rates land as counter
 * tracks in the Perfetto trace as well. `--debug-bundle-dir <dir>`
 * installs the always-on flight recorder: per-stage rings record the
 * hot paths continuously, and SLO alerts, guard deadline misses /
 * retry exhaustion, fired fault hooks, sharded value mismatches, and
 * above-p99 queries drain them into deterministic JSON debug bundles
 * under the directory (tuned by --flightrec-ring,
 * --flightrec-max-bundles, --flightrec-gap-us).
 *
 * Harnesses without their own flags construct it from argv directly:
 *
 *   int main(int argc, char **argv) {
 *       telemetry::TelemetrySession session("fig12", argc, argv);
 *       ...
 *       return session.finish();
 *   }
 *
 * Harnesses with their own FlagParser splice it in:
 *
 *   telemetry::TelemetrySession session("fafnir_sim");
 *   session.registerFlags(flags);
 *   flags.parse(argc, argv);
 *   session.start();
 *
 * finish() serializes the process-wide StatRegistry, so it must run
 * while any objects whose stats were registered are still alive — call
 * it explicitly at the end of main rather than relying on the
 * destructor when stats reference main-scoped objects declared after
 * the session.
 */

#ifndef FAFNIR_TELEMETRY_SESSION_HH
#define FAFNIR_TELEMETRY_SESSION_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/faultinject.hh"
#include "telemetry/attribution.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/report.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir
{
class FlagParser;
} // namespace fafnir

namespace fafnir::telemetry
{

/**
 * Serving-pipeline knobs every serving-capable harness shares
 * (--serve-engines, --pipeline-depth, --dispatch, --hedge-pct). Kept as
 * plain strings/numbers here — the harness maps them onto
 * fafnir::core::ServingConfig so the telemetry layer stays independent
 * of the engine stack.
 */
struct ServingOptions
{
    /** Engine replicas; 0 keeps the serial single-engine path. */
    unsigned engines = 0;
    /** Prepared batches in flight (1 = serial rhythm). */
    unsigned pipelineDepth = 2;
    /** Modelled host prepare workers: a model input that divides the
     *  modelled prepare cost (ServingConfig::prepareCost). Prepare
     *  itself runs serially at any value. */
    unsigned prepareWorkers = 1;
    /** "least-loaded" or "round-robin". */
    std::string dispatch = "least-loaded";
    /** Hedge percentile in (0, 100]; 0 disables hedged requests. */
    double hedgePct = 0.0;
    /** Shards in the sharded tier; 0 keeps the single-store paths. */
    unsigned shards = 0;
    /** Table -> shard placement: "hash" or "range". */
    std::string placement = "hash";
    /** Engine replicas per shard in the sharded tier. */
    unsigned shardReplicas = 1;
    /** Transport payload format: "fp32", "int8", or "twobit". The
     *  harness maps it onto embedding::PayloadFormat. */
    std::string payload = "fp32";
    /** When non-empty, write the quantization accuracy report
     *  (quantized vs. exact-fp32 values, plus the order-dependent
     *  error-feedback two-bit stream) to this path. Serializes
     *  parallel sweeps: bench::clampParallelism. */
    std::string payloadAccuracy = "";

    bool enabled() const { return engines > 0; }
    bool sharded() const { return shards > 0; }
};

/** Flag parsing + sink installation + artifact writing for one run. */
class TelemetrySession
{
  public:
    /** For harnesses that splice into their own FlagParser. */
    explicit TelemetrySession(std::string tool);

    /** Parse @p argv with a fresh parser (telemetry flags only) and
     *  start() immediately. */
    TelemetrySession(std::string tool, int argc, char **argv);

    /** Writes any un-finished artifacts (see the header caveat). */
    ~TelemetrySession();

    TelemetrySession(const TelemetrySession &) = delete;
    TelemetrySession &operator=(const TelemetrySession &) = delete;

    /** Register --stats-json/--stats-csv/--trace/--report plus the
     *  fault-injection pair --faults/--fault-seed. */
    void registerFlags(FlagParser &flags);

    /** Report path used when --report was not given (call after parse). */
    void
    defaultReportPath(const std::string &path)
    {
        if (reportPath_.empty())
            reportPath_ = path;
    }

    /** Install the trace sink if tracing was requested. Call once,
     *  after flags are parsed. */
    void start();

    /** The per-run report artifact (config and metrics accumulate). */
    RunReport &report() { return report_; }

    /** The run's trace sink, or nullptr when tracing is off. */
    TraceSink *traceSink() { return sink_ ? &*sink_ : nullptr; }

    /** The run's attribution collector, or nullptr when off. */
    Attribution *attribution()
    {
        return attribution_ ? &*attribution_ : nullptr;
    }

    /** The run's fault plan, or nullptr when --faults was not given. */
    fault::FaultPlan *faultPlan() { return plan_ ? &*plan_ : nullptr; }

    /** The run's windowed metrics engine, or nullptr when neither
     *  --timeline nor --slo was given. */
    TimeSeries *timeSeries() { return series_ ? &*series_ : nullptr; }

    /** The run's SLO monitor, or nullptr when --slo was not given. */
    SloMonitor *sloMonitor() { return monitor_ ? &*monitor_ : nullptr; }

    /** The run's flight recorder, or nullptr when --debug-bundle-dir
     *  (or another --flightrec-* flag) was not given. */
    FlightRecorder *recorder()
    {
        return flightrec_ ? &*flightrec_ : nullptr;
    }

    /** Parsed serving-pipeline flags (engines == 0 -> serial path). */
    const ServingOptions &serving() const { return serving_; }

    /** Mutable serving options — harnesses that want different flag
     *  defaults (e.g. micro_serving's 8-wide prepare curve) set them
     *  here *before* registerFlags(). */
    ServingOptions &mutableServing() { return serving_; }

    /**
     * Write every requested artifact, embed the StatRegistry into the
     * report, then clear the registry and uninstall the sink.
     * Idempotent. @return 0 on success, 1 if any artifact failed.
     */
    int finish();

  private:
    std::string tool_;
    std::string statsJsonPath_;
    std::string statsCsvPath_;
    std::string tracePath_;
    std::string reportPath_;
    std::string attribPath_;
    std::string faultSpec_;
    std::uint64_t faultSeed_ = 1;
    std::string sloSpec_;
    std::string timelinePath_;
    double windowUs_ = 50.0;
    std::string bundleDir_;
    std::uint64_t flightrecRing_ = 1024;
    std::uint64_t flightrecMaxBundles_ = 8;
    double flightrecGapUs_ = 100.0;
    ServingOptions serving_;
    std::optional<TraceSink> sink_;
    std::optional<ScopedSinkInstall> install_;
    std::optional<Attribution> attribution_;
    std::optional<ScopedAttributionInstall> attributionInstall_;
    std::optional<fault::FaultPlan> plan_;
    std::optional<fault::ScopedPlanInstall> planInstall_;
    std::optional<TimeSeries> series_;
    std::optional<ScopedTimeSeriesInstall> seriesInstall_;
    std::optional<SloMonitor> monitor_;
    std::optional<ScopedSloMonitorInstall> monitorInstall_;
    std::optional<FlightRecorder> flightrec_;
    std::optional<ScopedFlightRecorderInstall> flightrecInstall_;
    RunReport report_;
    bool finished_ = false;
};

} // namespace fafnir::telemetry

#endif // FAFNIR_TELEMETRY_SESSION_HH
