/**
 * @file
 * One-object telemetry wiring for a CLI harness.
 *
 * A TelemetrySession owns a run's telemetry and faults, and nothing
 * else: it registers their flags, builds what they ask for, and writes
 * the artifacts in finish(). The collectors are installed once, as one
 * telemetry::Context (context.hh), at the end of start(); finish()
 * removes that context before it destroys them. The fault plan keeps
 * its own install. Instrumentation and harnesses reach all of them
 * through the ambient accessors (telemetry::sink(), ...,
 * telemetry::flightRecorder(), fault::plan()).
 *  - `--stats-json`, `--stats-csv`, `--trace`, `--report`, `--attrib`:
 *    the stat registry, the Perfetto trace sink, the run report, and
 *    per-query latency attribution.
 *  - `--faults <spec> --fault-seed <n>` (docs/ROBUSTNESS.md): a
 *    fault::FaultPlan, with counters in the "faults" stat group and
 *    injected/checked totals in the report.
 *  - `--timeline`, `--window-us`, `--slo` (docs/OBSERVABILITY.md): the
 *    windowed metrics engine and a burn-rate SLO monitor; both also
 *    land as counter tracks in the trace.
 *  - `--debug-bundle-dir` and `--flightrec-*`: the always-on flight
 *    recorder, whose triggers write deterministic JSON debug bundles.
 * Model and serving knobs (e.g. fafnir_sim's --serve-engines or
 * --payload) belong to the harness's own FlagParser.
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
#include "telemetry/context.hh"
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

/** Flag parsing + collector installation + artifact writing for one
 *  run. */
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

    /** Register every flag listed in the file comment. */
    void registerFlags(FlagParser &flags);

    /** Report path used when --report was not given (call after parse). */
    void
    defaultReportPath(const std::string &path)
    {
        if (reportPath_.empty())
            reportPath_ = path;
    }

    /** Build the requested collectors and install them (and the fault
     *  plan). Call once, after flags are parsed. */
    void start();

    /** The per-run report artifact (config and metrics accumulate). */
    RunReport &report() { return report_; }

    /**
     * Write every requested artifact, embed the StatRegistry into the
     * report, then clear the registry and uninstall the collectors.
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
    std::optional<TraceSink> sink_;
    std::optional<Attribution> attribution_;
    std::optional<fault::FaultPlan> plan_;
    std::optional<fault::ScopedPlanInstall> planInstall_;
    std::optional<TimeSeries> series_;
    std::optional<SloMonitor> monitor_;
    std::optional<FlightRecorder> flightrec_;
    std::optional<ScopedContext> install_;
    RunReport report_;
    bool finished_ = false;
};

} // namespace fafnir::telemetry

#endif // FAFNIR_TELEMETRY_SESSION_HH
