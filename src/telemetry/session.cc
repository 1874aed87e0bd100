/**
 * @file
 * Implementation of the harness telemetry session.
 */

#include "session.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace fafnir::telemetry
{

TelemetrySession::TelemetrySession(std::string tool)
    : tool_(tool), report_(std::move(tool))
{}

TelemetrySession::TelemetrySession(std::string tool, int argc,
                                   char **argv)
    : TelemetrySession(std::move(tool))
{
    FlagParser flags(tool_ + " harness (telemetry flags)");
    registerFlags(flags);
    flags.parse(argc, argv);
    start();
}

TelemetrySession::~TelemetrySession()
{
    finish();
}

void
TelemetrySession::registerFlags(FlagParser &flags)
{
    flags.addString("stats-json", statsJsonPath_,
                    "write all registered stats as JSON to this path");
    flags.addString("stats-csv", statsCsvPath_,
                    "write all registered stats as CSV to this path");
    flags.addString("trace", tracePath_,
                    "write a Chrome trace (Perfetto) to this path");
    flags.addString("report", reportPath_,
                    "write a per-run report artifact to this path");
    flags.addString("attrib", attribPath_,
                    "write per-query critical-path latency attribution "
                    "as JSON to this path");
    flags.addString("faults", faultSpec_,
                    "install a fault plan, e.g. "
                    "dram_latency:0.1,event_delay:0.05");
    flags.addUint64("fault-seed", faultSeed_,
                    "deterministic seed for the fault plan");
    flags.addString("slo", sloSpec_,
                    "monitor SLO objectives with burn-rate alerting, "
                    "e.g. \"p99_latency_us<500;availability>=0.999\"");
    flags.addString("timeline", timelinePath_,
                    "write the windowed-metrics + SLO-alert JSON-lines "
                    "timeline to this path (composes with --trace and "
                    "--attrib)");
    flags.addDouble("window-us", windowUs_,
                    "tumbling-window width for --timeline/--slo in "
                    "simulated microseconds");
    flags.addString("debug-bundle-dir", bundleDir_,
                    "install the flight recorder and write triggered "
                    "debug bundles (SLO alerts, deadline misses, fault "
                    "hooks, value mismatches, tail latency) into this "
                    "directory");
    flags.addUint64("flightrec-ring", flightrecRing_,
                    "flight-recorder records retained per stage ring");
    flags.addUint64("flightrec-max-bundles", flightrecMaxBundles_,
                    "debug bundles written per run across all triggers");
    flags.addDouble("flightrec-gap-us", flightrecGapUs_,
                    "minimum simulated gap between accepted triggers "
                    "of one kind, in microseconds");
}

void
TelemetrySession::start()
{
    if (!tracePath_.empty())
        sink_.emplace();
    if (!attribPath_.empty()) {
        attribution_.emplace();
        attribution_->registerStats(
            StatRegistry::instance().group("attrib"));
    }
    if (!faultSpec_.empty()) {
        plan_.emplace(fault::FaultPlan::parse(faultSpec_, faultSeed_));
        planInstall_.emplace(&*plan_);
        plan_->registerStats(StatRegistry::instance().group("faults"));
        report_.setConfig("faults", plan_->describe());
        report_.setConfig("faultSeed", faultSeed_);
    }
    if (!sloSpec_.empty() || !timelinePath_.empty()) {
        if (!(windowUs_ > 0.0))
            FAFNIR_FATAL("--window-us must be positive, got ", windowUs_);
        TimeSeriesConfig config;
        config.windowTicks = static_cast<Tick>(
            windowUs_ * static_cast<double>(kTicksPerUs));
        series_.emplace(config);
        report_.setConfig("windowUs", windowUs_);
    }
    if (!sloSpec_.empty()) {
        BurnConfig burn;
        burn.fastWindowTicks = series_->windowTicks();
        try {
            monitor_.emplace(SloMonitor::parseSpec(sloSpec_), burn);
        } catch (const std::exception &e) {
            FAFNIR_FATAL("bad --slo spec: ", e.what());
        }
        monitor_->registerStats(StatRegistry::instance().group("slo"));
        report_.setConfig("slo", sloSpec_);
    }
    if (!bundleDir_.empty()) {
        if (flightrecRing_ == 0)
            FAFNIR_FATAL("--flightrec-ring must be positive");
        if (!(flightrecGapUs_ >= 0.0))
            FAFNIR_FATAL("--flightrec-gap-us must be non-negative, got ",
                         flightrecGapUs_);
        FlightRecorderConfig fc;
        fc.ringCapacity = static_cast<std::size_t>(flightrecRing_);
        fc.maxBundles = static_cast<std::size_t>(flightrecMaxBundles_);
        fc.minGapTicks = static_cast<Tick>(
            flightrecGapUs_ * static_cast<double>(kTicksPerUs));
        fc.bundleDir = bundleDir_;
        flightrec_.emplace(fc);
        flightrec_->registerStats(
            StatRegistry::instance().group("flightrec"));
        flightrec_->setContext("tool", tool_);
        if (!faultSpec_.empty()) {
            flightrec_->setContext("faults", faultSpec_);
            flightrec_->setContext("faultSeed",
                                   std::to_string(faultSeed_));
        }
        if (!sloSpec_.empty())
            flightrec_->setContext("slo", sloSpec_);
        report_.setConfig("debugBundleDir", bundleDir_);
        if (plan_) {
            // A fired hook is a trigger; the recorder's lastSeenTick()
            // stands in for "now" since hooks fire mid-record-point.
            FlightRecorder *rec = &*flightrec_;
            plan_->setFireListener([rec](fault::Hook hook) {
                rec->trigger(Trigger::FaultHook, rec->lastSeenTick(),
                             std::string("hook:") +
                                 fault::toString(hook));
            });
        }
    }
    auto ptr = [](auto &member) { return member ? &*member : nullptr; };
    install_.emplace(Context{.sink = ptr(sink_),
                             .attribution = ptr(attribution_),
                             .series = ptr(series_),
                             .slo = ptr(monitor_),
                             .recorder = ptr(flightrec_)});
}

int
TelemetrySession::finish()
{
    if (finished_)
        return 0;
    finished_ = true;

    StatRegistry &registry = StatRegistry::instance();
    // Windowed metrics come into being as the run records them, so the
    // series registers only now, before the stats and report go out.
    if (series_)
        series_->registerStats(registry.group("windows"));
    if (plan_) {
        // The fire listener captures the recorder; detach it before
        // either object can go away below.
        plan_->setFireListener(nullptr);
        report_.setMetric("faultsInjected",
                          static_cast<double>(plan_->totalFired()));
        report_.setMetric("faultsChecked",
                          static_cast<double>(plan_->totalChecked()));
    }
    if (monitor_) {
        // Close any window still open at the last observed tick so the
        // final fire/clear decision lands in the timeline and report.
        Tick last = monitor_->lastTick();
        if (series_)
            last = std::max(last, series_->lastTick());
        monitor_->flush(last);
        report_.setMetric("sloAlertFires",
                          static_cast<double>(monitor_->totalFires()));
        report_.setMetric("sloAlertClears",
                          static_cast<double>(monitor_->totalClears()));
    }
    if (flightrec_) {
        report_.setMetric("flightrecRecords",
                          static_cast<double>(
                              flightrec_->totalRecorded()));
        report_.setMetric("flightrecDrops",
                          static_cast<double>(flightrec_->totalDropped()));
        report_.setMetric("flightrecTriggers",
                          static_cast<double>(
                              flightrec_->totalTriggers()));
        report_.setMetric("debugBundles",
                          static_cast<double>(
                              flightrec_->bundlesWritten()));
        if (flightrec_->bundlesWritten() > 0) {
            std::fprintf(stderr,
                         "flightrec: %llu debug bundle(s) in %s "
                         "(%llu trigger(s), %llu suppressed)\n",
                         static_cast<unsigned long long>(
                             flightrec_->bundlesWritten()),
                         bundleDir_.c_str(),
                         static_cast<unsigned long long>(
                             flightrec_->totalTriggers()),
                         static_cast<unsigned long long>(
                             flightrec_->suppressedCount()));
        }
    }
    bool ok = true;
    auto write_to = [&ok](const std::string &path, auto &&emit) {
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         path.c_str());
            ok = false;
            return;
        }
        emit(os);
    };

    if (!statsJsonPath_.empty()) {
        write_to(statsJsonPath_,
                 [&](std::ostream &os) { registry.dumpJson(os); });
        report_.noteArtifact("statsJson", statsJsonPath_);
    }
    if (!statsCsvPath_.empty()) {
        write_to(statsCsvPath_,
                 [&](std::ostream &os) { registry.dumpCsv(os); });
        report_.noteArtifact("statsCsv", statsCsvPath_);
    }
    if (attribution_ && !attribPath_.empty()) {
        if (!attribution_->writeFile(attribPath_)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         attribPath_.c_str());
            ok = false;
        }
        report_.noteArtifact("attrib", attribPath_);
        report_.setMetric("attribQueries",
                          static_cast<double>(
                              attribution_->queries().size()));
        report_.setMetric("attribCoverage",
                          attribution_->componentCoverage());
    }
    if (!timelinePath_.empty()) {
        write_to(timelinePath_, [&](std::ostream &os) {
            writeTimeline(os, series_ ? &*series_ : nullptr,
                          monitor_ ? &*monitor_ : nullptr);
        });
        report_.noteArtifact("timeline", timelinePath_);
    }
    if (sink_) {
        if (series_)
            series_->exportCounterTracks(*sink_);
        if (monitor_)
            monitor_->exportCounterTracks(*sink_);
    }
    if (sink_ && !tracePath_.empty()) {
        if (!sink_->writeFile(tracePath_)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         tracePath_.c_str());
            ok = false;
        }
        report_.noteArtifact("trace", tracePath_);
    }
    if (!reportPath_.empty() &&
        !report_.writeFile(reportPath_, &registry)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     reportPath_.c_str());
        ok = false;
    }

    // Groups reference harness-scoped objects; drop them now. The
    // context comes off before any collector it points at goes away
    // (not earlier: the SLO flush above can fire a bundle that reads
    // it).
    registry.clear();
    install_.reset();
    flightrec_.reset();
    monitor_.reset();
    series_.reset();
    planInstall_.reset();
    plan_.reset();
    attribution_.reset();
    sink_.reset();
    return ok ? 0 : 1;
}

} // namespace fafnir::telemetry
