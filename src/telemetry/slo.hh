/**
 * @file
 * Declarative SLO monitoring with error-budget burn-rate alerting.
 *
 * An SLO spec is a ';'-separated list of objectives:
 *
 *   p99_latency_us<500;availability>=0.999
 *
 * Both objective forms reduce to a request-based SLI — every request is
 * either good or bad — so one burn-rate engine serves both:
 *
 *   pNN_latency_us<T   — a request is good when its latency is below T;
 *                        the target good fraction is NN/100 (p99 → 99%
 *                        of requests must beat T).
 *   availability>=F    — a request is good when it was served; the
 *                        target good fraction is F.
 *
 * The error budget is the allowed bad fraction (1 − target). The burn
 * rate of a window is (bad fraction in window) / (allowed bad
 * fraction): burn 1.0 consumes budget exactly at the sustainable pace,
 * burn 2.0 consumes it twice as fast. Alerting is multi-window in
 * simulated ticks: an alert fires when BOTH the fast window (one
 * tumbling window of fastWindowTicks) and the slow window (the last
 * slowWindows fast windows merged) burn at ≥ fireBurn, and clears when
 * the fast-window burn drops to ≤ clearBurn. fireBurn > clearBurn is
 * the hysteresis band: a burn hovering between the two thresholds
 * neither re-fires nor clears, so one boundary-straddling window
 * cannot flap the alert.
 *
 * Windows are evaluated exactly once, at close (when a later sample or
 * flush() passes the boundary), so the fire/clear transition sequence
 * is a pure function of the recorded (tick, good) stream —
 * deterministic across runs, --jobs settings, and replica counts.
 *
 * Instrumentation sites use the process-global accessor sloMonitor()
 * (nullptr when disabled), mirroring telemetry::sink() and
 * telemetry::timeseries().
 */

#ifndef FAFNIR_TELEMETRY_SLO_HH
#define FAFNIR_TELEMETRY_SLO_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/context.hh"
#include "telemetry/timeseries.hh"

namespace fafnir
{
class StatGroup;
}

namespace fafnir::telemetry
{

class TraceSink;

/** One parsed objective of an SLO spec. */
struct SloObjective
{
    enum class Kind
    {
        LatencyQuantile, ///< pNN_latency_us < T
        Availability,    ///< availability >= F
    };

    Kind kind = Kind::LatencyQuantile;
    /** The verbatim spec term, e.g. "p99_latency_us<500". */
    std::string name;
    /** Latency objectives: the percentile NN (50, 95, 99, ...). */
    double quantile = 99.0;
    /** Latency: bound in microseconds. Availability: target fraction. */
    double threshold = 0.0;
    /** True for "<="/">=" comparisons, false for strict "<"/">". */
    bool inclusive = false;
    /** Required good-request fraction (NN/100 resp. F). */
    double target = 0.0;

    /** Allowed bad fraction — the error budget rate. */
    double allowed() const { return 1.0 - target; }

    /** Is a request with this latency good under this objective? */
    bool goodLatency(double latencyUs) const
    {
        return inclusive ? latencyUs <= threshold
                         : latencyUs < threshold;
    }
};

/** Burn-rate alerting windows and thresholds (simulated ticks). */
struct BurnConfig
{
    Tick fastWindowTicks = 50 * kTicksPerUs;
    /** Slow window = this many fast windows, merged. */
    unsigned slowWindows = 8;
    double fireBurn = 2.0;
    double clearBurn = 1.0;
};

/** One alert state change, recorded as a first-class event. */
struct AlertTransition
{
    Tick tick = 0;               ///< close tick of the deciding window
    std::size_t objective = 0;   ///< index into objectives()
    bool fired = false;          ///< true = raised, false = cleared
    double fastBurn = 0.0;
    double slowBurn = 0.0;
};

/**
 * Rolling error-budget accounting plus multi-window burn-rate alerts
 * over a set of parsed objectives.
 */
class SloMonitor
{
  public:
    explicit SloMonitor(std::vector<SloObjective> objectives,
                        BurnConfig burn = {});

    /**
     * Parse an `--slo` spec string. Throws std::runtime_error with a
     * pointed message on malformed terms (unknown SLI name, missing or
     * wrong-direction comparison, target outside (0, 1), ...).
     */
    static std::vector<SloObjective>
    parseSpec(const std::string &spec);

    /** Feed one request completion into latency objectives. Completion
     *  ticks must be non-decreasing (window close is evaluation). */
    void recordLatency(Tick completion, double latencyUs);

    /** Feed one request outcome into availability objectives. */
    void recordOutcome(Tick completion, bool success);

    /**
     * End-of-run close: evaluate every pending window up to AND
     * including the (possibly partial) one containing @p end, so the
     * final fire/clear decision is taken even when no sample lands
     * past the last window boundary. Samples recorded after a flush
     * into an already-closed window still count toward budget totals
     * but cannot re-trigger that window's alert decision.
     */
    void flush(Tick end);

    const std::vector<SloObjective> &objectives() const
    {
        return objectives_;
    }
    const BurnConfig &burn() const { return burn_; }

    bool active(std::size_t objective) const;
    /** True when any objective's alert is currently raised; the
     *  serving health scoreboard marks its slo row [ACTIVE] then. */
    bool anyActive() const;

    std::uint64_t fires(std::size_t objective) const;
    std::uint64_t clears(std::size_t objective) const;
    std::uint64_t totalFires() const;
    std::uint64_t totalClears() const;

    /** Whole-run budget consumption: bad / (allowed × total) — 1.0
     *  means the budget is exactly spent. 0 when no traffic. */
    double budgetConsumed(std::size_t objective) const;

    /** All transitions, in evaluation (= tick) order. */
    const std::vector<AlertTransition> &transitions() const
    {
        return transitions_;
    }

    Tick lastTick() const { return lastTick_; }

    /** One JSON-lines record per transition:
     *  {"type":"alert","tick":T,"objective":...,"state":"fire"|"clear",
     *   "fast_burn":X,"slow_burn":Y} */
    void writeTimeline(std::ostream &os) const;

    /** Burn-rate counter tracks + alert instants on @p sink. */
    void exportCounterTracks(TraceSink &sink) const;

    /** Register per-objective fires/clears/budget into @p group. */
    void registerStats(StatGroup &group) const;

  private:
    struct ObjectiveState
    {
        WindowedCounter good;
        WindowedCounter bad;
        /** Next window index awaiting evaluation (valid once init). */
        std::uint64_t nextEval = 0;
        bool evalInit = false;
        bool active = false;
        std::uint64_t fires = 0;
        std::uint64_t clears = 0;
        std::uint64_t totalGood = 0;
        std::uint64_t totalBad = 0;
        /** (close tick, fast burn) per evaluated window, for counter
         *  tracks. */
        std::vector<std::pair<Tick, double>> burnHistory;
    };

    void feed(std::size_t objective, Tick tick, bool good);
    void evaluateThrough(std::size_t objective, std::uint64_t window);
    void evaluateWindow(std::size_t objective, std::uint64_t window);

    std::vector<SloObjective> objectives_;
    BurnConfig burn_;
    std::vector<ObjectiveState> states_;
    std::vector<AlertTransition> transitions_;
    Tick lastTick_ = 0;
};

/**
 * Write the merged JSON-lines timeline artifact: a leading meta record,
 * then every window record (@p ts) and alert transition (@p monitor)
 * sorted by tick. Either source may be null.
 */
void writeTimeline(std::ostream &os, const TimeSeries *ts,
                   const SloMonitor *monitor);

} // namespace fafnir::telemetry

#endif // FAFNIR_TELEMETRY_SLO_HH
