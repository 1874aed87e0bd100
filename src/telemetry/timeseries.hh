/**
 * @file
 * Simulated-time windowed metrics engine.
 *
 * The StatRegistry answers "what was the whole run's p99"; this engine
 * answers "what was p99 *during the burst*". Samples are bucketed into
 * tumbling windows of fixed simulated width (ticks, so results are
 * bit-identical across --jobs settings and host machines); a bounded
 * ring retains the most recent windows, and rolling views are exact
 * merges of the last K tumbling windows.
 *
 * Two windowed primitives:
 *   WindowedCounter    — per-window event/total counts → windowed rates.
 *   WindowedHistogram  — per-window log-bucketed histograms → windowed
 *                        p50/p95/p99, mergeable across windows and
 *                        replicas (integer bucket counts add, so a merge
 *                        of per-replica histograms is bit-identical to
 *                        the single-stream histogram of the same
 *                        samples).
 *
 * Histograms are the LogHistogram of common/stats.hh, the one
 * percentile rule of the repo: a reported quantile is the upper edge of
 * the true sample's bucket, at most 1/16 (6.25%) above it. Whole-run
 * Distributions read the same buckets, clamped into their exact
 * [min, max]; windows here keep the raw histograms so they can merge.
 *
 * Instrumentation sites follow the TraceSink pattern: fetch the
 * process-global engine with telemetry::timeseries(); when none is
 * installed the call returns nullptr and the site reduces to one load +
 * branch, so windowed telemetry is near-zero cost when disabled.
 */

#ifndef FAFNIR_TELEMETRY_TIMESERIES_HH
#define FAFNIR_TELEMETRY_TIMESERIES_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "telemetry/context.hh"

namespace fafnir::telemetry
{

class TraceSink;

namespace detail
{

/**
 * Ring bookkeeping shared by the windowed primitives: absolute window
 * index = tick / windowTicks (aligned to tick 0, not to the first
 * sample, so two streams that start at different ticks still agree on
 * window boundaries). The ring retains the most recent @p retain
 * windows; samples older than the oldest retained window are dropped
 * and counted.
 */
class WindowRing
{
  public:
    WindowRing(Tick windowTicks, std::size_t retain);

    Tick windowTicks() const { return windowTicks_; }
    std::size_t retain() const { return retain_; }

    std::uint64_t indexOf(Tick tick) const { return tick / windowTicks_; }

    bool empty() const { return !any_; }
    /** Absolute index of the newest window touched (0 when empty). */
    std::uint64_t newestIndex() const { return newest_; }
    /** Absolute index of the oldest retained window: the first window
     *  ever entered, until the ring wraps past it. */
    std::uint64_t oldestIndex() const
    {
        const std::uint64_t span = retain_ - 1;
        const std::uint64_t floor = newest_ > span ? newest_ - span : 0;
        return floor > first_ ? floor : first_;
    }
    /** Number of retained windows (including empty interior ones). */
    std::size_t windowCount() const
    {
        return any_ ? static_cast<std::size_t>(newest_ - oldestIndex() +
                                               1)
                    : 0;
    }

    std::uint64_t lateDrops() const { return lateDrops_; }
    std::uint64_t evictions() const { return evictions_; }

  protected:
    /**
     * Ring slot for @p tick's window, or SIZE_MAX when the sample is
     * older than the retained range (late; counted). Advancing the
     * newest window invokes @p clearSlot on every slot newly entered.
     */
    template <typename ClearFn>
    std::size_t
    slotFor(Tick tick, ClearFn &&clearSlot)
    {
        const std::uint64_t index = indexOf(tick);
        if (!any_) {
            any_ = true;
            first_ = index;
            newest_ = index;
            clearSlot(slot(index));
        } else if (index > newest_) {
            // Enter (and clear) every window between the old newest and
            // the new one, bounded by the ring size; windows pushed out
            // of the retained span are evictions.
            const std::uint64_t oldOldest = oldestIndex();
            const std::uint64_t first =
                index - newest_ >= retain_ ? index - (retain_ - 1)
                                           : newest_ + 1;
            for (std::uint64_t i = first; i <= index; ++i)
                clearSlot(slot(i));
            newest_ = index;
            evictions_ += oldestIndex() - oldOldest;
        } else if (index < oldestIndex()) {
            ++lateDrops_;
            return static_cast<std::size_t>(-1);
        }
        return slot(index);
    }

    std::size_t slot(std::uint64_t index) const
    {
        return static_cast<std::size_t>(index % retain_);
    }

    Tick windowTicks_;
    std::size_t retain_;
    std::uint64_t first_ = 0;
    std::uint64_t newest_ = 0;
    std::uint64_t lateDrops_ = 0;
    std::uint64_t evictions_ = 0;
    bool any_ = false;
};

} // namespace detail

/** Per-window event counts → windowed rates. */
class WindowedCounter : public detail::WindowRing
{
  public:
    explicit WindowedCounter(Tick windowTicks = 50 * kTicksPerUs,
                             std::size_t retain = 4096);

    /** Add @p n events at @p tick. */
    void record(Tick tick, std::uint64_t n = 1);

    /** Count in the absolute window @p index (0 if evicted/never). */
    std::uint64_t windowValue(std::uint64_t index) const;

    /** Sum over the last @p k retained windows (ending at newest). */
    std::uint64_t rollingSum(std::size_t k) const;

    /** Events per simulated second over the last @p k windows. */
    double rollingRatePerSec(std::size_t k) const;

    /** Total recorded (including into since-evicted windows). */
    std::uint64_t total() const { return total_; }

  private:
    std::vector<std::uint64_t> slots_;
    std::uint64_t total_ = 0;
};

/** Per-window log-bucketed histograms → windowed percentiles. */
class WindowedHistogram : public detail::WindowRing
{
  public:
    explicit WindowedHistogram(Tick windowTicks = 50 * kTicksPerUs,
                               std::size_t retain = 4096);

    void record(Tick tick, double v);

    /** record() carrying an exemplar into the sample's window. */
    void record(Tick tick, double v, const Exemplar &ex);

    /** Histogram of the absolute window @p index (nullptr if evicted
     *  or never entered). */
    const LogHistogram *window(std::uint64_t index) const;

    /** Exact merge of the last @p k retained windows. */
    LogHistogram rolling(std::size_t k) const;

    /** Merge of every retained window. */
    LogHistogram overall() const { return rolling(windowCount()); }

    /** Max per-window percentile across retained non-empty windows
     *  (NaN when no window has samples): "worst window's p99". */
    double peakWindowPercentile(double p) const;

    std::uint64_t total() const { return total_; }

  private:
    std::vector<LogHistogram> slots_;
    std::uint64_t total_ = 0;
};

/**
 * Named registry of windowed metrics for one run.
 *
 * Metrics are created on first use (counter()/histogram()) and live for
 * the registry's lifetime. All metrics share the registry's window
 * width so timeline rows align. Not thread-safe by design: the
 * simulator records from the single simulation thread; parallel host
 * loops must record at deterministic simulated ticks from the
 * coordinating thread (bench_util forces --jobs=1 while an engine is
 * installed, mirroring the trace-sink rule).
 */
struct TimeSeriesConfig
{
    Tick windowTicks = 50 * kTicksPerUs;
    std::size_t retain = 4096;
};

class TimeSeries
{
  public:
    using Config = TimeSeriesConfig;

    explicit TimeSeries(Config config = {});

    Tick windowTicks() const { return config_.windowTicks; }

    /** Get-or-create the windowed counter named @p name. */
    WindowedCounter &counter(const std::string &name,
                             const std::string &desc = "");

    /** Get-or-create the windowed histogram named @p name. */
    WindowedHistogram &histogram(const std::string &name,
                                 const std::string &desc = "");

    /** Lookup without creating (nullptr when absent). */
    const WindowedCounter *findCounter(const std::string &name) const;
    const WindowedHistogram *findHistogram(const std::string &name) const;

    /** Visit every metric in registration order (exactly one of the
     *  two pointers is non-null per call). Used by the flight
     *  recorder's bundle snapshot. */
    void visit(const std::function<void(const std::string &name,
                                        const WindowedCounter *counter,
                                        const WindowedHistogram *histogram)>
                   &fn) const;

    /** Note the end of observed time (extends timeline coverage). */
    void flush(Tick end);
    Tick lastTick() const { return lastTick_; }

    /** Samples dropped for falling behind the retained range. */
    std::uint64_t lateDrops() const;

    std::size_t metricCount() const { return entries_.size(); }

    /**
     * Emit one JSON-lines record per (metric, retained window) in
     * (tick, metric-name) order:
     *   {"type":"window","tick":T,"metric":M,...}
     * Counter rows carry count + rate_per_sec; histogram rows carry
     * count, p50, p95, p99 (upper-edge quantiles).
     */
    void writeTimeline(std::ostream &os) const;

    /** Per-window counter tracks on the harness pid of @p sink. */
    void exportCounterTracks(TraceSink &sink) const;

    /** Register whole-run totals and last-window views into @p group. */
    void registerStats(StatGroup &group) const;

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        std::unique_ptr<WindowedCounter> counter;
        std::unique_ptr<WindowedHistogram> histogram;
    };

    Entry *find(const std::string &name);
    const Entry *find(const std::string &name) const;

    Config config_;
    std::vector<std::unique_ptr<Entry>> entries_;
    Tick lastTick_ = 0;
};

} // namespace fafnir::telemetry

#endif // FAFNIR_TELEMETRY_TIMESERIES_HH
