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
 * Histograms trade per-sample memory for bounded relative error: a
 * sample lands in bucket (exponent, 1-of-16 sub-bucket), so a reported
 * quantile is the bucket's upper edge, at most 1/16 (6.25%) above the
 * true sample. Contrast with common/stats.hh Distribution, whose
 * reservoir keeps exact sample values (exact percentiles up to 8192
 * samples) but cannot be merged across streams and decays to a sampled
 * approximation beyond the reservoir. Windowed telemetry needs merges
 * and bounded state per window, hence log buckets here.
 *
 * Instrumentation sites follow the TraceSink pattern: fetch the
 * process-global engine with telemetry::timeseries(); when none is
 * installed the call returns nullptr and the site reduces to one load +
 * branch, so windowed telemetry is near-zero cost when disabled.
 */

#ifndef FAFNIR_TELEMETRY_TIMESERIES_HH
#define FAFNIR_TELEMETRY_TIMESERIES_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/context.hh"

namespace fafnir
{
class StatGroup;
}

namespace fafnir::telemetry
{

class TraceSink;

/** Attribution components an exemplar carries, in the telescoping
 *  order of QueryAttribution (batchPrepare .. shardCombine). */
inline constexpr std::size_t kExemplarComponents = 8;
inline constexpr std::array<const char *, kExemplarComponents>
    kExemplarComponentNames = {
        "batch_prepare", "dispatch_queue", "dram_service", "ctrl_queue",
        "pe_compute",    "forward_wait",   "service_queue",
        "shard_combine",
};

/**
 * One concrete sample retained alongside a histogram's tail: the query
 * behind a windowed p99 spike, with its Perfetto flow id and its full
 * attribution split (components sum to totalTicks exactly, so every
 * exported exemplar telescopes like the attribution artifact does).
 */
struct Exemplar
{
    double value = 0.0; ///< the recorded sample (e.g. latency in µs)
    Tick tick = 0;      ///< completion tick of the sample
    std::uint64_t batch = 0;
    std::uint32_t query = 0;
    std::uint64_t flow = 0; ///< event-queue / Perfetto flow id
    Tick totalTicks = 0;    ///< end-to-end ticks (== component sum)
    std::array<Tick, kExemplarComponents> components{};
    bool valid = false;

    Tick
    componentSum() const
    {
        Tick sum = 0;
        for (const Tick c : components)
            sum += c;
        return sum;
    }
};

/**
 * Log-bucketed histogram with integer bucket counts.
 *
 * Bucket layout: bucket 0 catches non-positive and underflowing
 * samples; then 16 sub-buckets per power of two across the frexp
 * exponent range [kMinExp, kMaxExp]; one final overflow bucket.
 * bucketValue() returns a bucket's upper edge, so quantiles never
 * under-report. merge() adds bucket counts elementwise — associative
 * and commutative, so any merge order over any partition of a sample
 * stream yields bit-identical buckets.
 */
class LogHistogram
{
  public:
    static constexpr unsigned kSubBits = 4;
    static constexpr unsigned kSubBuckets = 1u << kSubBits; // 16
    static constexpr int kMinExp = -32;
    static constexpr int kMaxExp = 63;
    static constexpr std::size_t kBucketCount =
        2 + static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kSubBuckets;

    /** Bucket index a sample lands in (pure function of the value). */
    static std::size_t bucketOf(double v);

    /** Upper edge of bucket @p index (0.0 for the underflow bucket). */
    static double bucketValue(std::size_t index);

    void record(double v);

    /**
     * record(v) and offer @p ex as the histogram's retained exemplar.
     * Retention is a total order — higher bucket wins, then earlier
     * tick, then smaller (batch, query, value) — so it is associative
     * and commutative: any merge order over any partition of a sample
     * stream retains the identical exemplar, and the retained exemplar
     * always sits in the highest bucket any exemplared sample reached
     * (the tail bucket, when every sample carries an exemplar).
     */
    void recordWithExemplar(double v, const Exemplar &ex);

    /** Add @p other's bucket counts into this histogram (and keep the
     *  winning exemplar of the two, same total order). */
    void merge(const LogHistogram &other);

    bool hasExemplar() const { return exemplar_.valid; }
    const Exemplar &exemplar() const { return exemplar_; }
    /** Bucket the retained exemplar's value landed in. */
    std::size_t exemplarBucket() const { return exemplarBucket_; }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    /** NaN when empty, sum/count otherwise. */
    double mean() const;

    /**
     * Nearest-rank percentile over bucket upper edges, @p p in
     * [0, 100]. NaN when empty. Within 6.25% above the true
     * nearest-rank sample (exactly bucketValue(bucketOf(sample))).
     */
    double percentile(double p) const;
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    /** Count in bucket @p index (0 beyond the stored prefix). */
    std::uint64_t bucketCount(std::size_t index) const;

    /** True when every bucket count matches (the merge identity). */
    bool identicalBuckets(const LogHistogram &other) const;

    void clear();

  private:
    /** Replace the retained exemplar when @p ex (in @p bucket) wins
     *  under the retention total order. */
    void offerExemplar(std::size_t bucket, const Exemplar &ex);

    /** Buckets at or past this index are all zero (kept minimal). */
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    Exemplar exemplar_;
    std::size_t exemplarBucket_ = 0;
};

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
    Tick windowStart(std::uint64_t index) const
    {
        return index * windowTicks_;
    }

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
