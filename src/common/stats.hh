/**
 * @file
 * Lightweight statistics package.
 *
 * Every model component owns named counters/scalars registered into a
 * StatGroup; benches and examples dump groups as aligned text, JSON, or
 * CSV. This is a deliberately small subset of gem5's stats framework:
 * scalar counters, distributions with percentiles, and formulas
 * evaluated at dump time. A process-wide StatRegistry owns groups so a
 * whole run's statistics can be exported as one machine-readable
 * artifact (`--stats-json` / `--stats-csv` in the harnesses).
 *
 * Every percentile in the simulator comes from one histogram type,
 * LogHistogram: whole-run Distributions here, and the windowed
 * histograms of telemetry/timeseries.hh, which merge LogHistograms
 * across windows and replicas.
 */

#ifndef FAFNIR_COMMON_STATS_HH
#define FAFNIR_COMMON_STATS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace fafnir
{

class JsonWriter;

/** A named monotonic counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Attribution components an exemplar carries, in the telescoping
 *  order of telemetry::QueryAttribution (batchPrepare .. shardCombine). */
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
 * Log-bucketed histogram with integer bucket counts: the one
 * percentile rule of the repo.
 *
 * Bucket layout: bucket 0 catches non-positive, non-finite and
 * underflowing samples; then 16 sub-buckets per power of two across the
 * frexp exponent range [kMinExp, kMaxExp]; one final overflow bucket.
 * bucketValue() returns a bucket's upper edge, so quantiles never
 * under-report and sit at most 1/16 (6.25%) above the true sample.
 * merge() adds bucket counts elementwise — associative and commutative,
 * so any merge order over any partition of a sample stream yields
 * bit-identical buckets.
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

    /**
     * Bucket index a sample lands in (pure function of the value).
     * Read from the double's bits: a positive normal v is
     * 1.m × 2^(e − 1023), so frexp's exponent is e − 1022 and the
     * sub-bucket is the top kSubBits bits of the mantissa m.
     */
    static std::size_t
    bucketOf(double v)
    {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        const std::uint64_t signExp = bits >> 52; // sign bit, then e
        const int exp = static_cast<int>(signExp) - 1022;
        // Negative (sign set), inf/NaN (e all ones), zero, subnormal
        // and underflow all go to bucket 0.
        if (signExp >= 0x7ff || exp < kMinExp)
            return 0;
        if (exp > kMaxExp)
            return kBucketCount - 1;
        const auto sub = static_cast<std::size_t>(
            (bits >> (52 - kSubBits)) & (kSubBuckets - 1));
        return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets +
               sub;
    }

    /** Upper edge of bucket @p index (0.0 for the underflow bucket). */
    static double bucketValue(std::size_t index);

    void
    record(double v)
    {
        const std::size_t index = bucketOf(v);
        if (index >= counts_.size()) [[unlikely]]
            counts_.resize(index + 1, 0);
        ++counts_[index];
        ++count_;
        sum_ += v;
    }

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

/**
 * A LogHistogram plus exact min and max: mean/min/max plus percentiles
 * over a stream of samples, in bounded memory at any sample count.
 *
 * Percentiles are the histogram's, clamped into [min, max]:
 * percentile(p) is clamp(bucketValue(bucketOf(s)), min, max) for the
 * true nearest-rank sample s. For positive samples that lies in
 * [s, min(1.0625·s, max)], so a constant stream reads its exact value at
 * every percentile and percentile(100) is the max.
 *
 * Empty distributions report NaN mean/min/max/percentiles — serialized
 * as JSON null and an empty CSV cell — so "no samples" is
 * distinguishable from "samples averaging zero" in every export format.
 */
class Distribution
{
  public:
    void
    sample(double v)
    {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
        hist_.record(v);
    }

    std::uint64_t count() const { return hist_.count(); }
    double mean() const { return hist_.mean(); }
    double min() const;
    double max() const;
    double sum() const { return hist_.sum(); }

    /**
     * Nearest-rank percentile, @p p in [0, 100]. NaN when empty.
     * On {1..100}, percentile(50) is 52 and percentile(99) is 100.
     */
    double percentile(double p) const;
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    void reset() { *this = Distribution(); }

  private:
    LogHistogram hist_;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * A group of named statistics belonging to one component. Values are
 * registered by reference; the group never owns them.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addCounter(const std::string &stat, const Counter &counter,
                    const std::string &desc = "");
    void addDistribution(const std::string &stat, const Distribution &dist,
                         const std::string &desc = "");
    /** A value computed at dump time from other stats. */
    void addFormula(const std::string &stat, std::function<double()> fn,
                    const std::string &desc = "");

    /** Write "group.stat value # desc" lines. */
    void dump(std::ostream &os) const;

    /** Emit this group as one JSON object (distributions expand to
     *  {count, mean, min, max, sum, p50, p95, p99}). */
    void writeJson(JsonWriter &json) const;

    /** Append "group.stat,value" CSV rows (no header). */
    void writeCsv(std::ostream &os) const;

    const std::string &name() const { return name_; }
    std::size_t size() const { return entries_.size(); }

  private:
    enum class Kind
    {
        Counter,
        Distribution,
        Formula,
    };

    struct Entry
    {
        std::string name;
        Kind kind;
        const Counter *counter = nullptr;
        const Distribution *dist = nullptr;
        std::function<double()> formula;
        std::string desc;
    };

    std::string name_;
    std::vector<Entry> entries_;
};

/**
 * Process-wide owner of StatGroups.
 *
 * Components create (or look up) their group with group(); harnesses
 * serialize every registered group at the end of a run. Groups reference
 * caller-owned counters, so a harness that registers stats for
 * run-scoped objects must dump and clear() before those objects die.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;

    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** The process-wide registry used by the CLI harnesses. */
    static StatRegistry &instance();

    /** Get-or-create the group named @p name (registration order kept). */
    StatGroup &group(const std::string &name);

    bool has(const std::string &name) const;
    std::size_t size() const { return groups_.size(); }

    /** Aligned-text dump of every group, in registration order. */
    void dump(std::ostream &os) const;

    /** One JSON object: {"group": {"stat": value | distribution}}. */
    void dumpJson(std::ostream &os) const;

    /** Emit the same object into an in-progress JSON document. */
    void writeJson(JsonWriter &json) const;

    /** CSV with a "stat,value" header; distributions are flattened. */
    void dumpCsv(std::ostream &os) const;

    /** Drop all groups (their referenced counters are untouched). */
    void clear() { groups_.clear(); }

  private:
    std::vector<std::unique_ptr<StatGroup>> groups_;
};

} // namespace fafnir

#endif // FAFNIR_COMMON_STATS_HH
