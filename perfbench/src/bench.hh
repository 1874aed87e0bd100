/**
 * @file
 * Shared pieces of the end-to-end simulator benchmark: the span
 * recorder of traced runs, the simulated-statistics digest, and the
 * interface every workload implements.
 *
 * A workload owns its rig (memory systems, engines, serving tier) and
 * a pool of input batches drawn from the seed. main.cc calls
 * step() in a closed loop: call k serves the next batchesPerCall()
 * batches of the pool (cyclically) as soon as call k-1 returned.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "embedding/query.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** What a span measures. */
enum class SpanKind
{
    /** A call into a layer on the workload's own path. */
    Call,
    /** A re-timing of an inner layer's public function on the same
     *  inputs, run after its parent returned; its time is subtracted
     *  from the parent's self time. */
    Nested,
    /** A re-timing kept for its own sake (not subtracted). */
    Probe,
};

/** One recorded span. */
struct Span
{
    const char *layer = "";
    /** Pool-cycle-independent ordinal of the batch the span serves. */
    std::uint64_t batch = 0;
    /** Index of the span that caused this one, -1 for none. */
    std::int32_t parent = -1;
    SpanKind kind = SpanKind::Call;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    std::int64_t durNs() const { return endNs - startNs; }
};

/** In-memory span recorder; written out once, when the run ends. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin)
    {
        spans_.reserve(1 << 16);
    }

    std::int32_t
    add(const char *layer, std::uint64_t batch, std::int32_t parent,
        SpanKind kind, Clock::time_point start, Clock::time_point end)
    {
        spans_.push_back({layer, batch, parent, kind,
                          nsBetween(origin_, start),
                          nsBetween(origin_, end)});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    /** Self time per layer: span time minus its Nested children. */
    std::map<std::string, double> selfNsByLayer() const;
    /** Total span time per layer. */
    std::map<std::string, double> totalNsByLayer() const;
    /** Summed time of Call spans (the program's own calls). */
    double callNs() const;
    /** Summed time of Nested and Probe spans (re-timings). */
    double probeNs() const;

    /** Chrome-trace JSON (ts/dur in us, batch and parent in args). */
    bool writeJson(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** FNV-1a over 64-bit words: the simulated-statistics digest. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    addBytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Output corruption the self-test injects into one served batch. */
enum class Inject
{
    None,
    /** One served value (a vector element or a completion tick). */
    Value,
    /** One count (reads issued). */
    Count,
};

/** Run shape shared by all workloads. */
struct Plan
{
    /** Distinct input batches drawn from the seed and served cyclically. */
    unsigned poolBatches = 256;
    /** Batches served during set-up, before anything is timed. */
    unsigned warmupBatches = 16;
    /** Batches after warm-up whose simulated statistics are digested. */
    unsigned windowBatches = 64;

    unsigned prefixBatches() const { return warmupBatches + windowBatches; }
};

/** Outcome of one closed-loop call. */
struct StepStats
{
    unsigned batches = 0;
    std::uint64_t queries = 0;
    std::uint64_t failedQueries = 0;
    /** Host time inside the program's public calls. */
    std::int64_t callNs = 0;
    /** Host time of the benchmark's output checks (not program time). */
    std::int64_t checkNs = 0;
};

/** Named metric values. */
using Metrics = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual unsigned batchesPerCall() const = 0;

    /**
     * Serve call number @p call, check its outputs, and fold its
     * simulated statistics into the digest while inside the prefix.
     * With @p tracer, record spans and run the inner-layer probes.
     */
    virtual StepStats step(std::uint64_t call, Tracer *tracer,
                           Inject inject) = 0;

    /** Digest of the prefix's simulated statistics (valid once served). */
    std::uint64_t digest() const { return digest_.value(); }

    /** Simulated ns per query over the prefix (exact, per seed). */
    double simNsPerQuery() const { return prefixSimNsPerQuery_; }

    /** Deterministic per-layer counts over the prefix. */
    const Metrics &prefixCounts() const { return prefixCounts_; }

    /** Counters of the probes run so far (reads replayed, events...). */
    const Metrics &probeCounts() const { return probeCounts_; }

    /** False when a cross-check between rig and probes failed. */
    bool invariantsHold() const { return invariantsHold_; }

  protected:
    Digest digest_;
    double prefixSimNsPerQuery_ = 0.0;
    Metrics prefixCounts_;
    Metrics probeCounts_;
    bool invariantsHold_ = true;
};

/** The workloads, by name. */
const std::vector<std::string> &workloadNames();

/** Draw @p plan.poolBatches batches for @p workload from @p seed. */
std::vector<fafnir::embedding::Batch>
generateInputs(const std::string &workload, std::uint64_t seed,
               const Plan &plan);

/** Build the rig of @p workload around @p pool. */
std::unique_ptr<Workload>
makeWorkload(const std::string &workload,
             std::vector<fafnir::embedding::Batch> pool, const Plan &plan);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
