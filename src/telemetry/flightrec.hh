/**
 * @file
 * Always-on flight recorder with triggered debug bundles.
 *
 * Windowed telemetry and SLO alerts (timeseries.hh, slo.hh) can say
 * *that* a run went bad; by the time they do, the evidence of *why* is
 * gone unless the run happened to be re-executed under --trace. The
 * flight recorder closes that gap the way production black boxes do:
 * per-stage fixed-capacity rings of compact binary records are kept
 * continuously (overwrite-oldest, drops counted), and when a trigger
 * fires — an SLO alert transition, a ServiceGuard deadline miss or
 * retry exhaustion, a fired fault hook, a sharded-recheck value
 * mismatch, or a query past the rolling p99 — the rings are drained,
 * together with a structured snapshot of the offending query's full
 * attribution split, the fault-plan state, the SLO state, and the
 * windowed metrics, into one JSON *debug bundle* under a directory of
 * the user's choosing (--debug-bundle-dir).
 *
 * Bundles are deterministic: every field is derived from simulated
 * ticks and seeded state (no wall clock, no host randomness), so two
 * same-seed runs produce byte-identical bundles — reproduction is a
 * diff, not a debugging session. Triggers are rate-limited per kind in
 * simulated ticks and capped per run, so a pathological run cannot
 * flood the disk.
 *
 * Instrumentation sites read the ambient context (context.hh): the
 * accessor inlines to a single load, so the record points cost one load
 * + branch when no recorder is installed. Compiling with
 * FAFNIR_FLIGHTREC_COMPILED_OUT makes the accessor a constant nullptr
 * — the configuration CI uses to pin the disabled-recorder overhead of
 * the hot paths at <= 1%.
 */

#ifndef FAFNIR_TELEMETRY_FLIGHTREC_HH
#define FAFNIR_TELEMETRY_FLIGHTREC_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "telemetry/context.hh"

namespace fafnir
{
class StatGroup;
}

namespace fafnir::telemetry
{

struct QueryAttribution;

/** Pipeline stage a flight record belongs to (one ring per stage). */
enum class Stage : unsigned
{
    EventqDispatch, ///< event-queue dispatch (code 1, one-shot callback)
    DramService,    ///< DRAM read completion
    PeMeeting,      ///< partial sums met at a tree PE
    Prepare,        ///< host batch prepare done
    Dispatch,       ///< batch handed to an engine replica
    Writeback,      ///< batch writeback done
    ShardCombine,   ///< cross-shard fixed-order combine
    NumStages,
};

inline constexpr std::size_t kNumStages =
    static_cast<std::size_t>(Stage::NumStages);

/** Snake-case stage name used in bundle JSON ("eventq_dispatch", ...). */
const char *toString(Stage stage);

/**
 * One compact flight record. The payload words are stage-specific (the
 * writer of each record point documents its encoding); tick is always
 * the simulated time of the event.
 */
struct FlightRecord
{
    Tick tick = 0;
    std::uint32_t code = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** Why a debug bundle was captured. */
enum class Trigger : unsigned
{
    SloAlert,       ///< burn-rate alert transition (slo.cc)
    DeadlineMiss,   ///< ServiceGuard deadline timeout
    RetryExhausted, ///< ServiceGuard retries exhausted
    FaultHook,      ///< an armed fault hook fired
    ValueMismatch,  ///< sharded re-check found diverging values
    TailLatency,    ///< query latency above the rolling p99
    NumTriggers,
};

inline constexpr std::size_t kNumTriggers =
    static_cast<std::size_t>(Trigger::NumTriggers);

/** Snake-case trigger name used in bundle filenames and JSON. */
const char *toString(Trigger trigger);

struct FlightRecorderConfig
{
    /** Records retained per stage ring (overwrite-oldest past this). */
    std::size_t ringCapacity = 1024;
    /** Bundles written per run across all triggers (flood guard). */
    std::size_t maxBundles = 8;
    /** Minimum simulated gap between accepted triggers of one kind. */
    Tick minGapTicks = 100 * kTicksPerUs;
    /** Bundle output directory; empty = count triggers, write nothing. */
    std::string bundleDir;
};

/**
 * The recorder: per-stage rings + trigger bookkeeping + bundle writer.
 * Single-threaded like every other process-global telemetry facility
 * (bench_util clamps parallel harnesses while one is installed).
 */
class FlightRecorder
{
  public:
    explicit FlightRecorder(FlightRecorderConfig config = {});

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    const FlightRecorderConfig &config() const { return config_; }

    /** Append one record to @p stage's ring (drops the oldest when
     *  full; the drop is counted, never silent). */
    void record(Stage stage, Tick tick, std::uint32_t code,
                std::uint64_t a = 0, std::uint64_t b = 0);

    /**
     * A trigger condition was observed at simulated @p tick.
     * Increments the per-kind trigger counter always; the capture is
     * *accepted* (rate-limit state advances, a bundle is written when
     * bundleDir is set) unless it lands within minGapTicks of the
     * previous accepted trigger of the same kind or the run already
     * wrote maxBundles bundles — suppressed captures are counted.
     * @p detail is a short human note ("fire:p99_latency_us<500");
     * @p offender, when known, embeds the victim query's full
     * attribution split. @return true when the capture was accepted.
     */
    bool trigger(Trigger kind, Tick tick, const std::string &detail,
                 const QueryAttribution *offender = nullptr);

    /** Add a key/value pair embedded in every bundle's "context"
     *  object (tool name, seed, flag values...). Insertion order is
     *  preserved; re-setting a key overwrites in place. */
    void setContext(const std::string &key, const std::string &value);

    /**
     * Serialize one bundle onto @p os. Exposed so tests can pin
     * byte-identical output without touching the filesystem; trigger()
     * routes through this for the on-disk bundles.
     */
    void writeBundle(std::ostream &os, Trigger kind, Tick tick,
                     const std::string &detail,
                     const QueryAttribution *offender,
                     std::uint64_t sequence) const;

    /** Records ever pushed into @p stage's ring. */
    std::uint64_t recordedCount(Stage stage) const;
    /** Records overwritten before any bundle could drain them. */
    std::uint64_t droppedCount(Stage stage) const;
    std::uint64_t totalRecorded() const;
    std::uint64_t totalDropped() const;

    /** Records currently retained in @p stage's ring. */
    std::size_t ringSize(Stage stage) const;
    /** The @p i-th oldest retained record of @p stage. */
    const FlightRecord &ringRecord(Stage stage, std::size_t i) const;

    /** Trigger conditions observed (accepted + suppressed). */
    std::uint64_t triggerCount(Trigger kind) const;
    std::uint64_t totalTriggers() const;
    /** Captures suppressed by the rate limit or the bundle cap. */
    std::uint64_t suppressedCount() const { return suppressed_; }
    /** Accepted captures (== bundle files when bundleDir is set). */
    std::uint64_t acceptedCount() const { return sequence_; }

    std::uint64_t bundlesWritten() const { return bundlePaths_.size(); }
    const std::vector<std::string> &bundlePaths() const
    {
        return bundlePaths_;
    }

    /** Largest tick seen by record() — the "now" for triggers that
     *  have no natural tick of their own (fault hooks). */
    Tick lastSeenTick() const { return lastSeenTick_; }

    /** Register flightrec.* counters into @p group. */
    void registerStats(StatGroup &group) const;

  private:
    struct Ring
    {
        std::vector<FlightRecord> slots;
        /** Overwrite cursor == oldest element once the ring is full. */
        std::size_t next = 0;
        std::uint64_t recorded = 0;
    };

    const Ring &ring(Stage stage) const
    {
        return rings_[static_cast<std::size_t>(stage)];
    }

    FlightRecorderConfig config_;
    std::array<Ring, kNumStages> rings_;
    std::vector<std::pair<std::string, std::string>> context_;
    std::array<std::uint64_t, kNumTriggers> triggerCounts_{};
    std::array<Tick, kNumTriggers> lastAccepted_{};
    std::array<bool, kNumTriggers> acceptedAny_{};
    std::uint64_t suppressed_ = 0;
    std::uint64_t sequence_ = 0;
    std::vector<std::string> bundlePaths_;
    Tick lastSeenTick_ = 0;
};

} // namespace fafnir::telemetry

#endif // FAFNIR_TELEMETRY_FLIGHTREC_HH
