/**
 * @file
 * The single-engine serving model: an open loop behind ServiceGuard.
 *
 * Production recommenders care about tail latency under a given request
 * rate, not only isolated batch latency. serveGuardedOpenLoop feeds a
 * batch stream at fixed inter-arrival times into any lookup engine (via
 * the guard's adapter callback), and its GuardedReport reads queueing +
 * service latency percentiles and the saturation verdict. Requests are
 * admitted in arrival order; the engine serializes service (one batch
 * in flight), which models the paper's single accelerator front-end.
 *
 * ServiceGuard wraps the adapter with the robustness contract the
 * fault-injection layer exercises: untrusted batches pass admission
 * checks (Batch::validate), served queries get per-query deadlines
 * measured from arrival, transient faults and deadline misses trigger
 * bounded retries with exponential backoff, and whatever still cannot
 * be served is returned as an explicitly tagged partial result — the
 * guard never silently drops or silently corrupts a query. Every
 * recovery action lands in counters (registerStats) and TraceSink
 * instants so --report shows fault/retry/timeout totals.
 */

#ifndef FAFNIR_EMBEDDING_SERVICE_HH
#define FAFNIR_EMBEDDING_SERVICE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "embedding/query.hh"

namespace fafnir::embedding
{

/** Latency record of one served request. */
struct ServedRequest
{
    Tick arrival = 0;
    Tick started = 0;
    Tick completed = 0;

    Tick queueTime() const { return started - arrival; }
    Tick serviceTime() const { return completed - started; }
    Tick totalTime() const { return completed - arrival; }
};

/** Why a request, or one of its queries, was degraded. */
enum class DegradeReason : std::uint8_t
{
    None,
    /** Dropped at admission: the query failed Batch::validate. */
    InvalidQuery,
    /** Dropped after retries: missed its deadline on every attempt. */
    DeadlineExceeded,
    /** Served, but faults were injected during every attempt — the
     *  returned result is tagged suspect rather than silently trusted. */
    FaultPersisted,
};

/** Human-readable name of @p reason ("invalid-query", ...). */
const char *toString(DegradeReason reason);

/** Final outcome of one query of a guarded request. */
struct QueryOutcome
{
    /** Position of the query in the submitted batch. */
    std::size_t position = 0;
    DegradeReason reason = DegradeReason::None;
    /** The admission defect, when reason is InvalidQuery. */
    QueryDefect defect = QueryDefect::None;
    /** Serving attempts that included this query. */
    unsigned attempts = 0;
    /** Completion tick; 0 when the query was dropped. */
    Tick completed = 0;

    bool served() const { return completed != 0; }
};

/** Latency plus degradation record of one guarded request. */
struct GuardedRequest : ServedRequest
{
    /** Serving attempts made (0 when every query failed admission). */
    unsigned attempts = 0;
    std::size_t servedQueries = 0;
    std::size_t droppedQueries = 0;
    /** Worst degradation across the request's queries. */
    DegradeReason degraded = DegradeReason::None;
    /** One entry per submitted query, in batch position order. */
    std::vector<QueryOutcome> outcomes;

    /** True when the response is missing at least one query. */
    bool partial() const { return droppedQueries > 0; }
};

/** ServiceGuard policy knobs. */
struct GuardConfig
{
    /** Per-query completion deadline from arrival (0 = no deadline). */
    Tick queryDeadline = 0;
    /** Serving attempts allowed per request (first try + retries). */
    unsigned maxAttempts = 3;
    /** Backoff before the first retry; doubles on each further one. */
    Tick retryBackoff = 200 * kTicksPerNs;
    /** Admission limits for Batch::validate (0 = unchecked). */
    std::uint64_t indexLimit = 0;
    std::size_t maxQueryWidth = 0;
};

/** What one serving attempt reports back to the guard. */
struct ServeSample
{
    Tick complete = 0;
    /** Per-query completion ticks, indexed by the sub-batch's dense
     *  ids; may be empty when the engine only reports batch grain. */
    std::vector<Tick> queryComplete;
};

/**
 * The hardened serving front-end: admission checks, per-query
 * deadlines, bounded retry with exponential backoff, and tagged
 * partial results. One engine behind it (service is serialized).
 */
class ServiceGuard
{
  public:
    /** Serve a (validated, densely renumbered) batch starting no
     *  earlier than the given tick. Invoked once per attempt. */
    using ServeFn = std::function<ServeSample(const Batch &, Tick)>;

    ServiceGuard(const GuardConfig &config, ServeFn serve);

    /** Serve @p batch arriving at @p arrival; never throws or aborts on
     *  malformed input — defective queries come back tagged. */
    GuardedRequest serve(const Batch &batch, Tick arrival);

    const GuardConfig &config() const { return config_; }

    /** @{ Recovery-action totals since construction. */
    std::uint64_t retryCount() const { return retries_.value(); }
    std::uint64_t timeoutCount() const { return timeouts_.value(); }
    std::uint64_t rejectedQueryCount() const { return rejected_.value(); }
    std::uint64_t expiredQueryCount() const { return expired_.value(); }
    std::uint64_t suspectQueryCount() const { return suspect_.value(); }
    /** @} */

    /** Register the recovery counters into @p group. */
    void registerStats(StatGroup &group) const;

  private:
    GuardConfig config_;
    ServeFn serve_;
    /** The engine serves one request at a time. */
    Tick engineFree_ = 0;

    Counter requests_;
    Counter retries_;
    Counter timeouts_;
    Counter rejected_;
    Counter expired_;
    Counter suspect_;
    Counter served_;
    Counter partial_;
};

/** Aggregate of a guarded open-loop run. */
struct GuardedReport
{
    std::vector<GuardedRequest> requests;

    std::size_t servedQueries() const;
    std::size_t droppedQueries() const;
    std::size_t partialRequests() const;

    /** Nearest-rank percentile of request total time, @p p in [0, 1]
     *  (a Distribution's: the log-bucket edge clamped to [min, max]). */
    Tick percentileTotal(double p) const;

    /**
     * True when the backlog grew through the run, i.e. offered load
     * exceeded engine capacity. The heuristic compares the mean
     * queueing delay of the last quarter of requests against the first
     * quarter and trips when
     *
     *     tail > 2.0 * head + 1000 ticks
     *
     * The 2x factor demands sustained growth (a stable queue's head and
     * tail means agree; an unstable one grows linearly, so the tail
     * quarter sits far above the head quarter), and the 1000-tick (1 ns)
     * offset keeps a zero-queue run — head == tail == 0 — and other
     * sub-nanosecond jitter from tripping the gate. Runs shorter than 8
     * requests never report saturation: the quarters are too small to
     * distinguish trend from noise.
     */
    bool saturated() const;
};

/** Serve @p batches with arrivals every @p inter_arrival ticks
 *  (0 = closed loop, all arrive at tick 0), each request through
 *  @p guard, whose one engine serves them in arrival order. */
GuardedReport
serveGuardedOpenLoop(const std::vector<Batch> &batches,
                     Tick inter_arrival, ServiceGuard &guard);

} // namespace fafnir::embedding

#endif // FAFNIR_EMBEDDING_SERVICE_HH
