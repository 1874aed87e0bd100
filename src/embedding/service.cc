/**
 * @file
 * Implementation of the guarded open-loop serving model.
 */

#include "service.hh"

#include <algorithm>
#include <cstdio>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir::embedding
{

const char *
toString(DegradeReason reason)
{
    switch (reason) {
      case DegradeReason::None:
        return "none";
      case DegradeReason::InvalidQuery:
        return "invalid-query";
      case DegradeReason::DeadlineExceeded:
        return "deadline-exceeded";
      case DegradeReason::FaultPersisted:
        return "fault-persisted";
    }
    return "unknown";
}

namespace
{

/** A degradation/recovery instant on the service trace track. */
void
traceGuard(const char *what, Tick at, double value)
{
    if (auto *ts = telemetry::sink()) {
        ts->instantEvent(telemetry::kPidService, 2, "service.guard",
                         what, at, {{"n", value}});
    }
}

} // namespace

ServiceGuard::ServiceGuard(const GuardConfig &config, ServeFn serve)
    : config_(config), serve_(std::move(serve))
{
    FAFNIR_ASSERT(config_.maxAttempts >= 1,
                  "guard needs at least one serving attempt");
    if (auto *ts = telemetry::sink())
        ts->setThreadName(telemetry::kPidService, 2, "guard");
}

GuardedRequest
ServiceGuard::serve(const Batch &batch, Tick arrival)
{
    ++requests_;
    GuardedRequest request;
    request.arrival = arrival;
    request.outcomes.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        request.outcomes[i].position = i;

    // Admission: defective queries never reach the engine — they come
    // back tagged with the defect that rejected them.
    for (const QueryIssue &issue :
         batch.validate(config_.indexLimit, config_.maxQueryWidth)) {
        QueryOutcome &outcome = request.outcomes[issue.position];
        outcome.reason = DegradeReason::InvalidQuery;
        outcome.defect = issue.defect;
        ++rejected_;
        traceGuard("rejected", arrival,
                   static_cast<double>(issue.position));
    }

    std::vector<std::size_t> pending;
    pending.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (request.outcomes[i].reason == DegradeReason::None)
            pending.push_back(i);
    }

    request.started = std::max(arrival, engineFree_);
    Tick at = request.started;
    Tick last_complete = request.started;
    Tick backoff = config_.retryBackoff;
    unsigned attempt = 0;
    bool fault_persisted = false;

    while (!pending.empty() && attempt < config_.maxAttempts) {
        ++attempt;

        // The engine contract (Batch::check) wants dense ids, so each
        // attempt serves a renumbered sub-batch of the pending queries.
        Batch sub;
        sub.queries.reserve(pending.size());
        for (std::size_t k = 0; k < pending.size(); ++k) {
            Query q = batch.queries[pending[k]];
            q.id = static_cast<QueryId>(k);
            sub.queries.push_back(std::move(q));
        }
        for (std::size_t pos : pending)
            ++request.outcomes[pos].attempts;

        fault::FaultPlan *plan = fault::plan();
        const std::uint64_t fired_before =
            plan != nullptr ? plan->totalFired() : 0;
        const ServeSample sample = serve_(sub, at);
        FAFNIR_ASSERT(sample.complete >= at, "service went backwards");
        last_complete = sample.complete;
        const bool faulted =
            plan != nullptr && plan->totalFired() > fired_before;

        if (faulted && attempt < config_.maxAttempts) {
            // Transient faults detected: the whole attempt is suspect.
            // Discard it and retry everything still pending, after an
            // exponentially growing backoff.
            ++retries_;
            traceGuard("retry", sample.complete,
                       static_cast<double>(attempt));
            at = sample.complete + backoff;
            backoff *= 2;
            continue;
        }
        fault_persisted = faulted;

        // Accept completions, collecting per-query deadline misses.
        std::vector<std::size_t> missed;
        for (std::size_t k = 0; k < pending.size(); ++k) {
            const std::size_t pos = pending[k];
            const Tick done = k < sample.queryComplete.size()
                                  ? sample.queryComplete[k]
                                  : sample.complete;
            if (config_.queryDeadline != 0 &&
                done > arrival + config_.queryDeadline) {
                ++timeouts_;
                traceGuard("timeout", done, static_cast<double>(pos));
                if (auto *rec = telemetry::flightRecorder()) {
                    char detail[96];
                    std::snprintf(
                        detail, sizeof detail,
                        "query %llu missed deadline by %llu ticks",
                        static_cast<unsigned long long>(pos),
                        static_cast<unsigned long long>(
                            done - arrival - config_.queryDeadline));
                    rec->trigger(telemetry::Trigger::DeadlineMiss, done,
                                 detail);
                }
                missed.push_back(pos);
            } else {
                request.outcomes[pos].completed = done;
            }
        }

        if (missed.empty())
            pending.clear();
        else
            pending.swap(missed);
        if (!pending.empty() && attempt < config_.maxAttempts) {
            // Deadline misses are retried alone: met queries keep their
            // results, the stragglers get a fresh (smaller) attempt.
            ++retries_;
            traceGuard("retry", last_complete,
                       static_cast<double>(attempt));
            at = last_complete + backoff;
            backoff *= 2;
        }
    }

    // Whatever is still pending exhausted its attempts.
    if (!pending.empty()) {
        if (auto *rec = telemetry::flightRecorder()) {
            char detail[96];
            std::snprintf(detail, sizeof detail,
                          "%llu queries exhausted %u attempts",
                          static_cast<unsigned long long>(pending.size()),
                          attempt);
            rec->trigger(telemetry::Trigger::RetryExhausted,
                         last_complete, detail);
        }
    }
    for (std::size_t pos : pending) {
        request.outcomes[pos].reason = DegradeReason::DeadlineExceeded;
        request.outcomes[pos].completed = 0;
        ++expired_;
        traceGuard("expired", last_complete, static_cast<double>(pos));
    }

    for (QueryOutcome &outcome : request.outcomes) {
        if (outcome.served()) {
            if (fault_persisted) {
                // Served on an attempt that still saw injected faults:
                // the result is returned, but tagged, never silent.
                outcome.reason = DegradeReason::FaultPersisted;
                ++suspect_;
            }
            ++request.servedQueries;
            ++served_;
        } else {
            ++request.droppedQueries;
        }
        // Request-level tag: the worst per-query degradation.
        if (outcome.reason != DegradeReason::None &&
            static_cast<std::uint8_t>(outcome.reason) >
                static_cast<std::uint8_t>(request.degraded)) {
            request.degraded = outcome.reason;
        }
    }
    if (request.partial())
        ++partial_;

    request.attempts = attempt;
    request.completed = last_complete;
    engineFree_ = std::max(engineFree_, request.completed);

    // Feed the windowed telemetry engine and SLO monitor (when
    // installed): per-query latency and availability SLIs, sorted by
    // completion tick so burn-rate windows close in order.
    telemetry::TimeSeries *series = telemetry::timeseries();
    telemetry::SloMonitor *monitor = telemetry::sloMonitor();
    if (series != nullptr || monitor != nullptr) {
        struct SliRow
        {
            Tick tick;
            double latencyUs;
            bool served;
            bool clean;
        };
        std::vector<SliRow> rows;
        rows.reserve(request.outcomes.size());
        for (const QueryOutcome &o : request.outcomes) {
            const Tick tick = o.served() ? o.completed : last_complete;
            const double latencyUs =
                o.served() ? static_cast<double>(o.completed - arrival) /
                                 static_cast<double>(kTicksPerUs)
                           : 0.0;
            rows.push_back({tick, latencyUs, o.served(),
                            o.reason == DegradeReason::None});
        }
        std::stable_sort(rows.begin(), rows.end(),
                         [](const SliRow &a, const SliRow &b) {
                             return a.tick < b.tick;
                         });
        telemetry::WindowedHistogram *winLatency =
            series != nullptr
                ? &series->histogram("guard.latency_us",
                                     "arrival-to-completion per served "
                                     "query")
                : nullptr;
        telemetry::WindowedCounter *winServed =
            series != nullptr ? &series->counter("guard.served") : nullptr;
        telemetry::WindowedCounter *winDropped =
            series != nullptr ? &series->counter("guard.dropped")
                              : nullptr;
        for (const SliRow &row : rows) {
            if (series != nullptr) {
                if (row.served) {
                    winLatency->record(row.tick, row.latencyUs);
                    winServed->record(row.tick);
                } else {
                    winDropped->record(row.tick);
                }
            }
            if (monitor != nullptr) {
                if (row.served)
                    monitor->recordLatency(row.tick, row.latencyUs);
                monitor->recordOutcome(row.tick,
                                       row.served && row.clean);
            }
        }
    }
    return request;
}

void
ServiceGuard::registerStats(StatGroup &group) const
{
    group.addCounter("requests", requests_, "guarded requests served");
    group.addCounter("retries", retries_,
                     "serving attempts repeated after faults/timeouts");
    group.addCounter("timeouts", timeouts_,
                     "per-query deadline misses observed");
    group.addCounter("rejectedQueries", rejected_,
                     "queries dropped at admission (invalid)");
    group.addCounter("expiredQueries", expired_,
                     "queries dropped after exhausting retries");
    group.addCounter("suspectQueries", suspect_,
                     "queries served while faults persisted (tagged)");
    group.addCounter("servedQueries", served_,
                     "queries served to completion");
    group.addCounter("partialRequests", partial_,
                     "requests answered with partial results");
}

std::size_t
GuardedReport::servedQueries() const
{
    std::size_t total = 0;
    for (const auto &r : requests)
        total += r.servedQueries;
    return total;
}

std::size_t
GuardedReport::droppedQueries() const
{
    std::size_t total = 0;
    for (const auto &r : requests)
        total += r.droppedQueries;
    return total;
}

std::size_t
GuardedReport::partialRequests() const
{
    std::size_t total = 0;
    for (const auto &r : requests)
        total += r.partial() ? 1 : 0;
    return total;
}

Tick
GuardedReport::percentileTotal(double p) const
{
    FAFNIR_ASSERT(!requests.empty(), "empty report");
    FAFNIR_ASSERT(p >= 0.0 && p <= 1.0, "percentile out of range");
    Distribution totals;
    for (const auto &r : requests)
        totals.sample(static_cast<double>(r.totalTime()));
    return static_cast<Tick>(totals.percentile(p * 100.0));
}

bool
GuardedReport::saturated() const
{
    // Saturated when the queue delay keeps growing through the run:
    // compare mean queueing of the last quarter against the first.
    const std::size_t n = requests.size();
    if (n < 8)
        return false;
    auto mean_queue = [&](std::size_t lo, std::size_t hi) {
        double sum = 0.0;
        for (std::size_t i = lo; i < hi; ++i)
            sum += static_cast<double>(requests[i].queueTime());
        return sum / static_cast<double>(hi - lo);
    };
    const double head = mean_queue(0, n / 4);
    const double tail = mean_queue(n - n / 4, n);
    return tail > 2.0 * head + 1000.0;
}

GuardedReport
serveGuardedOpenLoop(const std::vector<Batch> &batches,
                     Tick inter_arrival, ServiceGuard &guard)
{
    // inter_arrival == 0 is the closed-loop case: every request arrives
    // at tick 0 and the guard's engine serialization paces them.
    GuardedReport report;
    report.requests.reserve(batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
        report.requests.push_back(
            guard.serve(batches[i], static_cast<Tick>(i) * inter_arrival));
    }
    return report;
}

} // namespace fafnir::embedding
