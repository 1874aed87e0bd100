/**
 * @file
 * Implementation of the pipelined multi-engine serving front-end.
 */

#include "serving.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/attribution.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir::core
{

namespace
{

/** Service-track threads for the pipeline stages (2 and 3 are taken by
 *  the ServiceGuard and per-query delivery rows). */
constexpr int kPrepareTid = 6;
constexpr int kDispatchTid = 7;
constexpr int kWritebackTid = 8;
constexpr int kEngineTidBase = 10;

} // namespace

Tick
ServingConfig::prepareCost(std::size_t references) const
{
    const auto pw = static_cast<Tick>(std::max(1u, prepareWorkers));
    return prepareFixed +
           preparePerReference * static_cast<Tick>(references) / pw +
           prepareShardOverhead * (pw - 1);
}

std::vector<EngineReplica>
makeEventReplicas(unsigned count, const ReplicaMemoryConfig &mem,
                  const embedding::TableConfig &tables,
                  const EventEngineConfig &config,
                  const embedding::EmbeddingStore *store)
{
    std::vector<EngineReplica> replicas;
    replicas.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        EngineReplica r;
        r.eventq = std::make_unique<EventQueue>();
        r.memory = std::make_unique<dram::MemorySystem>(
            *r.eventq, mem.geometry, mem.timing, mem.interleave,
            mem.blockBytes);
        r.layout = std::make_unique<embedding::VectorLayout>(
            tables, r.memory->mapper());
        r.engine = std::make_unique<EventDrivenEngine>(
            *r.memory, *r.layout, config, store);
        replicas.push_back(std::move(r));
    }
    return replicas;
}

ServingPipeline::ServingPipeline(const ServingConfig &config,
                                 std::vector<EngineReplica> &replicas,
                                 const embedding::EmbeddingStore *store)
    : config_(config), replicas_(replicas), store_(store)
{
    FAFNIR_ASSERT(config_.engines >= 1, "pipeline needs >= 1 engine");
    FAFNIR_ASSERT(replicas_.size() >= config_.engines,
                  "pipeline configured for ", config_.engines,
                  " engines but only ", replicas_.size(),
                  " replicas were built");
    if (config_.pipelineDepth == 0)
        config_.pipelineDepth = 1;
    config_.prepareWorkers = std::max(1u, config_.prepareWorkers);
    slotArenas_.reserve(config_.pipelineDepth);
    for (unsigned s = 0; s < config_.pipelineDepth; ++s)
        slotArenas_.push_back(preparePool_.makeSlotArenas());
    perEngineBatches_.reserve(config_.engines);
    perEngineBusyTicks_.reserve(config_.engines);
    for (unsigned e = 0; e < config_.engines; ++e) {
        perEngineBatches_.push_back(std::make_unique<Counter>());
        perEngineBusyTicks_.push_back(std::make_unique<Counter>());
    }
}

PipelineReport
ServingPipeline::serve(const std::vector<embedding::Batch> &batches,
                       Tick arrivalGap, Tick start)
{
    std::vector<Tick> arrivals;
    arrivals.reserve(batches.size());
    for (std::size_t k = 0; k < batches.size(); ++k)
        arrivals.push_back(start + arrivalGap * k);
    return serve(batches, arrivals);
}

PipelineReport
ServingPipeline::serve(const std::vector<embedding::Batch> &batches,
                       const std::vector<Tick> &arrivals)
{
    FAFNIR_ASSERT(arrivals.size() == batches.size(),
                  "serve() wants one arrival tick per batch (",
                  arrivals.size(), " arrivals for ", batches.size(),
                  " batches)");
    const Tick start = arrivals.empty() ? 0 : arrivals.front();
    const unsigned engines = config_.engines;
    const unsigned depth = config_.pipelineDepth;
    const embedding::VectorLayout &layout = *replicas_[0].layout;

    PipelineReport report;
    report.batches.reserve(batches.size());
    report.batchesPerEngine.assign(engines, 0);
    report.busyTicksPerEngine.assign(engines, 0);

    // Stage availability, all in simulated ticks: the host prepare
    // stage handles one batch at a time (its modelled workers divide
    // the batch), each engine replica serves one batch at a time,
    // results drain through one writeback port, and at most `depth`
    // prepared batches exist at once. Slot s frees at its occupant's
    // engine completion, off the writeback path.
    std::vector<Tick> engineFree(engines, start);
    Tick prepareFree = start;
    Tick writebackFree = start;
    std::vector<Tick> slotRetire(depth, 0);

    telemetry::TraceSink *ts = telemetry::sink();
    if (ts) {
        ts->setThreadName(telemetry::kPidService, kPrepareTid,
                          "pipeline prepare");
        ts->setThreadName(telemetry::kPidService, kDispatchTid,
                          "pipeline dispatch");
        ts->setThreadName(telemetry::kPidService, kWritebackTid,
                          "pipeline writeback");
        for (unsigned e = 0; e < engines; ++e)
            ts->setThreadName(telemetry::kPidService,
                              kEngineTidBase + static_cast<int>(e),
                              "engine " + std::to_string(e));
    }

    // Windowed telemetry and SLO feeds: one load + branch when neither
    // is installed, mirroring the trace-sink pattern.
    telemetry::TimeSeries *series = telemetry::timeseries();
    telemetry::SloMonitor *slo = telemetry::sloMonitor();
    telemetry::FlightRecorder *rec = telemetry::flightRecorder();
    telemetry::WindowedHistogram *winLatency = nullptr;
    telemetry::WindowedHistogram *winQueueWait = nullptr;
    telemetry::WindowedHistogram *winOccupancy = nullptr;
    telemetry::WindowedCounter *winBatches = nullptr;
    telemetry::WindowedCounter *winQueries = nullptr;
    telemetry::WindowedCounter *winHedges = nullptr;
    std::vector<telemetry::WindowedCounter *> winEngineBatches;
    std::vector<telemetry::WindowedHistogram *> winEngineService;
    if (series) {
        winLatency = &series->histogram(
            "serving.latency_us", "arrival-to-writeback per query");
        winQueueWait = &series->histogram(
            "serving.queue_wait_us", "dispatch-queue wait per batch");
        winOccupancy = &series->histogram(
            "serving.slot_occupancy",
            "prepared slots still retiring at prepare start");
        winBatches = &series->counter("serving.batches");
        winQueries = &series->counter("serving.queries");
        winHedges = &series->counter("serving.hedges");
        for (unsigned e = 0; e < engines; ++e) {
            const std::string prefix =
                "serving.engine" + std::to_string(e);
            winEngineBatches.push_back(
                &series->counter(prefix + ".batches"));
            winEngineService.push_back(&series->histogram(
                prefix + ".service_us", "execute time per batch"));
        }
    }

    Tick lastDone = start;
    for (std::size_t k = 0; k < batches.size(); ++k) {
        const embedding::Batch &batch = batches[k];
        const Tick arrival = arrivals[k];
        const unsigned s = static_cast<unsigned>(k % depth);

        // --- Prepare stage (overlaps execution of earlier batches). ----
        const Tick prepare_start =
            std::max({arrival, prepareFree, slotRetire[s]});
        if (winOccupancy) {
            unsigned occupied = 0;
            for (const Tick retire : slotRetire)
                occupied += retire > prepare_start;
            winOccupancy->record(prepare_start, occupied);
        }
        const Tick prepare_cost = config_.prepareCost(batch.totalIndices());
        const Tick prepare_done = prepare_start + prepare_cost;
        prepareFree = prepare_done;
        prepareTicks_ += prepare_cost;
        report.prepareBusy += prepare_cost;
        // code = batch ordinal; a = references, b = prepare cost ticks.
        if (rec)
            rec->record(telemetry::Stage::Prepare, prepare_done,
                        static_cast<std::uint32_t>(k),
                        batch.totalIndices(), prepare_cost);

        PreparedBatch prepared =
            preparePool_.prepare(layout, store_, batch, config_.dedup,
                                 &slotArenas_[s], config_.payload);

        // --- Dispatch to the replica that frees up earliest. -----------
        const auto primary = static_cast<unsigned>(
            std::min_element(engineFree.begin(), engineFree.end()) -
            engineFree.begin());
        const Tick dispatch_ready = std::max(prepare_done,
                                             engineFree[primary]);
        telemetry::Attribution *attr = telemetry::attribution();
        EventLookupTiming timing =
            replicas_[primary].engine->lookupPrepared(prepared,
                                                      dispatch_ready);
        const std::uint64_t ordinal = attr ? attr->currentBatch() : 0;
        // Past the hedge only these two ticks of the primary run are
        // read, so its timing (per-query results included) is moved
        // into win_timing, not copied.
        const Tick issued = timing.issued;
        const Tick primary_complete = timing.complete;
        engineFree[primary] = primary_complete;
        const Tick service = primary_complete - issued;
        report.busyTicksPerEngine[primary] += service;
        *perEngineBusyTicks_[primary] += service;

        // --- Hedge a straggler onto a second replica. -------------------
        unsigned winner = primary;
        bool hedged = false;
        bool hedge_won = false;
        EventLookupTiming win_timing = std::move(timing);
        if (config_.hedgePct > 0.0 && engines >= 2 &&
            serviceHistory_.count() > 0 &&
            serviceHistory_.count() >= config_.hedgeWarmup) {
            const auto p = static_cast<Tick>(
                serviceHistory_.percentile(config_.hedgePct));
            if (service > p) {
                hedged = true;
                ++report.hedgesIssued;
                ++hedgesIssued_;
                // Backup goes to the replica (other than the primary)
                // that frees up earliest, issued the moment the primary
                // crossed the percentile.
                unsigned backup = primary == 0 ? 1 : 0;
                for (unsigned e = 0; e < engines; ++e)
                    if (e != primary && engineFree[e] < engineFree[backup])
                        backup = e;
                const Tick backup_start =
                    std::max(issued + p, engineFree[backup]);
                EventLookupTiming backup_timing;
                {
                    // The backup replays the same prepared batch; keep
                    // attribution single-sourced on the primary run.
                    telemetry::Context muted = telemetry::context();
                    muted.attribution = nullptr;
                    telemetry::ScopedContext off(muted);
                    backup_timing =
                        replicas_[backup].engine->lookupPrepared(
                            prepared, backup_start);
                }
                engineFree[backup] = backup_timing.complete;
                const Tick backup_service =
                    backup_timing.complete - backup_timing.issued;
                report.busyTicksPerEngine[backup] += backup_service;
                *perEngineBusyTicks_[backup] += backup_service;
                if (winHedges)
                    winHedges->record(backup_start);
                if (backup_timing.complete < primary_complete) {
                    hedge_won = true;
                    ++report.hedgesWon;
                    ++hedgesWon_;
                    winner = backup;
                    win_timing = std::move(backup_timing);
                }
            }
        }
        serviceHistory_.sample(static_cast<double>(service));

        // --- Writeback (results land host-side, in arrival order). ------
        const Tick complete = win_timing.complete;
        const Tick wb_start = std::max(complete, writebackFree);
        const Tick wb_done =
            wb_start + config_.writebackPerQuery * batch.size();
        writebackFree = wb_done;
        // Slot turnaround is off the writeback path: the slot frees at
        // `complete`, not at writeback drain.
        slotRetire[s] = complete;
        lastDone = std::max(lastDone, wb_done);

        // --- Telemetry: stage spans + latency-split back-annotation. ----
        const Tick dispatch_wait = issued - prepare_done;
        dispatchWaitTicks_ += dispatch_wait;
        report.dispatchWait += dispatch_wait;
        report.writebackBusy += wb_done - wb_start;
        if (rec) {
            // Dispatch: code = engine replica; a = batch, b = queue wait.
            rec->record(telemetry::Stage::Dispatch, issued, primary, k,
                        dispatch_wait);
            // Writeback: code = winning replica; a = batch, b = drain.
            rec->record(telemetry::Stage::Writeback, wb_done, winner, k,
                        wb_done - wb_start);
        }
        ++servedBatches_;
        servedQueries_ += batch.size();
        ++(*perEngineBatches_[winner]);
        ++report.batchesPerEngine[winner];

        // --- Windowed telemetry + SLO feed (per query, at writeback). ---
        const double latencyUs = static_cast<double>(wb_done - arrival) /
                                 static_cast<double>(kTicksPerUs);
        // Tail-latency trigger threshold: the rolling p99 *before* this
        // batch's own samples land, so a spike is judged against the
        // recent past, not against itself. 64 warmup samples keep the
        // first batches from tripping on a cold histogram.
        double tailP99 = 0.0;
        bool tailWarm = false;
        if (series && rec) {
            const LogHistogram recent = winLatency->rolling(8);
            tailWarm = recent.count() >= 64;
            tailP99 = recent.p99();
        }
        if (slo) {
            for (std::size_t q = 0; q < batch.size(); ++q) {
                slo->recordLatency(wb_done, latencyUs);
                slo->recordOutcome(wb_done, true);
            }
        }
        if (attr) {
            attr->annotateBatchStages(ordinal, prepare_done - arrival,
                                      dispatch_wait);
        }
        // The batch's tail exemplar: its slowest query *after* stage
        // back-annotation, so the attribution split telescopes exactly
        // (sharded runs annotate shardCombine later; the copy here is
        // self-consistent either way).
        const telemetry::QueryAttribution *victim = nullptr;
        if (attr) {
            const auto &qs = attr->queries();
            for (auto it = qs.rbegin();
                 it != qs.rend() && it->batch == ordinal; ++it) {
                if (victim == nullptr || it->total() > victim->total() ||
                    (it->total() == victim->total() &&
                     it->query < victim->query)) {
                    victim = &*it;
                }
            }
        }
        if (series) {
            constexpr double us = static_cast<double>(kTicksPerUs);
            winBatches->record(wb_done);
            winQueries->record(wb_done, batch.size());
            winQueueWait->record(issued,
                                 static_cast<double>(dispatch_wait) / us);
            winEngineBatches[winner]->record(complete);
            winEngineService[winner]->record(
                complete,
                static_cast<double>(win_timing.complete -
                                    win_timing.issued) / us);
            std::size_t plain = batch.size();
            if (victim != nullptr) {
                Exemplar ex;
                ex.tick = wb_done;
                ex.batch = victim->batch;
                ex.query = victim->query;
                ex.flow = victim->flow;
                ex.totalTicks = victim->total();
                ex.components = {victim->batchPrepare,
                                 victim->dispatchQueue,
                                 victim->dramService,
                                 victim->ctrlQueue,
                                 victim->peCompute,
                                 victim->forwardWait,
                                 victim->serviceQueue,
                                 victim->shardCombine};
                winLatency->record(wb_done, latencyUs, ex);
                --plain;
            }
            for (std::size_t q = 0; q < plain; ++q)
                winLatency->record(wb_done, latencyUs);
        }
        if (rec && tailWarm && latencyUs > tailP99) {
            char detail[112];
            std::snprintf(detail, sizeof detail,
                          "batch %llu latency %.6gus > rolling p99 %.6gus",
                          static_cast<unsigned long long>(k), latencyUs,
                          tailP99);
            rec->trigger(telemetry::Trigger::TailLatency, wb_done, detail,
                         victim);
        }
        if (ts) {
            const double batch_arg = static_cast<double>(k);
            ts->completeEvent(telemetry::kPidService, kPrepareTid,
                              "serving.prepare", "prepare", prepare_start,
                              prepare_cost, {{"batch", batch_arg}});
            if (dispatch_wait > 0) {
                ts->completeEvent(telemetry::kPidService, kDispatchTid,
                                  "serving.dispatchQueue", "dispatch wait",
                                  prepare_done, dispatch_wait,
                                  {{"batch", batch_arg},
                                   {"engine",
                                    static_cast<double>(primary)}});
            }
            ts->completeEvent(
                telemetry::kPidService,
                kEngineTidBase + static_cast<int>(winner),
                "serving.execute", "execute", win_timing.issued,
                win_timing.complete - win_timing.issued,
                {{"batch", batch_arg},
                 {"hedged", hedged ? 1.0 : 0.0}});
            ts->completeEvent(telemetry::kPidService, kWritebackTid,
                              "serving.writeback", "writeback", wb_start,
                              wb_done - wb_start, {{"batch", batch_arg}});
        }

        ServedBatchTrace trace;
        trace.batch = k;
        trace.engine = winner;
        trace.hedged = hedged;
        trace.hedgeWon = hedge_won;
        trace.arrival = arrival;
        trace.prepareStart = prepare_start;
        trace.prepareDone = prepare_done;
        trace.started = win_timing.issued;
        trace.complete = complete;
        trace.done = wb_done;
        trace.attribBatch = ordinal;
        trace.timing = std::move(win_timing);
        report.batches.push_back(std::move(trace));

        // Batch k's values are computed; its buffers go back to the
        // slot's arena for the batch that next occupies the slot.
        preparePool_.recycleAsync(std::move(prepared), slotArenas_[s]);
    }

    report.makespan = lastDone > start ? lastDone - start : 0;
    if (series)
        series->flush(lastDone);
    if (slo)
        slo->flush(lastDone);
    return report;
}

void
ServingPipeline::registerStats(StatGroup &group)
{
    group.addCounter("batches", servedBatches_,
                     "batches served through the pipeline");
    group.addCounter("queries", servedQueries_, "queries served");
    group.addCounter("hedgesIssued", hedgesIssued_,
                     "straggler batches hedged onto a second engine");
    group.addCounter("hedgesWon", hedgesWon_,
                     "hedged batches whose backup finished first");
    group.addCounter("prepareTicks", prepareTicks_,
                     "modeled host prepare time (dedup + headers)");
    group.addCounter("dispatchWaitTicks", dispatchWaitTicks_,
                     "prepared batches waiting for a free engine");
    for (unsigned e = 0; e < config_.engines; ++e) {
        group.addCounter("engine" + std::to_string(e) + ".batches",
                         *perEngineBatches_[e],
                         "batches served by engine " + std::to_string(e));
        group.addCounter("engine" + std::to_string(e) + ".busyTicks",
                         *perEngineBusyTicks_[e],
                         "execute ticks on engine " + std::to_string(e) +
                             " (including losing hedge backups)");
    }
}

void
ServingPipeline::printHealthScoreboard(std::ostream &os,
                                       const PipelineReport &report) const
{
    const double makespan = static_cast<double>(report.makespan);
    const auto pct = [&](Tick busy) {
        return makespan > 0.0 ? TextTable::num(
                                    100.0 * static_cast<double>(busy) /
                                        makespan, 1) + "%"
                              : "-";
    };
    const telemetry::TimeSeries *series = telemetry::timeseries();
    // Windowed columns read the installed engine; "-" when absent or
    // when the metric has no samples.
    const auto winP99 = [&](const std::string &metric) -> std::string {
        if (series == nullptr)
            return "-";
        const telemetry::WindowedHistogram *h =
            series->findHistogram(metric);
        if (h == nullptr || h->total() == 0)
            return "-";
        return TextTable::num(h->peakWindowPercentile(99.0), 1);
    };
    const auto winRate = [&](const std::string &metric) -> std::string {
        if (series == nullptr)
            return "-";
        const telemetry::WindowedCounter *c = series->findCounter(metric);
        if (c == nullptr || c->total() == 0)
            return "-";
        return TextTable::num(c->rollingRatePerSec(c->windowCount()), 0);
    };

    TextTable table("serving health scoreboard");
    table.setHeader({"stage", "batches", "util%", "peakWinP99us",
                     "winRate/s", "notes"});
    const std::size_t n = report.batches.size();
    table.row("prepare", n, pct(report.prepareBusy),
              winP99("serving.slot_occupancy"), winRate("serving.batches"),
              "workers=" + std::to_string(config_.prepareWorkers) +
                  ", p99 col = slot occupancy");
    table.row("dispatch", n, pct(report.dispatchWait),
              winP99("serving.queue_wait_us"), "-",
              "util% = share of time a batch waited");
    for (unsigned e = 0; e < config_.engines; ++e) {
        const std::string prefix = "serving.engine" + std::to_string(e);
        std::uint64_t hedgeWins = 0;
        for (const ServedBatchTrace &t : report.batches)
            hedgeWins += t.hedgeWon && t.engine == e;
        table.row("engine" + std::to_string(e),
                  report.batchesPerEngine[e],
                  pct(report.busyTicksPerEngine[e]),
                  winP99(prefix + ".service_us"),
                  winRate(prefix + ".batches"),
                  "hedgeWins=" + std::to_string(hedgeWins));
    }
    table.row("writeback", n, pct(report.writebackBusy),
              winP99("serving.latency_us"), winRate("serving.queries"),
              "p99 col = end-to-end query latency");
    if (const fault::FaultPlan *plan = fault::plan()) {
        table.row("faults", plan->totalFired(), "-", "-", "-",
                  "batches col = faults injected");
    }
    if (const telemetry::SloMonitor *slo = telemetry::sloMonitor()) {
        table.row("slo", slo->totalFires(), "-", "-", "-",
                  "fires/clears=" + std::to_string(slo->totalFires()) +
                      "/" + std::to_string(slo->totalClears()) +
                      (slo->anyActive() ? " [ACTIVE]" : ""));
    }
    table.print(os);
}

} // namespace fafnir::core
