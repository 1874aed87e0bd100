/**
 * @file
 * Implementation of the event-driven Fafnir engine.
 */

#include "event_engine.hh"

#include <algorithm>
#include <array>
#include <ostream>
#include <functional>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/attribution.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir::core
{

namespace
{

/** Live pipeline state of one PE during a run. */
struct PeRun
{
    /** Arrival tick per input entry, per side; MaxTick = not arrived. */
    std::array<std::vector<Tick>, 2> arrival;
    std::array<std::size_t, 2> arrived{0, 0};
    /** Outputs remaining to consume each input (FIFO occupancy). */
    std::array<std::vector<unsigned>, 2> remainingUses;
    std::array<std::size_t, 2> occupancy{0, 0};
    std::vector<bool> countedForwardWait;
    /** Emission tick per output; MaxTick = not emitted yet. */
    std::vector<Tick> emitTick;
    std::size_t emittedCount = 0;
    /** Output-port availability (one emission per issue interval). */
    Tick pipeFree = 0;
};

/** One leaf input's originating DRAM read, per (pe, side, position). */
struct LeafRead
{
    unsigned rank = 0;
    Tick firstData = 0;
    Tick complete = 0;
    std::uint64_t flow = 0;
};

/** Service-track thread for per-query delivery spans (0..2 are the
 *  open-loop queue/serve/guard rows). */
constexpr int kServiceDeliveryTid = 3;

} // namespace

EventDrivenEngine::EventDrivenEngine(dram::MemorySystem &memory,
                                     const embedding::VectorLayout &layout,
                                     const EventEngineConfig &config,
                                     const embedding::EmbeddingStore *store)
    : memory_(memory), replay_(memory, layout, config.base, store),
      config_(config), peStats_(topology().numPes() + 1)
{
    config_.base = replay_.config(); // as replayed (interactive applied)
}

void
EventDrivenEngine::registerStats(StatGroup &group) const
{
    for (unsigned pe = 1; pe <= topology().numPes(); ++pe) {
        const std::string prefix = "pe" + std::to_string(pe);
        const PeTelemetry &activity = peStats_[pe];
        group.addCounter(prefix + ".deliveries", activity.deliveries,
                         "inputs delivered to PE " + std::to_string(pe));
        group.addCounter(prefix + ".outputs", activity.outputs,
                         "outputs emitted");
        group.addCounter(prefix + ".reduces", activity.reduces,
                         "reduce emissions");
        group.addCounter(prefix + ".forwards", activity.forwards,
                         "forward emissions");
        group.addFormula(
            prefix + ".occupancy",
            [this, pe] {
                const std::uint64_t active = activeTicks_.value();
                return active == 0
                    ? 0.0
                    : static_cast<double>(
                          peStats_[pe].busyTicks.value()) /
                          static_cast<double>(active);
            },
            "output-port busy fraction over simulated time");
    }
}

std::vector<EventLookupTiming>
EventDrivenEngine::lookupMany(const std::vector<embedding::Batch> &batches,
                              Tick start)
{
    std::vector<EventLookupTiming> timings;
    timings.reserve(batches.size());
    Tick t = start;
    for (const auto &batch : batches) {
        timings.push_back(lookup(batch, t));
        t = timings.back().memLast;
    }
    return timings;
}

EventLookupTiming
EventDrivenEngine::lookup(const embedding::Batch &batch, Tick start)
{
    PreparedBatch prepared = replay_.prepare(batch);
    return lookupPrepared(prepared, start);
}

EventLookupTiming
EventDrivenEngine::lookupPrepared(PreparedBatch &prepared, Tick start)
{
    const TreeTopology &topology = replay_.topology();
    const unsigned num_pes = topology.numPes();
    const unsigned vector_bytes = replay_.vectorBytes(prepared);
    EventQueue &eq = memory_.eventq();
    // The event clock only moves forward; an earlier logical start would
    // schedule completions in the past.
    start = std::max(start, eq.now());

    scheduleReads(prepared, replay_.config().readOrder, memory_.mapper());
    EventLookupTiming timing;
    TreeRun run = replay_.run(prepared, start, timing,
                              config_.computeValues, config_.reduceOp);

    // --- Set up per-PE pipeline state from the functional trace. --------
    std::vector<PeRun> pes(num_pes + 1);
    for (unsigned pe = 1; pe <= num_pes; ++pe) {
        PeRun &state = pes[pe];
        const PeTrace &trace = run.trace[pe];
        for (int side = 0; side < 2; ++side) {
            state.arrival[side].assign(trace.inputs[side], MaxTick);
            state.remainingUses[side].assign(trace.inputs[side], 0);
        }
        for (const auto &out : trace.outputs)
            for (const Provenance &src : out.sources)
                ++state.remainingUses[src.side][src.index];
        state.countedForwardWait.assign(trace.outputs.size(), false);
        state.emitTick.assign(trace.outputs.size(), MaxTick);
        state.pipeFree = start;
    }

    std::vector<Tick> root_times(run.rootOutputs.size(), MaxTick);

    // --- Timeline tracing (no-ops when no sink is installed). -----------
    telemetry::TraceSink *ts = telemetry::sink();
    telemetry::Attribution *attr = telemetry::attribution();
    const std::uint64_t batch_ordinal = attr ? attr->beginBatch() : 0;
    if (ts) {
        for (unsigned pe = 1; pe <= num_pes; ++pe) {
            ts->setThreadName(
                telemetry::kPidTree, static_cast<int>(pe),
                "PE " + std::to_string(pe) + " (h" +
                    std::to_string(topology.heightOf(pe)) + ")");
        }
    }
    // Items buffered per tree level, emitted as one counter track each.
    std::vector<std::int64_t> level_occupancy(topology.numLevels(), 0);
    auto occupancy_changed = [&](unsigned pe, int delta, Tick at) {
        if (!ts)
            return;
        const unsigned height = topology.heightOf(pe);
        level_occupancy[height] += delta;
        ts->counterEvent(
            telemetry::kPidTree,
            "tree.occupancy.h" + std::to_string(height), at,
            static_cast<double>(level_occupancy[height]));
    };

    // --- Pipeline dynamics. ---------------------------------------------
    // Forward-declared so emissions can deliver upward recursively.
    std::function<void(unsigned, unsigned, std::size_t)> deliver;

    auto try_emit = [&](unsigned pe) {
        PeRun &state = pes[pe];
        const PeTrace &trace = run.trace[pe];
        bool progressed = true;
        while (progressed && state.emittedCount < trace.outputs.size()) {
            progressed = false;
            for (std::size_t k = 0; k < trace.outputs.size(); ++k) {
                if (state.emitTick[k] != MaxTick)
                    continue;
                const TracedOutput &out = trace.outputs[k];

                // All provenance must have arrived.
                Tick ready = start;
                bool arrived = true;
                for (const Provenance &src : out.sources) {
                    const Tick t = state.arrival[src.side][src.index];
                    if (t == MaxTick) {
                        arrived = false;
                        break;
                    }
                    ready = std::max(ready, t);
                }
                if (!arrived)
                    continue;

                // A forward additionally needs the opposite side
                // complete — only then is "no match" certain.
                if (out.action == PeAction::Forward) {
                    bool blocked = false;
                    for (const Provenance &src : out.sources) {
                        const unsigned other = 1 - src.side;
                        if (state.arrived[other] < trace.inputs[other]) {
                            blocked = true;
                            break;
                        }
                    }
                    if (blocked) {
                        if (!state.countedForwardWait[k]) {
                            state.countedForwardWait[k] = true;
                            ++timing.forwardWaits;
                        }
                        continue;
                    }
                }

                Tick emit = replay_.align(ready) +
                            replay_.pathTicks(pe, out.action);
                emit = std::max(emit, state.pipeFree);
                // The emit decision is made now (e.g., a forward that was
                // waiting for the opposite side to complete).
                emit = std::max(emit, eq.now());
                state.pipeFree = emit + replay_.issueTicks();

                // Consume inputs; free FIFO slots at last use.
                for (const Provenance &src : out.sources) {
                    unsigned &uses =
                        state.remainingUses[src.side][src.index];
                    FAFNIR_ASSERT(uses > 0, "provenance double-free");
                    if (--uses == 0) {
                        --state.occupancy[src.side];
                        occupancy_changed(pe, -1, emit);
                    }
                }

                state.emitTick[k] = emit;
                ++state.emittedCount;
                progressed = true;
                PeTelemetry &activity = peStats_[pe];
                ++activity.outputs;
                const bool is_reduce = out.action == PeAction::Reduce;
                if (is_reduce)
                    ++activity.reduces;
                else
                    ++activity.forwards;
                const Tick issue_ticks = replay_.issueTicks();
                activity.busyTicks += issue_ticks;
                if (ts) {
                    // Tagged with the item's originating query ids and
                    // the causal flow of the arrival that unblocked it.
                    const auto &qids = out.queries;
                    ts->completeEvent(
                        telemetry::kPidTree, static_cast<int>(pe), "pe",
                        is_reduce ? "reduce" : "forward", emit,
                        issue_ticks,
                        {{"queries",
                          static_cast<double>(qids.size())},
                         {"q0", qids.empty()
                                    ? -1.0
                                    : static_cast<double>(qids[0])},
                         {"flow",
                          static_cast<double>(eq.currentFlow())}});
                }
                if (config_.recordTimeline)
                    timing.timeline.push_back({emit, pe, "emit", k});

                if (pe == TreeTopology::rootPe()) {
                    root_times[k] = emit;
                } else {
                    const unsigned parent = topology.parent(pe);
                    const unsigned side = pe % 2 == 0 ? 0 : 1;
                    // Position within the parent's input list: children
                    // outputs land in trace order.
                    eq.scheduleFn(emit, [&deliver, parent, side, k] {
                        deliver(parent, side, k);
                    });
                }
            }
        }
    };

    deliver = [&](unsigned pe, unsigned side, std::size_t index) {
        PeRun &state = pes[pe];
        FAFNIR_ASSERT(index < run.trace[pe].inputs[side],
                      "delivery beyond expected inputs");
        Tick at = eq.now();
        ++state.occupancy[side];
        ++peStats_[pe].deliveries;
        occupancy_changed(pe, 1, at);
        if (state.occupancy[side] > replay_.config().hwBatch) {
            ++timing.fifoOverflows;
            at += config_.overflowPenalty * replay_.pePeriod();
        }
        // Injected backpressure (pe_backpressure hook): the arrival
        // stalls as if the FIFO had no free slot, mirroring the organic
        // overflow penalty above. Timing-only — values are untouched.
        if (fault::FaultPlan *p = fault::plan(); p != nullptr) {
            if (const Cycles extra = p->peBackpressureCycles();
                extra != 0) {
                ++timing.injectedBackpressure;
                at += extra * replay_.pePeriod();
                if (ts) {
                    ts->instantEvent(telemetry::kPidTree,
                                     static_cast<int>(pe), "fault",
                                     "pe_backpressure", at,
                                     {{"cycles",
                                       static_cast<double>(extra)}});
                }
            }
        }
        FAFNIR_ASSERT(state.arrival[side][index] == MaxTick,
                      "duplicate delivery");
        state.arrival[side][index] = at;
        ++state.arrived[side];
        if (config_.recordTimeline) {
            timing.timeline.push_back(
                {at, pe, "deliver",
                 side * run.trace[pe].inputs[0] + index});
        }
        try_emit(pe);
        // An arrival here may unblock forwards waiting in the parent
        // chain only via future emissions, which schedule events.
    };

    // --- Issue the DRAM reads; completions drive the pipeline. ----------
    // Each read starts a fresh causal flow: its completion one-shot and
    // everything that one-shot schedules (the whole delivery chain up
    // the tree) inherit the flow id through the event queue.
    std::vector<std::array<std::vector<LeafRead>, 2>> leaf_reads(
        num_pes + 1);
    replay_.issueReads(
        prepared, start, timing,
        [&](const RankRead &read, unsigned rank, unsigned pe, unsigned side,
            std::size_t pos) {
            const std::uint64_t flow = eq.beginFlow();
            const auto result = memory_.readAsync(
                read.address, vector_bytes, start, dram::Destination::Ndp,
                [&deliver, pe, side, pos](Tick, const dram::AccessResult &) {
                    deliver(pe, side, pos);
                });
            leaf_reads[pe][side].push_back(
                LeafRead{rank, result.firstData, result.complete, flow});
            return result;
        });
    eq.setCurrentFlow(0);

    eq.run();

    for (unsigned pe = 1; pe <= num_pes; ++pe) {
        FAFNIR_ASSERT(pes[pe].emittedCount ==
                          run.trace[pe].outputs.size(),
                      "PE ", pe, " stalled: ", pes[pe].emittedCount, "/",
                      run.trace[pe].outputs.size(), " outputs emitted");
    }

    // --- Per-query completion and the root-to-host links. ---------------
    const auto query_ready = replay_.queryReady(run, root_times, start);
    const std::vector<Tick> link_start =
        replay_.hostTail(query_ready, vector_bytes, 0, timing);

    // --- Causal attribution: walk each query's critical path. -----------
    //
    // The path runs backwards from the query's last root output through
    // the maximum-arrival ("binding") source at every PE down to a leaf
    // input, i.e. to one DRAM read. Each hop's interval [previous stage
    // end, emission] splits exactly into pipeline compute and waiting,
    // so the recorded components sum to the end-to-end latency by
    // construction (pinned by tests/test_attribution.cc).
    if (attr || ts || telemetry::flightRecorder() != nullptr) {
        if (ts) {
            ts->setThreadName(telemetry::kPidService,
                              kServiceDeliveryTid, "delivery");
        }
        struct Hop
        {
            unsigned pe;
            std::size_t out;
        };
        std::vector<Hop> path;
        for (QueryId q = 0; q < query_ready.size(); ++q) {
            // Root output of q that bounds its tree time (the first of
            // its latest).
            const auto &outputs = run.rootOutputsOf[q];
            std::size_t k_last = outputs.front();
            for (std::uint32_t k : outputs)
                if (root_times[k] > root_times[k_last])
                    k_last = k;
            const Tick t_last = root_times[k_last];

            // Back-walk to the leaf, following binding arrivals.
            path.clear();
            unsigned pe = TreeTopology::rootPe();
            std::size_t k = k_last;
            const Provenance *bind = nullptr;
            while (true) {
                path.push_back({pe, k});
                bind = nullptr;
                Tick best = 0;
                const TracedOutput &out = run.trace[pe].outputs[k];
                for (const Provenance &src : out.sources) {
                    const Tick t = pes[pe].arrival[src.side][src.index];
                    if (bind == nullptr || t > best) {
                        bind = &src;
                        best = t;
                    }
                }
                FAFNIR_ASSERT(bind != nullptr, "output without sources");
                if (topology.heightOf(pe) == 0)
                    break;
                pe = 2 * pe + bind->side;
                k = bind->index;
            }
            const LeafRead &lr = leaf_reads[pe][bind->side][bind->index];

            // Memory interval: isolated service vs. contention.
            const Tick mem_interval = lr.complete - start;
            const Tick dram_service = std::min(
                mem_interval, memory_.closedRowReadLatency());
            const Tick ctrl_queue = mem_interval - dram_service;

            // PE hops, leaf to root.
            Tick pe_compute = 0;
            Tick forward_wait = 0;
            Tick prev = lr.complete;
            for (auto it = path.rbegin(); it != path.rend(); ++it) {
                const Tick compute = replay_.pathTicks(
                    it->pe, run.trace[it->pe].outputs[it->out].action);
                const Tick emit = pes[it->pe].emitTick[it->out];
                pe_compute += compute;
                forward_wait += emit - prev - compute;
                prev = emit;
            }
            // Serial root combines of this query count as compute.
            pe_compute += query_ready[q] - t_last;

            telemetry::QueryAttribution qa;
            qa.batch = batch_ordinal;
            qa.query = q;
            qa.issued = start;
            qa.complete = timing.queryComplete[q];
            qa.dramService = dram_service;
            qa.ctrlQueue = ctrl_queue;
            qa.peCompute = pe_compute;
            qa.forwardWait = forward_wait;
            qa.serviceQueue = timing.queryComplete[q] - query_ready[q];
            qa.criticalRank = lr.rank;
            qa.hops = static_cast<unsigned>(path.size());
            qa.flow = lr.flow;
            if (attr)
                attr->recordQuery(qa);

            if (ts) {
                // Perfetto arrows along the critical path: DRAM read
                // span → each PE emission span → the delivery span.
                const std::uint64_t fid = ts->newFlowId();
                const std::string label = "q" + std::to_string(q);
                ts->flowBegin(fid, telemetry::kPidDram,
                              static_cast<int>(lr.rank), "attrib.flow",
                              label, lr.firstData);
                for (auto it = path.rbegin(); it != path.rend(); ++it) {
                    ts->flowStep(fid, telemetry::kPidTree,
                                 static_cast<int>(it->pe), "attrib.flow",
                                 label, pes[it->pe].emitTick[it->out]);
                }
                ts->completeEvent(
                    telemetry::kPidService, kServiceDeliveryTid,
                    "service.delivery", label, link_start[q],
                    timing.queryComplete[q] - link_start[q],
                    {{"flow", static_cast<double>(lr.flow)}});
                ts->flowEnd(fid, telemetry::kPidService,
                            kServiceDeliveryTid, "attrib.flow", label,
                            link_start[q]);
            }
        }

        // Meeting-level histogram: one pairwise merge per reduce
        // emission at that PE's height; the root's serial combines
        // merge at the root level. The flight recorder keeps a per-PE
        // meeting summary (bounded per batch, off the try_emit hot
        // path): code = PE id; a = tree height, b = reduce count.
        auto *rec = telemetry::flightRecorder();
        for (unsigned p = 1; p <= num_pes; ++p) {
            std::uint64_t reduces = 0;
            for (const auto &out : run.trace[p].outputs)
                reduces += out.action == PeAction::Reduce;
            if (attr)
                attr->recordMeeting(topology.heightOf(p), reduces);
            if (rec && reduces > 0)
                rec->record(telemetry::Stage::PeMeeting, timing.complete,
                            p, topology.heightOf(p), reduces);
        }
        if (attr)
            attr->recordMeeting(topology.numLevels() - 1, run.rootCombines);
    }
    activeTicks_ += timing.complete - start;
    if (config_.computeValues)
        timing.results = std::move(run.results);

    if (config_.recordTimeline) {
        std::sort(timing.timeline.begin(), timing.timeline.end(),
                  [](const TimelineEvent &a, const TimelineEvent &b) {
                      return a.tick < b.tick;
                  });
    }
    return timing;
}

void
writeTimeline(std::ostream &os,
              const std::vector<TimelineEvent> &timeline)
{
    os << "tick\tpe\tkind\tindex\n";
    for (const auto &event : timeline) {
        os << event.tick << '\t' << event.pe << '\t' << event.kind
           << '\t' << event.index << '\n';
    }
}

} // namespace fafnir::core
