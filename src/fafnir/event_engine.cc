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
    std::array<std::size_t, 2> expected{0, 0};
    /** Outputs remaining to consume each input (FIFO occupancy). */
    std::array<std::vector<unsigned>, 2> remainingUses;
    std::array<std::size_t, 2> occupancy{0, 0};
    /** Per-output emitted flag. */
    std::vector<bool> emitted;
    std::vector<bool> countedForwardWait;
    /** Emission tick per output (attribution back-walk). */
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
    : memory_(memory), layout_(layout), config_(config),
      topology_(memory.geometry().totalRanks(),
                config.base.ranksPerLeafPe),
      host_(layout, store), tree_(topology_),
      pePeriod_(periodFromMhz(config.base.peClockMhz)),
      peStats_(topology_.numPes() + 1)
{
    if (config_.base.interactive)
        config_.base.latency.compare = 0;
}

void
EventDrivenEngine::registerStats(StatGroup &group) const
{
    for (unsigned pe = 1; pe <= topology_.numPes(); ++pe) {
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
    PreparedBatch prepared =
        host_.prepare(batch, config_.base.dedup, config_.base.payload);
    return lookupPrepared(prepared, start);
}

EventLookupTiming
EventDrivenEngine::lookupPrepared(PreparedBatch &prepared, Tick start)
{
    // Transport width under the batch's payload format (fp32 keeps the
    // historical 4*dim): shared by the DRAM reads, every PE-link
    // emission, and the root-link serialization below.
    const auto vector_bytes = static_cast<unsigned>(
        prepared.vectorPayloadBytes(layout_.tables().dim()));
    const unsigned num_pes = topology_.numPes();
    EventQueue &eq = memory_.eventq();
    // The event clock only moves forward; an earlier logical start would
    // schedule completions in the past.
    start = std::max(start, eq.now());

    scheduleReads(prepared, config_.base.readOrder, memory_.mapper());
    TreeRun run = tree_.run(prepared, config_.computeValues,
                            /*keep_trace=*/true, config_.reduceOp);

    EventLookupTiming timing;
    timing.issued = start;
    timing.memAccesses = prepared.accessCount;
    timing.uniqueCount = prepared.uniqueCount;
    timing.totalReferences = prepared.totalReferences;
    timing.activity = run.total;
    timing.rootCombines = run.rootCombines;
    timing.maxPeOutputs = run.maxPeOutputs;
    timing.payload = prepared.payload;
    timing.dramPayloadBytes =
        static_cast<std::uint64_t>(prepared.accessCount) * vector_bytes;
    if (run.maxPeOutputs > config_.base.hwBatch)
        ++timing.bufferOverflows;

    // --- Set up per-PE pipeline state from the functional trace. --------
    std::vector<PeRun> pes(num_pes + 1);
    for (unsigned pe = 1; pe <= num_pes; ++pe) {
        PeRun &state = pes[pe];
        const PeTrace &trace = run.trace[pe];
        state.expected = trace.inputs;
        for (int side = 0; side < 2; ++side) {
            state.arrival[side].assign(state.expected[side], MaxTick);
            state.remainingUses[side].assign(state.expected[side], 0);
        }
        for (const auto &out : trace.outputs)
            for (const Provenance &src : out.sources)
                ++state.remainingUses[src.side][src.index];
        state.emitted.assign(trace.outputs.size(), false);
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
                    std::to_string(topology_.heightOf(pe)) + ")");
        }
    }
    // Items buffered per tree level, emitted as one counter track each.
    std::vector<std::int64_t> level_occupancy(topology_.numLevels(), 0);
    auto occupancy_changed = [&](unsigned pe, int delta, Tick at) {
        if (!ts)
            return;
        const unsigned height = topology_.heightOf(pe);
        level_occupancy[height] += delta;
        ts->counterEvent(
            telemetry::kPidTree,
            "tree.occupancy.h" + std::to_string(height), at,
            static_cast<double>(level_occupancy[height]));
    };

    // --- Pipeline dynamics. ---------------------------------------------
    auto align = [this](Tick t) {
        const Tick rem = t % pePeriod_;
        return rem == 0 ? t : t + (pePeriod_ - rem);
    };

    // Inter-chip link hop for outputs leaving a DIMM/rank node.
    auto link_cycles = [&](unsigned pe) -> Cycles {
        if (topology_.numLevels() > config_.base.channelNodeLevels &&
            topology_.heightOf(pe) ==
                topology_.numLevels() - 1 -
                    config_.base.channelNodeLevels) {
            return config_.base.interNodeLinkCycles;
        }
        return 0;
    };

    // Forward-declared so emissions can deliver upward recursively.
    std::function<void(unsigned, unsigned, std::size_t, Tick)> deliver;

    auto try_emit = [&](unsigned pe) {
        PeRun &state = pes[pe];
        const PeTrace &trace = run.trace[pe];
        bool progressed = true;
        while (progressed && state.emittedCount < trace.outputs.size()) {
            progressed = false;
            for (std::size_t k = 0; k < trace.outputs.size(); ++k) {
                if (state.emitted[k])
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
                        if (state.arrived[other] <
                            state.expected[other]) {
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

                const Cycles path =
                    (out.action == PeAction::Reduce
                         ? config_.base.latency.reducePath()
                         : config_.base.latency.forwardPath()) +
                    config_.base.latency.merge + link_cycles(pe);
                Tick emit = align(ready) + path * pePeriod_;
                emit = std::max(emit, state.pipeFree);
                // The emit decision is made now (e.g., a forward that was
                // waiting for the opposite side to complete).
                emit = std::max(emit, eq.now());
                state.pipeFree =
                    emit + config_.base.latency.issue * pePeriod_;

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

                state.emitted[k] = true;
                state.emitTick[k] = emit;
                ++state.emittedCount;
                timing.linkPayloadBytes += vector_bytes;
                progressed = true;
                PeTelemetry &activity = peStats_[pe];
                ++activity.outputs;
                const bool is_reduce = out.action == PeAction::Reduce;
                if (is_reduce)
                    ++activity.reduces;
                else
                    ++activity.forwards;
                const Tick issue_ticks =
                    config_.base.latency.issue * pePeriod_;
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
                    const unsigned parent = topology_.parent(pe);
                    const unsigned side = pe % 2 == 0 ? 0 : 1;
                    // Position within the parent's input list: children
                    // outputs land in trace order.
                    eq.scheduleFn(emit, [&deliver, parent, side, k] {
                        deliver(parent, side, k, 0);
                    });
                }
            }
        }
    };

    deliver = [&](unsigned pe, unsigned side, std::size_t index,
                  Tick /*unused*/) {
        PeRun &state = pes[pe];
        FAFNIR_ASSERT(index < state.expected[side],
                      "delivery beyond expected inputs");
        Tick at = eq.now();
        ++state.occupancy[side];
        ++peStats_[pe].deliveries;
        occupancy_changed(pe, 1, at);
        if (state.occupancy[side] > config_.base.hwBatch) {
            ++timing.fifoOverflows;
            at += config_.overflowPenalty * pePeriod_;
        }
        // Injected backpressure (pe_backpressure hook): the arrival
        // stalls as if the FIFO had no free slot, mirroring the organic
        // overflow penalty above. Timing-only — values are untouched.
        if (fault::FaultPlan *p = fault::plan(); p != nullptr) {
            if (const Cycles extra = p->peBackpressureCycles();
                extra != 0) {
                ++timing.injectedBackpressure;
                at += extra * pePeriod_;
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
                 side * state.expected[0] + index});
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
    timing.memFirst = MaxTick;
    timing.memLast = start;
    for (unsigned rank = 0; rank < topology_.numRanks(); ++rank) {
        const unsigned pe = topology_.leafPeOf(rank);
        const unsigned side = topology_.sideOf(rank);
        // Position of this rank's reads within the leaf input side: ranks
        // earlier in the same side contribute first (matches the
        // functional assembly order).
        std::size_t base = 0;
        for (unsigned r = 0; r < rank; ++r) {
            if (topology_.leafPeOf(r) == pe &&
                topology_.sideOf(r) == side) {
                base += prepared.rankReads[r].size();
            }
        }
        auto &side_reads = leaf_reads[pe][side];
        for (std::size_t i = 0; i < prepared.rankReads[rank].size();
             ++i) {
            const auto &read = prepared.rankReads[rank][i];
            const std::uint64_t flow = eq.beginFlow();
            const auto result = memory_.readAsync(
                read.address, vector_bytes, start,
                dram::Destination::Ndp,
                [&deliver, pe, side, pos = base + i](
                    Tick, const dram::AccessResult &) {
                    deliver(pe, side, pos, 0);
                });
            const std::size_t pos = base + i;
            if (side_reads.size() <= pos)
                side_reads.resize(pos + 1);
            side_reads[pos] =
                LeafRead{rank, result.firstData, result.complete, flow};
            timing.memFirst = std::min(timing.memFirst, result.firstData);
            timing.memLast = std::max(timing.memLast, result.complete);
        }
    }
    eq.setCurrentFlow(0);
    if (timing.memFirst == MaxTick)
        timing.memFirst = start;

    eq.run();

    for (unsigned pe = 1; pe <= num_pes; ++pe) {
        FAFNIR_ASSERT(pes[pe].emittedCount ==
                          run.trace[pe].outputs.size(),
                      "PE ", pe, " stalled: ", pes[pe].emittedCount, "/",
                      run.trace[pe].outputs.size(), " outputs emitted");
    }

    // --- Per-query completion and root-link serialization. --------------
    const std::size_t num_queries = prepared.querySets.size();
    std::vector<std::pair<Tick, QueryId>> finish_order;
    finish_order.reserve(num_queries);
    std::vector<Tick> query_ready(num_queries, start);
    for (QueryId q = 0; q < num_queries; ++q) {
        Tick tq = start;
        for (std::size_t k = 0; k < run.rootOutputs.size(); ++k) {
            if (run.rootOutputs[k].item.findQuery(q)) {
                FAFNIR_ASSERT(root_times[k] != MaxTick,
                              "root output never emitted");
                tq = std::max(tq, root_times[k]);
            }
        }
        tq += (run.rootItemsPerQuery[q] - 1) *
              config_.base.latency.reduceValue * pePeriod_;
        query_ready[q] = tq;
        finish_order.emplace_back(tq, q);
    }
    std::sort(finish_order.begin(), finish_order.end());

    const auto transfer_ticks = static_cast<Tick>(
        static_cast<double>(vector_bytes) / config_.base.rootLinkGBs *
        1000.0);
    Tick link_free = 0;
    timing.queryComplete.assign(num_queries, 0);
    std::vector<Tick> link_start(num_queries, 0);
    for (const auto &[ready, q] : finish_order) {
        link_start[q] = std::max(ready, link_free);
        const Tick done = link_start[q] + transfer_ticks;
        timing.queryComplete[q] =
            done + config_.base.hostReceiveOverhead;
        link_free = done;
    }
    timing.complete = link_free + config_.base.hostReceiveOverhead;

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
        const PeLatency &lat = config_.base.latency;
        struct Hop
        {
            unsigned pe;
            std::size_t out;
        };
        std::vector<Hop> path;
        for (QueryId q = 0; q < num_queries; ++q) {
            // Root output of q that bounds its tree time.
            std::size_t k_last = run.rootOutputs.size();
            Tick t_last = 0;
            for (std::size_t k = 0; k < run.rootOutputs.size(); ++k) {
                if (run.rootOutputs[k].item.findQuery(q) &&
                    (k_last == run.rootOutputs.size() ||
                     root_times[k] > t_last)) {
                    k_last = k;
                    t_last = root_times[k];
                }
            }
            if (k_last == run.rootOutputs.size())
                continue; // nothing reached the root for this query

            // Back-walk to the leaf, following binding arrivals.
            path.clear();
            unsigned pe = TreeTopology::rootPe();
            std::size_t k = k_last;
            unsigned leaf_side = 0;
            std::size_t leaf_index = 0;
            while (true) {
                path.push_back({pe, k});
                const TracedOutput &out = run.trace[pe].outputs[k];
                const Provenance *bind = nullptr;
                Tick best = 0;
                for (const Provenance &src : out.sources) {
                    const Tick t = pes[pe].arrival[src.side][src.index];
                    if (bind == nullptr || t > best) {
                        bind = &src;
                        best = t;
                    }
                }
                FAFNIR_ASSERT(bind != nullptr, "output without sources");
                if (topology_.heightOf(pe) == 0) {
                    leaf_side = bind->side;
                    leaf_index = bind->index;
                    break;
                }
                pe = 2 * pe + bind->side;
                k = bind->index;
            }
            const unsigned leaf_pe = path.back().pe;
            const LeafRead &lr =
                leaf_reads[leaf_pe][leaf_side][leaf_index];

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
                const TracedOutput &out =
                    run.trace[it->pe].outputs[it->out];
                const Cycles cycles =
                    (out.action == PeAction::Reduce ? lat.reducePath()
                                                    : lat.forwardPath()) +
                    lat.merge + link_cycles(it->pe);
                const Tick compute = cycles * pePeriod_;
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
        // merge at the root level.
        if (attr) {
            for (unsigned p = 1; p <= num_pes; ++p) {
                std::uint64_t reduces = 0;
                for (const auto &out : run.trace[p].outputs)
                    reduces += out.action == PeAction::Reduce;
                attr->recordMeeting(topology_.heightOf(p), reduces);
            }
            attr->recordMeeting(topology_.numLevels() - 1,
                                run.rootCombines);
        }
        // Per-PE meeting summary (bounded per batch, off the try_emit
        // hot path): code = PE id; a = tree height, b = reduce count.
        if (auto *rec = telemetry::flightRecorder()) {
            for (unsigned p = 1; p <= num_pes; ++p) {
                std::uint64_t reduces = 0;
                for (const auto &out : run.trace[p].outputs)
                    reduces += out.action == PeAction::Reduce;
                if (reduces > 0)
                    rec->record(telemetry::Stage::PeMeeting,
                                timing.complete, p,
                                topology_.heightOf(p), reduces);
            }
        }
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
