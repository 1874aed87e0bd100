/**
 * @file
 * Implementation of the event-driven Fafnir engine.
 */

#include "event_engine.hh"

#include <algorithm>
#include <array>
#include <iterator>
#include <ostream>
#include <string>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/attribution.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir::core
{

namespace
{

/** One leaf input's originating DRAM read, per (pe, side, position). */
struct LeafRead
{
    unsigned rank = 0;
    Tick firstData = 0;
    Tick complete = 0;
    std::uint64_t flow = 0;
};

/** Service-track thread for per-query delivery spans (2 is the
 *  ServiceGuard row). */
constexpr int kServiceDeliveryTid = 3;

/** Side-major input number of @p src within its PE. */
std::size_t
inputOf(const PeTrace &trace, const Provenance &src)
{
    return src.side == 0 ? src.index : trace.inputs[0] + src.index;
}

} // namespace

/**
 * The pipeline dynamics of one batch: deliveries arrive at PE inputs,
 * and each arrival emits the outputs it made ready. The sweep runs the
 * tree one level at a time from the leaves, and each emission is filed
 * as a delivery into the level above.
 */
class EventDrivenEngine::Pipeline
{
  public:
    Pipeline(EventDrivenEngine &engine, const TreeRun &run,
             EventLookupTiming &timing, Tick start)
        : engine_(engine), replay_(engine.replay_),
          topology_(replay_.topology()), run_(run), timing_(timing),
          start_(start), delays_(engine.memory_.eventq().faultPlan()),
          ts_(telemetry::sink()), rootTimes_(run.rootOutputs, MaxTick)
    {
        const unsigned num_pes = topology_.numPes();
        engine_.pes_.resize(num_pes + 1);
        for (unsigned pe = 1; pe <= num_pes; ++pe)
            reset(engine_.pes_[pe], run.trace[pe]);
    }

    /** File the completion of the read behind input @p index of leaf
     *  @p pe's @p side. Reads are filed in issue order. */
    void
    fileRead(Tick complete, unsigned pe, unsigned side, std::size_t index,
             std::uint64_t flow)
    {
        engine_.level_.push_back({delayed(complete), flow, pe, side,
                                  static_cast<std::uint32_t>(index)});
    }

    /** Deliver every filed read and everything it leads to, leaves to
     *  root. @return the last delivery tick, or @p last if later. */
    Tick sweep(Tick last);

    /** Emission tick of each root output (MaxTick = not emitted). */
    const std::vector<Tick> &rootTimes() const { return rootTimes_; }

  private:
    /** One change of a tree level's buffered-item count. */
    struct OccupancyStep
    {
        Tick tick;
        unsigned height;
        int delta;
    };

    /** Rebuild @p state's readiness structures from @p trace. */
    void reset(PeState &state, const PeTrace &trace) const;
    /** Process @p delivery at its tick (plus stalls). */
    void deliver(const Delivery &delivery);
    /** Emit output @p k of @p pe, whose readiness holds now. */
    void emit(unsigned pe, std::uint32_t k);
    /** @p at plus the event_delay jitter the event queue would draw for
     *  a delivery scheduled there (advances the hook's stream). */
    Tick
    delayed(Tick at)
    {
        return delays_ != nullptr ? at + delays_->eventDelayTicks() : at;
    }
    /** Level-occupancy step for the trace (no-op without a sink). */
    void occupancyChanged(unsigned pe, int delta, Tick at);
    /** Write the batch's level-occupancy counter tracks. */
    void writeOccupancy();

    EventDrivenEngine &engine_;
    const TreeReplay &replay_;
    const TreeTopology &topology_;
    const TreeRun &run_;
    EventLookupTiming &timing_;
    const Tick start_;
    /** Plan whose event_delay hook times deliveries (nullptr = none). */
    fault::FaultPlan *const delays_;
    telemetry::TraceSink *const ts_;
    /** The delivery being processed: its tick and causal flow. */
    Tick now_ = 0;
    std::uint64_t flow_ = 0;
    /** Level-occupancy steps in processing order (only when tracing). */
    std::vector<OccupancyStep> occupancy_;
    std::vector<Tick> rootTimes_;
    /** Outputs one arrival made ready (scratch). */
    std::vector<std::uint32_t> ready_;
};

Tick
EventDrivenEngine::Pipeline::sweep(Tick last)
{
    // The tree is complete, so the k-th list holds exactly the
    // deliveries into height k. Every delivery into one level has the
    // same queue priority, so a discrete-event queue would run a level's
    // deliveries by tick, then in the order it scheduled them. Each list
    // holds them in that order: the reads in issue order, and the
    // emissions in the order the level below ran their triggers and
    // emitted them. A stable sort by tick therefore gives every PE its
    // queue order.
    std::vector<Delivery> &level = engine_.level_;
    while (!level.empty()) {
        std::stable_sort(level.begin(), level.end(),
                         [](const Delivery &a, const Delivery &b) {
                             return a.tick < b.tick;
                         });
        last = std::max(last, level.back().tick);
        for (const Delivery &delivery : level)
            deliver(delivery);
        level.swap(engine_.above_);
        engine_.above_.clear();
    }
    writeOccupancy();
    return last;
}

void
EventDrivenEngine::Pipeline::reset(PeState &state,
                                   const PeTrace &trace) const
{
    const std::size_t inputs = trace.inputs[0] + trace.inputs[1];
    const std::size_t outputs = trace.outputs.size();
    state.arrival.assign(inputs, MaxTick);
    state.remainingUses.assign(inputs, 0);
    state.missing.resize(outputs);
    for (std::size_t k = 0; k < outputs; ++k) {
        const TracedOutput &out = trace.outputs[k];
        FAFNIR_ASSERT(!out.sources.empty(), "output without sources");
        state.missing[k] = static_cast<std::uint32_t>(out.sources.size());
        for (const Provenance &src : out.sources)
            ++state.remainingUses[inputOf(trace, src)];
    }
    // Consumer lists: offsets from the use counts, then a fill in
    // ascending output order that advances each offset to the next
    // list's start, shifted back down by one.
    state.consumerBegin.resize(inputs + 1);
    std::uint32_t total = 0;
    for (std::size_t i = 0; i < inputs; ++i) {
        state.consumerBegin[i] = total;
        total += state.remainingUses[i];
    }
    state.consumerBegin[inputs] = total;
    state.consumers.resize(total);
    for (std::size_t k = 0; k < outputs; ++k) {
        for (const Provenance &src : trace.outputs[k].sources) {
            state.consumers[state.consumerBegin[inputOf(trace, src)]++] =
                static_cast<std::uint32_t>(k);
        }
    }
    for (std::size_t i = inputs; i > 0; --i)
        state.consumerBegin[i] = state.consumerBegin[i - 1];
    state.consumerBegin[0] = 0;

    state.parked[0].clear();
    state.parked[1].clear();
    state.arrived = {0, 0};
    state.lastArrival = {0, 0};
    state.occupancy = {0, 0};
    state.emitTick.assign(outputs, MaxTick);
    state.emittedCount = 0;
    state.pipeFree = start_;
    state.lastDelivery = start_;
}

void
EventDrivenEngine::Pipeline::occupancyChanged(unsigned pe, int delta,
                                              Tick at)
{
    if (ts_)
        occupancy_.push_back({at, topology_.heightOf(pe), delta});
}

void
EventDrivenEngine::Pipeline::writeOccupancy()
{
    if (!ts_)
        return;
    // A slot fills at its delivery's tick but frees at its last use's
    // emission tick, which a later delivery can precede; so each level's
    // steps are put in tick order before they are summed. Same-tick
    // steps keep processing order, where a fill precedes its frees.
    std::stable_sort(occupancy_.begin(), occupancy_.end(),
                     [](const OccupancyStep &a, const OccupancyStep &b) {
                         return a.height != b.height ? a.height < b.height
                                                     : a.tick < b.tick;
                     });
    std::string name;
    std::int64_t value = 0;
    for (std::size_t i = 0; i < occupancy_.size(); ++i) {
        const OccupancyStep &step = occupancy_[i];
        if (i == 0 || step.height != occupancy_[i - 1].height) {
            name = "tree.occupancy.h" + std::to_string(step.height);
            value = 0;
        }
        value += step.delta;
        ts_->counterEvent(telemetry::kPidTree, name, step.tick,
                          static_cast<double>(value));
    }
}

void
EventDrivenEngine::Pipeline::deliver(const Delivery &delivery)
{
    const unsigned pe = delivery.pe;
    const unsigned side = delivery.side;
    PeState &state = engine_.pes_[pe];
    const PeTrace &trace = run_.trace[pe];
    FAFNIR_ASSERT(delivery.index < trace.inputs[side],
                  "delivery beyond expected inputs");
    FAFNIR_ASSERT(delivery.tick >= state.lastDelivery, "PE ", pe,
                  " went back in time: ", delivery.tick, " < ",
                  state.lastDelivery);
    now_ = state.lastDelivery = delivery.tick;
    flow_ = delivery.flow;
    Tick at = now_;
    ++state.occupancy[side];
    ++engine_.peStats_[pe].deliveries;
    occupancyChanged(pe, 1, at);
    if (state.occupancy[side] > replay_.config().hwBatch) {
        ++timing_.fifoOverflows;
        at += engine_.config_.overflowPenalty * replay_.pePeriod();
    }
    // Injected backpressure (pe_backpressure hook): the arrival
    // stalls as if the FIFO had no free slot, mirroring the organic
    // overflow penalty above. Timing-only — values are untouched.
    if (fault::FaultPlan *p = fault::plan(); p != nullptr) {
        if (const Cycles extra = p->peBackpressureCycles(); extra != 0) {
            at += extra * replay_.pePeriod();
            if (ts_) {
                ts_->instantEvent(telemetry::kPidTree,
                                  static_cast<int>(pe), "fault",
                                  "pe_backpressure", at,
                                  {{"cycles", static_cast<double>(extra)}});
            }
        }
    }
    const std::size_t input = side * trace.inputs[0] + delivery.index;
    FAFNIR_ASSERT(state.arrival[input] == MaxTick, "duplicate delivery");
    state.arrival[input] = at;
    state.lastArrival[side] = std::max(state.lastArrival[side], at);
    ++state.arrived[side];
    if (engine_.config_.recordTimeline)
        timing_.timeline.push_back({at, pe, "deliver", input});

    // A forward also waits for the side opposite each of its sources:
    // the first such side still incomplete, or -1.
    const auto waiting_side = [&](const TracedOutput &out) {
        for (const Provenance &src : out.sources) {
            const unsigned other = 1 - src.side;
            if (state.arrived[other] < trace.inputs[other])
                return static_cast<int>(other);
        }
        return -1;
    };
    ready_.clear();
    for (std::uint32_t c = state.consumerBegin[input];
         c < state.consumerBegin[input + 1]; ++c) {
        const std::uint32_t k = state.consumers[c];
        if (--state.missing[k] != 0)
            continue;
        const TracedOutput &out = trace.outputs[k];
        if (out.action == PeAction::Forward) {
            if (const int wait = waiting_side(out); wait >= 0) {
                state.parked[wait].push_back(k);
                ++timing_.forwardWaits;
                continue;
            }
        }
        ready_.push_back(k);
    }
    if (state.arrived[side] == trace.inputs[side] &&
        !state.parked[side].empty()) {
        // This side just completed: release the forwards parked on it.
        // One that also waits on the other side moves there.
        for (const std::uint32_t k : state.parked[side]) {
            if (const int wait = waiting_side(trace.outputs[k]); wait >= 0)
                state.parked[wait].push_back(k);
            else
                ready_.push_back(k);
        }
        state.parked[side].clear();
        std::sort(ready_.begin(), ready_.end());
    }
    for (const std::uint32_t k : ready_)
        emit(pe, k);
}

void
EventDrivenEngine::Pipeline::emit(unsigned pe, std::uint32_t k)
{
    PeState &state = engine_.pes_[pe];
    const PeTrace &trace = run_.trace[pe];
    const TracedOutput &out = trace.outputs[k];

    Tick ready = start_;
    for (const Provenance &src : out.sources)
        ready = std::max(ready, state.arrival[inputOf(trace, src)]);
    Tick at = replay_.align(ready) + replay_.pathTicks(pe, out.action);
    at = std::max(at, state.pipeFree);
    // The emit decision is made now (e.g., a forward that was waiting
    // for the opposite side to complete).
    at = std::max(at, now_);
    // A forward's "no match" is certain only once the opposite side's
    // last entry has arrived, which a stalled delivery puts after now.
    if (out.action == PeAction::Forward) {
        for (const Provenance &src : out.sources)
            at = std::max(at, state.lastArrival[1 - src.side]);
    }
    const Tick issue_ticks = replay_.issueTicks();
    state.pipeFree = at + issue_ticks;

    // Consume inputs; free FIFO slots at last use.
    for (const Provenance &src : out.sources) {
        std::uint32_t &uses = state.remainingUses[inputOf(trace, src)];
        FAFNIR_ASSERT(uses > 0, "provenance double-free");
        if (--uses == 0) {
            --state.occupancy[src.side];
            occupancyChanged(pe, -1, at);
        }
    }

    FAFNIR_ASSERT(state.emitTick[k] == MaxTick, "output emitted twice");
    state.emitTick[k] = at;
    ++state.emittedCount;
    PeTelemetry &activity = engine_.peStats_[pe];
    ++activity.outputs;
    const bool is_reduce = out.action == PeAction::Reduce;
    if (is_reduce)
        ++activity.reduces;
    else
        ++activity.forwards;
    activity.busyTicks += issue_ticks;
    if (ts_) {
        // Tagged with the item's originating query ids and the causal
        // flow of the arrival that unblocked it.
        const auto &qids = out.queries;
        ts_->completeEvent(
            telemetry::kPidTree, static_cast<int>(pe), "pe",
            is_reduce ? "reduce" : "forward", at, issue_ticks,
            {{"queries", static_cast<double>(qids.size())},
             {"q0", qids.empty() ? -1.0 : static_cast<double>(qids[0])},
             {"flow", static_cast<double>(flow_)}});
    }
    if (engine_.config_.recordTimeline)
        timing_.timeline.push_back({at, pe, "emit", k});

    if (pe == TreeTopology::rootPe()) {
        rootTimes_[k] = at;
    } else {
        // Children's outputs land in the parent's input list in trace
        // order.
        engine_.above_.push_back({delayed(at), flow_, topology_.parent(pe),
                                  pe % 2 == 0 ? 0u : 1u, k});
    }
}

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

EventLookupTiming
EventDrivenEngine::lookupPrepared(PreparedBatch &prepared, Tick start,
                                  Tick min_complete)
{
    const TreeTopology &topology = replay_.topology();
    const unsigned num_pes = topology.numPes();
    const unsigned vector_bytes = replay_.vectorBytes(prepared);
    EventQueue &eq = memory_.eventq();
    // The event clock only moves forward; an earlier logical start would
    // time deliveries in the past.
    start = std::max(start, eq.now());

    scheduleReads(prepared, replay_.config().readOrder, memory_.mapper());
    EventLookupTiming timing;
    TreeRun run = replay_.run(prepared, start, timing,
                              config_.computeValues, config_.reduceOp);

    Pipeline pipeline(*this, run, timing, start);

    // --- Timeline tracing (no-ops when no sink is installed). -----------
    telemetry::TraceSink *ts = telemetry::sink();
    telemetry::Attribution *attr = telemetry::attribution();
    telemetry::FlightRecorder *rec = telemetry::flightRecorder();
    const std::uint64_t batch_ordinal = attr ? attr->beginBatch() : 0;
    if (ts) {
        for (unsigned pe = 1; pe <= num_pes; ++pe) {
            ts->setThreadName(
                telemetry::kPidTree, static_cast<int>(pe),
                "PE " + std::to_string(pe) + " (h" +
                    std::to_string(topology.heightOf(pe)) + ")");
        }
    }

    // --- Issue the DRAM reads, then sweep the tree. ----------------------
    // Each read starts a fresh causal flow, and its completion carries
    // the flow id up the tree: every delivery it leads to and every PE
    // span it causes is tagged with it. The reads themselves are kept
    // only for the critical-path walk below.
    const bool attributing = attr || ts || rec;
    std::vector<std::array<std::vector<LeafRead>, 2>> leaf_reads(
        attributing ? num_pes + 1 : 0);
    replay_.issueReads(
        prepared, start, timing,
        [&](const RankRead &read, unsigned rank, unsigned pe, unsigned side,
            std::size_t pos) {
            const std::uint64_t flow = eq.beginFlow();
            const dram::AccessResult result = memory_.read(
                read.address, vector_bytes, start, dram::Destination::Ndp);
            pipeline.fileRead(result.complete, pe, side, pos, flow);
            if (attributing) {
                leaf_reads[pe][side].push_back(LeafRead{
                    rank, result.firstData, result.complete, flow});
            }
            return result;
        });
    eq.setCurrentFlow(0);

    // Leave the clock at the last delivery tick, where the next batch
    // is admitted (its start is raised to eq.now() above).
    eq.advanceTo(pipeline.sweep(eq.now()));

    for (unsigned pe = 1; pe <= num_pes; ++pe) {
        FAFNIR_ASSERT(pes_[pe].emittedCount ==
                          run.trace[pe].outputs.size(),
                      "PE ", pe, " stalled: ", pes_[pe].emittedCount, "/",
                      run.trace[pe].outputs.size(), " outputs emitted");
    }

    // --- Per-query completion and the root-to-host links. ---------------
    const std::vector<Tick> &root_times = pipeline.rootTimes();
    const auto query_ready = replay_.queryReady(run, root_times, start);
    const std::vector<Tick> link_start =
        replay_.hostTail(query_ready, vector_bytes, min_complete, timing);

    // --- Causal attribution: walk each query's critical path. -----------
    //
    // The path runs backwards from the query's last root output through
    // the maximum-arrival ("binding") source at every PE down to a leaf
    // input, i.e. to one DRAM read. Each hop's interval [previous stage
    // end, emission] splits exactly into pipeline compute and waiting,
    // so the recorded components sum to the end-to-end latency by
    // construction (pinned by tests/test_attribution.cc).
    if (attributing) {
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
                    const Tick t =
                        pes_[pe].arrival[inputOf(run.trace[pe], src)];
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
                const Tick emit = pes_[it->pe].emitTick[it->out];
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
                                 label, pes_[it->pe].emitTick[it->out]);
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

    std::sort(timing.timeline.begin(), timing.timeline.end());
    return timing;
}

void
EventLookupTiming::appendSubBatch(EventLookupTiming &&next)
{
    LookupTiming::appendSubBatch(next);
    fifoOverflows += next.fifoOverflows;
    forwardWaits += next.forwardWaits;
    const auto mid = timeline.insert(timeline.end(), next.timeline.begin(),
                                     next.timeline.end());
    std::inplace_merge(timeline.begin(), mid, timeline.end());
    results.insert(results.end(),
                   std::make_move_iterator(next.results.begin()),
                   std::make_move_iterator(next.results.end()));
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
