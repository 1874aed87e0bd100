/**
 * @file
 * Event-driven timing engine for Fafnir embedding lookup.
 *
 * Where FafnirEngine replays traces with a per-PE barrier (a PE's
 * outputs start after its last input arrives), this engine times the
 * tree as a pipeline in which every output leaves on its own inputs:
 *
 *  - Each DRAM completion delivers one flit to a leaf FIFO.
 *  - A PE emits its k-th output as soon as that output's provenance
 *    items have arrived, one output per issue cycle through the
 *    pipeline. A FORWARD also waits for the side opposite each of its
 *    sources to complete — "no match" is only knowable then — and
 *    leaves no earlier than that side's last arrival, which FIFO
 *    overflow or injected backpressure can put after the delivery
 *    event that completed it.
 *  - Readiness is counted, not scanned: each output keeps a count of
 *    its missing sources, each input a list of the outputs it feeds,
 *    and each side a list of the forwards parked until it completes.
 *    An arrival touches only the outputs it feeds and the forwards its
 *    side's completion releases, and emits the ones it made ready in
 *    ascending output index.
 *  - Finite input FIFOs (hwBatch entries per side): an arrival beyond
 *    capacity is charged an overflow penalty and counted, modelling the
 *    spill/double-buffer pressure of oversubscribed batches without
 *    deadlocking the pipeline.
 *
 * The tree is feed-forward: a PE's state changes only in its own
 * deliveries, it emits only inside them, and no PE stalls its child. So
 * the pipeline runs as one leaves-to-root sweep and schedules no event.
 * Each tree level's deliveries run in the order a discrete-event queue
 * would dispatch them: by tick, then in the order they would have been
 * scheduled, which is the order their triggers ran at the level below
 * and then emission order. Afterwards the engine moves the event queue's
 * clock to the last delivery tick, as if each delivery had been an event.
 *
 * This realizes the paper's "simultaneously activates distinct routes of
 * the tree from arbitrary leaves to the root": queries whose operands
 * arrive early reach the root before stragglers of other queries, which
 * the analytic engine's barriers cannot express. Read issue, path
 * latencies and the root-to-host links are the shared TreeReplay core.
 */

#ifndef FAFNIR_FAFNIR_EVENT_ENGINE_HH
#define FAFNIR_FAFNIR_EVENT_ENGINE_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/stats.hh"
#include "fafnir/engine.hh"

namespace fafnir::core
{

/** Event-driven engine configuration. */
struct EventEngineConfig
{
    EngineConfig base;
    /** Extra cycles charged to an arrival that overflows a PE FIFO. */
    Cycles overflowPenalty = 4;
    /** Record a per-PE timeline of deliveries and emissions. */
    bool recordTimeline = false;
    /** Compute the reduced query vectors and return them in
     *  EventLookupTiming::results (differential conformance checks). */
    bool computeValues = false;
    /** Reduce operator applied when computing values. */
    embedding::ReduceOp reduceOp = embedding::ReduceOp::Sum;
};

/** One observable pipeline event (for timelines/debugging). */
struct TimelineEvent
{
    Tick tick = 0;
    unsigned pe = 0;
    /** "deliver" or "emit". */
    const char *kind = "";
    /** Input position (deliver) or output position (emit). */
    std::size_t index = 0;

    /** Timeline order. */
    bool operator<(const TimelineEvent &o) const { return tick < o.tick; }
};

/** Timing plus pipeline-pressure observability. */
struct EventLookupTiming : LookupTiming
{
    /** Arrivals that found their FIFO side at or beyond capacity. */
    std::uint64_t fifoOverflows = 0;
    /** Outputs whose emission waited on the opposite side (forwards). */
    std::uint64_t forwardWaits = 0;
    /** Chronological pipeline events (when recordTimeline is set). */
    std::vector<TimelineEvent> timeline;
    /** Reduced query vectors (when computeValues is set). */
    std::vector<embedding::Vector> results;

    /** LookupTiming::appendSubBatch, plus the pressure counters, the
     *  timeline and the values. */
    void appendSubBatch(EventLookupTiming &&next);
};

/** Render a timeline as tab-separated text (tick, pe, kind, index). */
void writeTimeline(std::ostream &os,
                   const std::vector<TimelineEvent> &timeline);

/** Lifetime activity counters of one PE, accumulated across lookups. */
struct PeTelemetry
{
    Counter deliveries;
    Counter outputs;
    Counter reduces;
    Counter forwards;
    /** Ticks the PE's output port was occupied by emissions. */
    Counter busyTicks;
};

/** The event-driven Fafnir lookup model. */
class EventDrivenEngine
{
  public:
    /**
     * @param store when non-null, leaf items carry real vector values so
     *        computeValues runs can return the reduced query vectors.
     */
    EventDrivenEngine(dram::MemorySystem &memory,
                      const embedding::VectorLayout &layout,
                      const EventEngineConfig &config,
                      const embedding::EmbeddingStore *store = nullptr);

    /** Run one batch starting at @p start (TreeReplay::lookup). */
    EventLookupTiming
    lookup(const embedding::Batch &batch, Tick start)
    {
        return replay_.lookup(*this, batch, start);
    }

    /**
     * Run one pre-compiled batch as one hardware batch from @p start,
     * raised to the event clock (the previous batch's last delivery
     * tick), delivering no vector before @p min_complete — the serving
     * pipeline's entry, where host prepare happened upstream. Takes the
     * batch by reference: read scheduling reorders per-rank lists in
     * place (idempotently), and the caller keeps ownership of the value
     * buffers (the pipeline's per-slot arenas).
     */
    EventLookupTiming lookupPrepared(PreparedBatch &prepared, Tick start,
                                     Tick min_complete = 0);

    /** Run batches back to back (TreeReplay::lookupMany). Each starts at
     *  the event clock, so after the previous batch's last delivery, and
     *  leaves the root after the previous batch's complete. */
    std::vector<EventLookupTiming>
    lookupMany(const std::vector<embedding::Batch> &batches, Tick start)
    {
        return replay_.lookupMany(*this, batches, start);
    }

    const TreeTopology &topology() const { return replay_.topology(); }
    const EventEngineConfig &config() const { return config_; }

    /** Register per-PE counters and occupancy formulas into @p group. */
    void registerStats(StatGroup &group) const;

  private:
    /**
     * Pipeline state of one PE, rebuilt from its trace every batch into
     * storage the engine keeps. Inputs are numbered side-major: entry i
     * of side A is input i, entry i of side B is input inputs[0] + i.
     */
    struct PeState
    {
        /** Arrival tick per input; MaxTick = not arrived. */
        std::vector<Tick> arrival;
        /** Outputs fed by input i, ascending:
         *  consumers[consumerBegin[i] .. consumerBegin[i + 1]). */
        std::vector<std::uint32_t> consumerBegin;
        std::vector<std::uint32_t> consumers;
        /** Outputs still to consume each input (FIFO occupancy). */
        std::vector<std::uint32_t> remainingUses;
        /** Sources of each output that have not arrived yet. */
        std::vector<std::uint32_t> missing;
        /** Forwards whose sources have arrived, parked per side until
         *  that side completes. */
        std::array<std::vector<std::uint32_t>, 2> parked;
        std::array<std::size_t, 2> arrived{0, 0};
        /** Latest arrival tick per side. */
        std::array<Tick, 2> lastArrival{0, 0};
        std::array<std::size_t, 2> occupancy{0, 0};
        /** Emission tick per output; MaxTick = not emitted yet. */
        std::vector<Tick> emitTick;
        std::size_t emittedCount = 0;
        /** Output-port availability (one emission per issue interval). */
        Tick pipeFree = 0;
        /** Tick of the latest delivery processed. */
        Tick lastDelivery = 0;
    };
    /** One flit on its way into a PE input: a DRAM completion at a leaf,
     *  or a child's emission. */
    struct Delivery
    {
        /** Dispatch tick, event_delay included. */
        Tick tick;
        /** Causal flow of the read that started its chain. */
        std::uint64_t flow;
        unsigned pe;
        unsigned side;
        std::uint32_t index;
    };
    /** One batch's deliveries and emissions (event_engine.cc). */
    class Pipeline;

    dram::MemorySystem &memory_;
    TreeReplay replay_;
    EventEngineConfig config_;
    /** Indexed by PE id (entry 0 unused); reused across batches. */
    std::vector<PeState> pes_;
    /** Deliveries into the tree level being swept and into the level
     *  above it; reused across batches. */
    std::vector<Delivery> level_;
    std::vector<Delivery> above_;
    /** Indexed by PE id (entry 0 unused); never resized after build. */
    std::vector<PeTelemetry> peStats_;
    /** Simulated ticks covered by lookups (for occupancy formulas). */
    Counter activeTicks_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_EVENT_ENGINE_HH
