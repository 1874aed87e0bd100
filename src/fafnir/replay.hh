/**
 * @file
 * The tree-replay core both timing engines own.
 *
 * Reads land on leaf PEs, every PE output pays its action, merge and
 * inter-chip-hop latency, and finished vectors leave over c root-to-host
 * links (Section IV-A). TreeReplay tells that story once and is the only
 * reader of EngineConfig's latency and link fields; the engines differ
 * only in PE readiness (FafnirEngine: a per-PE barrier; EventDrivenEngine:
 * each output once its own sources have arrived).
 */

#ifndef FAFNIR_FAFNIR_REPLAY_HH
#define FAFNIR_FAFNIR_REPLAY_HH

#include <algorithm>
#include <array>
#include <vector>

#include "dram/memsystem.hh"
#include "embedding/layout.hh"
#include "fafnir/functional.hh"
#include "fafnir/scheduler.hh"

namespace fafnir::core
{

/** Engine parameters. */
struct EngineConfig
{
    PeLatency latency;
    /** PE clock (the paper's FPGA implementation runs at 200 MHz). */
    double peClockMhz = 200.0;
    /** Root-to-host link bandwidth for result vectors. */
    double rootLinkGBs = 25.6;
    /** Parallel root-to-host links (the `c` of Section IV-A's
     *  (2m-2)+c connection count — one per consuming core). */
    unsigned hostLinks = 1;
    /** Host-side cost of landing one finished query vector (a single
     *  well-known attach point, cheaper than scattered NDP partials). */
    Tick hostReceiveOverhead = 20 * kTicksPerNs;
    /** Read each unique index once (Section IV-C mechanism). */
    bool dedup = true;
    /**
     * Hardware batch capacity B (buffer entries and compute units per PE,
     * Table I). Both engines' lookup and lookupMany serve a larger
     * software batch as several hardware sub-batches (Section IV-B);
     * lookupPrepared runs its batch as one hardware batch.
     */
    unsigned hwBatch = 32;
    /** Tree scale: ranks per leaf PE (1, 2, or 4 per Section IV-B). */
    unsigned ranksPerLeafPe = 2;
    /**
     * Extra cycles when a flit crosses between fabricated chips — from a
     * DIMM/rank node's top PE to the channel node (Figure 4a's physical
     * packaging). Intra-chip hops are free beyond the PE pipeline.
     */
    Cycles interNodeLinkCycles = 2;
    /** Tree levels contained in the channel-node chip (log2 channels). */
    unsigned channelNodeLevels = 2;
    /** Per-rank read issue order at the root's request decoder. */
    ReadOrder readOrder = ReadOrder::InOrder;
    /**
     * Interactive processing (Section IV-C): PEs skip the batch
     * comparisons (compare = 0), and lookup and lookupMany serve the
     * queries one at a time, with no cross-query dedup at the host.
     */
    bool interactive = false;
    /**
     * Transport payload encoding. Non-fp32 formats shrink every DRAM
     * read and PE-link/root-link transfer to the format's byte width
     * (and round-trip leaf values through the quantizer — see
     * PreparedBatch::payload); fp32 is the exact path and the default.
     */
    embedding::PayloadFormat payload = embedding::PayloadFormat::Fp32;
};

/** Timing of one batch lookup. */
struct LookupTiming
{
    Tick issued = 0;
    /** First data beat delivered by DRAM. */
    Tick memFirst = 0;
    /** Last vector fully gathered from DRAM. */
    Tick memLast = 0;
    /** Last query vector delivered to the host. */
    Tick complete = 0;
    std::size_t memAccesses = 0;
    std::size_t uniqueCount = 0;
    std::size_t totalReferences = 0;
    std::size_t rootCombines = 0;
    std::size_t maxPeOutputs = 0;
    /** Hardware batches whose peak PE occupancy exceeded hwBatch (see
     *  DESIGN.md §7; counted, not split). */
    std::size_t bufferOverflows = 0;
    /** Payload encoding the batch travelled in. */
    embedding::PayloadFormat payload = embedding::PayloadFormat::Fp32;
    /** Modelled payload bytes read from DRAM (accesses x format width). */
    std::uint64_t dramPayloadBytes = 0;
    /** Modelled payload bytes over PE links and the root-to-host link
     *  (one vector payload per traced PE output). */
    std::uint64_t linkPayloadBytes = 0;
    PeActivity activity;
    /** Completion tick of each query. */
    std::vector<Tick> queryComplete;

    /** Fold in the next hardware sub-batch of the same software batch,
     *  whose queries follow this timing's. */
    void appendSubBatch(const LookupTiming &next);

    Tick memoryTime() const { return memLast - issued; }
    Tick computeTime() const { return complete - memLast; }
    Tick totalTime() const { return complete - issued; }
};

/** The state and timing rules both engines' tree replays share. */
class TreeReplay
{
  public:
    /** An interactive @p config replays with compare = 0 (§IV-C). */
    TreeReplay(const dram::MemorySystem &memory,
               const embedding::VectorLayout &layout,
               const EngineConfig &config,
               const embedding::EmbeddingStore *store = nullptr);

    const EngineConfig &config() const { return config_; }
    const TreeTopology &topology() const { return topology_; }
    Tick pePeriod() const { return pePeriod_; }

    /**
     * Both engines' lookup: serve @p batch on @p engine from @p start,
     * delivering no vector before @p min_complete. A batch above hwBatch,
     * or any batch in interactive mode, runs as hardware sub-batches that
     * prepare and dedup on their own. Each starts at the previous one's
     * memLast (the event engine raises a start to its event clock) and
     * delivers after its complete. Engine::lookupPrepared replays one
     * hardware batch.
     */
    template <typename Engine>
    auto
    lookup(Engine &engine, const embedding::Batch &batch, Tick start,
           Tick min_complete = 0) const
    {
        const std::size_t capacity =
            config_.interactive ? 1 : config_.hwBatch;
        if (batch.size() <= capacity) {
            PreparedBatch prepared = prepare(batch);
            return engine.lookupPrepared(prepared, start, min_complete);
        }
        const auto serve = [&](std::size_t first) {
            embedding::Batch sub;
            sub.queries.assign(
                batch.queries.begin() + first,
                batch.queries.begin() +
                    std::min(batch.size(), first + capacity));
            for (std::size_t i = 0; i < sub.size(); ++i)
                sub.queries[i].id = static_cast<QueryId>(i);
            PreparedBatch prepared = prepare(sub);
            auto timing = engine.lookupPrepared(prepared, start, min_complete);
            start = timing.memLast;
            min_complete = timing.complete;
            return timing;
        };
        auto merged = serve(0);
        for (std::size_t first = capacity; first < batch.size();
             first += capacity) {
            merged.appendSubBatch(serve(first));
        }
        return merged;
    }

    /** Serve @p batches back to back from @p start: each batch's vectors
     *  leave the root after the previous batch's complete. */
    template <typename Engine>
    auto
    lookupMany(Engine &engine, const std::vector<embedding::Batch> &batches,
               Tick start) const
    {
        std::vector<decltype(lookup(engine, batches.front(), start))> timings;
        timings.reserve(batches.size());
        Tick min_complete = 0;
        for (const embedding::Batch &batch : batches) {
            timings.push_back(lookup(engine, batch, start, min_complete));
            min_complete = timings.back().complete;
        }
        return timings;
    }

    /** Host prepare under the configured dedup and payload. */
    PreparedBatch
    prepare(const embedding::Batch &batch) const
    {
        return host_.prepare(batch, config_.dedup, config_.payload);
    }

    /** Transport bytes of one vector under the batch's payload format. */
    unsigned
    vectorBytes(const PreparedBatch &prepared) const
    {
        return static_cast<unsigned>(
            prepared.vectorPayloadBytes(layout_.tables().dim()));
    }

    /** Functional evaluation with the per-PE traces replay reads; fills
     *  @p timing's header (issued = @p start, work counts, payload). */
    TreeRun run(const PreparedBatch &prepared, Tick start,
                LookupTiming &timing, bool values = false,
                embedding::ReduceOp op = embedding::ReduceOp::Sum) const;

    /**
     * Issue every read in rank-ascending, in-list order (the order the
     * functional tree assembles leaf inputs in) and set memFirst/memLast.
     * @p read(r, rank, pe, side, pos) performs read r, input @p pos of
     * leaf @p pe's @p side, and returns its dram::AccessResult.
     */
    template <typename Read>
    void
    issueReads(const PreparedBatch &prepared, Tick start,
               LookupTiming &timing, Read &&read) const
    {
        // Next input position per leaf side; earlier ranks come first.
        std::vector<std::array<std::size_t, 2>> next(topology_.numPes() + 1);
        timing.memFirst = MaxTick;
        timing.memLast = start;
        for (unsigned rank = 0; rank < topology_.numRanks(); ++rank) {
            const unsigned pe = topology_.leafPeOf(rank);
            const unsigned side = topology_.sideOf(rank);
            for (const RankRead &r : prepared.rankReads[rank]) {
                const dram::AccessResult result =
                    read(r, rank, pe, side, next[pe][side]++);
                timing.memFirst = std::min(timing.memFirst, result.firstData);
                timing.memLast = std::max(timing.memLast, result.complete);
            }
        }
        if (timing.memFirst == MaxTick)
            timing.memFirst = start;
    }

    /** First PE clock edge at or after @p t. */
    Tick
    align(Tick t) const
    {
        const Tick rem = t % pePeriod_;
        return rem == 0 ? t : t + (pePeriod_ - rem);
    }

    /** Latency of one output of @p pe: action, merge pass and, leaving a
     *  DIMM/rank node, the inter-chip hop. */
    Tick pathTicks(unsigned pe, PeAction action) const;
    /** Output-port occupancy of one emission. */
    Tick issueTicks() const { return config_.latency.issue * pePeriod_; }

    /** Each query's root readiness: its last root output (@p root_times
     *  per root output), plus one value reduce per extra partial. */
    std::vector<Tick> queryReady(const TreeRun &run,
                                 const std::vector<Tick> &root_times,
                                 Tick start) const;

    /** Serve finished vectors over the root-to-host links, in ready
     *  order from @p min_complete; sets queryComplete and complete.
     *  Returns each query's link start. */
    std::vector<Tick> hostTail(const std::vector<Tick> &ready,
                               unsigned vector_bytes, Tick min_complete,
                               LookupTiming &timing) const;

  private:
    const embedding::VectorLayout &layout_;
    EngineConfig config_;
    TreeTopology topology_;
    Host host_;
    FunctionalTree tree_;
    Tick pePeriod_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_REPLAY_HH
