/**
 * @file
 * Cycle-level timing engine for Fafnir embedding lookup.
 *
 * Reads flow through the DDR4 model into the leaf PEs (Destination::Ndp —
 * rank-internal buses, no channel-bus crossing), and TreeReplay replays
 * the functional evaluator's per-PE traces with Table-IV latencies behind
 * a per-PE barrier (outputs start once the PE's last input arrived). The
 * engine reports the Figure 11 latency breakdown (memory vs computation),
 * the Figure 13 throughput inputs, and the Figure 15 access counts.
 */

#ifndef FAFNIR_FAFNIR_ENGINE_HH
#define FAFNIR_FAFNIR_ENGINE_HH

#include <vector>

#include "common/stats.hh"
#include "fafnir/replay.hh"

namespace fafnir::core
{

/** Fafnir lookup accelerator model. */
class FafnirEngine
{
  public:
    FafnirEngine(dram::MemorySystem &memory,
                 const embedding::VectorLayout &layout,
                 const EngineConfig &config);

    /** Run one batch starting at @p start (TreeReplay::lookup). */
    LookupTiming
    lookup(const embedding::Batch &batch, Tick start)
    {
        return replay_.lookup(*this, batch, start);
    }

    /**
     * Run one pre-compiled batch as one hardware batch from @p start,
     * delivering no vector before @p min_complete (serving entry; prepare
     * happened upstream). By reference: read scheduling reorders the
     * per-rank lists in place (idempotently); the caller owns the values.
     */
    LookupTiming lookupPrepared(PreparedBatch &prepared, Tick start,
                                Tick min_complete = 0);

    /**
     * Run @p batches back to back (TreeReplay::lookupMany). Memory
     * pipelined: every batch's reads are issued at @p start and admitted
     * as soon as the memory system can take them.
     */
    std::vector<LookupTiming>
    lookupMany(const std::vector<embedding::Batch> &batches, Tick start)
    {
        return replay_.lookupMany(*this, batches, start);
    }

    const EngineConfig &config() const { return replay_.config(); }
    const TreeTopology &topology() const { return replay_.topology(); }

    /** Register cumulative engine counters with @p group. */
    void registerStats(StatGroup &group) const;

    /** @{ Cumulative counters across all lookups on this engine. */
    std::uint64_t servedQueries() const { return queries_.value(); }
    std::uint64_t issuedReads() const { return reads_.value(); }
    /** @} */

  private:
    dram::MemorySystem &memory_;
    TreeReplay replay_;

    Counter batches_;
    Counter queries_;
    Counter reads_;
    Counter reduces_;
    Counter forwards_;
    Counter rootCombines_;
    Counter bufferOverflows_;
    Counter dramPayloadBytes_;
    Counter linkPayloadBytes_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_ENGINE_HH
