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

    /** Run one batch starting at @p start. */
    LookupTiming lookup(const embedding::Batch &batch, Tick start);

    /**
     * Run one pre-compiled batch starting at @p start (serving-pipeline
     * entry; prepare happened upstream). By reference: read scheduling
     * reorders the per-rank lists in place (idempotently); the caller
     * keeps ownership of the value buffers.
     */
    LookupTiming lookupPrepared(PreparedBatch &prepared, Tick start);

    /**
     * Run @p batches back to back (memory-pipelined: a batch's reads are
     * admitted as soon as the memory system can take them, and root
     * deliveries stay ordered). Returns the per-batch timings.
     */
    std::vector<LookupTiming>
    lookupMany(const std::vector<embedding::Batch> &batches, Tick start);

    const EngineConfig &config() const { return replay_.config(); }
    const TreeTopology &topology() const { return replay_.topology(); }

    /** Register cumulative engine counters with @p group. */
    void registerStats(StatGroup &group) const;

    /** @{ Cumulative counters across all lookups on this engine. */
    std::uint64_t servedBatches() const { return batches_.value(); }
    std::uint64_t servedQueries() const { return queries_.value(); }
    std::uint64_t issuedReads() const { return reads_.value(); }
    /** @} */

  private:
    LookupTiming runPrepared(PreparedBatch &prepared, Tick start,
                             Tick min_complete);

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
