/**
 * @file
 * Functional evaluation of the reduction tree.
 *
 * Flows a prepared batch level by level from the leaves to the root and
 * combines the root outputs per query. The evaluator is the executable
 * specification of Fafnir's batch-processing mechanism (Figure 6): its
 * results are checked against the reference gather-reduce, and the timing
 * engine replays its per-PE traces with latencies attached.
 *
 * Root combine. PEs only reduce across their two inputs, so when several
 * vectors of one query enter the tree through the same subtree path they
 * can reach the root as multiple disjoint partial sums. The root's output
 * stage sums those partials (rootCombines counts them); with the paper's
 * one-vector-per-rank placement this is rare, and zero in the paper's
 * running example.
 */

#ifndef FAFNIR_FAFNIR_FUNCTIONAL_HH
#define FAFNIR_FAFNIR_FUNCTIONAL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/smallvec.hh"
#include "embedding/table.hh"
#include "fafnir/host.hh"
#include "fafnir/pe.hh"
#include "fafnir/pool.hh"
#include "fafnir/tree.hh"

namespace fafnir::core
{

/** What the timing engines read of one PE output. */
struct TracedOutput
{
    PeAction action = PeAction::Forward;
    /** Input entries the output depends on (Flit::sources). */
    SmallVec<Provenance, 4> sources;
    /** Ids of the queries the output carries (attribution tags). */
    SmallVec<QueryId, 2> queries;
};

/**
 * The shape of one PE's work on one batch: how many entries arrived on
 * each input and, per output in issue order, its action, sources and
 * query ids — what the timing engines replay with latencies attached.
 */
struct PeTrace
{
    /** Input list lengths, indexed by Provenance::side (0 = A). */
    std::array<std::size_t, 2> inputs{0, 0};
    std::vector<TracedOutput> outputs;
};

/** Result of evaluating one batch. */
struct TreeRun
{
    /** Number of root output items (post-merge). */
    std::size_t rootOutputs = 0;
    /** Reduced vector per query id; empty vectors in timing-only runs. */
    std::vector<embedding::Vector> results;
    /** Summed PE activity over the whole tree. */
    PeActivity total;
    /** Extra per-query summations applied at the root output stage. */
    std::size_t rootCombines = 0;
    /** Query → root-output index: the root outputs carrying each query
     *  (at least one), ascending, the order its partials combine in. */
    std::vector<SmallVec<std::uint32_t, 2>> rootOutputsOf;
    /** Largest post-merge output list of any PE (buffer occupancy). */
    std::size_t maxPeOutputs = 0;
    /** Value-buffer recycling counters for the evaluation's pool. */
    VectorPool::Stats poolStats;
    /** Per-PE traces, indexed by heap id; kept only when requested. */
    std::vector<PeTrace> trace;
};

/** Evaluates batches on a fixed topology. */
class FunctionalTree
{
  public:
    explicit FunctionalTree(const TreeTopology &topology)
        : topology_(topology)
    {}

    /**
     * Evaluate @p prepared.
     * @param values combine vector values (functional checking) or headers
     *        only (timing runs).
     * @param keep_trace retain per-PE traces for the timing engines.
     * @param op element-wise reduction operator (Mean is finalized at the
     *        root output stage).
     */
    TreeRun run(const PreparedBatch &prepared, bool values = true,
                bool keep_trace = false,
                embedding::ReduceOp op = embedding::ReduceOp::Sum) const;

    const TreeTopology &topology() const { return topology_; }

  private:
    TreeTopology topology_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_FUNCTIONAL_HH
