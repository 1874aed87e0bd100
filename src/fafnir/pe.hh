/**
 * @file
 * Processing element: the node of the Fafnir reduction tree.
 *
 * A PE (Figure 5) has two input FIFO buffers, A and B, a bank of compute
 * units, and a merge unit. For each buffered item it decides, per query in
 * the item's header, whether to REDUCE it with a matching item of the
 * opposite input (concatenating `indices` fields, which shrinks that
 * query's residual) or to FORWARD it unchanged. The merge unit then (a)
 * eliminates redundant identical outputs and (b) merges outputs that carry
 * the same value — equal `indices` sets — by concatenating their `queries`
 * fields, which is what bounds the output count by the batch size.
 *
 * Pairing policy. The paper compares every element of one input against
 * all elements of the other. When a query has several candidate partners
 * (two of its vectors arrived on the same side), an all-pairs reduce would
 * double-count values, so the compute units pair the i-th matching entry
 * of A with the i-th matching entry of B per query; unpaired entries are
 * forwarded. This keeps every query's in-flight items disjoint partial
 * sums — the invariant the root combiner relies on.
 *
 * Output order. Outputs leave in ascending order of their `indices` set,
 * and each output's query ids and sources are those of its first raw
 * output followed by the ones folded into it, in raw order (queries
 * ascending). The analytic engine gives output k the k-th issue slot and
 * the event engine scans outputs in index order, so this order sets the
 * emission ticks.
 *
 * Headers are interned in a HeaderTable (headers.hh) that all PEs of
 * one evaluation share, so the PE compares, unites and orders `indices`
 * fields by id.
 */

#ifndef FAFNIR_FAFNIR_PE_HH
#define FAFNIR_FAFNIR_PE_HH

#include <cstdint>
#include <vector>

#include "common/smallvec.hh"
#include "common/types.hh"
#include "embedding/quantize.hh"
#include "embedding/table.hh"
#include "fafnir/headers.hh"
#include "fafnir/indexset.hh"

namespace fafnir::core
{

class VectorPool;

/**
 * Latencies of the compute-unit components in PE cycles (the paper's
 * Table IV, 200 MHz FPGA implementation). Reduce and forward are parallel
 * paths; the per-item critical path is compare + the action.
 */
struct PeLatency
{
    Cycles compare = 1;
    Cycles reduceValue = 2;
    Cycles reduceHeader = 1;
    Cycles forward = 1;
    /** Merge-unit pass over the raw outputs. */
    Cycles merge = 1;
    /** Output initiation interval (pipelined, one item per cycle). */
    Cycles issue = 1;

    Cycles
    reducePath() const
    {
        return compare + std::max(reduceValue, reduceHeader);
    }

    Cycles forwardPath() const { return compare + forward; }
};

/** What happened to produce one output item (drives timing and stats). */
enum class PeAction : std::uint8_t
{
    Reduce,
    Forward,
};

/** Per-PE activity counters for one batch. */
struct PeActivity
{
    std::uint64_t compares = 0;
    std::uint64_t reduces = 0;
    std::uint64_t forwards = 0;
    /** Outputs dropped as exact duplicates by the merge unit. */
    std::uint64_t duplicatesDropped = 0;
    /** Header concatenations performed by the merge unit. */
    std::uint64_t headersMerged = 0;
    /**
     * Compressed-payload codec work at the meeting logic (non-fp32
     * formats only): a reduce dequantizes both operands and requantizes
     * the combined output for the uplink; a forward passes codes
     * through untouched. The functional values stay the exact fp32
     * partials of the leaf round-trip (see embedding/quantize.hh) —
     * these counters drive the byte/energy model, not the arithmetic.
     */
    std::uint64_t dequants = 0;
    std::uint64_t requants = 0;

    PeActivity &
    operator+=(const PeActivity &other)
    {
        compares += other.compares;
        reduces += other.reduces;
        forwards += other.forwards;
        duplicatesDropped += other.duplicatesDropped;
        headersMerged += other.headersMerged;
        dequants += other.dequants;
        requants += other.requants;
        return *this;
    }
};

/** Which input buffer entry contributed to an output. */
struct Provenance
{
    /** 0 = input A, 1 = input B. */
    std::uint32_t side : 1 = 0;
    /** Position within that input list. */
    std::uint32_t index : 31 = 0;

    bool operator==(const Provenance &other) const = default;
};
static_assert(sizeof(Provenance) == 4, "Provenance packs into one word");

/**
 * One entry of a PE input or output buffer: a value (the partial
 * reduction) plus its header. The header's `indices` field records which
 * embedding vectors the value already sums; the `queries` field lists the
 * queries that still want this value. On the wire each query's entry is
 * its residual, the indices of the query NOT folded in yet (the paper's
 * example header [indices:50,11 | queries:94,26]). That residual is
 * derived data, Q(q) \ indices, so the simulator carries only the query
 * ids and reads Q(q) from the batch's query sets (PreparedBatch::
 * querySets) wherever a residual's contents matter.
 *
 * Invariant (checked where the PE pairs flits): for every query q of a
 * flit, indices is a subset of Q(q).
 */
struct Flit
{
    /** The HeaderTable id of the header's indices field. */
    SetId indices = 0;
    /**
     * Ids of the queries that still want this value. Two inline slots:
     * most flits carry one query and pick up more only when the merge
     * unit folds headers together.
     */
    SmallVec<QueryId, 2> queries;
    /** The partial reduction; empty in timing-only runs. */
    embedding::Vector value;
    /** What produced this flit at the PE that emitted it; a leaf read
     *  enters the tree as a Forward. */
    PeAction action = PeAction::Forward;
    /**
     * The emitting PE's input entries this flit depends on (post-merge
     * union); none for a leaf read. Four inline slots: a reduce has two,
     * a forward one, and only merged outputs carry more.
     */
    SmallVec<Provenance, 4> sources;
};

/** What the PEs of one evaluation share: query sets, interned headers,
 *  the evaluation's options and the merge stash. */
struct PeBatch
{
    /** The batch's full index set per query id (PreparedBatch::
     *  querySets): Q(q), against which pairing checks that both
     *  operands are wanted by q. */
    const std::vector<IndexSet> &querySets;
    HeaderTable headers;
    /** When false, values are not combined (timing-only runs on large
     *  batches skip the arithmetic). */
    bool values = true;
    /** Element-wise operator of the reduce path. */
    embedding::ReduceOp op = embedding::ReduceOp::Sum;
    /** Optional recycler for output value buffers; results are
     *  bit-identical with or without one. */
    VectorPool *pool = nullptr;
    /** Transport encoding of the link payloads: non-fp32 formats count
     *  dequant/requant codec work per meeting in PeActivity (values are
     *  unchanged — the leaf round-trip already fixed them). */
    embedding::PayloadFormat payload = embedding::PayloadFormat::Fp32;
    /** Merge-unit scratch by set id, all ~0 between PEs. */
    std::vector<std::uint32_t> stash;
};

/**
 * Functional model of one PE processing the complete input sets of one
 * batch. Stateless; the tree evaluators own buffering and timing.
 */
class ProcessingElement
{
  public:
    /** Process inputs A and B, whose headers @p batch interned. */
    static std::vector<Flit>
    process(const std::vector<Flit> &a, const std::vector<Flit> &b,
            PeBatch &batch, PeActivity &activity);
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_PE_HH
