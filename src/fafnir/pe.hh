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
 * One kernel does this work on headers interned in a HeaderTable
 * (headers.hh), for the tree's flits and for Items alike.
 */

#ifndef FAFNIR_FAFNIR_PE_HH
#define FAFNIR_FAFNIR_PE_HH

#include <cstdint>
#include <vector>

#include "common/smallvec.hh"
#include "common/types.hh"
#include "embedding/quantize.hh"
#include "fafnir/headers.hh"
#include "fafnir/item.hh"

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

/** An output item tagged with the action that produced it. */
struct PeOutput
{
    Item item;
    PeAction action = PeAction::Forward;
    /**
     * Input entries this output depends on (post-merge union). Four
     * inline slots: a reduce has two, a forward one, and only merged
     * outputs carry more.
     */
    SmallVec<Provenance, 4> sources;
};

/** A buffer entry with an interned header: the lean form of Item. */
struct Flit
{
    /** The HeaderTable id of the header's indices field. */
    SetId indices = 0;
    SmallVec<QueryId, 2> queries;
    embedding::Vector value;
};

/** A PE output over interned headers: the lean form of PeOutput. */
struct FlitOutput : Flit
{
    PeAction action = PeAction::Forward;
    SmallVec<Provenance, 4> sources;
};

/** What the PEs of one evaluation share: query sets, interned headers,
 *  the options of ProcessingElement::process and the merge stash. */
struct PeBatch
{
    const std::vector<IndexSet> &querySets;
    HeaderTable headers;
    bool values = true;
    embedding::ReduceOp op = embedding::ReduceOp::Sum;
    VectorPool *pool = nullptr;
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
    static std::vector<FlitOutput>
    process(const std::vector<FlitOutput> &a,
            const std::vector<FlitOutput> &b, PeBatch &batch,
            PeActivity &activity);

    /**
     * Process inputs A and B: intern their headers into a table of
     * their own and run the same kernel as above.
     * @param query_sets the batch's full index set per query id
     *        (PreparedBatch::querySets): Q(q), against which pairing
     *        checks that both operands are wanted by q.
     * @param values when false, item values are not combined (timing-only
     *        runs on large batches skip the arithmetic).
     * @param op element-wise operator of the reduce path.
     * @param pool optional buffer recycler for output values; results
     *        are bit-identical with or without one.
     * @param payload transport encoding of the link payloads; non-fp32
     *        formats count dequant/requant codec work per meeting in
     *        @p activity (values are unchanged — the leaf round-trip
     *        already fixed them).
     */
    static std::vector<PeOutput>
    process(const std::vector<Item> &a, const std::vector<Item> &b,
            const std::vector<IndexSet> &query_sets, PeActivity &activity,
            bool values = true,
            embedding::ReduceOp op = embedding::ReduceOp::Sum,
            VectorPool *pool = nullptr,
            embedding::PayloadFormat payload =
                embedding::PayloadFormat::Fp32);

    /**
     * Upper bound on outputs: min(nm + n + m, batch) — Section IV-B.
     */
    static std::size_t
    outputBound(std::size_t n, std::size_t m, std::size_t batch)
    {
        return std::min(n * m + n + m, batch);
    }

};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_PE_HH
