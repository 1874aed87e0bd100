/**
 * @file
 * Host-side batch preprocessing.
 *
 * Fafnir's software support (Section IV-B/IV-C): the host rearranges a
 * batch of queries into per-rank lists of memory reads and their flit
 * headers. In dedup mode (the paper's key mechanism) each *unique* index
 * of the batch is read exactly once; its header's `queries` field lists
 * every query containing it (on the wire, each with the other indices of
 * that query, which PreparedBatch::querySets gives). In no-dedup mode
 * (the Figure 13 ablation) every (query, index) reference issues its own
 * read.
 *
 * prepareBatch is the one prepare entry point: the engines (through
 * TreeReplay), the serving pipeline (through PreparePool's slot arenas),
 * the benches and the examples all call it.
 */

#ifndef FAFNIR_FAFNIR_HOST_HH
#define FAFNIR_FAFNIR_HOST_HH

#include <cstddef>
#include <vector>

#include "common/smallvec.hh"
#include "embedding/layout.hh"
#include "embedding/query.hh"
#include "embedding/quantize.hh"
#include "embedding/table.hh"
#include "fafnir/indexset.hh"
#include "fafnir/pool.hh"

namespace fafnir::core
{

/**
 * One scheduled memory access feeding a leaf. When the data returns,
 * the tree injects it as a flit whose header is [indices: index |
 * queries].
 */
struct RankRead
{
    IndexId index = 0;
    Addr address = 0;
    /** The header's queries field: every query that wants this vector. */
    SmallVec<QueryId, 2> queries;
    /** The vector, round-tripped through the payload format; empty
     *  without a store. */
    embedding::Vector value;
};

/** A batch compiled into per-rank access lists. */
struct PreparedBatch
{
    /** Indexed by physical global rank. */
    std::vector<std::vector<RankRead>> rankReads;
    /** Distinct indices referenced by the batch. */
    std::size_t uniqueCount = 0;
    /** Total index references (with repetition). */
    std::size_t totalReferences = 0;
    /** Reads actually issued (== uniqueCount in dedup mode). */
    std::size_t accessCount = 0;
    /**
     * Full index set Q(q) per query id. The root combiner checks
     * coverage against it, the PEs check pairings against it, and each
     * header's residual on the wire is Q(q) \ indices.
     */
    std::vector<IndexSet> querySets;
    /**
     * Payload encoding the batch was compiled for. Read values are
     * round-tripped through this format at the leaf (quantize once,
     * dequantize immediately — exact fp32 partials up the tree), and
     * the engines charge this format's byte width on every DRAM read
     * and PE-link transfer.
     */
    embedding::PayloadFormat payload = embedding::PayloadFormat::Fp32;

    /** Modelled payload bytes of one vector under this batch's format. */
    std::size_t
    vectorPayloadBytes(unsigned dim) const
    {
        return embedding::payloadBytes(payload, dim);
    }

    /** Accesses saved relative to the reference stream (Figure 15). */
    double
    accessSavings() const
    {
        return totalReferences == 0
            ? 0.0
            : 1.0 - static_cast<double>(accessCount) /
                  static_cast<double>(totalReferences);
    }

    /** Largest per-rank access list (Figure 15's per-leaf-input metric). */
    std::size_t maxReadsPerRank() const;
};

/**
 * Compile @p batch into per-rank read lists.
 *
 * One sort of the batch's (index, query) references finds the distinct
 * indices. In dedup mode each run of one index is one read whose users
 * are in encounter order, and reads issue in ascending index order,
 * bit-identical to the ordered-map reference below.
 *
 * @param store when non-null, reads carry their vector values so the
 *        functional tree can validate end-to-end arithmetic.
 * @param dedup read each unique index once (Section IV-C) or issue one
 *        read per reference (the Figure 13 ablation).
 * @param pool when non-null, item value buffers are drawn from this
 *        arena instead of fresh allocations (the serving pipeline keeps
 *        one pool per pipeline slot and recycles the previous
 *        occupant's buffers). Contents are identical either way.
 * @param payload transport encoding: non-fp32 formats round-trip every
 *        leaf value through embedding::payloadRoundTrip, so the served
 *        values are a pure function of (store, format) — deterministic
 *        at any worker count.
 */
PreparedBatch prepareBatch(
    const embedding::VectorLayout &layout,
    const embedding::EmbeddingStore *store, const embedding::Batch &batch,
    bool dedup, VectorPool *pool = nullptr,
    embedding::PayloadFormat payload = embedding::PayloadFormat::Fp32);

/**
 * Reference implementation of prepareBatch using an ordered map for the
 * dedup scan. Kept for differential testing and the micro_serving
 * prepare-throughput comparison; output is bit-identical to prepareBatch.
 */
PreparedBatch prepareBatchReference(
    const embedding::VectorLayout &layout,
    const embedding::EmbeddingStore *store, const embedding::Batch &batch,
    bool dedup, VectorPool *pool = nullptr,
    embedding::PayloadFormat payload = embedding::PayloadFormat::Fp32);

/** Recycle @p prepared's item value buffers into @p pool. */
void releasePrepared(PreparedBatch &prepared, VectorPool &pool);

/**
 * Serial slot prepare for the serving pipeline.
 *
 * Each pipeline slot owns a SlotArenas: one VectorPool that its
 * batches draw value buffers from. prepare() compiles a batch with
 * prepareBatch into that pool, and recycleAsync() returns a retired
 * batch's buffers to it inline, so a steady-state stream of batches
 * stops allocating value buffers once every slot has warmed up.
 *
 * Prepare always runs on the calling thread. How many host workers
 * prepare a batch is a model input (ServingConfig::prepareWorkers):
 * it divides the modelled prepare cost and changes nothing here.
 */
class PreparePool
{
  public:
    /** One pipeline slot's value-buffer arena. */
    struct SlotArenas
    {
        VectorPool pool;
    };

    /** @p workers is the modelled prepare width; only the modelled
     *  cost reads it (ServingConfig::prepareCost). */
    explicit PreparePool(unsigned workers = 1) { (void)workers; }

    /** A fresh, empty arena for one pipeline slot. */
    SlotArenas makeSlotArenas() const { return {}; }

    /** prepareBatch, drawing value buffers from @p arenas when given. */
    PreparedBatch
    prepare(const embedding::VectorLayout &layout,
            const embedding::EmbeddingStore *store,
            const embedding::Batch &batch, bool dedup,
            SlotArenas *arenas = nullptr,
            embedding::PayloadFormat payload =
                embedding::PayloadFormat::Fp32) const
    {
        return prepareBatch(layout, store, batch, dedup,
                            arenas ? &arenas->pool : nullptr, payload);
    }

    /** Return @p prepared's value buffers to @p arenas (inline). */
    void
    recycleAsync(PreparedBatch &&prepared, SlotArenas &arenas) const
    {
        releasePrepared(prepared, arenas.pool);
    }
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_HOST_HH
