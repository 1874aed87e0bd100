/**
 * @file
 * Embedding tables and their functional contents.
 *
 * The embedding space is a set of tables, each a dense array of
 * fixed-dimension vectors. Functional correctness checks need real values,
 * so EmbeddingStore synthesizes them deterministically from (index,
 * element) — no gigabytes of backing memory, no randomness, and any
 * engine can recompute the same value for the same index.
 *
 * EmbeddingStore::element() defines the values; EmbeddingStore::fill()
 * is the one generator every value path uses (the host's leaf reads,
 * vector(), the reference reduce and the baselines). It writes a whole
 * row bit-identical to element(), eight elements per vector step.
 */

#ifndef FAFNIR_EMBEDDING_TABLE_HH
#define FAFNIR_EMBEDDING_TABLE_HH

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "embedding/query.hh"
#include "embedding/reduce_op.hh"

namespace fafnir::embedding
{

/** Shape of the embedding space. */
struct TableConfig
{
    /** Number of embedding tables (the paper's system holds 32). */
    unsigned numTables = 32;
    /** Rows (embedding vectors) per table. */
    std::uint64_t rowsPerTable = 1ULL << 20;
    /** Bytes per embedding vector (the paper uses 512 B). */
    unsigned vectorBytes = 512;
    /** Bytes per element (fp32). */
    unsigned elementBytes = 4;

    unsigned dim() const { return vectorBytes / elementBytes; }

    std::uint64_t
    totalVectors() const
    {
        return static_cast<std::uint64_t>(numTables) * rowsPerTable;
    }

    std::uint64_t
    totalBytes() const
    {
        return totalVectors() * vectorBytes;
    }

    /** Flatten (table, row) into the global index space. */
    IndexId
    flatten(unsigned table, std::uint64_t row) const
    {
        FAFNIR_ASSERT(table < numTables && row < rowsPerTable,
                      "index out of range: table ", table, " row ", row);
        return static_cast<IndexId>(table * rowsPerTable + row);
    }

    unsigned
    tableOf(IndexId index) const
    {
        return static_cast<unsigned>(index / rowsPerTable);
    }

    std::uint64_t
    rowOf(IndexId index) const
    {
        return index % rowsPerTable;
    }
};

/** A reduced (dense) vector value. */
using Vector = std::vector<float>;

/**
 * Deterministic synthetic contents of the embedding space, plus the
 * reference gather-reduce all engines are validated against.
 */
class EmbeddingStore
{
  public:
    explicit EmbeddingStore(const TableConfig &config) : config_(config)
    {
        // element() packs the element below bit 20 of its hash input.
        FAFNIR_ASSERT(config_.dim() < (1u << 20), "dim ", config_.dim(),
                      " does not fit the element hash");
    }

    const TableConfig &config() const { return config_; }

    /** Element @p elem of vector @p index. */
    float
    element(IndexId index, unsigned elem) const
    {
        // A cheap integer hash keeps values distinct across indices and
        // elements so summation bugs cannot cancel out.
        std::uint64_t h = (std::uint64_t(index) << 20) | elem;
        h ^= h >> 33;
        h *= kHashMultiplier;
        h ^= h >> 33;
        return static_cast<float>(h % 1024) / 16.0f;
    }

    /**
     * Write vector @p index into @p row (dim() elements), bit-identical
     * to element(index, e) for every e.
     */
    void fill(IndexId index, std::span<float> row) const;

    /** Materialize vector @p index. */
    Vector vector(IndexId index) const;

    /** Element-wise reduction of @p indices — the reference for one
     *  query. */
    Vector reduce(const std::vector<IndexId> &indices,
                  ReduceOp op = ReduceOp::Sum) const;

    /** Reference results for a whole batch, ordered by query id. */
    std::vector<Vector> reduceBatch(const Batch &batch,
                                    ReduceOp op = ReduceOp::Sum) const;

  private:
    // fill()'s closed form reads the hash input's high word as the
    // index alone, which holds for 32-bit ids.
    static_assert(std::numeric_limits<IndexId>::digits == 32,
                  "fill() assumes 32-bit embedding ids");

    static constexpr std::uint64_t kHashMultiplier = 0xff51afd7ed558ccdULL;

    TableConfig config_;
};

/** True if @p a and @p b agree element-wise within @p tolerance. */
bool vectorsEqual(const Vector &a, const Vector &b,
                  float tolerance = 1e-3f);

} // namespace fafnir::embedding

#endif // FAFNIR_EMBEDDING_TABLE_HH
