/**
 * @file
 * TensorDIMM baseline (Kwon et al., MICRO 2019 — as characterized in
 * Sections II-III of the Fafnir paper).
 *
 * Every embedding vector is striped column-major across ALL ranks, each
 * rank holding vectorBytes / numRanks consecutive bytes. A rank's NDP
 * unit reads its slice of every vector of a query in sequence — distinct
 * vectors live in unrelated rows, so the slice stream has no row-buffer
 * locality — and pipelines the partial summation. All reduction happens
 * at NDP (data movement n * v like Fafnir), but per-query processing is a
 * serial pipeline of q slice reads instead of q parallel vector reads,
 * and each 16 B slice read still transfers a full 64 B burst.
 */

#ifndef FAFNIR_BASELINES_TENSORDIMM_HH
#define FAFNIR_BASELINES_TENSORDIMM_HH

#include "baselines/timing.hh"
#include "dram/memsystem.hh"
#include "embedding/query.hh"
#include "embedding/table.hh"

namespace fafnir::baselines
{

/** Parameters of the TensorDIMM model. */
struct TensorDimmConfig
{
    /** NDP adder clock (the paper cites RecNMP's 250 MHz class). */
    double ndpClockMhz = 250.0;
    /** Cycles to process one slice through the pipelined adder stage
     *  (header handling + align + add). */
    Cycles addCycles = 6;
};

/** TensorDIMM lookup engine. */
class TensorDimmEngine
{
  public:
    TensorDimmEngine(dram::MemorySystem &memory,
                     const embedding::TableConfig &tables,
                     const TensorDimmConfig &config = {});

    /** Run one batch starting at @p start. */
    LookupTiming lookup(const embedding::Batch &batch, Tick start);

    /** Run batches back to back. */
    std::vector<LookupTiming>
    lookupMany(const std::vector<embedding::Batch> &batches, Tick start);

    /**
     * The values this baseline computes: each rank's NDP adder folds
     * its slice of the query's vectors in index order, and the host
     * concatenates the slices. Differential-conformance companion of
     * lookup().
     */
    std::vector<embedding::Vector>
    reduceBatch(const embedding::EmbeddingStore &store,
                const embedding::Batch &batch,
                embedding::ReduceOp op) const;

    /** Bytes of each vector held by one rank. */
    unsigned sliceBytes() const { return sliceBytes_; }

  private:
    /** Bank, row and column of vector @p index's slice, the same on
     *  every rank (channel, DIMM and rank are left 0). */
    dram::Coordinates sliceCoords(IndexId index) const;

    dram::MemorySystem &memory_;
    embedding::TableConfig tables_;
    TensorDimmConfig config_;
    unsigned sliceBytes_;
    Tick ndpPeriod_;
};

} // namespace fafnir::baselines

#endif // FAFNIR_BASELINES_TENSORDIMM_HH
