/**
 * @file
 * Synthetic batch generators.
 *
 * Production embedding traces are proprietary; what the paper's dedup
 * results (Figures 3 and 15) actually depend on is the fraction of
 * repeated indices within a batch, which a Zipfian popularity model
 * reproduces directly (hot vectors recur across the queries of a batch).
 * The generator supports:
 *
 *  - per-slot table selection: each query draws its indices across the
 *    tables (one index per chosen table, multi-hot within a table allowed
 *    via repeated table draws),
 *  - uniform or Zipfian row popularity with configurable skew,
 *  - fixed or variable query size (pooling factor q).
 */

#ifndef FAFNIR_EMBEDDING_GENERATOR_HH
#define FAFNIR_EMBEDDING_GENERATOR_HH

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/random.hh"
#include "embedding/table.hh"

namespace fafnir::embedding
{

/** Popularity model of embedding rows. */
enum class Popularity
{
    Uniform,
    Zipfian,
};

/** Knobs of the synthetic workload. */
struct WorkloadConfig
{
    TableConfig tables;
    /** Queries per batch. */
    unsigned batchSize = 8;
    /** Indices per query (the paper's q, at most 16). */
    unsigned querySize = 16;
    /** If set, queries draw sizes uniformly in [minQuerySize, querySize]. */
    std::optional<unsigned> minQuerySize;
    Popularity popularity = Popularity::Zipfian;
    /** Zipfian skew; recommendation traces fall around 0.6–1.1. */
    double zipfSkew = 0.9;
    /**
     * Restrict the draw to the hottest fraction of rows — models the
     * working set of a trace slice. 1.0 = whole table.
     */
    double hotFraction = 1.0;

    /** Distinct indices a query draws from: the hottest hotFraction of
     *  every table's rows, at least one row per table. */
    std::uint64_t population() const
    {
        return std::uint64_t{tables.numTables} * hotRows();
    }
    /** Rows per table the draw is restricted to (hotFraction, >= 1). */
    std::uint64_t hotRows() const
    {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(tables.rowsPerTable) * hotFraction));
    }
};

/** Draws batches under a WorkloadConfig. */
class BatchGenerator
{
  public:
    BatchGenerator(const WorkloadConfig &config, std::uint64_t seed);

    /** Generate the next batch; query ids are dense from 0. */
    Batch next();

    const WorkloadConfig &config() const { return config_; }

  private:
    IndexId drawIndex();

    WorkloadConfig config_;
    Rng rng_;
    std::uint64_t effectiveRows_;
    std::optional<ZipfianGenerator> zipf_;
};

} // namespace fafnir::embedding

#endif // FAFNIR_EMBEDDING_GENERATOR_HH
