/**
 * @file
 * Sharded multi-store serving tier.
 *
 * One embedding store behind one memory system caps capacity at the
 * 8-replica sweep; production recommendation serving shards tables
 * across nodes (RecNMP's production traces, TensorDIMM's model-parallel
 * DIMM pooling). This module scales the Fafnir serving front-end the
 * same way:
 *
 *   router -> [shard 0: prepare -> replicas] \
 *          -> [shard 1: prepare -> replicas]  -> fixed-order combine
 *          -> [shard S-1: ...]               /
 *
 * A ShardRouter places tables onto S shards by a splitmix hash of the
 * table id and splits every batch into per-shard sub-batches with
 * dense local query ids. Each shard runs its own ServingPipeline over
 * its own replica group (engines, prepare, dispatch, hedging —
 * everything the single-store tier already has). The tier then
 * scatter-gathers: a query's per-shard partials are combined in fixed
 * shard order 0..S-1 at a serial combine port, and Mean is finalized
 * exactly once with the query's *global* gathered count.
 *
 * Bit-identity at any shard count is by construction:
 *  - Sum/Mean: the store synthesizes values as multiples of 1/16 below
 *    64, so every partial and total sum is exactly representable in
 *    fp32 — addition order cannot change the bits. Shard engines run
 *    Mean queries as Sum (makeShardReplicas rewrites the op) and the
 *    combiner applies the single root divide with the global count,
 *    mirroring how the tree itself finalizes Mean at the root.
 *  - Min/Max are associative and commutative exactly.
 * The conformance suite (tests/test_sharding.cc) pins served values
 * bit-identical to the single-store reference across shard counts,
 * ops, skews, fault plans, and hedging.
 *
 * Per-shard load lands in a `serving.shard.*` StatGroup (with the
 * max/mean imbalance over the routed references), in windowed
 * `serving.shard<s>.*` counters (timeline rows), and in scoreboard
 * rows next to the per-stage health board.
 */

#ifndef FAFNIR_FAFNIR_SHARDING_HH
#define FAFNIR_FAFNIR_SHARDING_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "embedding/query.hh"
#include "embedding/reduce_op.hh"
#include "embedding/table.hh"
#include "fafnir/serving.hh"

namespace fafnir::core
{

/** How tables map onto shards: the one policy is Hash. */
enum class PlacementPolicy
{
    /** splitmix-hashed table id modulo S — placement-oblivious, spreads
     *  adjacent (often co-hot) tables across shards. */
    Hash,
};

/**
 * Places tables onto shards (PlacementPolicy::Hash) and splits batches
 * into per-shard sub-batches. The placement is fixed at construction.
 */
class ShardRouter
{
  public:
    ShardRouter(unsigned shards, const embedding::TableConfig &tables);

    unsigned shards() const { return shards_; }
    const embedding::TableConfig &tables() const { return tables_; }

    /** Table -> shard placement (size = numTables). */
    const std::vector<unsigned> &placement() const { return placement_; }

    unsigned
    shardOfTable(unsigned table) const
    {
        return placement_[table % tables_.numTables];
    }

    /** Shard of a flat index. Out-of-range indices (hostile input)
     *  wrap deterministically by table so the router never rejects —
     *  the layout and store tolerate any index. */
    unsigned
    shardOfIndex(IndexId index) const
    {
        return shardOfTable(tables_.tableOf(index));
    }

    /** One shard's slice of a batch: local query ids are dense 0..n-1
     *  in global query order, so the sub-batch is a valid Batch. */
    struct SubBatch
    {
        embedding::Batch batch;
        /** Local query id -> position of the query in the global
         *  batch. */
        std::vector<std::uint32_t> globalQuery;
    };

    /** A batch split across the shards. */
    struct SplitBatch
    {
        /** Indexed by shard; empty batches for untouched shards. */
        std::vector<SubBatch> perShard;
        /** Global per-query reference count (Mean's root divide). */
        std::vector<std::size_t> totalIndices;
        /** Queries whose indices span more than one shard. */
        std::size_t crossShardQueries = 0;

        std::size_t
        shardsTouched() const
        {
            std::size_t touched = 0;
            for (const SubBatch &s : perShard)
                touched += !s.batch.queries.empty();
            return touched;
        }
    };

    /** Split @p batch by the placement. Pure function of the
     *  batch and the placement — deterministic and order-preserving
     *  (per-query index order survives within each shard). */
    SplitBatch split(const embedding::Batch &batch) const;

  private:
    unsigned shards_;
    embedding::TableConfig tables_;
    std::vector<unsigned> placement_;
};

/** Shard-tier shape: per-shard pipeline config + combine-stage costs. */
struct ShardTierConfig
{
    /** Per-shard pipeline (engines = replicas *per shard*). */
    ServingConfig serving;
    unsigned shards = 2;
    /** Hash is the only placement; perfbench/ still sets this field. */
    PlacementPolicy placement = PlacementPolicy::Hash;
    /** The reduction the tier serves. Shard engines run Mean as Sum;
     *  the combiner applies the single root divide. */
    embedding::ReduceOp reduceOp = embedding::ReduceOp::Sum;
    /** Modeled cross-shard combine: fixed cost per multi-shard batch
     *  plus one vector-combine term per extra partial. */
    Tick combineFixed = 20 * kTicksPerNs;
    Tick combinePerVector = 8 * kTicksPerNs;
};

/** One batch's trip through the sharded tier. */
struct ShardedBatchTrace
{
    std::size_t batch = 0;
    Tick arrival = 0;
    /** Last participating shard's writeback drain. */
    Tick shardsDone = 0;
    /** Cross-shard combine done (== shardsDone for 1-shard batches). */
    Tick combineDone = 0;
    unsigned shardsTouched = 0;
    /** Combined values in global query order (when the shard engines
     *  compute values; empty otherwise). */
    std::vector<embedding::Vector> results;
};

/** Aggregate outcome of a sharded serving run. */
struct ShardedReport
{
    std::vector<ShardedBatchTrace> batches;
    /** Per-shard pipeline reports (sub-batch streams). */
    std::vector<PipelineReport> perShard;
    std::vector<std::uint64_t> subBatchesPerShard;
    std::vector<std::uint64_t> refsPerShard;
    std::uint64_t crossShardQueries = 0;
    Tick combineBusy = 0;
    /** First arrival to last combine. */
    Tick makespan = 0;

    /** Max/mean per-shard references (1.0 = balanced). */
    double loadImbalance() const;

    double
    requestsPerSecond() const
    {
        return makespan == 0
            ? 0.0
            : static_cast<double>(batches.size()) *
                  static_cast<double>(kTicksPerSec) /
                  static_cast<double>(makespan);
    }
};

/**
 * Build @p shards replica groups of @p replicasPerShard event engines
 * each. @p config.reduceOp is rewritten Mean -> Sum (the tier owns the
 * root divide); everything else passes through.
 */
std::vector<std::vector<EngineReplica>>
makeShardReplicas(unsigned shards, unsigned replicasPerShard,
                  const ReplicaMemoryConfig &mem,
                  const embedding::TableConfig &tables,
                  EventEngineConfig config,
                  const embedding::EmbeddingStore *store);

/** The sharded scatter-gather serving tier. */
class ShardedServingTier
{
  public:
    /**
     * @param shardReplicas one replica group per shard (>= shards
     *        entries of >= serving.engines replicas each).
     * @param store when non-null, combined per-query values land in
     *        ShardedBatchTrace::results (the shard engines must have
     *        computeValues set — makeShardReplicas handles the op).
     */
    ShardedServingTier(const ShardTierConfig &config,
                       std::vector<std::vector<EngineReplica>> &shardReplicas,
                       const embedding::EmbeddingStore *store);

    /** Serve with inter-arrival gap (0 = all at once). */
    ShardedReport serve(const std::vector<embedding::Batch> &batches,
                        Tick arrivalGap, Tick start = 0);

    /** Serve at explicit arrival ticks (one per batch). */
    ShardedReport serve(const std::vector<embedding::Batch> &batches,
                        const std::vector<Tick> &arrivals);

    const ShardTierConfig &config() const { return config_; }
    const ShardRouter &router() const { return router_; }

    /** Shard @p shard's pipeline (its counters and health board). */
    ServingPipeline &pipeline(unsigned shard) { return *pipelines_[shard]; }

    /** Register tier + per-shard counters into @p group. */
    void registerStats(StatGroup &group);

    /** Per-shard rows (sub-batches, refs, load share, imbalance) plus
     *  the combine port, stacked on top of each shard's pipeline
     *  scoreboard machinery. */
    void printShardScoreboard(std::ostream &os,
                              const ShardedReport &report) const;

  private:
    ShardTierConfig config_;
    ShardRouter router_;
    std::vector<std::vector<EngineReplica>> &shardReplicas_;
    const embedding::EmbeddingStore *store_;
    /** One pipeline per shard, over shardReplicas_[s]. */
    std::vector<std::unique_ptr<ServingPipeline>> pipelines_;

    Counter servedBatches_;
    Counter servedQueries_;
    Counter crossShardQueries_;
    Counter combineTicks_;
    std::vector<std::unique_ptr<Counter>> perShardSubBatches_;
    std::vector<std::unique_ptr<Counter>> perShardRefs_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_SHARDING_HH
