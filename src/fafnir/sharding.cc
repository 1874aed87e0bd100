/**
 * @file
 * Implementation of the sharded serving tier.
 */

#include "sharding.hh"

#include <algorithm>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/table.hh"
#include "embedding/reduce_kernels.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/attribution.hh"
#include "telemetry/timeseries.hh"

namespace fafnir::core
{

namespace
{

/** splitmix64 — the placement hash. Table ids are tiny and sequential;
 *  a strong mix keeps adjacent (often co-hot) tables apart. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Max/mean per-shard load (1.0 = balanced, or nothing routed). */
double
maxOverMean(std::uint64_t peak, std::uint64_t total, std::size_t shards)
{
    if (total == 0 || shards == 0)
        return 1.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(shards);
    return static_cast<double>(peak) / mean;
}

} // namespace

ShardRouter::ShardRouter(unsigned shards,
                         const embedding::TableConfig &tables)
    : shards_(shards), tables_(tables)
{
    FAFNIR_ASSERT(shards_ >= 1, "router needs >= 1 shard");
    placement_.resize(tables_.numTables);
    for (unsigned t = 0; t < tables_.numTables; ++t)
        placement_[t] = static_cast<unsigned>(mix64(t) % shards_);
}

ShardRouter::SplitBatch
ShardRouter::split(const embedding::Batch &batch) const
{
    SplitBatch out;
    out.perShard.resize(shards_);
    out.totalIndices.reserve(batch.size());
    for (std::size_t g = 0; g < batch.queries.size(); ++g) {
        const embedding::Query &q = batch.queries[g];
        out.totalIndices.push_back(q.indices.size());
        unsigned touched = 0;
        for (IndexId index : q.indices) {
            SubBatch &sub = out.perShard[shardOfIndex(index)];
            if (sub.globalQuery.empty() ||
                sub.globalQuery.back() != static_cast<std::uint32_t>(g)) {
                embedding::Query local;
                local.id =
                    static_cast<QueryId>(sub.batch.queries.size());
                sub.batch.queries.push_back(std::move(local));
                sub.globalQuery.push_back(
                    static_cast<std::uint32_t>(g));
                ++touched;
            }
            sub.batch.queries.back().indices.push_back(index);
        }
        if (touched > 1)
            ++out.crossShardQueries;
    }
    return out;
}

std::vector<std::vector<EngineReplica>>
makeShardReplicas(unsigned shards, unsigned replicasPerShard,
                  const ReplicaMemoryConfig &mem,
                  const embedding::TableConfig &tables,
                  EventEngineConfig config,
                  const embedding::EmbeddingStore *store)
{
    // The tier owns Mean's root divide (it needs the *global* gathered
    // count); shard engines reduce their slice as a plain sum.
    if (config.reduceOp == embedding::ReduceOp::Mean)
        config.reduceOp = embedding::ReduceOp::Sum;
    std::vector<std::vector<EngineReplica>> groups;
    groups.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        groups.push_back(makeEventReplicas(replicasPerShard, mem, tables,
                                           config, store));
    return groups;
}

double
ShardedReport::loadImbalance() const
{
    std::uint64_t total = 0, peak = 0;
    for (std::uint64_t r : refsPerShard) {
        total += r;
        peak = std::max(peak, r);
    }
    return maxOverMean(peak, total, refsPerShard.size());
}

ShardedServingTier::ShardedServingTier(
    const ShardTierConfig &config,
    std::vector<std::vector<EngineReplica>> &shardReplicas,
    const embedding::EmbeddingStore *store)
    : config_(config),
      router_(config.shards,
              shardReplicas.empty() || shardReplicas[0].empty()
                  ? embedding::TableConfig{}
                  : shardReplicas[0][0].layout->tables()),
      shardReplicas_(shardReplicas), store_(store)
{
    FAFNIR_ASSERT(config_.shards >= 1, "tier needs >= 1 shard");
    FAFNIR_ASSERT(shardReplicas_.size() >= config_.shards,
                  "tier configured for ", config_.shards,
                  " shards but only ", shardReplicas_.size(),
                  " replica groups were built");
    pipelines_.reserve(config_.shards);
    perShardSubBatches_.reserve(config_.shards);
    perShardRefs_.reserve(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s) {
        pipelines_.push_back(std::make_unique<ServingPipeline>(
            config_.serving, shardReplicas_[s], store_));
        perShardSubBatches_.push_back(std::make_unique<Counter>());
        perShardRefs_.push_back(std::make_unique<Counter>());
    }
}

ShardedReport
ShardedServingTier::serve(const std::vector<embedding::Batch> &batches,
                          Tick arrivalGap, Tick start)
{
    std::vector<Tick> arrivals;
    arrivals.reserve(batches.size());
    for (std::size_t k = 0; k < batches.size(); ++k)
        arrivals.push_back(start + arrivalGap * k);
    return serve(batches, arrivals);
}

ShardedReport
ShardedServingTier::serve(const std::vector<embedding::Batch> &batches,
                          const std::vector<Tick> &arrivals)
{
    FAFNIR_ASSERT(arrivals.size() == batches.size(),
                  "serve() wants one arrival tick per batch (",
                  arrivals.size(), " arrivals for ", batches.size(),
                  " batches)");
    const unsigned shards = config_.shards;
    const Tick start = arrivals.empty() ? 0 : arrivals.front();

    // --- Scatter: split every batch by the placement. ----------------
    std::vector<ShardRouter::SplitBatch> splits;
    splits.reserve(batches.size());
    for (const embedding::Batch &batch : batches)
        splits.push_back(router_.split(batch));

    // Per-shard sub-batch streams; a shard only sees the batches that
    // touch it, at the global arrival tick.
    struct ShardStream
    {
        std::vector<embedding::Batch> batches;
        std::vector<Tick> arrivals;
        std::vector<std::size_t> global;
        std::vector<std::uint64_t> refs;
    };
    std::vector<ShardStream> streams(shards);
    for (std::size_t k = 0; k < splits.size(); ++k) {
        for (unsigned s = 0; s < shards; ++s) {
            ShardRouter::SubBatch &sub = splits[k].perShard[s];
            if (sub.batch.queries.empty())
                continue;
            streams[s].refs.push_back(sub.batch.totalIndices());
            streams[s].batches.push_back(std::move(sub.batch));
            streams[s].arrivals.push_back(arrivals[k]);
            streams[s].global.push_back(k);
        }
    }

    ShardedReport report;
    report.batches.reserve(batches.size());
    report.subBatchesPerShard.assign(shards, 0);
    report.refsPerShard.assign(shards, 0);
    report.perShard.reserve(shards);

    // --- Per-shard pipelined serving (independent simulated tracks). -
    for (unsigned s = 0; s < shards; ++s) {
        report.perShard.push_back(
            pipelines_[s]->serve(streams[s].batches,
                                 streams[s].arrivals));
        report.subBatchesPerShard[s] = streams[s].batches.size();
        for (std::uint64_t r : streams[s].refs)
            report.refsPerShard[s] += r;
        *perShardSubBatches_[s] += streams[s].batches.size();
        *perShardRefs_[s] += report.refsPerShard[s];
    }

    telemetry::TimeSeries *series = telemetry::timeseries();
    telemetry::Attribution *attr = telemetry::attribution();
    std::vector<telemetry::WindowedCounter *> winShardBatches;
    std::vector<telemetry::WindowedCounter *> winShardRefs;
    telemetry::WindowedHistogram *winCombine = nullptr;
    if (series) {
        for (unsigned s = 0; s < shards; ++s) {
            const std::string prefix =
                "serving.shard" + std::to_string(s);
            winShardBatches.push_back(
                &series->counter(prefix + ".batches"));
            winShardRefs.push_back(&series->counter(prefix + ".refs"));
        }
        winCombine = &series->histogram(
            "serving.shard.combine_us",
            "cross-shard combine time per multi-shard batch");
    }

    // --- Gather: fixed-order cross-shard combine per global batch. ---
    const embedding::ReduceOp engineOp =
        config_.reduceOp == embedding::ReduceOp::Mean
            ? embedding::ReduceOp::Sum
            : config_.reduceOp;
    std::vector<std::size_t> next(shards, 0);
    std::vector<const ServedBatchTrace *> part(shards, nullptr);
    Tick combineFree = start;
    Tick last = start;
    for (std::size_t k = 0; k < batches.size(); ++k) {
        ShardedBatchTrace trace;
        trace.batch = k;
        trace.arrival = arrivals[k];

        Tick shardsDone = arrivals[k];
        unsigned participants = 0;
        std::size_t localQueries = 0;
        std::size_t activeQueries = 0;
        for (unsigned s = 0; s < shards; ++s) {
            part[s] = nullptr;
            if (next[s] < streams[s].global.size() &&
                streams[s].global[next[s]] == k) {
                part[s] = &report.perShard[s].batches[next[s]];
                shardsDone = std::max(shardsDone, part[s]->done);
                if (series) {
                    winShardBatches[s]->record(part[s]->done);
                    winShardRefs[s]->record(part[s]->done,
                                            streams[s].refs[next[s]]);
                }
                localQueries +=
                    splits[k].perShard[s].globalQuery.size();
                ++participants;
                ++next[s];
            }
        }
        for (std::size_t count : splits[k].totalIndices)
            activeQueries += count > 0;
        trace.shardsTouched = participants;

        // The serial combine port merges one multi-shard batch at a
        // time: a fixed setup charge plus one vector combine per extra
        // partial. Single-shard batches bypass the port entirely.
        const std::size_t extraPartials =
            localQueries > activeQueries ? localQueries - activeQueries
                                         : 0;
        const Tick cost = participants > 1
            ? config_.combineFixed +
                  config_.combinePerVector *
                      static_cast<Tick>(extraPartials)
            : 0;
        Tick combineDone = shardsDone;
        if (cost > 0) {
            const Tick combineStart = std::max(combineFree, shardsDone);
            combineDone = combineStart + cost;
            combineFree = combineDone;
            combineTicks_ += cost;
            report.combineBusy += cost;
            if (winCombine)
                winCombine->record(
                    combineDone,
                    static_cast<double>(cost) /
                        static_cast<double>(kTicksPerUs));
            // code = shards combined; a = batch, b = combine ticks.
            if (auto *rec = telemetry::flightRecorder())
                rec->record(telemetry::Stage::ShardCombine, combineDone,
                            participants, k, cost);
        }
        trace.shardsDone = shardsDone;
        trace.combineDone = combineDone;
        last = std::max(last, combineDone);

        // Fixed-order value combine: shard 0's partial seeds each
        // query, higher shards fold in ascending order, and Mean takes
        // its single root divide with the global gathered count.
        if (store_ != nullptr) {
            trace.results.assign(batches[k].size(),
                                 embedding::Vector{});
            for (unsigned s = 0; s < shards; ++s) {
                if (part[s] == nullptr)
                    continue;
                const auto &partials = part[s]->timing.results;
                const auto &global = splits[k].perShard[s].globalQuery;
                if (partials.size() != global.size())
                    continue; // engines ran without computeValues
                for (std::size_t l = 0; l < global.size(); ++l) {
                    embedding::Vector &acc = trace.results[global[l]];
                    if (acc.empty())
                        acc = partials[l];
                    else
                        embedding::combineSpan(engineOp, acc.data(),
                                               partials[l].data(),
                                               acc.size());
                }
            }
            if (config_.reduceOp == embedding::ReduceOp::Mean) {
                for (std::size_t g = 0; g < trace.results.size(); ++g)
                    if (!trace.results[g].empty())
                        embedding::finalizeSpan(
                            embedding::ReduceOp::Mean,
                            trace.results[g].data(),
                            trace.results[g].size(),
                            splits[k].totalIndices[g]);
            }
        }

        // Extend each participating sub-batch's attribution forward to
        // the tier's combine point: complete += delta, shardCombine +=
        // delta keeps the telescoping component sum exact. A batch that
        // touched one shard bypasses the combine, so its queries keep
        // the pipeline's split (a one-shard tier is the pipeline).
        if (attr && participants > 1) {
            for (unsigned s = 0; s < shards; ++s)
                if (part[s] != nullptr)
                    attr->annotateShardCombine(
                        part[s]->attribBatch,
                        combineDone - part[s]->complete);
        }

        ++servedBatches_;
        servedQueries_ += batches[k].size();
        report.batches.push_back(std::move(trace));
    }
    crossShardQueries_ += [&] {
        std::uint64_t cross = 0;
        for (const auto &split : splits)
            cross += split.crossShardQueries;
        return cross;
    }();
    for (const auto &split : splits)
        report.crossShardQueries += split.crossShardQueries;

    report.makespan = last > start ? last - start : 0;
    if (series)
        series->flush(last);
    return report;
}

void
ShardedServingTier::registerStats(StatGroup &group)
{
    group.addCounter("batches", servedBatches_,
                     "batches served through the sharded tier");
    group.addCounter("queries", servedQueries_,
                     "queries served through the sharded tier");
    group.addCounter("crossShardQueries", crossShardQueries_,
                     "queries whose indices spanned more than one shard");
    group.addCounter("combineTicks", combineTicks_,
                     "serial cross-shard combine port busy time");
    group.addFormula(
        "imbalance",
        [this] {
            std::uint64_t total = 0, peak = 0;
            for (const auto &refs : perShardRefs_) {
                total += refs->value();
                peak = std::max(peak, refs->value());
            }
            return maxOverMean(peak, total, perShardRefs_.size());
        },
        "max/mean per-shard load over the accumulated reference "
        "counts (1.0 = balanced)");
    for (unsigned s = 0; s < config_.shards; ++s) {
        const std::string prefix = "shard" + std::to_string(s);
        group.addCounter(prefix + ".subBatches", *perShardSubBatches_[s],
                         "sub-batches routed to shard " +
                             std::to_string(s));
        group.addCounter(prefix + ".refs", *perShardRefs_[s],
                         "index references routed to shard " +
                             std::to_string(s));
    }
}

void
ShardedServingTier::printShardScoreboard(std::ostream &os,
                                         const ShardedReport &report) const
{
    std::uint64_t totalRefs = 0;
    for (std::uint64_t r : report.refsPerShard)
        totalRefs += r;
    const double makespan = static_cast<double>(report.makespan);

    TextTable table("sharded serving scoreboard");
    table.setHeader({"shard", "subBatches", "refs", "share%", "rps",
                     "notes"});
    for (unsigned s = 0; s < config_.shards; ++s) {
        const double share = totalRefs == 0
            ? 0.0
            : 100.0 * static_cast<double>(report.refsPerShard[s]) /
                  static_cast<double>(totalRefs);
        table.row("shard" + std::to_string(s),
                  report.subBatchesPerShard[s], report.refsPerShard[s],
                  TextTable::num(share, 1),
                  TextTable::num(report.perShard[s].requestsPerSecond(),
                                 0),
                  "engines=" + std::to_string(config_.serving.engines));
    }
    std::uint64_t multiShard = 0;
    for (const ShardedBatchTrace &t : report.batches)
        multiShard += t.shardsTouched > 1;
    table.row("combine", multiShard, report.crossShardQueries,
              makespan > 0.0
                  ? TextTable::num(
                        100.0 * static_cast<double>(report.combineBusy) /
                            makespan, 1)
                  : "-",
              "-",
              "imbalance=" + TextTable::num(report.loadImbalance(), 2) +
                  ", refs col = cross-shard queries");
    table.print(os);
    for (unsigned s = 0; s < config_.shards; ++s) {
        os << "shard " << s << " pipeline:\n";
        pipelines_[s]->printHealthScoreboard(os, report.perShard[s]);
    }
}

} // namespace fafnir::core
