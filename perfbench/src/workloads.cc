/**
 * @file
 * The benchmark's three workloads. Each drives the simulator only
 * through public functions and checks every served output.
 *
 *  - lookup-analytic: prepareBatch + FafnirEngine::lookupPrepared, one
 *    batch per call, timing only (the path the figure benches use).
 *  - serve-sharded:   ShardedServingTier::serve over 2 shards x 2 event
 *    replicas, int8 payload, computed values, 8 batches per call.
 *  - baselines:       CPU, RecNMP (rank cache on) and TensorDIMM
 *    lookupMany on the lookup-analytic batches, 4 batches per call.
 *
 * Traced steps re-time the inner layers (tree inside the engines,
 * split/prepare/engine inside serve, DRAM under every engine) on the
 * same inputs, on probe objects that share no state with the rig, so
 * the rig's simulated statistics are the same traced or not.
 */

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "baselines/cpu.hh"
#include "baselines/recnmp.hh"
#include "baselines/tensordimm.hh"
#include "bench.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "embedding/quantize.hh"
#include "embedding/reduce_kernels.hh"
#include "fafnir/engine.hh"
#include "fafnir/functional.hh"
#include "fafnir/host.hh"
#include "fafnir/sharding.hh"

namespace perfbench
{

using namespace fafnir;

namespace
{

/** 32 tables x 1M rows x 512 B, as in the paper's system. */
const embedding::TableConfig kTables{32, 1u << 20, 512, 4};
constexpr unsigned kRanks = 32;
constexpr unsigned kBatchSize = 32;
constexpr unsigned kQuerySize = 24;

/** One DDR4-2400 memory system with its own event queue. */
struct Dram
{
    Dram()
        : memory(eq, dram::Geometry::withTotalRanks(kRanks),
                 dram::Timing::ddr4_2400(), dram::Interleave::BlockRank,
                 kTables.vectorBytes)
    {}

    EventQueue eq;
    dram::MemorySystem memory;
};

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
ticksToNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerNs);
}

/** Distinct indices of @p batch, counted independently of the host. */
std::size_t
uniqueIndices(const embedding::Batch &batch)
{
    std::vector<IndexId> all;
    all.reserve(batch.totalIndices());
    for (const embedding::Query &q : batch.queries)
        all.insert(all.end(), q.indices.begin(), q.indices.end());
    std::sort(all.begin(), all.end());
    return static_cast<std::size_t>(
        std::unique(all.begin(), all.end()) - all.begin());
}

/**
 * Store-side reference of one query under quantized transport: every
 * vector round-trips the payload codec once, as the leaf read does,
 * then sums in query order. Power-of-two scales keep the sums exact,
 * so the served vector must match it bit for bit.
 */
embedding::Vector
quantizedReduce(const embedding::EmbeddingStore &store,
                const std::vector<IndexId> &indices,
                embedding::PayloadFormat fmt)
{
    embedding::Vector acc;
    for (IndexId idx : indices) {
        embedding::Vector v = store.vector(idx);
        embedding::payloadRoundTrip(fmt, v.data(), v.size());
        if (acc.empty())
            acc = std::move(v);
        else
            embedding::combineSpan(embedding::ReduceOp::Sum, acc.data(),
                                   v.data(), acc.size());
    }
    return acc;
}

/** True when every query of @p t completed no later than its batch. */
template <typename Timing>
bool
completesWithinBatch(const Timing &t, std::size_t query)
{
    return query < t.queryComplete.size() &&
        t.queryComplete[query] >= t.issued &&
        t.queryComplete[query] <= t.complete;
}

/** Replay @p prepared's reads through @p memory; returns the count. */
std::uint64_t
replayReads(dram::MemorySystem &memory, const core::PreparedBatch &prepared,
            dram::Destination dest)
{
    const auto bytes =
        static_cast<unsigned>(prepared.vectorPayloadBytes(kTables.dim()));
    std::uint64_t reads = 0;
    for (const auto &rank : prepared.rankReads)
        for (const core::RankRead &read : rank) {
            memory.read(read.address, bytes, 0, dest);
            ++reads;
        }
    return reads;
}

/** Split @p pool into consecutive calls of @p per batches. */
std::vector<std::vector<embedding::Batch>>
chunk(const std::vector<embedding::Batch> &pool, unsigned per)
{
    if (pool.size() % per != 0)
        throw std::invalid_argument("pool size must be a multiple of the "
                                    "batches per call");
    std::vector<std::vector<embedding::Batch>> chunks(pool.size() / per);
    for (std::size_t i = 0; i < pool.size(); ++i)
        chunks[i / per].push_back(pool[i]);
    return chunks;
}

/** Tree work of one lookup, summed over a prefix. */
struct TreeSums
{
    double reduces = 0, forwards = 0, rootCombines = 0, maxPeOutputs = 0;
    double unique = 0, references = 0;

    template <typename Timing>
    void
    add(const Timing &t)
    {
        reduces += static_cast<double>(t.activity.reduces);
        forwards += static_cast<double>(t.activity.forwards);
        rootCombines += static_cast<double>(t.rootCombines);
        maxPeOutputs =
            std::max(maxPeOutputs, static_cast<double>(t.maxPeOutputs));
        unique += static_cast<double>(t.uniqueCount);
        references += static_cast<double>(t.totalReferences);
    }

    void
    report(Metrics &m, double batches) const
    {
        m["host.unique_per_reference"] = ratio(unique, references);
        m["tree.reduces_per_batch"] = ratio(reduces, batches);
        m["tree.forwards_per_batch"] = ratio(forwards, batches);
        m["tree.root_combines_per_batch"] = ratio(rootCombines, batches);
        m["tree.max_pe_outputs"] = maxPeOutputs;
    }
};

/** Tree-probe work must equal the work the engine's own run did. */
template <typename Timing>
bool
sameTreeWork(const core::TreeRun &run, const Timing &t)
{
    return run.total.reduces == t.activity.reduces &&
        run.total.forwards == t.activity.forwards &&
        run.rootCombines == t.rootCombines &&
        run.maxPeOutputs == t.maxPeOutputs;
}

// --------------------------------------------------------------------
// lookup-analytic
// --------------------------------------------------------------------

class LookupAnalytic final : public Workload
{
  public:
    LookupAnalytic(std::vector<embedding::Batch> pool, const Plan &plan)
        : plan_(plan), pool_(std::move(pool)),
          layout_(kTables, dram_.memory.mapper()),
          engine_(dram_.memory, layout_, core::EngineConfig{})
    {}

    unsigned batchesPerCall() const override { return 1; }

    StepStats
    step(std::uint64_t call, Tracer *tracer, Inject inject) override
    {
        const embedding::Batch &batch = pool_[call % pool_.size()];
        StepStats st;
        st.batches = 1;
        st.queries = batch.size();

        const auto t0 = Clock::now();
        core::PreparedBatch prepared =
            core::prepareBatch(layout_, nullptr, batch, /*dedup=*/true);
        const auto t1 = Clock::now();
        core::LookupTiming timing = engine_.lookupPrepared(prepared, 0);
        const auto t2 = Clock::now();
        if (tracer != nullptr)
            probe(call, *tracer, prepared, timing, t0, t1, t2);
        const auto r0 = Clock::now();
        prepared = core::PreparedBatch{};
        const auto r1 = Clock::now();
        st.callNs = nsBetween(t0, t2) + nsBetween(r0, r1);
        if (tracer != nullptr)
            tracer->add("fafnir.host", call, -1, SpanKind::Call, r0, r1);

        const auto c0 = Clock::now();
        if (inject == Inject::Value)
            timing.queryComplete[0] = timing.complete + 1;
        else if (inject == Inject::Count)
            ++timing.memAccesses;
        st.failedQueries = check(batch, timing);
        st.checkNs = nsBetween(c0, Clock::now());

        if (call < plan_.prefixBatches())
            record(timing);
        if (call + 1 == plan_.prefixBatches())
            snapshot();
        return st;
    }

  private:
    struct Probes
    {
        explicit Probes(const core::TreeTopology &topology) : tree(topology)
        {}

        core::FunctionalTree tree;
        Dram dram;
    };

    /** Dedup reads == distinct indices; queries finish within the batch. */
    static std::uint64_t
    check(const embedding::Batch &batch, const core::LookupTiming &t)
    {
        const std::size_t unique = uniqueIndices(batch);
        if (t.memAccesses != unique || t.uniqueCount != unique ||
            t.totalReferences != batch.totalIndices())
            return batch.size();
        std::uint64_t failed = 0;
        for (std::size_t q = 0; q < batch.size(); ++q)
            failed += !completesWithinBatch(t, q);
        return failed;
    }

    void
    probe(std::uint64_t call, Tracer &tracer,
          const core::PreparedBatch &prepared,
          const core::LookupTiming &timing, Clock::time_point t0,
          Clock::time_point t1, Clock::time_point t2)
    {
        if (!probes_)
            probes_ = std::make_unique<Probes>(engine_.topology());
        tracer.add("fafnir.host", call, -1, SpanKind::Call, t0, t1);
        const std::int32_t engine =
            tracer.add("fafnir.engine", call, -1, SpanKind::Call, t1, t2);

        // The engine runs the tree headers-only with traces kept.
        const auto p0 = Clock::now();
        {
            const core::TreeRun run = probes_->tree.run(
                prepared, /*values=*/false, /*keep_trace=*/true);
            invariantsHold_ = invariantsHold_ && sameTreeWork(run, timing);
            probeCounts_["tree.pool_acquires"] +=
                static_cast<double>(run.poolStats.acquires);
            probeCounts_["tree.pool_reuses"] +=
                static_cast<double>(run.poolStats.reuses);
        }
        const auto p1 = Clock::now();
        tracer.add("fafnir.tree", call, engine, SpanKind::Nested, p0, p1);

        const auto d0 = Clock::now();
        const std::uint64_t reads = replayReads(
            probes_->dram.memory, prepared, dram::Destination::Ndp);
        const auto d1 = Clock::now();
        tracer.add("dram", call, engine, SpanKind::Probe, d0, d1);
        probeCounts_["dram.reads"] += static_cast<double>(reads);
    }

    void
    record(const core::LookupTiming &t)
    {
        digest_.add(t.complete);
        for (Tick q : t.queryComplete)
            digest_.add(q);
        digest_.add(t.memAccesses);
        digest_.add(t.activity.reduces);
        digest_.add(t.activity.forwards);
        digest_.add(t.rootCombines);
        digest_.add(t.dramPayloadBytes);
        digest_.add(t.linkPayloadBytes);
        tree_.add(t);
        makespan_ = std::max(makespan_, t.complete);
        queries_ += static_cast<double>(t.queryComplete.size());
        batches_ += 1;
    }

    void
    snapshot()
    {
        const dram::MemorySystem &mem = dram_.memory;
        prefixSimNsPerQuery_ = ratio(ticksToNs(makespan_), queries_);
        tree_.report(prefixCounts_, batches_);
        prefixCounts_["dram.reads_per_query"] =
            ratio(static_cast<double>(mem.readCount()), queries_);
        prefixCounts_["dram.row_hit_ratio"] =
            ratio(static_cast<double>(mem.rowHitCount()),
                  static_cast<double>(mem.rowHitCount() +
                                      mem.rowMissCount()));
        prefixCounts_["dram.rank_bus_utilization"] =
            mem.rankBusUtilization(makespan_);
    }

    Plan plan_;
    std::vector<embedding::Batch> pool_;
    Dram dram_;
    embedding::VectorLayout layout_;
    core::FafnirEngine engine_;
    std::unique_ptr<Probes> probes_;

    TreeSums tree_;
    Tick makespan_ = 0;
    double queries_ = 0, batches_ = 0;
};

// --------------------------------------------------------------------
// serve-sharded
// --------------------------------------------------------------------

class ServeSharded final : public Workload
{
  public:
    static constexpr unsigned kBatchesPerCall = 8;
    static constexpr embedding::PayloadFormat kPayload =
        embedding::PayloadFormat::Int8;

    ServeSharded(const std::vector<embedding::Batch> &pool, const Plan &plan)
        : plan_(plan), chunks_(chunk(pool, kBatchesPerCall)),
          store_(kTables), config_(tierConfig()),
          groups_(core::makeShardReplicas(
              config_.shards, config_.serving.engines,
              core::ReplicaMemoryConfig{}, kTables, engineConfig(),
              &store_)),
          tier_(std::make_unique<core::ShardedServingTier>(
              config_, groups_, &store_)),
          refsPerShard_(config_.shards, 0)
    {}

    unsigned batchesPerCall() const override { return kBatchesPerCall; }

    StepStats
    step(std::uint64_t call, Tracer *tracer, Inject inject) override
    {
        const std::vector<embedding::Batch> &batches =
            chunks_[call % chunks_.size()];
        const std::uint64_t first = call * kBatchesPerCall;
        StepStats st;
        st.batches = kBatchesPerCall;
        for (const embedding::Batch &b : batches)
            st.queries += b.size();

        // Arrivals are back to back (gap 0); each call starts when the
        // previous one's last combine finished.
        const auto t0 = Clock::now();
        core::ShardedReport report = tier_->serve(batches, 0, start_);
        const auto t1 = Clock::now();
        if (tracer != nullptr)
            probe(first, *tracer,
                  tracer->add("fafnir.serving", first, -1, SpanKind::Call,
                              t0, t1),
                  batches);

        const auto c0 = Clock::now();
        if (inject == Inject::Value)
            report.batches.at(0).results.at(0).at(0) += 1.0f;
        else if (inject == Inject::Count)
            ++report.perShard.at(0).batches.at(0).timing.memAccesses;
        st.failedQueries = check(batches, report);
        st.checkNs = nsBetween(c0, Clock::now());

        for (const core::ShardedBatchTrace &b : report.batches)
            start_ = std::max(start_, b.combineDone);
        if (first < plan_.prefixBatches())
            record(report);
        if (first + kBatchesPerCall == plan_.prefixBatches())
            snapshot();

        const auto r0 = Clock::now();
        report = core::ShardedReport{};
        const auto r1 = Clock::now();
        st.callNs = nsBetween(t0, t1) + nsBetween(r0, r1);
        if (tracer != nullptr)
            tracer->add("fafnir.serving", first, -1, SpanKind::Call, r0, r1);
        return st;
    }

  private:
    static core::ShardTierConfig
    tierConfig()
    {
        core::ShardTierConfig tc;
        tc.shards = 2;
        tc.placement = core::PlacementPolicy::Hash;
        tc.serving.engines = 2;
        tc.serving.pipelineDepth = 2;
        tc.serving.prepareWorkers = 2;
        tc.serving.dedup = true;
        tc.serving.payload = kPayload;
        return tc;
    }

    static core::EventEngineConfig
    engineConfig()
    {
        core::EventEngineConfig ecfg;
        ecfg.base.dedup = true;
        ecfg.base.payload = kPayload;
        ecfg.computeValues = true;
        return ecfg;
    }

    struct Probes
    {
        Probes(unsigned shards, const core::EventEngineConfig &ecfg,
               const embedding::EmbeddingStore *store)
            : pool(tierConfig().serving.prepareWorkers),
              replicas(core::makeShardReplicas(shards, 1,
                                               core::ReplicaMemoryConfig{},
                                               kTables, ecfg, store)),
              tree(replicas.at(0).at(0).engine->topology())
        {
            for (unsigned d = 0; d < tierConfig().serving.pipelineDepth; ++d)
                arenas.push_back(pool.makeSlotArenas());
        }

        /** One value-buffer arena per pipeline slot, used in turn as the
         *  pipeline does; declared first so the pool drains its pending
         *  recycles before they are destroyed. */
        std::vector<core::PreparePool::SlotArenas> arenas;
        std::size_t nextSlot = 0;
        core::PreparePool pool;
        std::vector<std::vector<core::EngineReplica>> replicas;
        core::FunctionalTree tree;
        Dram dram;
    };

    /** Re-time split, prepare, event replay and tree on each batch. */
    void
    probe(std::uint64_t first, Tracer &tracer, std::int32_t serve,
          const std::vector<embedding::Batch> &batches)
    {
        if (!probes_)
            probes_ = std::make_unique<Probes>(config_.shards,
                                               engineConfig(), &store_);
        for (std::size_t k = 0; k < batches.size(); ++k) {
            const std::uint64_t ordinal = first + k;
            auto p0 = Clock::now();
            const core::ShardRouter::SplitBatch split =
                tier_->router().split(batches[k]);
            auto p1 = Clock::now();
            tracer.add("fafnir.sharding", ordinal, serve, SpanKind::Nested,
                       p0, p1);
            for (unsigned s = 0; s < config_.shards; ++s) {
                const embedding::Batch &sub = split.perShard[s].batch;
                if (sub.queries.empty())
                    continue;
                core::EngineReplica &replica = probes_->replicas[s][0];
                core::PreparePool::SlotArenas &arenas =
                    probes_->arenas[probes_->nextSlot++ %
                                    probes_->arenas.size()];

                p0 = Clock::now();
                core::PreparedBatch prepared = probes_->pool.prepare(
                    *replica.layout, &store_, sub, /*dedup=*/true, &arenas,
                    kPayload);
                p1 = Clock::now();
                tracer.add("fafnir.host", ordinal, serve, SpanKind::Nested,
                           p0, p1);

                const std::uint64_t events0 = replica.eventq->executedCount();
                core::LookupTiming work;
                p0 = Clock::now();
                {
                    core::EventLookupTiming t =
                        replica.engine->lookupPrepared(prepared, 0);
                    work = std::move(static_cast<core::LookupTiming &>(t));
                }
                p1 = Clock::now();
                const std::int32_t event =
                    tracer.add("fafnir.event_engine", ordinal, serve,
                               SpanKind::Nested, p0, p1);
                probeCounts_["event.events"] += static_cast<double>(
                    replica.eventq->executedCount() - events0);

                p0 = Clock::now();
                {
                    const core::TreeRun run = probes_->tree.run(
                        prepared, /*values=*/true, /*keep_trace=*/true,
                        embedding::ReduceOp::Sum);
                    invariantsHold_ =
                        invariantsHold_ && sameTreeWork(run, work);
                    probeCounts_["tree.pool_acquires"] +=
                        static_cast<double>(run.poolStats.acquires);
                    probeCounts_["tree.pool_reuses"] +=
                        static_cast<double>(run.poolStats.reuses);
                }
                p1 = Clock::now();
                tracer.add("fafnir.tree", ordinal, event, SpanKind::Nested,
                           p0, p1);

                p0 = Clock::now();
                const std::uint64_t reads = replayReads(
                    probes_->dram.memory, prepared, dram::Destination::Ndp);
                p1 = Clock::now();
                tracer.add("dram", ordinal, event, SpanKind::Probe, p0, p1);
                probeCounts_["dram.reads"] += static_cast<double>(reads);
                probes_->pool.recycleAsync(std::move(prepared), arenas);
            }
        }
    }

    /**
     * Every served vector equals the store-side quantized reference,
     * and every shard read each of its distinct indices exactly once.
     */
    std::uint64_t
    check(const std::vector<embedding::Batch> &batches,
          const core::ShardedReport &report) const
    {
        std::uint64_t queries = 0, expectedReads = 0, reads = 0;
        for (const embedding::Batch &b : batches) {
            queries += b.size();
            expectedReads += uniqueIndices(b);
        }
        for (const core::PipelineReport &shard : report.perShard)
            for (const core::ServedBatchTrace &t : shard.batches)
                reads += t.timing.memAccesses;
        if (reads != expectedReads || report.batches.size() != batches.size())
            return queries;

        std::uint64_t failed = 0;
        for (const core::ShardedBatchTrace &trace : report.batches) {
            const embedding::Batch &batch = batches.at(trace.batch);
            if (trace.results.size() != batch.size()) {
                failed += batch.size();
                continue;
            }
            for (std::size_t q = 0; q < batch.size(); ++q) {
                const embedding::Vector ref = quantizedReduce(
                    store_, batch.queries[q].indices, kPayload);
                const embedding::Vector &got = trace.results[q];
                failed += got.size() != ref.size() ||
                    std::memcmp(got.data(), ref.data(),
                                got.size() * sizeof(float)) != 0;
            }
        }
        return failed;
    }

    void
    record(const core::ShardedReport &report)
    {
        for (const core::ShardedBatchTrace &b : report.batches) {
            digest_.add(b.combineDone);
            digest_.add(b.shardsTouched);
            for (const embedding::Vector &v : b.results) {
                digest_.addBytes(v.data(), v.size() * sizeof(float));
                queries_ += 1;
            }
            makespan_ = std::max(makespan_, b.combineDone);
            batches_ += 1;
        }
        for (std::size_t s = 0; s < report.perShard.size(); ++s) {
            const core::PipelineReport &shard = report.perShard[s];
            for (const core::ServedBatchTrace &b : shard.batches) {
                const core::EventLookupTiming &t = b.timing;
                digest_.add(b.done);
                digest_.add(t.complete);
                for (Tick q : t.queryComplete)
                    digest_.add(q);
                digest_.add(t.memAccesses);
                digest_.add(t.activity.reduces);
                digest_.add(t.activity.forwards);
                digest_.add(t.fifoOverflows);
                digest_.add(t.dramPayloadBytes);
                digest_.add(t.linkPayloadBytes);
                tree_.add(t);
                fifoOverflows_ += static_cast<double>(t.fifoOverflows);
                forwardWaits_ += static_cast<double>(t.forwardWaits);
            }
            dispatchWait_ += shard.dispatchWait;
            refsPerShard_[s] += report.refsPerShard.at(s);
        }
        combineBusy_ += report.combineBusy;
        crossShard_ += static_cast<double>(report.crossShardQueries);
    }

    void
    snapshot()
    {
        prefixSimNsPerQuery_ = ratio(ticksToNs(makespan_), queries_);
        Metrics &m = prefixCounts_;
        tree_.report(m, batches_);
        m["event.fifo_overflows_per_batch"] = ratio(fifoOverflows_, batches_);
        m["event.forward_waits_per_batch"] = ratio(forwardWaits_, batches_);

        double events = 0, reads = 0, hits = 0, misses = 0, busy = 0;
        double replicas = 0;
        for (const auto &group : groups_)
            for (const core::EngineReplica &r : group) {
                events += static_cast<double>(r.eventq->executedCount());
                reads += static_cast<double>(r.memory->readCount());
                hits += static_cast<double>(r.memory->rowHitCount());
                misses += static_cast<double>(r.memory->rowMissCount());
                busy += r.memory->rankBusUtilization(makespan_);
                replicas += 1;
            }
        m["eventq.events_per_batch"] = ratio(events, batches_);
        m["dram.reads_per_query"] = ratio(reads, queries_);
        m["dram.row_hit_ratio"] = ratio(hits, hits + misses);
        m["dram.rank_bus_utilization"] = ratio(busy, replicas);

        m["serving.sim_dispatch_wait_ns_per_batch"] =
            ratio(ticksToNs(dispatchWait_), batches_);
        m["shard.cross_shard_query_ratio"] = ratio(crossShard_, queries_);
        double peak = 0, total = 0;
        for (std::uint64_t r : refsPerShard_) {
            peak = std::max(peak, static_cast<double>(r));
            total += static_cast<double>(r);
        }
        m["shard.imbalance"] =
            ratio(peak, total / static_cast<double>(refsPerShard_.size()));
        m["shard.sim_combine_ns_per_batch"] =
            ratio(ticksToNs(combineBusy_), batches_);
    }

    Plan plan_;
    std::vector<std::vector<embedding::Batch>> chunks_;
    embedding::EmbeddingStore store_;
    core::ShardTierConfig config_;
    std::vector<std::vector<core::EngineReplica>> groups_;
    std::unique_ptr<core::ShardedServingTier> tier_;
    std::unique_ptr<Probes> probes_;
    Tick start_ = 0;

    TreeSums tree_;
    Tick makespan_ = 0, dispatchWait_ = 0, combineBusy_ = 0;
    double queries_ = 0, batches_ = 0;
    double fifoOverflows_ = 0, forwardWaits_ = 0, crossShard_ = 0;
    std::vector<std::uint64_t> refsPerShard_;
};

// --------------------------------------------------------------------
// baselines
// --------------------------------------------------------------------

class Baselines final : public Workload
{
  public:
    static constexpr unsigned kBatchesPerCall = 4;

    Baselines(const std::vector<embedding::Batch> &pool, const Plan &plan)
        : plan_(plan), chunks_(chunk(pool, kBatchesPerCall)),
          cpuLayout_(kTables, cpuDram_.memory.mapper()),
          recnmpLayout_(kTables, recnmpDram_.memory.mapper()),
          cpu_(cpuDram_.memory, cpuLayout_),
          recnmp_(recnmpDram_.memory, recnmpLayout_, recnmpConfig()),
          tensordimm_(tensordimmDram_.memory, kTables)
    {}

    unsigned batchesPerCall() const override { return kBatchesPerCall; }

    StepStats
    step(std::uint64_t call, Tracer *tracer, Inject inject) override
    {
        const std::vector<embedding::Batch> &batches =
            chunks_[call % chunks_.size()];
        const std::uint64_t first = call * kBatchesPerCall;
        StepStats st;
        st.batches = kBatchesPerCall;
        for (const embedding::Batch &b : batches)
            st.queries += b.size();

        const double reads0 = memoryReads();
        const auto t0 = Clock::now();
        std::vector<baselines::LookupTiming> cpu =
            cpu_.lookupMany(batches, start_[0]);
        const auto t1 = Clock::now();
        std::vector<baselines::LookupTiming> recnmp =
            recnmp_.lookupMany(batches, start_[1]);
        const auto t2 = Clock::now();
        std::vector<baselines::LookupTiming> tensordimm =
            tensordimm_.lookupMany(batches, start_[2]);
        const auto t3 = Clock::now();
        st.callNs = nsBetween(t0, t3);
        if (tracer != nullptr) {
            probeCounts_["baselines.reads"] += memoryReads() - reads0;
            probe(first, *tracer, batches, start_[0], t0, t1, t2, t3);
        }

        const auto c0 = Clock::now();
        if (inject == Inject::Value)
            cpu.at(0).queryComplete.at(0) = cpu.at(0).complete + 1;
        else if (inject == Inject::Count)
            ++cpu.at(0).memAccesses;
        st.failedQueries = check(batches, {&cpu, &recnmp, &tensordimm});
        st.checkNs = nsBetween(c0, Clock::now());

        // Each call is issued once the previous one completed.
        const Timings *designs[] = {&cpu, &recnmp, &tensordimm};
        for (std::size_t d = 0; d < 3; ++d)
            for (const baselines::LookupTiming &t : *designs[d])
                start_[d] = std::max(start_[d], t.complete);
        if (first < plan_.prefixBatches())
            record(designs);
        if (first + kBatchesPerCall == plan_.prefixBatches())
            snapshot();
        return st;
    }

  private:
    using Timings = std::vector<baselines::LookupTiming>;

    static baselines::RecNmpConfig
    recnmpConfig()
    {
        baselines::RecNmpConfig cfg;
        cfg.cacheEnabled = true;
        return cfg;
    }

    double
    memoryReads() const
    {
        return static_cast<double>(cpuDram_.memory.readCount() +
                                   recnmpDram_.memory.readCount() +
                                   tensordimmDram_.memory.readCount());
    }

    void
    probe(std::uint64_t first, Tracer &tracer,
          const std::vector<embedding::Batch> &batches, Tick start,
          Clock::time_point t0, Clock::time_point t1, Clock::time_point t2,
          Clock::time_point t3)
    {
        const std::int32_t cpu =
            tracer.add("baselines.cpu", first, -1, SpanKind::Call, t0, t1);
        tracer.add("baselines.recnmp", first, -1, SpanKind::Call, t1, t2);
        tracer.add("baselines.tensordimm", first, -1, SpanKind::Call, t2,
                   t3);
        if (!shadow_)
            shadow_ = std::make_unique<Dram>();
        // The CPU's read stream: every reference crosses to the host,
        // no earlier than the call's start.
        const auto d0 = Clock::now();
        std::uint64_t reads = 0;
        for (const embedding::Batch &b : batches)
            for (const embedding::Query &q : b.queries)
                for (IndexId idx : q.indices) {
                    shadow_->memory.read(cpuLayout_.addressOf(idx),
                                         kTables.vectorBytes, start,
                                         dram::Destination::Host);
                    ++reads;
                }
        const auto d1 = Clock::now();
        tracer.add("dram", first, cpu, SpanKind::Probe, d0, d1);
        probeCounts_["dram.reads"] += static_cast<double>(reads);
    }

    /** CPU reads == references; every design's queries finish in batch. */
    static std::uint64_t
    check(const std::vector<embedding::Batch> &batches,
          std::initializer_list<const Timings *> designs)
    {
        std::uint64_t failed = 0;
        const Timings &cpu = **designs.begin();
        for (std::size_t k = 0; k < batches.size(); ++k) {
            const embedding::Batch &batch = batches[k];
            bool countsOk = cpu.size() == batches.size() &&
                cpu[k].memAccesses == batch.totalIndices();
            for (const Timings *d : designs)
                countsOk = countsOk && d->size() == batches.size();
            if (!countsOk) {
                failed += batch.size();
                continue;
            }
            for (std::size_t q = 0; q < batch.size(); ++q) {
                bool ok = true;
                for (const Timings *d : designs)
                    ok = ok && completesWithinBatch((*d)[k], q);
                failed += !ok;
            }
        }
        return failed;
    }

    void
    record(const Timings *const *designs)
    {
        for (std::size_t d = 0; d < 3; ++d)
            for (const baselines::LookupTiming &t : *designs[d]) {
                digest_.add(t.complete);
                for (Tick q : t.queryComplete)
                    digest_.add(q);
                digest_.add(t.memAccesses);
                digest_.add(t.ndpReduces);
                digest_.add(t.hostReduces);
                digest_.add(t.cacheHits);
                digest_.add(t.cacheMisses);
                makespan_[d] = std::max(makespan_[d], t.complete);
            }
        for (const baselines::LookupTiming &t : *designs[0])
            queries_ += static_cast<double>(t.queryComplete.size());
    }

    void
    snapshot()
    {
        static const char *const names[] = {"cpu", "recnmp", "tensordimm"};
        const Dram *drams[] = {&cpuDram_, &recnmpDram_, &tensordimmDram_};
        double sum = 0, reads = 0, hits = 0, misses = 0, busy = 0;
        for (std::size_t d = 0; d < 3; ++d) {
            const double ns = ratio(ticksToNs(makespan_[d]), queries_);
            prefixCounts_[std::string("baselines.") + names[d] +
                          ".sim_ns_per_query"] = ns;
            sum += ns;
            const dram::MemorySystem &mem = drams[d]->memory;
            reads += static_cast<double>(mem.readCount());
            hits += static_cast<double>(mem.rowHitCount());
            misses += static_cast<double>(mem.rowMissCount());
            busy += mem.rankBusUtilization(makespan_[d]);
        }
        prefixSimNsPerQuery_ = sum;
        prefixCounts_["dram.reads_per_query"] = ratio(reads, queries_);
        prefixCounts_["dram.row_hit_ratio"] = ratio(hits, hits + misses);
        prefixCounts_["dram.rank_bus_utilization"] = busy / 3.0;
    }

    Plan plan_;
    std::vector<std::vector<embedding::Batch>> chunks_;
    Dram cpuDram_, recnmpDram_, tensordimmDram_;
    embedding::VectorLayout cpuLayout_, recnmpLayout_;
    baselines::CpuEngine cpu_;
    baselines::RecNmpEngine recnmp_;
    baselines::TensorDimmEngine tensordimm_;
    std::unique_ptr<Dram> shadow_;
    Tick start_[3] = {0, 0, 0};

    Tick makespan_[3] = {0, 0, 0};
    double queries_ = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "lookup-analytic", "serve-sharded", "baselines"};
    return names;
}

std::vector<embedding::Batch>
generateInputs(const std::string &workload, std::uint64_t seed,
               const Plan &plan)
{
    embedding::WorkloadConfig wc;
    wc.tables = kTables;
    wc.batchSize = kBatchSize;
    wc.querySize = kQuerySize;
    if (workload == "serve-sharded") {
        wc.popularity = embedding::Popularity::Uniform;
    } else {
        wc.popularity = embedding::Popularity::Zipfian;
        wc.zipfSkew = 0.9;
        wc.hotFraction = 0.001;
    }
    embedding::BatchGenerator gen(wc, seed);
    std::vector<embedding::Batch> pool;
    pool.reserve(plan.poolBatches);
    for (unsigned i = 0; i < plan.poolBatches; ++i)
        pool.push_back(gen.next());
    return pool;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &workload, std::vector<embedding::Batch> pool,
             const Plan &plan)
{
    if (workload == "lookup-analytic")
        return std::make_unique<LookupAnalytic>(std::move(pool), plan);
    if (workload == "serve-sharded")
        return std::make_unique<ServeSharded>(pool, plan);
    if (workload == "baselines")
        return std::make_unique<Baselines>(pool, plan);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

} // namespace perfbench
