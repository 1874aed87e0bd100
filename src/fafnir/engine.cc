/**
 * @file
 * Implementation of the Fafnir timing engine.
 */

#include "engine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fafnir::core
{

FafnirEngine::FafnirEngine(dram::MemorySystem &memory,
                           const embedding::VectorLayout &layout,
                           const EngineConfig &config)
    : memory_(memory), layout_(layout), config_(config),
      topology_(memory.geometry().totalRanks(), config.ranksPerLeafPe),
      host_(layout), tree_(topology_),
      pePeriod_(periodFromMhz(config.peClockMhz))
{
    if (config_.interactive)
        config_.latency.compare = 0; // no batch comparisons (§IV-C)
}

LookupTiming
FafnirEngine::lookup(const embedding::Batch &batch, Tick start)
{
    const unsigned capacity =
        config_.interactive ? 1 : config_.hwBatch;
    if (batch.size() <= capacity) {
        PreparedBatch prepared =
            host_.prepare(batch, config_.dedup, config_.payload);
        scheduleReads(prepared, config_.readOrder, memory_.mapper());
        return runPrepared(prepared, start, 0);
    }

    // Serve the software batch as hardware sub-batches: sub-batch i+1's
    // reads are admitted once i's drain from memory; root deliveries
    // stay ordered.
    LookupTiming merged;
    merged.issued = start;
    merged.memFirst = MaxTick;
    merged.queryComplete.assign(batch.size(), 0);
    Tick sub_start = start;
    Tick min_complete = 0;
    for (std::size_t first = 0; first < batch.size();
         first += capacity) {
        const std::size_t last =
            std::min(batch.size(), first + capacity);
        embedding::Batch sub;
        sub.queries.reserve(last - first);
        for (std::size_t i = first; i < last; ++i) {
            embedding::Query q = batch.queries[i];
            q.id = static_cast<QueryId>(i - first);
            sub.queries.push_back(std::move(q));
        }
        PreparedBatch sub_prepared =
            host_.prepare(sub, config_.dedup, config_.payload);
        scheduleReads(sub_prepared, config_.readOrder, memory_.mapper());
        LookupTiming t =
            runPrepared(sub_prepared, sub_start, min_complete);
        for (std::size_t i = first; i < last; ++i)
            merged.queryComplete[i] = t.queryComplete[i - first];
        merged.memFirst = std::min(merged.memFirst, t.memFirst);
        merged.memLast = std::max(merged.memLast, t.memLast);
        merged.complete = std::max(merged.complete, t.complete);
        merged.memAccesses += t.memAccesses;
        merged.uniqueCount += t.uniqueCount;
        merged.totalReferences += t.totalReferences;
        merged.rootCombines += t.rootCombines;
        merged.maxPeOutputs = std::max(merged.maxPeOutputs,
                                       t.maxPeOutputs);
        merged.bufferOverflows += t.bufferOverflows;
        merged.payload = t.payload;
        merged.dramPayloadBytes += t.dramPayloadBytes;
        merged.linkPayloadBytes += t.linkPayloadBytes;
        merged.activity += t.activity;
        sub_start = t.memLast;
        min_complete = t.complete;
    }
    return merged;
}

std::vector<LookupTiming>
FafnirEngine::lookupMany(const std::vector<embedding::Batch> &batches,
                         Tick start)
{
    std::vector<LookupTiming> timings;
    timings.reserve(batches.size());
    Tick min_complete = 0;
    for (const auto &batch : batches) {
        PreparedBatch prepared =
            host_.prepare(batch, config_.dedup, config_.payload);
        scheduleReads(prepared, config_.readOrder, memory_.mapper());
        LookupTiming t = runPrepared(prepared, start, min_complete);
        min_complete = t.complete;
        timings.push_back(std::move(t));
    }
    return timings;
}

LookupTiming
FafnirEngine::lookupPrepared(PreparedBatch &prepared, Tick start)
{
    scheduleReads(prepared, config_.readOrder, memory_.mapper());
    return runPrepared(prepared, start, 0);
}

LookupTiming
FafnirEngine::runPrepared(const PreparedBatch &prepared, Tick start,
                          Tick min_complete)
{
    // Transport width under the batch's payload format: fp32 keeps the
    // historical 4*dim; int8/twobit shrink every DRAM read and link
    // transfer to the compressed width (values were round-tripped at
    // prepare time, so the arithmetic downstream is unchanged).
    const auto vector_bytes = static_cast<unsigned>(
        prepared.vectorPayloadBytes(layout_.tables().dim()));
    const unsigned num_pes = topology_.numPes();

    LookupTiming timing;
    timing.issued = start;
    timing.memAccesses = prepared.accessCount;
    timing.uniqueCount = prepared.uniqueCount;
    timing.totalReferences = prepared.totalReferences;
    timing.payload = prepared.payload;
    timing.dramPayloadBytes =
        static_cast<std::uint64_t>(prepared.accessCount) * vector_bytes;

    // 1. Issue all reads. Per-rank lists are issued in order; the memory
    //    model serializes bank/bus conflicts internally. Arrival lists are
    //    built in the same (rank-ascending, in-list) order the functional
    //    evaluator uses to assemble leaf inputs.
    std::vector<std::vector<Tick>> arrive_a(num_pes + 1);
    std::vector<std::vector<Tick>> arrive_b(num_pes + 1);
    timing.memFirst = MaxTick;
    timing.memLast = start;
    for (unsigned rank = 0; rank < topology_.numRanks(); ++rank) {
        const unsigned pe = topology_.leafPeOf(rank);
        auto &side = topology_.sideOf(rank) == 0 ? arrive_a[pe]
                                                 : arrive_b[pe];
        for (const auto &read : prepared.rankReads[rank]) {
            const auto result = memory_.read(read.address, vector_bytes,
                                             start, dram::Destination::Ndp);
            side.push_back(result.complete);
            timing.memFirst = std::min(timing.memFirst, result.firstData);
            timing.memLast = std::max(timing.memLast, result.complete);
        }
    }
    if (timing.memFirst == MaxTick)
        timing.memFirst = start;

    // 2. Functional evaluation (headers only) with traces.
    const TreeRun run = tree_.run(prepared, /*values=*/false,
                                  /*keep_trace=*/true);
    timing.activity = run.total;
    timing.rootCombines = run.rootCombines;
    timing.maxPeOutputs = run.maxPeOutputs;
    if (run.maxPeOutputs > config_.hwBatch)
        ++timing.bufferOverflows;

    // 3. Replay traces with latencies, leaves to root.
    auto align = [this](Tick t) {
        const Tick rem = t % pePeriod_;
        return rem == 0 ? t : t + (pePeriod_ - rem);
    };
    std::vector<std::vector<Tick>> out_times(num_pes + 1);
    for (unsigned pe = num_pes; pe >= 1; --pe) {
        const std::vector<Tick> &in_a = topology_.isLeafPe(pe)
            ? arrive_a[pe]
            : out_times[topology_.leftChild(pe)];
        const std::vector<Tick> &in_b = topology_.isLeafPe(pe)
            ? arrive_b[pe]
            : out_times[topology_.rightChild(pe)];

        Tick ready = start;
        for (Tick t : in_a)
            ready = std::max(ready, t);
        for (Tick t : in_b)
            ready = std::max(ready, t);
        ready = align(ready);

        // Crossing from a DIMM/rank-node chip into the channel-node chip
        // costs an inter-chip link hop (Figure 4a packaging): the link is
        // charged on the outputs of the highest PE still inside a
        // DIMM/rank node.
        Cycles link = 0;
        if (topology_.numLevels() > config_.channelNodeLevels &&
            topology_.heightOf(pe) ==
                topology_.numLevels() - 1 - config_.channelNodeLevels) {
            link = config_.interNodeLinkCycles;
        }

        const auto &outputs = run.trace[pe].outputs;
        // Every traced output crosses one link upward (the root's cross
        // the root-to-host link) carrying one vector payload.
        timing.linkPayloadBytes +=
            static_cast<std::uint64_t>(outputs.size()) * vector_bytes;
        out_times[pe].reserve(outputs.size());
        for (std::size_t k = 0; k < outputs.size(); ++k) {
            const Cycles action = outputs[k].action == PeAction::Reduce
                ? config_.latency.reducePath()
                : config_.latency.forwardPath();
            const Cycles total = action + config_.latency.merge + link +
                                 k * config_.latency.issue;
            out_times[pe].push_back(ready + total * pePeriod_);
        }
        if (pe == 1)
            break;
    }

    // 4. Per-query completion at the root, then serialize result vectors
    //    on the root-to-host link.
    const std::size_t num_queries = prepared.querySets.size();
    std::vector<std::pair<Tick, QueryId>> finish_order;
    finish_order.reserve(num_queries);
    const auto &root_out = run.rootOutputs;
    const auto &root_times = out_times[TreeTopology::rootPe()];
    FAFNIR_ASSERT(root_times.size() == root_out.size(),
                  "root trace size mismatch");
    for (QueryId q = 0; q < num_queries; ++q) {
        Tick tq = start;
        for (std::size_t k = 0; k < root_out.size(); ++k)
            if (root_out[k].item.hasQuery(q))
                tq = std::max(tq, root_times[k]);
        // Residual disjoint partials are summed at the root output stage.
        tq += (run.rootItemsPerQuery[q] - 1) *
              config_.latency.reduceValue * pePeriod_;
        finish_order.emplace_back(tq, q);
    }
    std::sort(finish_order.begin(), finish_order.end());

    const auto transfer_ticks = static_cast<Tick>(
        static_cast<double>(vector_bytes) / config_.rootLinkGBs * 1000.0);
    // Finished vectors leave over c parallel root-to-host links.
    FAFNIR_ASSERT(config_.hostLinks >= 1, "need at least one host link");
    std::vector<Tick> link_free(config_.hostLinks, min_complete);
    Tick last = min_complete;
    timing.queryComplete.assign(num_queries, 0);
    for (const auto &[ready, q] : finish_order) {
        auto earliest = static_cast<std::size_t>(
            std::min_element(link_free.begin(), link_free.end()) -
            link_free.begin());
        const Tick done =
            std::max(ready, link_free[earliest]) + transfer_ticks;
        timing.queryComplete[q] = done + config_.hostReceiveOverhead;
        link_free[earliest] = done;
        last = std::max(last, done);
    }
    timing.complete = last + config_.hostReceiveOverhead;
    timing.memLast = std::min(timing.memLast, timing.complete);

    ++batches_;
    queries_ += num_queries;
    reads_ += timing.memAccesses;
    reduces_ += timing.activity.reduces;
    forwards_ += timing.activity.forwards;
    rootCombines_ += timing.rootCombines;
    bufferOverflows_ += timing.bufferOverflows;
    dramPayloadBytes_ += timing.dramPayloadBytes;
    linkPayloadBytes_ += timing.linkPayloadBytes;
    return timing;
}

void
FafnirEngine::registerStats(StatGroup &group) const
{
    group.addCounter("batches", batches_, "hardware batches served");
    group.addCounter("queries", queries_, "queries completed");
    group.addCounter("reads", reads_, "DRAM vector reads issued");
    group.addCounter("reduces", reduces_, "PE reduce operations");
    group.addCounter("forwards", forwards_, "PE forward operations");
    group.addCounter("rootCombines", rootCombines_,
                     "root-stage partial combinations");
    group.addCounter("bufferOverflows", bufferOverflows_,
                     "batches whose PE occupancy exceeded hwBatch");
    group.addCounter("dramPayloadBytes", dramPayloadBytes_,
                     "modelled payload bytes read from DRAM");
    group.addCounter("linkPayloadBytes", linkPayloadBytes_,
                     "modelled payload bytes over PE/root links");
    group.addFormula(
        "readsPerQuery",
        [this] {
            return queries_.value() == 0
                ? 0.0
                : static_cast<double>(reads_.value()) /
                      static_cast<double>(queries_.value());
        },
        "mean DRAM reads per query (dedup efficiency)");
}

} // namespace fafnir::core
