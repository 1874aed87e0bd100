/**
 * @file
 * Implementation of the tree-replay core.
 */

#include "replay.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace fafnir::core
{

TreeReplay::TreeReplay(const dram::MemorySystem &memory,
                       const embedding::VectorLayout &layout,
                       const EngineConfig &config,
                       const embedding::EmbeddingStore *store)
    : layout_(layout), config_(config),
      topology_(memory.geometry().totalRanks(), config.ranksPerLeafPe),
      store_(store), tree_(topology_),
      pePeriod_(periodFromMhz(config.peClockMhz))
{
    if (config_.interactive)
        config_.latency.compare = 0; // no batch comparisons
}

void
LookupTiming::appendSubBatch(const LookupTiming &next)
{
    memFirst = std::min(memFirst, next.memFirst);
    memLast = std::max(memLast, next.memLast);
    complete = std::max(complete, next.complete);
    memAccesses += next.memAccesses;
    uniqueCount += next.uniqueCount;
    totalReferences += next.totalReferences;
    rootCombines += next.rootCombines;
    maxPeOutputs = std::max(maxPeOutputs, next.maxPeOutputs);
    bufferOverflows += next.bufferOverflows;
    dramPayloadBytes += next.dramPayloadBytes;
    linkPayloadBytes += next.linkPayloadBytes;
    activity += next.activity;
    queryComplete.insert(queryComplete.end(), next.queryComplete.begin(),
                         next.queryComplete.end());
}

TreeRun
TreeReplay::run(const PreparedBatch &prepared, Tick start,
                LookupTiming &timing, bool values,
                embedding::ReduceOp op) const
{
    TreeRun run = tree_.run(prepared, values, /*keep_trace=*/true, op);
    const std::uint64_t vector_bytes = vectorBytes(prepared);
    timing.issued = start;
    timing.memAccesses = prepared.accessCount;
    timing.uniqueCount = prepared.uniqueCount;
    timing.totalReferences = prepared.totalReferences;
    timing.payload = prepared.payload;
    timing.dramPayloadBytes = prepared.accessCount * vector_bytes;
    timing.activity = run.total;
    timing.rootCombines = run.rootCombines;
    timing.maxPeOutputs = run.maxPeOutputs;
    timing.bufferOverflows = run.maxPeOutputs > config_.hwBatch ? 1 : 0;
    // Every traced output crosses one link upward (the root's cross the
    // root-to-host link) carrying one vector payload.
    std::uint64_t outputs = 0;
    for (const PeTrace &trace : run.trace)
        outputs += trace.outputs.size();
    timing.linkPayloadBytes = outputs * vector_bytes;
    return run;
}

Tick
TreeReplay::pathTicks(unsigned pe, PeAction action) const
{
    const PeLatency &lat = config_.latency;
    Cycles cycles = lat.merge + (action == PeAction::Reduce
                                     ? lat.reducePath()
                                     : lat.forwardPath());
    // Crossing from a DIMM/rank-node chip into the channel-node chip
    // costs an inter-chip link hop (Figure 4a packaging), charged on the
    // outputs of the highest PE still inside a DIMM/rank node.
    const unsigned levels = topology_.numLevels();
    if (levels > config_.channelNodeLevels &&
        topology_.heightOf(pe) == levels - 1 - config_.channelNodeLevels)
        cycles += config_.interNodeLinkCycles;
    return cycles * pePeriod_;
}

std::vector<Tick>
TreeReplay::queryReady(const TreeRun &run,
                       const std::vector<Tick> &root_times,
                       Tick start) const
{
    FAFNIR_ASSERT(root_times.size() == run.rootOutputs,
                  "root trace size mismatch");
    std::vector<Tick> ready(run.rootOutputsOf.size(), start);
    for (QueryId q = 0; q < ready.size(); ++q) {
        for (std::uint32_t k : run.rootOutputsOf[q])
            ready[q] = std::max(ready[q], root_times[k]);
        // Residual disjoint partials are summed at the root output stage.
        ready[q] += (run.rootOutputsOf[q].size() - 1) *
                    config_.latency.reduceValue * pePeriod_;
    }
    return ready;
}

std::vector<Tick>
TreeReplay::hostTail(const std::vector<Tick> &ready, unsigned vector_bytes,
                     Tick min_complete, LookupTiming &timing) const
{
    std::vector<std::pair<Tick, QueryId>> order;
    order.reserve(ready.size());
    for (QueryId q = 0; q < ready.size(); ++q)
        order.emplace_back(ready[q], q);
    std::sort(order.begin(), order.end());

    const auto transfer_ticks = static_cast<Tick>(
        static_cast<double>(vector_bytes) / config_.rootLinkGBs * 1000.0);
    FAFNIR_ASSERT(config_.hostLinks >= 1, "need at least one host link");
    std::vector<Tick> link_free(config_.hostLinks, min_complete);
    std::vector<Tick> link_start(ready.size());
    Tick last = min_complete;
    timing.queryComplete.assign(ready.size(), 0);
    for (const auto &[at, q] : order) {
        // Each vector takes the first link to free up.
        const auto link =
            std::min_element(link_free.begin(), link_free.end());
        link_start[q] = std::max(at, *link);
        *link = link_start[q] + transfer_ticks;
        timing.queryComplete[q] = *link + config_.hostReceiveOverhead;
        last = std::max(last, *link);
    }
    timing.complete = last + config_.hostReceiveOverhead;
    return link_start;
}

} // namespace fafnir::core
