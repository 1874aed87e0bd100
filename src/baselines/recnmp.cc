/**
 * @file
 * Implementation of the RecNMP baseline.
 */

#include "recnmp.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "embedding/reduce_kernels.hh"

namespace fafnir::baselines
{

bool
RankCache::access(IndexId index)
{
    if (capacity_ == 0)
        return false;
    ++accesses_;
    auto it = entries_.find(index);
    if (it != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        // Enforce the empirical hit-rate ceiling (Section III-E).
        const double rate = static_cast<double>(hits_ + 1) /
                            static_cast<double>(accesses_);
        if (rate > maxHitRate_)
            return false;
        ++hits_;
        return true;
    }
    if (entries_.size() >= capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
    }
    lru_.push_front(index);
    entries_[index] = lru_.begin();
    return false;
}

RecNmpEngine::RecNmpEngine(dram::MemorySystem &memory,
                           const embedding::VectorLayout &layout,
                           const RecNmpConfig &config)
    : memory_(memory), layout_(layout), config_(config),
      core_(config.hostClockGhz, config.simdLanes),
      ndpPeriod_(periodFromMhz(config.ndpClockMhz))
{
    const unsigned ranks = memory_.geometry().totalRanks();
    caches_.reserve(ranks);
    for (unsigned r = 0; r < ranks; ++r)
        caches_.emplace_back(config_.cacheEnabled
                                 ? config_.cacheBytesPerRank
                                 : 0,
                             layout_.tables().vectorBytes,
                             config_.cacheMaxHitRate);
}

LookupTiming
RecNmpEngine::lookup(const embedding::Batch &batch, Tick start)
{
    core_.reset();
    return lookupKeepCore(batch, start);
}

std::vector<LookupTiming>
RecNmpEngine::lookupMany(const std::vector<embedding::Batch> &batches,
                         Tick start)
{
    core_.reset();
    std::vector<LookupTiming> timings;
    timings.reserve(batches.size());
    Tick t = start;
    for (const auto &batch : batches) {
        timings.push_back(lookupKeepCore(batch, t));
        // The next batch's reads are admitted as soon as the memory side
        // drains; the shared host core carries the backlog.
        t = timings.back().memLast;
    }
    return timings;
}

LookupTiming
RecNmpEngine::lookupKeepCore(const embedding::Batch &batch, Tick start)
{
    batch.check();

    const unsigned vector_bytes = layout_.tables().vectorBytes;
    const unsigned dim = layout_.tables().dim();
    const Tick add_ticks = config_.addCycles * ndpPeriod_;

    LookupTiming timing;
    timing.issued = start;
    timing.memLast = start;
    timing.queryComplete.assign(batch.size(), 0);

    for (const auto &query : batch.queries) {
        // Spatial-locality grouping: vectors co-located on one DIMM reduce
        // at that DIMM's NDP unit; everything else ships raw.
        std::map<unsigned, std::vector<IndexId>> by_dimm;
        for (IndexId index : query.indices)
            by_dimm[layout_.dimmOf(index)].push_back(index);

        // Each group yields one partial arriving at the host.
        Tick partial_ready = 0;
        bool first = true;
        for (const auto &[dimm, members] : by_dimm) {
            Tick group_done = 0;
            for (IndexId index : members) {
                const unsigned rank = layout_.rankOf(index);
                Tick arrival;
                if (caches_[rank].access(index)) {
                    ++timing.cacheHits;
                    arrival = start + config_.cacheHitLatency;
                } else {
                    ++timing.cacheMisses;
                    const auto result =
                        memory_.read(layout_.addressOf(index), vector_bytes,
                                     start, dram::Destination::Ndp);
                    ++timing.memAccesses;
                    timing.memLast =
                        std::max(timing.memLast, result.complete);
                    arrival = result.complete;
                }
                // Pipelined local accumulation: each member folds in one
                // adder pass after it lands.
                group_done = group_done == 0
                    ? arrival
                    : std::max(group_done, arrival) + add_ticks;
            }
            timing.ndpReduces += members.size() - 1;

            const unsigned channel =
                layout_.channelOf(members.front());
            const Tick at_host = memory_.transferToHost(
                               channel, vector_bytes, group_done) +
                           config_.hostPartialOverhead;

            // Host folds the partials of the query as they arrive.
            if (first) {
                partial_ready = at_host;
                first = false;
            } else {
                partial_ready =
                    core_.reduceAt(std::max(partial_ready, at_host), dim);
                ++timing.hostReduces;
            }
        }
        timing.queryComplete[query.id] = partial_ready;
        timing.complete = std::max(timing.complete, partial_ready);
    }
    return timing;
}

std::vector<embedding::Vector>
RecNmpEngine::reduceBatch(const embedding::EmbeddingStore &store,
                          const embedding::Batch &batch,
                          embedding::ReduceOp op) const
{
    batch.check();
    const unsigned dim = layout_.tables().dim();

    std::vector<embedding::Vector> results;
    results.reserve(batch.size());
    for (const auto &query : batch.queries) {
        // Same spatial grouping as the timing path: one NDP partial per
        // DIMM (member order), host fold in DIMM order.
        std::map<unsigned, std::vector<IndexId>> by_dimm;
        for (IndexId index : query.indices)
            by_dimm[layout_.dimmOf(index)].push_back(index);

        embedding::Vector acc;
        for (const auto &[dimm, members] : by_dimm) {
            embedding::Vector partial = store.vector(members.front());
            for (std::size_t i = 1; i < members.size(); ++i) {
                const embedding::Vector v = store.vector(members[i]);
                embedding::combineSpan(op, partial.data(), v.data(), dim);
            }
            if (acc.empty()) {
                acc = std::move(partial);
            } else {
                embedding::combineSpan(op, acc.data(), partial.data(),
                                       dim);
            }
        }
        embedding::finalizeSpan(op, acc.data(), acc.size(),
                                query.indices.size());
        results.push_back(std::move(acc));
    }
    return results;
}

} // namespace fafnir::baselines
