/**
 * @file
 * RecNMP baseline (Ke et al., ISCA 2020 — as characterized in Sections
 * II-III of the Fafnir paper).
 *
 * Whole vectors are placed rank-interleaved (the same Figure 4b layout as
 * Fafnir), and each DIMM's buffer-device NDP unit sums the vectors of a
 * query that happen to be co-located on that DIMM. The partial (or the
 * raw vector, when a query touches a DIMM only once) is forwarded over
 * the channel bus to the host, which finishes the reduction — so NDP
 * coverage depends entirely on spatial locality, and the forwarded
 * traffic grows with the number of DIMMs a query's indices scatter over.
 * An optional 128 KB per-rank LRU vector cache models RecNMP's caching
 * mechanism (the paper caps its useful hit rate around 50 %).
 */

#ifndef FAFNIR_BASELINES_RECNMP_HH
#define FAFNIR_BASELINES_RECNMP_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "baselines/timing.hh"
#include "dram/memsystem.hh"
#include "embedding/layout.hh"
#include "embedding/query.hh"

namespace fafnir::baselines
{

/**
 * A per-rank LRU cache of whole embedding vectors.
 *
 * RecNMP's own evaluation found the useful hit rate saturates around
 * 50 % on production traces (Section III-E); synthetic hot-set traces
 * would otherwise cache perfectly, so the model enforces that empirical
 * ceiling: once the observed hit rate reaches @p max_hit_rate, further
 * would-be hits are charged as misses (conflict/pollution effects the
 * pure LRU abstraction does not see).
 */
class RankCache
{
  public:
    RankCache(unsigned capacity_bytes, unsigned vector_bytes,
              double max_hit_rate = 0.5)
        : capacity_(vector_bytes == 0
                        ? 0
                        : capacity_bytes / vector_bytes),
          maxHitRate_(max_hit_rate)
    {}

    /** Look up @p index; inserts on miss. @return true on hit. */
    bool access(IndexId index);

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

  private:
    std::size_t capacity_;
    double maxHitRate_;
    std::uint64_t hits_ = 0;
    std::uint64_t accesses_ = 0;
    std::list<IndexId> lru_; // front = most recent
    std::unordered_map<IndexId, std::list<IndexId>::iterator> entries_;
};

/** Parameters of the RecNMP model. */
struct RecNmpConfig
{
    double ndpClockMhz = 250.0;
    Cycles addCycles = 4;
    double hostClockGhz = 3.0;
    unsigned simdLanes = 16;
    bool cacheEnabled = false;
    /** RecNMP evaluates a 128 KB per-rank cache. */
    unsigned cacheBytesPerRank = 128 * 1024;
    /** Empirical useful-hit-rate ceiling (~50 % per Section III-E). */
    double cacheMaxHitRate = 0.5;
    /** Cache lookup + readout latency. */
    Tick cacheHitLatency = 40 * kTicksPerNs;
    /**
     * Host-side cost of landing one forwarded partial (uncore receive,
     * LLC fill, kernel hand-off) before the CPU can fold it in. This is
     * what makes reliance on spatial locality expensive: every
     * non-co-located group pays it.
     */
    Tick hostPartialOverhead = 80 * kTicksPerNs;
};

/** RecNMP lookup engine. */
class RecNmpEngine
{
  public:
    RecNmpEngine(dram::MemorySystem &memory,
                 const embedding::VectorLayout &layout,
                 const RecNmpConfig &config = {});

    /** Run one batch starting at @p start. */
    LookupTiming lookup(const embedding::Batch &batch, Tick start);

    /** Run batches back to back (memory pipelined under host work). */
    std::vector<LookupTiming>
    lookupMany(const std::vector<embedding::Batch> &batches, Tick start);

    /**
     * The values this baseline computes: each DIMM's NDP unit folds its
     * co-located vectors in query order into one partial, and the host
     * folds the partials in DIMM order. Differential-conformance
     * companion of lookup() (same grouping as the timing path).
     */
    std::vector<embedding::Vector>
    reduceBatch(const embedding::EmbeddingStore &store,
                const embedding::Batch &batch,
                embedding::ReduceOp op) const;

  private:
    LookupTiming lookupKeepCore(const embedding::Batch &batch, Tick start);

    dram::MemorySystem &memory_;
    const embedding::VectorLayout &layout_;
    RecNmpConfig config_;
    HostCore core_;
    Tick ndpPeriod_;
    std::vector<RankCache> caches_; // per physical rank
};

} // namespace fafnir::baselines

#endif // FAFNIR_BASELINES_RECNMP_HH
