/**
 * @file
 * Recycling pool for embedding-value buffers.
 *
 * A functional tree evaluation churns through one value vector per
 * reduce/forward output at every level; without reuse each of those is
 * a fresh heap allocation that dies one level up. A VectorPool keeps
 * the dead buffers and hands their capacity back to the next output,
 * so a steady-state batch run allocates only for its peak working set.
 *
 * The pool is a per-evaluation object, not a global: FunctionalTree
 * owns one per run() and threads it through ProcessingElement. Not
 * thread-safe — parallel sweeps use one pool per evaluation, which is
 * also what keeps pooled and unpooled runs bit-identical.
 */

#ifndef FAFNIR_FAFNIR_POOL_HH
#define FAFNIR_FAFNIR_POOL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/faultinject.hh"
#include "embedding/table.hh"

namespace fafnir::core
{

/** Recycles embedding::Vector buffers between tree levels. */
class VectorPool
{
  public:
    /** Counters for sizing and for asserting reuse in tests. */
    struct Stats
    {
        std::uint64_t acquires = 0;
        /** Acquires served from a recycled buffer (no allocation). */
        std::uint64_t reuses = 0;
        std::uint64_t releases = 0;
        /** Acquires forced to allocate by the pool_exhaust fault hook. */
        std::uint64_t exhaustions = 0;
    };

    /**
     * A vector of @p size elements with unspecified contents — callers
     * overwrite every element. Reuses a released buffer's capacity when
     * one is available.
     *
     * The pool_exhaust fault hook models a PE whose value-buffer SRAM is
     * out of free lines: the acquire falls back to a fresh allocation
     * (the simulator's stand-in for a spill). Contents are identical
     * either way, so injected exhaustion never perturbs results — only
     * the reuse/allocation accounting that capacity studies read.
     */
    embedding::Vector
    acquire(std::size_t size)
    {
        ++stats_.acquires;
        if (fault::FaultPlan *p = fault::plan(); p != nullptr) {
            if (p->shouldFire(fault::Hook::PoolExhaust)) {
                ++stats_.exhaustions;
                return embedding::Vector(size);
            }
        }
        if (free_.empty())
            return embedding::Vector(size);
        ++stats_.reuses;
        embedding::Vector v = std::move(free_.back());
        free_.pop_back();
        v.resize(size);
        return v;
    }

    /** Return a dead buffer's capacity to the pool. */
    void
    release(embedding::Vector &&v)
    {
        if (v.capacity() == 0)
            return;
        ++stats_.releases;
        free_.push_back(std::move(v));
        free_.back().clear();
    }

    /** Strip and recycle the value buffers of a consumed item list. */
    template <typename Items>
    void
    releaseValues(Items &items)
    {
        for (auto &item : items)
            release(std::move(item.value));
    }

    const Stats &stats() const { return stats_; }

  private:
    std::vector<embedding::Vector> free_;
    Stats stats_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_POOL_HH
