/**
 * @file
 * Sorted small index sets: each query's full index set Q(q).
 *
 * PreparedBatch::querySets holds one per query. The PEs check pairings
 * against it and the root combiner checks coverage; the residual a flit
 * header carries for query q on the wire is Q(q) minus the header's
 * `indices` field. The `indices` fields themselves are interned in a
 * HeaderTable (headers.hh). A set never holds more ids than its query has
 * indices, so a sorted vector beats any node-based set.
 */

#ifndef FAFNIR_FAFNIR_INDEXSET_HH
#define FAFNIR_FAFNIR_INDEXSET_HH

#include <algorithm>
#include <initializer_list>
#include <span>
#include <string>

#include "common/smallvec.hh"
#include "common/types.hh"

namespace fafnir::core
{

/** An immutable-ish sorted set of embedding-vector indices. */
class IndexSet
{
  public:
    /**
     * Inline storage: sets of up to eight ids never touch the heap; the
     * full sets of longer queries spill.
     */
    using Storage = SmallVec<IndexId, 8>;

    IndexSet() = default;

    IndexSet(std::initializer_list<IndexId> init)
        : items_(init)
    {
        normalize();
    }

    /** Build from arbitrary ids (sorted + deduplicated). */
    explicit IndexSet(std::span<const IndexId> items)
    {
        items_.reserve(items.size());
        for (IndexId index : items)
            items_.push_back(index);
        normalize();
    }

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

    auto begin() const { return items_.begin(); }
    auto end() const { return items_.end(); }

    /**
     * True if every id of @p other (distinct ids) is in this set, that is
     * if |other| pairs of ids are equal. Counting all pairs vectorizes and
     * does not mispredict on nearly every id, as std::includes does.
     */
    bool
    containsAll(std::span<const IndexId> other) const
    {
        std::size_t equal = 0;
        for (IndexId index : other)
            for (IndexId have : items_)
                equal += have == index;
        return equal == other.size();
    }

    bool operator==(const IndexSet &other) const = default;

    std::string
    toString() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                s += ',';
            s += std::to_string(items_[i]);
        }
        return s + "}";
    }

  private:
    void
    normalize()
    {
        std::sort(items_.begin(), items_.end());
        items_.erase(std::unique(items_.begin(), items_.end()),
                     items_.end());
    }

    Storage items_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_INDEXSET_HH
