/**
 * @file
 * Sorted small index sets — the value domain of Fafnir headers.
 *
 * The `indices` and `queries` fields of a flit header (Section IV-B of the
 * paper) are sets of embedding-vector indices. Headers are small (a set
 * never holds more ids than its query has indices), so a sorted vector
 * beats any node-based set: subset/disjointness tests are linear merges
 * and unions are linear too.
 */

#ifndef FAFNIR_FAFNIR_INDEXSET_HH
#define FAFNIR_FAFNIR_INDEXSET_HH

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/smallvec.hh"
#include "common/types.hh"
#include "embedding/reduce_kernels.hh"

namespace fafnir::core
{

/** An immutable-ish sorted set of embedding-vector indices. */
class IndexSet
{
  public:
    /**
     * Inline storage: sets of up to eight ids (every leaf `indices`
     * field and the partial sums of the lower levels) never touch the
     * heap. Larger sets spill: a leaf residual holds query size - 1 ids
     * (15 at fafnir_sim's default --query-size=16), so residuals live
     * on the heap until reduces shrink them to eight.
     */
    using Storage = SmallVec<IndexId, 8>;

    IndexSet() = default;

    IndexSet(std::initializer_list<IndexId> init)
        : items_(init)
    {
        normalize();
    }

    /** Build from an arbitrary vector (sorted + deduplicated). */
    explicit IndexSet(const std::vector<IndexId> &items)
    {
        items_.reserve(items.size());
        for (IndexId index : items)
            items_.push_back(index);
        normalize();
    }

    /** A singleton set. */
    static IndexSet
    single(IndexId index)
    {
        IndexSet s;
        s.items_.push_back(index);
        return s;
    }

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

    auto begin() const { return items_.begin(); }
    auto end() const { return items_.end(); }
    const Storage &items() const { return items_; }

    bool
    contains(IndexId index) const
    {
        return std::binary_search(items_.begin(), items_.end(), index);
    }

    /** True if every element of @p other is in this set. */
    bool
    containsAll(const IndexSet &other) const
    {
        return std::includes(items_.begin(), items_.end(),
                             other.items_.begin(), other.items_.end());
    }

    bool
    disjointWith(const IndexSet &other) const
    {
        auto a = items_.begin();
        auto b = other.items_.begin();
        while (a != items_.end() && b != other.items_.end()) {
            if (*a < *b)
                ++a;
            else if (*b < *a)
                ++b;
            else
                return false;
        }
        return true;
    }

    /** Set union; faults if the operands overlap (reduction must not
     *  double-count a vector). */
    IndexSet
    disjointUnion(const IndexSet &other) const
    {
        FAFNIR_ASSERT(disjointWith(other),
                      "disjointUnion on overlapping sets");
        IndexSet result;
        result.items_.resize(items_.size() + other.items_.size());
        std::merge(items_.begin(), items_.end(), other.items_.begin(),
                   other.items_.end(), result.items_.begin());
        return result;
    }

    /** Elements of this set not in @p other. */
    IndexSet
    minus(const IndexSet &other) const
    {
        IndexSet result;
        result.items_.reserve(items_.size());
        std::set_difference(items_.begin(), items_.end(),
                            other.items_.begin(), other.items_.end(),
                            std::back_inserter(result.items_));
        return result;
    }

    /**
     * Elements of this set other than @p excluded — equivalent to
     * minus(single(excluded)) but through the SIMD header-build kernel.
     * This is the hot operation of batch prepare: every deduplicated
     * read subtracts its own index from each sharing query's set.
     */
    IndexSet
    minusOne(IndexId excluded) const
    {
        IndexSet result;
        result.items_.resize(items_.size());
        const std::size_t kept = embedding::filterOutSpan(
            result.items_.data(), items_.data(), items_.size(), excluded);
        result.items_.resize(kept);
        return result;
    }

    bool operator==(const IndexSet &other) const = default;

    /** Lexicographic order, usable as a map key. */
    bool
    operator<(const IndexSet &other) const
    {
        return items_ < other.items_;
    }

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
