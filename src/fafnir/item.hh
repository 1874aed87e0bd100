/**
 * @file
 * Flits flowing through the reduction tree.
 *
 * An Item is one entry of a PE input/output buffer: a value (the partial
 * reduction) plus its header. The header's `indices` field records which
 * embedding vectors the value already sums; the `queries` field lists the
 * queries that still want this value. On the wire each query's entry is
 * its residual, the indices of the query NOT folded in yet (the paper's
 * example header [indices:50,11 | queries:94,26]). That residual is
 * derived data, Q(q) \ indices, so the simulator carries only the query
 * ids and reads Q(q) from the batch's query sets (PreparedBatch::
 * querySets) wherever a residual's contents matter.
 *
 * Invariant (checked where the PE pairs items): for every query q of an
 * item, header.indices is a subset of Q(q).
 */

#ifndef FAFNIR_FAFNIR_ITEM_HH
#define FAFNIR_FAFNIR_ITEM_HH

#include <string>
#include <vector>

#include "common/smallvec.hh"
#include "common/types.hh"
#include "embedding/table.hh"
#include "fafnir/indexset.hh"

namespace fafnir::core
{

/** One buffer entry: value + header. */
struct Item
{
    /** Vectors already reduced into `value` (the header's indices field). */
    IndexSet indices;
    /**
     * Ids of the queries that still want this value (the header's
     * queries field; query q's residual is Q(q) \ indices). Two inline
     * slots: most items carry one query and pick up more only when the
     * merge unit folds headers together.
     */
    SmallVec<QueryId, 2> queries;
    /**
     * The partial reduction. Empty in timing-only runs; the functional
     * model always populates it.
     */
    embedding::Vector value;

    /** True once some query is fully reduced in this item, given the
     *  batch's full index set per query. */
    bool
    completesAnyQuery(const std::vector<IndexSet> &query_sets) const
    {
        for (QueryId q : queries)
            if (query_sets[q].size() == indices.size())
                return true;
        return false;
    }

    /**
     * Header bits on the wire: the indices field plus every query's
     * residual, |Q(q)| - |indices| ids, at @p bits_per_index each.
     */
    std::size_t
    headerBits(const std::vector<IndexSet> &query_sets,
               unsigned bits_per_index) const
    {
        std::size_t ids = indices.size();
        for (QueryId q : queries)
            ids += query_sets[q].size() - indices.size();
        return ids * bits_per_index;
    }

    std::string toString() const;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_ITEM_HH
