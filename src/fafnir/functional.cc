/**
 * @file
 * Implementation of the functional tree evaluator.
 */

#include "functional.hh"

#include <algorithm>

#include "common/logging.hh"
#include "embedding/reduce_kernels.hh"

namespace fafnir::core
{

TreeRun
FunctionalTree::run(const PreparedBatch &prepared, bool values,
                    bool keep_trace, embedding::ReduceOp op) const
{
    const unsigned num_pes = topology_.numPes();

    TreeRun run;
    if (keep_trace)
        run.trace.resize(num_pes + 1);

    // All PEs share one header table, sized for about 3 sets per read.
    FAFNIR_ASSERT(prepared.rankReads.size() >= topology_.numRanks(),
                  "prepared batch covers ", prepared.rankReads.size(),
                  " ranks, tree expects ", topology_.numRanks());
    VectorPool pool;
    PeBatch batch{prepared.querySets, HeaderTable(3 * prepared.accessCount),
                  values, op, &pool, prepared.payload, {}};

    // Assemble the leaf PE input sides from the per-rank read lists.
    std::vector<std::vector<Flit>> side_a(num_pes + 1);
    std::vector<std::vector<Flit>> side_b(num_pes + 1);
    for (unsigned rank = 0; rank < topology_.numRanks(); ++rank) {
        const unsigned pe = topology_.leafPeOf(rank);
        auto &side = topology_.sideOf(rank) == 0 ? side_a[pe] : side_b[pe];
        side.reserve(side.size() + prepared.rankReads[rank].size());
        for (const auto &read : prepared.rankReads[rank])
            side.push_back({batch.headers.intern({&read.index, 1}),
                            read.queries, read.value, PeAction::Forward, {}});
    }

    // Children have larger heap ids than parents, so a descending sweep
    // evaluates each PE after both of its children, reading their output
    // lists in place. The pool recycles each level's dead value buffers
    // into the next level's outputs.
    std::vector<std::vector<Flit>> outputs(num_pes + 1);
    for (unsigned pe = num_pes; pe >= 1; --pe) {
        std::vector<Flit> *a = &side_a[pe];
        std::vector<Flit> *b = &side_b[pe];
        if (!topology_.isLeafPe(pe)) {
            a = &outputs[topology_.leftChild(pe)];
            b = &outputs[topology_.rightChild(pe)];
        }

        PeActivity activity;
        outputs[pe] = ProcessingElement::process(*a, *b, batch, activity);
        run.total += activity;
        run.maxPeOutputs = std::max(run.maxPeOutputs, outputs[pe].size());

        if (keep_trace) {
            PeTrace &trace = run.trace[pe];
            trace.inputs = {a->size(), b->size()};
            trace.outputs.reserve(outputs[pe].size());
            // Only the trace reads sources once the PE is done.
            for (Flit &out : outputs[pe])
                trace.outputs.push_back(
                    {out.action, std::move(out.sources), out.queries});
        }

        // The inputs are consumed: recycle their value buffers, then
        // free the item lists eagerly.
        pool.releaseValues(*a);
        pool.releaseValues(*b);
        a->clear();
        b->clear();
        if (pe == 1)
            break; // unsigned loop guard
    }

    // Root output stage: index the root outputs by query, then sum each
    // query's (disjoint) partial items in root order.
    const std::vector<Flit> &root = outputs[TreeTopology::rootPe()];
    const HeaderTable &headers = batch.headers;
    run.rootOutputs = root.size();
    const std::size_t num_queries = prepared.querySets.size();
    run.rootOutputsOf.resize(num_queries);
    for (std::uint32_t k = 0; k < root.size(); ++k)
        for (QueryId q : root[k].queries)
            run.rootOutputsOf[q].push_back(k);
    run.results.resize(num_queries);
    for (QueryId q = 0; q < num_queries; ++q) {
        const auto &items = run.rootOutputsOf[q];
        FAFNIR_ASSERT(!items.empty(), "query ", q,
                      " produced no root items");
        run.rootCombines += items.size() - 1;
        SetId covered = root[items[0]].indices;
        embedding::Vector acc;
        for (std::uint32_t k : items) {
            const Flit &item = root[k];
            const auto have = headers[covered];
            FAFNIR_ASSERT(k == items[0] ||
                              std::ranges::find_first_of(
                                  have, headers[item.indices]) == have.end(),
                          "query ", q, ": overlapping root items — ",
                          IndexSet(headers[covered]).toString(), " vs ",
                          IndexSet(headers[item.indices]).toString());
            if (k != items[0])
                covered = batch.headers.unite(covered, item.indices);
            if (values && !item.value.empty()) {
                if (acc.empty()) {
                    acc = item.value;
                } else {
                    embedding::combineSpan(op, acc.data(),
                                           item.value.data(), acc.size());
                }
            }
        }
        const IndexSet &want = prepared.querySets[q];
        const auto got = headers[covered];
        FAFNIR_ASSERT(std::ranges::equal(got, want), "query ", q,
                      " incomplete at root: got ", IndexSet(got).toString(),
                      ", want ", want.toString());
        // Mean is a Sum through the tree, scaled at the root output.
        embedding::finalizeSpan(op, acc.data(), acc.size(), got.size());
        run.results[q] = std::move(acc);
    }

    run.poolStats = pool.stats();
    return run;
}

} // namespace fafnir::core
