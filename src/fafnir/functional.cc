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

    // Assemble the leaf PE input sides from the per-rank read lists.
    std::vector<std::vector<Item>> side_a(num_pes + 1);
    std::vector<std::vector<Item>> side_b(num_pes + 1);
    FAFNIR_ASSERT(prepared.rankReads.size() >= topology_.numRanks(),
                  "prepared batch covers ", prepared.rankReads.size(),
                  " ranks, tree expects ", topology_.numRanks());
    for (unsigned rank = 0; rank < topology_.numRanks(); ++rank) {
        const unsigned pe = topology_.leafPeOf(rank);
        auto &side = topology_.sideOf(rank) == 0 ? side_a[pe] : side_b[pe];
        for (const auto &read : prepared.rankReads[rank])
            side.push_back(read.item);
    }

    // Children have larger heap ids than parents, so a descending sweep
    // evaluates each PE after both of its children. The pool recycles
    // each level's dead value buffers into the next level's outputs.
    VectorPool pool;
    std::vector<std::vector<Item>> outputs(num_pes + 1);
    for (unsigned pe = num_pes; pe >= 1; --pe) {
        std::vector<Item> *a = &side_a[pe];
        std::vector<Item> *b = &side_b[pe];
        if (!topology_.isLeafPe(pe)) {
            a = &outputs[topology_.leftChild(pe)];
            b = &outputs[topology_.rightChild(pe)];
        }

        PeActivity activity;
        std::vector<PeOutput> pe_out = ProcessingElement::process(
            *a, *b, prepared.querySets, activity, values, op, &pool,
            prepared.payload);
        run.total += activity;
        run.maxPeOutputs = std::max(run.maxPeOutputs, pe_out.size());

        if (keep_trace) {
            PeTrace &trace = run.trace[pe];
            trace.inputs = {a->size(), b->size()};
            trace.outputs.reserve(pe_out.size());
            for (const PeOutput &out : pe_out)
                trace.outputs.push_back(
                    {out.action, out.sources, out.item.queries});
        }

        if (pe == TreeTopology::rootPe()) {
            run.rootOutputs = std::move(pe_out);
        } else {
            outputs[pe].reserve(pe_out.size());
            for (auto &out : pe_out)
                outputs[pe].push_back(std::move(out.item));
        }
        // The inputs are consumed: recycle their value buffers, then
        // free the item lists eagerly.
        if (!topology_.isLeafPe(pe)) {
            pool.releaseValues(outputs[topology_.leftChild(pe)]);
            pool.releaseValues(outputs[topology_.rightChild(pe)]);
            outputs[topology_.leftChild(pe)].clear();
            outputs[topology_.rightChild(pe)].clear();
        } else {
            pool.releaseValues(side_a[pe]);
            pool.releaseValues(side_b[pe]);
        }
        if (pe == 1)
            break; // unsigned loop guard
    }

    // Root output stage: index the root outputs by query, then sum each
    // query's (disjoint) partial items in root order.
    const std::size_t num_queries = prepared.querySets.size();
    run.rootOutputsOf.resize(num_queries);
    for (std::uint32_t k = 0; k < run.rootOutputs.size(); ++k)
        for (QueryId q : run.rootOutputs[k].item.queries)
            run.rootOutputsOf[q].push_back(k);
    run.results.resize(num_queries);
    for (QueryId q = 0; q < num_queries; ++q) {
        const auto &items = run.rootOutputsOf[q];
        FAFNIR_ASSERT(!items.empty(), "query ", q,
                      " produced no root items");
        run.rootCombines += items.size() - 1;
        IndexSet covered;
        embedding::Vector acc;
        for (std::uint32_t k : items) {
            const Item &item = run.rootOutputs[k].item;
            FAFNIR_ASSERT(covered.disjointWith(item.indices),
                          "query ", q, ": overlapping root items — ",
                          covered.toString(), " vs ",
                          item.indices.toString());
            covered = covered.disjointUnion(item.indices);
            if (values && !item.value.empty()) {
                if (acc.empty()) {
                    acc = item.value;
                } else {
                    embedding::combineSpan(op, acc.data(),
                                           item.value.data(), acc.size());
                }
            }
        }
        FAFNIR_ASSERT(covered == prepared.querySets[q],
                      "query ", q, " incomplete at root: got ",
                      covered.toString(), ", want ",
                      prepared.querySets[q].toString());
        // Mean is a Sum through the tree, scaled at the root output.
        embedding::finalizeSpan(op, acc.data(), acc.size(),
                                covered.size());
        run.results[q] = std::move(acc);
    }

    run.poolStats = pool.stats();
    return run;
}

} // namespace fafnir::core
