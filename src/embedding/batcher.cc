/**
 * @file
 * Implementation of the batch composer.
 */

#include "batcher.hh"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/faultinject.hh"
#include "common/logging.hh"

namespace fafnir::embedding
{

double
ComposedBatches::meanUniqueFraction() const
{
    if (batches.empty())
        return 1.0;
    double sum = 0.0;
    for (const auto &batch : batches)
        sum += batch.uniqueFraction();
    return sum / static_cast<double>(batches.size());
}

namespace
{

/** Pack picked queries into a dense-id batch. */
void
emit(ComposedBatches &out, const std::vector<Query> &queries,
     std::vector<std::size_t> picked)
{
    Batch batch;
    std::vector<std::size_t> origin;
    batch.queries.reserve(picked.size());
    for (std::size_t i = 0; i < picked.size(); ++i) {
        Query q = queries[picked[i]];
        q.id = static_cast<QueryId>(i);
        batch.queries.push_back(std::move(q));
        origin.push_back(picked[i]);
    }
    batch.check();
    out.batches.push_back(std::move(batch));
    out.originalIndex.push_back(std::move(origin));
}

/** FIFO: arrival order, chunks of batchSize. */
ComposedBatches
composeFifo(const std::vector<Query> &queries,
            const BatcherConfig &config)
{
    ComposedBatches out;
    for (std::size_t first = 0; first < queries.size();
         first += config.batchSize) {
        const std::size_t last = std::min(
            queries.size(), first + config.batchSize);
        std::vector<std::size_t> picked;
        for (std::size_t i = first; i < last; ++i)
            picked.push_back(i);
        emit(out, queries, std::move(picked));
    }
    return out;
}

} // namespace

ComposedBatches
composeBatches(const std::vector<Query> &queries,
               const BatcherConfig &config)
{
    FAFNIR_ASSERT(config.batchSize > 0, "batch size must be positive");
    ComposedBatches out;
    if (queries.empty())
        return out;
    if (config.policy == BatchPolicy::Fifo)
        return composeFifo(queries, config);

    // Similarity: within a sliding window, seed each batch with the
    // oldest pending query (bounding its delay), then greedily add the
    // window query with the largest index overlap against the batch's
    // accumulated index set. Overlap scores are maintained
    // incrementally: an inverted index (table index -> window
    // candidates containing it) lets each index that newly enters the
    // batch set bump only the candidates it appears in, so a pick
    // costs one O(window) argmax scan instead of rescanning every
    // candidate against the whole set.
    std::vector<bool> used(queries.size(), false);
    std::size_t oldest = 0;
    std::size_t remaining = queries.size();
    while (remaining > 0) {
        while (oldest < queries.size() && used[oldest])
            ++oldest;
        const std::size_t window_end =
            std::min(queries.size(), oldest + config.windowSize);

        std::vector<std::size_t> picked{oldest};
        used[oldest] = true;
        --remaining;

        // Window-local candidate table. Entry c covers query index
        // oldest + 1 + c; scores track overlap with batch_set.
        const std::size_t candidates =
            window_end > oldest + 1 ? window_end - oldest - 1 : 0;
        std::vector<std::size_t> score(candidates, 0);
        std::unordered_map<IndexId, std::vector<std::size_t>> inverted;
        for (std::size_t c = 0; c < candidates; ++c) {
            if (used[oldest + 1 + c])
                continue;
            for (IndexId index : queries[oldest + 1 + c].indices)
                inverted[index].push_back(c);
        }

        std::unordered_set<IndexId> batch_set;
        auto cover = [&](const Query &q) {
            // Bump only candidates containing each index that is new
            // to the batch's set; repeats across queries cost nothing.
            for (IndexId index : q.indices) {
                if (!batch_set.insert(index).second)
                    continue;
                const auto it = inverted.find(index);
                if (it == inverted.end())
                    continue;
                for (std::size_t c : it->second)
                    ++score[c];
            }
        };
        cover(queries[oldest]);

        while (picked.size() < config.batchSize && remaining > 0) {
            // Same tie-break as the reference: the first unused
            // candidate wins; later ones must be strictly better.
            std::size_t best = queries.size();
            std::size_t best_overlap = 0;
            for (std::size_t c = 0; c < candidates; ++c) {
                if (used[oldest + 1 + c])
                    continue;
                if (best == queries.size() || score[c] > best_overlap) {
                    best = oldest + 1 + c;
                    best_overlap = score[c];
                }
            }
            if (best == queries.size())
                break; // window exhausted
            used[best] = true;
            --remaining;
            picked.push_back(best);
            cover(queries[best]);
        }
        emit(out, queries, std::move(picked));
    }
    return out;
}

ComposedBatches
composeBatchesReference(const std::vector<Query> &queries,
                        const BatcherConfig &config)
{
    FAFNIR_ASSERT(config.batchSize > 0, "batch size must be positive");
    ComposedBatches out;
    if (queries.empty())
        return out;
    if (config.policy == BatchPolicy::Fifo)
        return composeFifo(queries, config);

    std::vector<bool> used(queries.size(), false);
    std::size_t oldest = 0;
    std::size_t remaining = queries.size();
    while (remaining > 0) {
        while (oldest < queries.size() && used[oldest])
            ++oldest;
        const std::size_t window_end =
            std::min(queries.size(), oldest + config.windowSize);

        std::vector<std::size_t> picked{oldest};
        used[oldest] = true;
        --remaining;

        std::unordered_set<IndexId> batch_set(
            queries[oldest].indices.begin(),
            queries[oldest].indices.end());

        while (picked.size() < config.batchSize && remaining > 0) {
            std::size_t best = queries.size();
            std::size_t best_overlap = 0;
            for (std::size_t i = oldest + 1; i < window_end; ++i) {
                if (used[i])
                    continue;
                std::size_t score = 0;
                for (IndexId index : queries[i].indices)
                    score += batch_set.count(index);
                if (best == queries.size() || score > best_overlap) {
                    best = i;
                    best_overlap = score;
                }
            }
            if (best == queries.size())
                break; // window exhausted
            used[best] = true;
            --remaining;
            picked.push_back(best);
            batch_set.insert(queries[best].indices.begin(),
                             queries[best].indices.end());
        }
        emit(out, queries, std::move(picked));
    }
    return out;
}

std::size_t
injectQueryFaults(Batch &batch, std::uint64_t index_limit)
{
    fault::FaultPlan *p = fault::plan();
    if (p == nullptr)
        return 0;

    std::size_t corrupted = 0;
    for (Query &q : batch.queries) {
        bool touched = false;

        if (p->shouldFire(fault::Hook::QueryMalformed)) {
            // The corruption shape draws from the hook's own stream, so
            // the schedule of *other* hooks is untouched.
            Rng &rng = p->rngOf(fault::Hook::QueryMalformed);
            switch (rng.nextBelow(3)) {
              case 0: // lost payload
                q.indices.clear();
                break;
              case 1: // reordered payload (unique indices, so a swap of
                      // the ends of a 2+ element list breaks sortedness)
                if (q.indices.size() >= 2)
                    std::swap(q.indices.front(), q.indices.back());
                else
                    q.indices.clear();
                break;
              default: // index beyond the embedding space
                q.indices.push_back(static_cast<IndexId>(
                    index_limit + rng.nextBelow(1024)));
                break;
            }
            touched = true;
        }

        if (p->shouldFire(fault::Hook::QueryOversized)) {
            // Inflate to magnitude x the original width with valid,
            // sorted, unique indices — well-formed but abusive.
            const auto factor =
                static_cast<std::size_t>(
                    p->magnitude(fault::Hook::QueryOversized));
            std::size_t width =
                std::max<std::size_t>(q.indices.size() + 1,
                                      q.indices.size() * factor);
            if (index_limit != 0)
                width = std::min<std::size_t>(width, index_limit);
            q.indices.resize(width);
            for (std::size_t i = 0; i < width; ++i)
                q.indices[i] = static_cast<IndexId>(i);
            touched = true;
        }

        // An empty query has no index to duplicate, so the hook is not
        // drawn for it: a firing always injects a fault.
        if (!q.indices.empty() &&
            p->shouldFire(fault::Hook::QueryDupIndex)) {
            Rng &rng = p->rngOf(fault::Hook::QueryDupIndex);
            const std::size_t at = rng.nextBelow(q.indices.size());
            q.indices.insert(q.indices.begin() +
                                 static_cast<std::ptrdiff_t>(at),
                             q.indices[at]);
            touched = true;
        }

        if (touched)
            ++corrupted;
    }
    return corrupted;
}

} // namespace fafnir::embedding
