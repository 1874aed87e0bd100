/**
 * @file
 * Implementation of host-side batch compilation.
 */

#include "host.hh"

#include <algorithm>
#include <cstdint>
#include <map>

namespace fafnir::core
{

std::size_t
PreparedBatch::maxReadsPerRank() const
{
    std::size_t max_reads = 0;
    for (const auto &reads : rankReads)
        max_reads = std::max(max_reads, reads.size());
    return max_reads;
}

namespace
{

/** Shared skeleton: everything but the dedup scan itself. */
struct PrepareContext
{
    const embedding::VectorLayout &layout;
    const embedding::EmbeddingStore *store;
    VectorPool *pool;
    PreparedBatch prepared;

    PrepareContext(const embedding::VectorLayout &lay,
                   const embedding::EmbeddingStore *st,
                   const embedding::Batch &batch, VectorPool *pl,
                   embedding::PayloadFormat fmt)
        : layout(lay), store(st), pool(pl)
    {
        batch.check();
        prepared.payload = fmt;
        prepared.rankReads.resize(lay.mapper().geometry().totalRanks());
        prepared.totalReferences = batch.totalIndices();
        prepared.querySets.reserve(batch.size());
        for (const auto &q : batch.queries)
            prepared.querySets.emplace_back(q.indices);
    }

    void
    makeRead(IndexId index, SmallVec<QueryId, 2> queries)
    {
        RankRead read;
        read.index = index;
        read.address = layout.addressOf(index);
        read.queries = std::move(queries);
        if (store) {
            const unsigned dim = store->config().dim();
            read.value = pool ? pool->acquire(dim) : embedding::Vector(dim);
            store->fill(index, read.value);
            // Quantize once at the leaf: the value entering the tree is
            // the dequantized payload, so partials upward stay exact fp32
            // over the round-tripped leaves (a pure function of store +
            // format).
            embedding::payloadRoundTrip(prepared.payload, read.value.data(),
                                        read.value.size());
        }
        const unsigned rank = layout.rankOf(index);
        prepared.rankReads[rank].push_back(std::move(read));
        ++prepared.accessCount;
    }

    /** No-dedup mode (the Figure 13 ablation): one read per reference,
     *  in query order. */
    void
    emitNoDedup(const embedding::Batch &batch)
    {
        for (const auto &q : batch.queries)
            for (IndexId index : q.indices)
                makeRead(index, {q.id});
    }
};

} // namespace

PreparedBatch
prepareBatch(const embedding::VectorLayout &layout,
             const embedding::EmbeddingStore *store,
             const embedding::Batch &batch, bool dedup, VectorPool *pool,
             embedding::PayloadFormat payload)
{
    PrepareContext ctx(layout, store, batch, pool, payload);

    // One key per reference: the index in the high half, the query in
    // the low half. Batch::check made the query ids dense and each
    // query's indices distinct, so the keys are distinct, and sorting
    // them lists each index's users in query order, the order a scan
    // meets them. Each run of one index is one read, and runs come out
    // index-ascending, the reference's issue order.
    std::vector<std::uint64_t> keys;
    keys.reserve(ctx.prepared.totalReferences);
    for (const auto &q : batch.queries)
        for (IndexId index : q.indices)
            keys.push_back(std::uint64_t{index} << 32 | q.id);
    std::sort(keys.begin(), keys.end());

    // uniqueCount is reported in no-dedup mode too (it is the
    // denominator of the Figure 13/15 comparisons).
    for (std::size_t first = 0; first < keys.size();) {
        const auto index = static_cast<IndexId>(keys[first] >> 32);
        std::size_t last = first + 1;
        while (last < keys.size() && keys[last] >> 32 == index)
            ++last;
        ++ctx.prepared.uniqueCount;
        if (dedup) {
            SmallVec<QueryId, 2> users;
            users.reserve(last - first);
            for (std::size_t k = first; k < last; ++k)
                users.push_back(static_cast<QueryId>(keys[k]));
            ctx.makeRead(index, std::move(users));
        }
        first = last;
    }
    if (!dedup)
        ctx.emitNoDedup(batch);
    return std::move(ctx.prepared);
}

PreparedBatch
prepareBatchReference(const embedding::VectorLayout &layout,
                      const embedding::EmbeddingStore *store,
                      const embedding::Batch &batch, bool dedup,
                      VectorPool *pool, embedding::PayloadFormat payload)
{
    PrepareContext ctx(layout, store, batch, pool, payload);

    // Distinct indices, and which queries reference each (ordered map for
    // deterministic index-ascending read issue order).
    std::map<IndexId, SmallVec<QueryId, 2>> map_users;
    for (const auto &q : batch.queries)
        for (IndexId index : q.indices)
            map_users[index].push_back(q.id);
    ctx.prepared.uniqueCount = map_users.size();

    if (!dedup) {
        ctx.emitNoDedup(batch);
        return std::move(ctx.prepared);
    }
    for (auto &[index, queries] : map_users)
        ctx.makeRead(index, std::move(queries));
    return std::move(ctx.prepared);
}

void
releasePrepared(PreparedBatch &prepared, VectorPool &pool)
{
    for (auto &reads : prepared.rankReads)
        for (auto &read : reads)
            pool.release(std::move(read.value));
    prepared.rankReads.clear();
}

} // namespace fafnir::core
