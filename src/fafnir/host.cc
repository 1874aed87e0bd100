/**
 * @file
 * Implementation of host-side batch compilation.
 */

#include "host.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>

#include "common/logging.hh"

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

double
PreparedBatch::loadImbalance() const
{
    if (rankReads.empty() || accessCount == 0)
        return 1.0;
    const double mean = static_cast<double>(accessCount) /
                        static_cast<double>(rankReads.size());
    return static_cast<double>(maxReadsPerRank()) / mean;
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

    void
    emitDedupRead(IndexId index, const QueryId *users, std::size_t count)
    {
        SmallVec<QueryId, 2> queries;
        queries.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            queries.push_back(users[i]);
        makeRead(index, std::move(queries));
    }

    void
    emitNoDedup(const embedding::Batch &batch)
    {
        // uniqueCount is still reported in no-dedup mode (it is the
        // denominator of the Figure 13/15 comparisons).
        std::vector<IndexId> distinct;
        distinct.reserve(prepared.totalReferences);
        for (const auto &q : batch.queries)
            distinct.insert(distinct.end(), q.indices.begin(),
                            q.indices.end());
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        prepared.uniqueCount = distinct.size();

        for (const auto &q : batch.queries)
            for (IndexId index : q.indices)
                makeRead(index, {q.id});
    }
};

constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

std::size_t
hashCapacityFor(std::size_t references)
{
    // Load factor <= 0.5: capacity = next pow2 >= 2 * references.
    std::size_t cap = 16;
    while (cap < references * 2)
        cap <<= 1;
    return cap;
}

/** Flat open-addressing dedup table pieces. Per-index query lists are
 *  chained through DedupLink so insertion never allocates. */
struct DedupEntry
{
    IndexId index;
    std::uint32_t head;
    std::uint32_t tail;
    std::uint32_t count;
};

struct DedupLink
{
    QueryId query;
    std::uint32_t next;
};

/** The 32-bit Fibonacci hash of an index; the table slot is its low
 *  bits (& mask). */
inline std::uint32_t
indexHash32(IndexId index)
{
    return static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(index) *
        UINT64_C(0x9E3779B97F4A7C15) >> 32);
}

} // namespace

PreparedBatch
prepareBatch(const embedding::VectorLayout &layout,
             const embedding::EmbeddingStore *store,
             const embedding::Batch &batch, bool dedup, VectorPool *pool,
             embedding::PayloadFormat payload)
{
    PrepareContext ctx(layout, store, batch, pool, payload);
    if (!dedup) {
        ctx.emitNoDedup(batch);
        return std::move(ctx.prepared);
    }

    // Flat open-addressing dedup, sized from the batch's reference count
    // (Batch::totalIndices upper-bounds the unique count). Per-index
    // query lists are kept as a chain through `links` so insertion never
    // allocates; a final sort of the entry table restores the
    // index-ascending issue order of the ordered-map reference.
    const std::size_t refs = ctx.prepared.totalReferences;
    const std::size_t capacity = hashCapacityFor(refs);
    const std::size_t mask = capacity - 1;
    std::vector<std::uint32_t> slots(capacity, kEmpty);
    std::vector<DedupEntry> entries;
    entries.reserve(refs);
    std::vector<DedupLink> links;
    links.reserve(refs);

    for (const auto &q : batch.queries) {
        for (IndexId index : q.indices) {
            // Fibonacci hashing spreads consecutive ids across the table.
            std::size_t slot = indexHash32(index) & mask;
            std::uint32_t entry_id;
            while (true) {
                const std::uint32_t occupant = slots[slot];
                if (occupant == kEmpty) {
                    entry_id = static_cast<std::uint32_t>(entries.size());
                    slots[slot] = entry_id;
                    entries.push_back({index, kEmpty, kEmpty, 0});
                    break;
                }
                if (entries[occupant].index == index) {
                    entry_id = occupant;
                    break;
                }
                slot = (slot + 1) & mask;
            }
            DedupEntry &entry = entries[entry_id];
            const auto link_id = static_cast<std::uint32_t>(links.size());
            links.push_back({q.id, kEmpty});
            if (entry.tail == kEmpty)
                entry.head = link_id;
            else
                links[entry.tail].next = link_id;
            entry.tail = link_id;
            ++entry.count;
        }
    }

    ctx.prepared.uniqueCount = entries.size();
    std::sort(entries.begin(), entries.end(),
              [](const DedupEntry &a, const DedupEntry &b) {
                  return a.index < b.index;
              });

    std::vector<QueryId> users;
    for (const DedupEntry &entry : entries) {
        users.clear();
        users.reserve(entry.count);
        for (std::uint32_t link = entry.head; link != kEmpty;
             link = links[link].next)
            users.push_back(links[link].query);
        ctx.emitDedupRead(entry.index, users.data(), users.size());
    }
    return std::move(ctx.prepared);
}

PreparedBatch
prepareBatchReference(const embedding::VectorLayout &layout,
                      const embedding::EmbeddingStore *store,
                      const embedding::Batch &batch, bool dedup,
                      VectorPool *pool, embedding::PayloadFormat payload)
{
    PrepareContext ctx(layout, store, batch, pool, payload);
    if (!dedup) {
        ctx.emitNoDedup(batch);
        return std::move(ctx.prepared);
    }

    // Distinct indices, and which queries reference each (ordered map for
    // deterministic index-ascending read issue order).
    std::map<IndexId, std::vector<QueryId>> map_users;
    for (const auto &q : batch.queries)
        for (IndexId index : q.indices)
            map_users[index].push_back(q.id);
    ctx.prepared.uniqueCount = map_users.size();

    for (const auto &[index, queries] : map_users)
        ctx.emitDedupRead(index, queries.data(), queries.size());
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

PreparedBatch
Host::prepare(const embedding::Batch &batch, bool dedup,
              embedding::PayloadFormat payload) const
{
    return prepareBatch(layout_, store_, batch, dedup, nullptr, payload);
}

} // namespace fafnir::core
