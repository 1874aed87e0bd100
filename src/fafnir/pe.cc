/**
 * @file
 * Functional PE implementation: compare, reduce/forward, merge.
 */

#include "pe.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "embedding/reduce_kernels.hh"
#include "fafnir/pool.hh"

namespace fafnir::core
{

namespace
{

/** A copy of @p v, into recycled capacity when a pool is supplied. */
embedding::Vector
copyValue(const embedding::Vector &v, VectorPool *pool)
{
    if (pool == nullptr || v.empty())
        return v;
    embedding::Vector out = pool->acquire(v.size());
    std::copy(v.begin(), v.end(), out.begin());
    return out;
}

/** Element-wise combine used by the reduce path. */
embedding::Vector
addValues(const embedding::Vector &a, const embedding::Vector &b,
          embedding::ReduceOp op, VectorPool *pool)
{
    FAFNIR_ASSERT(a.size() == b.size(), "value dimension mismatch");
    embedding::Vector out = pool != nullptr ? pool->acquire(a.size())
                                            : embedding::Vector(a.size());
    embedding::combineSpan(op, out.data(), a.data(), b.data(), a.size());
    return out;
}

constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

/** One raw output: a reduce or a forward for one query. */
struct RawOutput
{
    SetId indices;
    QueryId query;
    PeAction action;
    /** Its input entries: two for a reduce, the first for a forward. */
    std::array<Provenance, 2> sources;
    /** The next raw output with the same set, in raw order, or kEmpty. */
    std::uint32_t next;
    embedding::Vector value;
};

/** A merge-unit group: its set's order key and id, its first raw output. */
struct Group
{
    std::uint64_t key;
    SetId id;
    std::uint32_t first;
};

/** Fold raw output @p out into @p head, which has the same indices. */
void
mergeInto(Flit &head, RawOutput &out, PeActivity &activity, VectorPool *pool)
{
    // The losing duplicate's value buffer dies here; recycle it.
    if (pool != nullptr)
        pool->release(std::move(out.value));
    // Equal indices and an equal query mean an equal residual: an exact
    // duplicate.
    if (std::ranges::find(head.queries, out.query) != head.queries.end()) {
        ++activity.duplicatesDropped;
    } else {
        head.queries.push_back(out.query);
        ++activity.headersMerged;
    }
    const std::size_t count = out.action == PeAction::Reduce ? 2 : 1;
    for (std::size_t i = 0; i < count; ++i)
        if (std::ranges::find(head.sources, out.sources[i]) ==
            head.sources.end())
            head.sources.push_back(out.sources[i]);
    if (out.action == PeAction::Reduce)
        head.action = PeAction::Reduce;
}

} // namespace

std::vector<Flit>
ProcessingElement::process(const std::vector<Flit> &a,
                           const std::vector<Flit> &b, PeBatch &batch,
                           PeActivity &activity)
{
    HeaderTable &headers = batch.headers;
    VectorPool *pool = batch.pool;
    const bool quantized = batch.payload != embedding::PayloadFormat::Fp32;
    constexpr std::size_t kMaxInputs = std::size_t{1} << 31;
    FAFNIR_ASSERT(a.size() < kMaxInputs && b.size() < kMaxInputs,
                  "input lists of ", a.size(), " and ", b.size(),
                  " items overflow Provenance::index");
    // The compute-unit fabric compares every entry of one buffer with every
    // entry of the other (Section IV-B).
    activity.compares += static_cast<std::uint64_t>(a.size()) * b.size();

    // Gather, per query, the buffer positions that carry it: one entry
    // per (item, query), grouped by a stable counting sort on the query.
    // Sides are scanned A then B in buffer order, so each query's entries
    // come A first, then by position.
    const std::size_t num_queries = batch.querySets.size();
    std::vector<std::uint32_t> first(num_queries + 1, 0);
    for (const auto *side : {&a, &b})
        for (const Flit &item : *side)
            for (QueryId q : item.queries) {
                FAFNIR_ASSERT(q < num_queries, "query ", q,
                              " outside the batch's ", num_queries,
                              " queries");
                ++first[q + 1];
            }
    for (std::size_t q = 0; q < num_queries; ++q)
        first[q + 1] += first[q];
    std::vector<Provenance> entries(first[num_queries]);
    for (std::uint32_t side = 0; side < 2; ++side) {
        const std::vector<Flit> &items = side == 0 ? a : b;
        for (std::uint32_t i = 0; i < items.size(); ++i)
            for (QueryId q : items[i].queries)
                entries[first[q]++] = {side, i};
    }
    // first[q] now ends query q's entries and starts query q + 1's.

    // Every raw output consumes at least one entry, so one reservation
    // holds them all.
    std::vector<RawOutput> raw;
    raw.reserve(entries.size());
    auto forward = [&](Provenance at, QueryId query) {
        const Flit &source = at.side == 0 ? a[at.index] : b[at.index];
        raw.push_back({source.indices, query, PeAction::Forward, {at, {}},
                       kEmpty, copyValue(source.value, pool)});
        ++activity.forwards;
    };
    std::uint32_t begin = 0;
    for (QueryId query = 0; query < num_queries; begin = first[query++]) {
        const std::uint32_t last = first[query];
        std::uint32_t split = begin; // the query's first B entry
        while (split < last && entries[split].side == 0)
            ++split;
        const std::uint32_t paired = std::min(split - begin, last - split);

        for (std::uint32_t i = 0; i < paired; ++i) {
            const Provenance pa = entries[begin + i];
            const Provenance pb = entries[split + i];
            const Flit &left = a[pa.index];
            const Flit &right = b[pb.index];
            // The operands must be disjoint (unite checks) and both lie
            // inside Q(query), which holds exactly when their union does.
            const SetId united = headers.unite(left.indices, right.indices);
            const IndexSet &full = batch.querySets[query];
            FAFNIR_ASSERT(full.containsAll(headers[united]),
                          "query ", query, ": operands ",
                          IndexSet(headers[left.indices]).toString(), " and ",
                          IndexSet(headers[right.indices]).toString(),
                          " not wanted by ", full.toString());

            embedding::Vector value;
            if (batch.values && !left.value.empty())
                value = addValues(left.value, right.value, batch.op, pool);
            raw.push_back({united, query, PeAction::Reduce, {pa, pb}, kEmpty,
                           std::move(value)});
            ++activity.reduces;
            // Meeting-logic codec work under a compressed payload:
            // dequantize both operands, accumulate in fp32, and
            // requantize the partial for the uplink. Counted per
            // meeting whether or not this run materializes values —
            // the values themselves stay the exact fp32 combines; the
            // leaf round-trip already fixed every operand
            // (quantize.hh), so these counters drive only the
            // byte/energy model.
            if (quantized) {
                activity.dequants += 2;
                activity.requants += 1;
            }
        }
        for (std::uint32_t i = begin + paired; i < split; ++i)
            forward(entries[i], query);
        for (std::uint32_t i = split + paired; i < last; ++i)
            forward(entries[i], query);
    }

    // Merge unit: group by indices set. Equal indices imply the same value
    // (a value is a pure function of the vectors it sums), so duplicates
    // are dropped and distinct query lists are concatenated. Equal sets
    // have equal ids, so the stash maps a set id to its group; the group's
    // first raw output heads it and later ones fold into it in raw order.
    // A backward scan links each group's raw outputs in that order.
    std::vector<std::uint32_t> &stash = batch.stash;
    stash.resize(headers.size(), kEmpty);
    std::vector<Group> groups;
    for (auto k = static_cast<std::uint32_t>(raw.size()); k-- > 0;) {
        const SetId id = raw[k].indices;
        if (stash[id] == kEmpty) {
            stash[id] = static_cast<std::uint32_t>(groups.size());
            groups.push_back({headers.orderKey(id), id, k});
        } else {
            raw[k].next = groups[stash[id]].first;
            groups[stash[id]].first = k;
        }
    }

    // Heads leave in ascending indices order: the output-order contract
    // (pe.hh) that fixes every output's issue slot. Their sets are
    // distinct, so the contents decide whenever the keys tie.
    std::sort(groups.begin(), groups.end(),
              [&headers](const Group &x, const Group &y) {
                  return x.key != y.key ? x.key < y.key
                                        : headers.less(x.id, y.id);
              });
    std::vector<Flit> outputs(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        stash[groups[g].id] = kEmpty;
        RawOutput &lead = raw[groups[g].first];
        Flit &out = outputs[g];
        out.indices = lead.indices;
        out.queries.push_back(lead.query);
        out.value = std::move(lead.value);
        out.action = lead.action;
        out.sources.push_back(lead.sources[0]);
        if (lead.action == PeAction::Reduce)
            out.sources.push_back(lead.sources[1]);
        for (std::uint32_t k = lead.next; k != kEmpty; k = raw[k].next)
            mergeInto(out, raw[k], activity, pool);
    }
    return outputs;
}

} // namespace fafnir::core
