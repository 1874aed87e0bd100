/**
 * @file
 * Functional PE implementation: compare, reduce/forward, merge.
 */

#include "pe.hh"

#include <algorithm>
#include <bit>
#include <tuple>

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

/** Append to @p raw a forward of @p source carrying only @p residual. */
void
pushForward(std::vector<PeOutput> &raw, const Item &source,
            const QueryResidual &residual, std::uint8_t side,
            std::uint32_t index, VectorPool *pool)
{
    PeOutput &out = raw.emplace_back();
    out.item.indices = source.indices;
    out.item.queries.push_back(residual);
    out.item.value = copyValue(source.value, pool);
    out.action = PeAction::Forward;
    out.sources.push_back({side, static_cast<std::uint16_t>(index)});
}

/** One residual of one buffer entry: the unit the compute fabric pairs. */
struct Entry
{
    QueryId query = 0;
    std::uint8_t side = 0;
    std::uint32_t pos = 0;
};

/** Hash of an index set for the merge stash. */
std::size_t
hashOf(const IndexSet &set)
{
    std::uint64_t h = set.size();
    for (IndexId id : set)
        h = (h ^ id) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
}

/** Fold raw output @p out into @p head, which has the same indices. */
void
mergeInto(PeOutput &head, PeOutput &out, PeActivity &activity,
          VectorPool *pool)
{
    // The losing duplicate's value buffer dies here; recycle it.
    if (pool != nullptr)
        pool->release(std::move(out.item.value));
    for (auto &residual : out.item.queries) {
        bool duplicate = false;
        for (const auto &have : head.item.queries) {
            if (have == residual) {
                duplicate = true;
                break;
            }
        }
        if (duplicate) {
            ++activity.duplicatesDropped;
        } else {
            head.item.queries.push_back(std::move(residual));
            ++activity.headersMerged;
        }
    }
    for (const Provenance &src : out.sources) {
        bool known = false;
        for (const Provenance &have : head.sources)
            known |= have == src;
        if (!known)
            head.sources.push_back(src);
    }
    if (out.action == PeAction::Reduce)
        head.action = PeAction::Reduce;
}

} // namespace

std::vector<PeOutput>
ProcessingElement::process(const std::vector<Item> &a,
                           const std::vector<Item> &b, PeActivity &activity,
                           bool values, embedding::ReduceOp op,
                           VectorPool *pool,
                           embedding::PayloadFormat payload)
{
    const bool quantized = payload != embedding::PayloadFormat::Fp32;
    // The compute-unit fabric compares every entry of one buffer with every
    // entry of the other (Section IV-B).
    activity.compares += static_cast<std::uint64_t>(a.size()) * b.size();

    // Gather, per query, the buffer positions that carry its residuals:
    // one flat entry per residual, ordered by query, then side (A first),
    // then buffer position.
    std::vector<Entry> entries;
    std::size_t residuals = 0;
    for (const Item &item : a)
        residuals += item.queries.size();
    for (const Item &item : b)
        residuals += item.queries.size();
    entries.reserve(residuals);
    for (std::uint32_t i = 0; i < a.size(); ++i)
        for (const auto &r : a[i].queries)
            entries.push_back({r.query, 0, i});
    for (std::uint32_t i = 0; i < b.size(); ++i)
        for (const auto &r : b[i].queries)
            entries.push_back({r.query, 1, i});
    std::sort(entries.begin(), entries.end(),
              [](const Entry &x, const Entry &y) {
                  return std::tie(x.query, x.side, x.pos) <
                         std::tie(y.query, y.side, y.pos);
              });

    // Every raw output consumes at least one entry, so one reservation
    // holds them all.
    std::vector<PeOutput> raw;
    raw.reserve(entries.size());
    for (std::size_t first = 0; first < entries.size();) {
        const QueryId query = entries[first].query;
        std::size_t split = first; // the query's first B entry
        while (split < entries.size() && entries[split].query == query &&
               entries[split].side == 0)
            ++split;
        std::size_t last = split;
        while (last < entries.size() && entries[last].query == query)
            ++last;
        const std::size_t in_a = split - first;
        const std::size_t in_b = last - split;
        const std::size_t paired = std::min(in_a, in_b);

        for (std::size_t i = 0; i < paired; ++i) {
            const std::uint32_t pa = entries[first + i].pos;
            const std::uint32_t pb = entries[split + i].pos;
            const Item &left = a[pa];
            const Item &right = b[pb];
            const QueryResidual *ra = left.findQuery(query);
            const QueryResidual *rb = right.findQuery(query);
            FAFNIR_ASSERT(ra && rb, "residual lookup failed");
            FAFNIR_ASSERT(ra->remaining.containsAll(right.indices),
                          "query ", query, ": right operand ",
                          right.indices.toString(),
                          " not wanted by residual ",
                          ra->remaining.toString());
            FAFNIR_ASSERT(rb->remaining.containsAll(left.indices),
                          "query ", query, ": left operand not wanted");

            PeOutput &out = raw.emplace_back();
            out.item.indices = left.indices.disjointUnion(right.indices);
            out.item.queries.push_back(
                {query, ra->remaining.minus(right.indices)});
            if (values && !left.value.empty())
                out.item.value = addValues(left.value, right.value, op, pool);
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
            out.action = PeAction::Reduce;
            out.sources.push_back({0, static_cast<std::uint16_t>(pa)});
            out.sources.push_back({1, static_cast<std::uint16_t>(pb)});
            ++activity.reduces;
        }
        for (std::size_t i = first + paired; i < split; ++i) {
            const Item &source = a[entries[i].pos];
            pushForward(raw, source, *source.findQuery(query), 0,
                        entries[i].pos, pool);
            ++activity.forwards;
        }
        for (std::size_t i = split + paired; i < last; ++i) {
            const Item &source = b[entries[i].pos];
            pushForward(raw, source, *source.findQuery(query), 1,
                        entries[i].pos, pool);
            ++activity.forwards;
        }
        first = last;
    }

    // Merge unit: group by indices set. Equal indices imply the same value
    // (a value is a pure function of the vectors it sums), so duplicates
    // are dropped and distinct residual lists are concatenated. The stash
    // is a linear-probe table from an indices set to the first raw output
    // carrying it (the group's head); later outputs fold into their head
    // in raw order. At least twice as many slots as raw outputs keeps
    // probes short and the table never full.
    constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
    const std::size_t mask = std::bit_ceil(2 * raw.size()) - 1;
    std::vector<std::uint32_t> stash(mask + 1, kEmpty);
    std::vector<std::uint32_t> heads;
    heads.reserve(raw.size());
    for (std::uint32_t k = 0; k < raw.size(); ++k) {
        const IndexSet &key = raw[k].item.indices;
        std::size_t slot = hashOf(key) & mask;
        while (stash[slot] != kEmpty && raw[stash[slot]].item.indices != key)
            slot = (slot + 1) & mask;
        if (stash[slot] == kEmpty) {
            stash[slot] = k;
            heads.push_back(k);
        } else {
            mergeInto(raw[stash[slot]], raw[k], activity, pool);
        }
    }

    // Heads leave in ascending indices order: the output-order contract
    // (pe.hh) that fixes every output's issue slot.
    std::sort(heads.begin(), heads.end(),
              [&raw](std::uint32_t x, std::uint32_t y) {
                  return raw[x].item.indices < raw[y].item.indices;
              });
    std::vector<PeOutput> outputs;
    outputs.reserve(heads.size());
    for (std::uint32_t k : heads)
        outputs.push_back(std::move(raw[k]));
    return outputs;
}

} // namespace fafnir::core
