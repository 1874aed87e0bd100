/**
 * @file
 * Implementation of the TensorDIMM baseline.
 */

#include "tensordimm.hh"

#include <algorithm>

#include "common/logging.hh"
#include "embedding/reduce_kernels.hh"

namespace fafnir::baselines
{

TensorDimmEngine::TensorDimmEngine(dram::MemorySystem &memory,
                                   const embedding::TableConfig &tables,
                                   const TensorDimmConfig &config)
    : memory_(memory), tables_(tables), config_(config),
      ndpPeriod_(periodFromMhz(config.ndpClockMhz))
{
    // Every rank's adder works on whole elements of its slice.
    const unsigned ranks = memory_.geometry().totalRanks();
    sliceBytes_ = tables_.vectorBytes / ranks;
    FAFNIR_ASSERT(sliceBytes_ > 0 &&
                      tables_.vectorBytes %
                              (ranks * tables_.elementBytes) == 0,
                  "a ", tables_.vectorBytes,
                  " B vector does not split into whole-element slices on ",
                  ranks, " ranks");
}

dram::Coordinates
TensorDimmEngine::sliceCoords(IndexId index) const
{
    const dram::Geometry &g = memory_.geometry();

    // Rank-local linear placement: slice of vector i at offset
    // i * sliceBytes. Distinct vectors of a query land in unrelated rows.
    const std::uint64_t offset =
        static_cast<std::uint64_t>(index) * sliceBytes_;
    const std::uint64_t row_linear = offset / g.rowBytes;

    dram::Coordinates c;
    c.bank = static_cast<unsigned>(row_linear % g.banksPerRank);
    c.row = (row_linear / g.banksPerRank) % g.rowsPerBank;
    c.column = static_cast<unsigned>(offset % g.rowBytes);
    return c;
}

std::vector<LookupTiming>
TensorDimmEngine::lookupMany(const std::vector<embedding::Batch> &batches,
                             Tick start)
{
    std::vector<LookupTiming> timings;
    timings.reserve(batches.size());
    Tick t = start;
    for (const auto &batch : batches) {
        timings.push_back(lookup(batch, t));
        t = timings.back().memLast;
    }
    return timings;
}

LookupTiming
TensorDimmEngine::lookup(const embedding::Batch &batch, Tick start)
{
    batch.check();
    const dram::Geometry &g = memory_.geometry();
    const unsigned ranks = g.totalRanks();
    const Tick add_ticks = config_.addCycles * ndpPeriod_;

    LookupTiming timing;
    timing.issued = start;
    timing.memLast = start;
    timing.queryComplete.assign(batch.size(), 0);

    // Every rank holds each slice at the same bank, row and column, so
    // the references' coordinates are computed once per batch.
    std::vector<dram::Coordinates> slices;
    slices.reserve(batch.totalIndices());
    for (const auto &query : batch.queries) {
        for (IndexId index : query.indices)
            slices.push_back(sliceCoords(index));
    }

    // Every rank runs the same serial slice pipeline over the batch; the
    // next read is issued once the current one's data starts returning
    // (command pipelining), and the adder folds slices as they land.
    std::vector<Tick> reduce_done(batch.size(), 0);
    const unsigned ranks_per_channel = g.ranksPerChannel();
    for (unsigned rank = 0; rank < ranks; ++rank) {
        const unsigned in_channel = rank % ranks_per_channel;
        dram::Coordinates at;
        at.channel = rank / ranks_per_channel;
        at.dimm = in_channel / g.ranksPerDimm;
        at.rank = in_channel % g.ranksPerDimm;
        auto slice = slices.cbegin();
        Tick next_issue = start;
        for (const auto &query : batch.queries) {
            Tick partial = 0;
            for (std::size_t k = 0; k < query.indices.size(); ++k) {
                at.bank = slice->bank;
                at.row = slice->row;
                at.column = slice->column;
                ++slice;
                const auto result = memory_.readAt(
                    at, sliceBytes_, next_issue, dram::Destination::Ndp);
                ++timing.memAccesses;
                timing.memLast = std::max(timing.memLast, result.complete);
                // The NDP pipeline is a dependent chain: the next slice
                // is fetched while the current one is summed, i.e. once
                // the current data has landed (Section III-B).
                next_issue = result.complete;
                partial = k == 0
                    ? result.complete
                    : std::max(partial, result.complete) + add_ticks;
                if (k > 0)
                    ++timing.ndpReduces;
            }
            reduce_done[query.id] =
                std::max(reduce_done[query.id], partial);
        }
    }

    // Each channel's DIMM buffers forward their aggregated share of the
    // output vector (v / c bytes per channel per query).
    const unsigned bytes_per_channel =
        std::max(tables_.vectorBytes / g.channels, g.burstBytes);
    for (const auto &query : batch.queries) {
        Tick done = reduce_done[query.id];
        for (unsigned ch = 0; ch < g.channels; ++ch) {
            done = std::max(done,
                            memory_.transferToHost(ch, bytes_per_channel,
                                                   reduce_done[query.id]));
        }
        timing.queryComplete[query.id] = done;
        timing.complete = std::max(timing.complete, done);
    }
    return timing;
}

std::vector<embedding::Vector>
TensorDimmEngine::reduceBatch(const embedding::EmbeddingStore &store,
                              const embedding::Batch &batch,
                              embedding::ReduceOp op) const
{
    batch.check();
    const unsigned dim = tables_.dim();

    std::vector<embedding::Vector> results;
    results.reserve(batch.size());
    embedding::Vector row(dim);
    for (const auto &query : batch.queries) {
        // Each rank's adder owns one slice of the output and folds the
        // query's vectors in index order, element-serial, the way the
        // pipelined slice adders consume their 16 B stream. The slices
        // tile the vector, so every element is folded in index order,
        // which is what folding whole rows does.
        embedding::Vector out(dim);
        store.fill(query.indices.front(), out);
        for (std::size_t i = 1; i < query.indices.size(); ++i) {
            store.fill(query.indices[i], row);
            embedding::combineSpan(op, out.data(), row.data(), dim);
        }
        embedding::finalizeSpan(op, out.data(), out.size(),
                                query.indices.size());
        results.push_back(std::move(out));
    }
    return results;
}

} // namespace fafnir::baselines
