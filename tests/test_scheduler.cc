/**
 * @file
 * Read-scheduler tests: RowHitFirst must be a pure reordering (identical
 * read sets, functional results unchanged) that groups same-row reads.
 */

#include <gtest/gtest.h>

#include <map>

#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "fafnir/functional.hh"
#include "fafnir/scheduler.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

struct SchedulerRig
{
    EventQueue eq;
    TableConfig tables{32, 1u << 16, 512, 4};
    dram::MemorySystem memory;
    EmbeddingStore store;
    VectorLayout layout;

    SchedulerRig()
        : memory(eq, dram::Geometry{}, dram::Timing::ddr4_2400(),
                 dram::Interleave::BlockRank, 512),
          store(tables), layout(tables, memory.mapper())
    {}
};

} // namespace

TEST(Scheduler, InOrderIsIdentity)
{
    SchedulerRig rig;
    WorkloadConfig wc;
    wc.tables = rig.tables;
    wc.batchSize = 8;
    wc.querySize = 16;
    const Batch batch = BatchGenerator(wc, 3).next();

    PreparedBatch a = prepareBatch(rig.layout, &rig.store, batch, true);
    PreparedBatch b = prepareBatch(rig.layout, &rig.store, batch, true);
    scheduleReads(b, ReadOrder::InOrder, rig.memory.mapper());
    for (std::size_t r = 0; r < a.rankReads.size(); ++r) {
        ASSERT_EQ(a.rankReads[r].size(), b.rankReads[r].size());
        for (std::size_t i = 0; i < a.rankReads[r].size(); ++i)
            EXPECT_EQ(a.rankReads[r][i].index, b.rankReads[r][i].index);
    }
}

TEST(Scheduler, RowHitFirstPreservesReadMultiset)
{
    SchedulerRig rig;
    WorkloadConfig wc;
    wc.tables = rig.tables;
    wc.batchSize = 16;
    wc.querySize = 16;
    wc.zipfSkew = 1.0;
    wc.hotFraction = 0.01;
    const Batch batch = BatchGenerator(wc, 4).next();

    PreparedBatch before = prepareBatch(rig.layout, &rig.store, batch, false);
    PreparedBatch after = prepareBatch(rig.layout, &rig.store, batch, false);
    scheduleReads(after, ReadOrder::RowHitFirst, rig.memory.mapper());

    for (std::size_t r = 0; r < before.rankReads.size(); ++r) {
        std::multiset<IndexId> a;
        std::multiset<IndexId> b;
        for (const auto &read : before.rankReads[r])
            a.insert(read.index);
        for (const auto &read : after.rankReads[r])
            b.insert(read.index);
        EXPECT_EQ(a, b) << "rank " << r;
    }
}

TEST(Scheduler, RowHitFirstGroupsRows)
{
    SchedulerRig rig;
    const Batch batch = [] {
        Batch batch;
        Query q;
        q.id = 0;
        // Vectors on one rank spanning two rows, interleaved.
        for (IndexId k : {0u, 512u * 32u / 512u * 32u, 32u, 16u * 32u,
                          2u * 32u, 17u * 32u})
            q.indices.push_back(k);
        std::sort(q.indices.begin(), q.indices.end());
        q.indices.erase(std::unique(q.indices.begin(), q.indices.end()),
                        q.indices.end());
        batch.queries.push_back(std::move(q));
        return batch;
    }();
    PreparedBatch prepared = prepareBatch(rig.layout, &rig.store, batch, true);
    scheduleReads(prepared, ReadOrder::RowHitFirst, rig.memory.mapper());

    // After scheduling, every rank's list must be non-decreasing in
    // (bank, row).
    for (const auto &reads : prepared.rankReads) {
        for (std::size_t i = 1; i < reads.size(); ++i) {
            const auto prev = rig.memory.mapper().decode(
                reads[i - 1].address);
            const auto cur =
                rig.memory.mapper().decode(reads[i].address);
            EXPECT_LE(std::make_tuple(prev.bank, prev.row, prev.column),
                      std::make_tuple(cur.bank, cur.row, cur.column));
        }
    }
}

TEST(Scheduler, FunctionalResultsUnchangedByReordering)
{
    SchedulerRig rig;
    WorkloadConfig wc;
    wc.tables = rig.tables;
    wc.batchSize = 16;
    wc.querySize = 12;
    wc.zipfSkew = 1.0;
    wc.hotFraction = 0.005;
    BatchGenerator gen(wc, 5);
    const TreeTopology topology(32);
    const FunctionalTree tree(topology);

    for (int round = 0; round < 3; ++round) {
        const Batch batch = gen.next();
        PreparedBatch prepared =
            prepareBatch(rig.layout, &rig.store, batch, true);
        scheduleReads(prepared, ReadOrder::RowHitFirst,
                      rig.memory.mapper());
        const TreeRun run = tree.run(prepared, true, false);
        const auto reference = rig.store.reduceBatch(batch);
        for (std::size_t q = 0; q < reference.size(); ++q) {
            EXPECT_TRUE(vectorsEqual(run.results[q], reference[q]))
                << "query " << q;
        }
    }
}
