/**
 * @file
 * Targeted unit tests of the baseline models: host core arithmetic,
 * TensorDIMM slice placement, RecNMP cache ceiling and grouping,
 * Two-Step run structure.
 */

#include <gtest/gtest.h>

#include <set>

#include "baselines/recnmp.hh"
#include "baselines/tensordimm.hh"
#include "baselines/timing.hh"
#include "baselines/two_step.hh"
#include "common/random.hh"
#include "embedding/generator.hh"
#include "sparse/matgen.hh"

using namespace fafnir;
using namespace fafnir::baselines;

TEST(HostCore, AddLatencyScalesWithDim)
{
    HostCore core(1.0, 16, 0); // 1 GHz, no overhead
    EXPECT_EQ(core.addLatency(16), 1000u);  // one SIMD op
    EXPECT_EQ(core.addLatency(128), 8000u); // eight ops
    EXPECT_EQ(core.addLatency(129), 9000u); // ceil
}

TEST(HostCore, OverheadAddsPerOp)
{
    HostCore with(3.0, 16, 30 * kTicksPerNs);
    HostCore without(3.0, 16, 0);
    EXPECT_EQ(with.addLatency(128) - without.addLatency(128),
              30 * kTicksPerNs);
}

TEST(HostCore, SerializesBackToBack)
{
    HostCore core(1.0, 16, 0);
    const Tick first = core.reduceAt(0, 16);
    const Tick second = core.reduceAt(0, 16); // ready at 0 but queued
    EXPECT_EQ(second, first + core.addLatency(16));
    core.reset();
    EXPECT_EQ(core.freeAt(), 0u);
}

TEST(RankCache, LruEvictsOldest)
{
    RankCache cache(2 * 512, 512, 1.0); // 2 entries, no ceiling
    EXPECT_FALSE(cache.access(1));
    EXPECT_FALSE(cache.access(2));
    EXPECT_TRUE(cache.access(1));  // 1 now MRU
    EXPECT_FALSE(cache.access(3)); // evicts 2
    EXPECT_FALSE(cache.access(2)); // gone
    EXPECT_EQ(cache.size(), 2u);
}

TEST(RankCache, HitRateCeilingEnforced)
{
    RankCache cache(64 * 512, 512, 0.5);
    // Hammer one index: raw LRU would hit ~100%; the ceiling caps the
    // reported hits at ~50%.
    unsigned hits = 0;
    const unsigned accesses = 1000;
    for (unsigned i = 0; i < accesses; ++i)
        hits += cache.access(42);
    EXPECT_NEAR(static_cast<double>(hits) / accesses, 0.5, 0.02);
}

TEST(RankCache, ZeroCapacityNeverHits)
{
    RankCache cache(0, 512);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(cache.access(7));
}

namespace
{

struct BaselineRig
{
    EventQueue eq;
    embedding::TableConfig tables{32, 1u << 16, 512, 4};
    dram::MemorySystem memory;
    embedding::VectorLayout layout;

    BaselineRig()
        : memory(eq, dram::Geometry{}, dram::Timing::ddr4_2400(),
                 dram::Interleave::BlockRank, 512),
          layout(tables, memory.mapper())
    {}
};

} // namespace

TEST(TensorDimmModel, SliceSizeDividesVector)
{
    BaselineRig rig;
    TensorDimmEngine engine(rig.memory, rig.tables);
    EXPECT_EQ(engine.sliceBytes(), 512u / 32);
}

TEST(TensorDimmModel, RejectsSlicesOfPartialElements)
{
    // 512 B vectors on 256 ranks would be 2 B slices of 4 B elements,
    // and on 1024 ranks half a byte.
    for (const unsigned ranks : {256u, 1024u}) {
        EventQueue eq;
        dram::MemorySystem memory(eq, dram::Geometry::withTotalRanks(ranks),
                                  dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        const embedding::TableConfig tables{32, 1u << 16, 512, 4};
        EXPECT_DEATH(TensorDimmEngine(memory, tables),
                     "does not split into whole-element slices");
    }
}

TEST(TensorDimmModel, EveryRankWorksOnEveryQuery)
{
    BaselineRig rig;
    TensorDimmEngine engine(rig.memory, rig.tables);
    embedding::Batch batch;
    batch.queries.push_back({0, {1, 2, 3, 4}});
    const auto t = engine.lookup(batch, 0);
    // 32 ranks x 4 slices each.
    EXPECT_EQ(t.memAccesses, 128u);
    EXPECT_EQ(t.ndpReduces, 32u * 3);
    EXPECT_EQ(t.hostReduces, 0u);
}

TEST(TensorDimmModel, LatencyGrowsLinearlyWithQuerySize)
{
    // The slice pipeline is serial: 2x the indices ~ 2x the time.
    embedding::Batch small;
    small.queries.push_back({0, {1, 3, 5, 7}});
    embedding::Batch big;
    big.queries.push_back({0, {1, 3, 5, 7, 9, 11, 13, 15}});

    BaselineRig rig_small;
    TensorDimmEngine e_small(rig_small.memory, rig_small.tables);
    const Tick t_small = e_small.lookup(small, 0).totalTime();

    BaselineRig rig_big;
    TensorDimmEngine e_big(rig_big.memory, rig_big.tables);
    const Tick t_big = e_big.lookup(big, 0).totalTime();

    EXPECT_GT(t_big, t_small + t_small / 2);
}

TEST(RecNmpModel, NdpCoverageTracksColocation)
{
    BaselineRig rig;
    RecNmpEngine engine(rig.memory, rig.layout);
    // Indices chosen on the same DIMM: full NDP reduction, one partial.
    std::vector<IndexId> colocated;
    const unsigned dimm0 = rig.layout.dimmOf(0);
    for (IndexId i = 0; colocated.size() < 4 && i < 4096; ++i)
        if (rig.layout.dimmOf(i) == dimm0)
            colocated.push_back(i);
    std::sort(colocated.begin(), colocated.end());
    embedding::Batch batch;
    batch.queries.push_back({0, colocated});

    const auto t = engine.lookup(batch, 0);
    EXPECT_EQ(t.ndpReduces, 3u);
    EXPECT_EQ(t.hostReduces, 0u);
}

TEST(RecNmpModel, ScatteredQueryForwardsEverything)
{
    BaselineRig rig;
    RecNmpEngine engine(rig.memory, rig.layout);
    // Four indices on four distinct DIMMs.
    std::vector<IndexId> scattered;
    std::set<unsigned> dimms;
    for (IndexId i = 0; scattered.size() < 4 && i < 4096; ++i) {
        if (dimms.insert(rig.layout.dimmOf(i)).second)
            scattered.push_back(i);
    }
    std::sort(scattered.begin(), scattered.end());
    embedding::Batch batch;
    batch.queries.push_back({0, scattered});

    const auto t = engine.lookup(batch, 0);
    EXPECT_EQ(t.ndpReduces, 0u);
    EXPECT_EQ(t.hostReduces, 3u);
    // All four raw vectors crossed to the host.
    EXPECT_EQ(rig.memory.bytesToHost(), 4u * 512);
}

TEST(TwoStepModel, SingleRunSkipsTheMergePass)
{
    Rng rng(6);
    const auto csr = sparse::makeUniformRandom(256, 256, 4.0, rng);
    const auto lil = sparse::LilMatrix::fromCsr(csr);
    const auto x = sparse::makeOperand(256);

    BaselineRig rig;
    TwoStepConfig cfg;
    cfg.chunkColumns = 256; // whole matrix in one run
    TwoStepEngine engine(rig.memory, cfg);
    sparse::SpmvTiming t;
    const auto y = engine.multiply(lil, x, 0, t);
    EXPECT_TRUE(sparse::denseEqual(y, csr.multiply(x)));
    EXPECT_EQ(t.iterationComplete.size(), 1u);
    EXPECT_EQ(t.intermediateEntries, 0u);
}

TEST(TwoStepModel, MultiRunSpillsAndMerges)
{
    Rng rng(7);
    const auto csr = sparse::makeUniformRandom(256, 1024, 4.0, rng);
    const auto lil = sparse::LilMatrix::fromCsr(csr);
    const auto x = sparse::makeOperand(1024);

    BaselineRig rig;
    TwoStepConfig cfg;
    cfg.chunkColumns = 128; // 8 runs
    TwoStepEngine engine(rig.memory, cfg);
    sparse::SpmvTiming t;
    const auto y = engine.multiply(lil, x, 0, t);
    EXPECT_TRUE(sparse::denseEqual(y, csr.multiply(x)));
    EXPECT_EQ(t.iterationComplete.size(), 2u);
    EXPECT_GT(t.intermediateEntries, 0u);
    EXPECT_GT(t.reduces, 0u);
}
