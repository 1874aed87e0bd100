/**
 * @file
 * Cross-module integration scenarios: full pipelines that chain several
 * subsystems the way the examples and a downstream user would.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/recnmp.hh"
#include "common/random.hh"
#include "dram/cmdlog.hh"
#include "embedding/batcher.hh"
#include "embedding/generator.hh"
#include "embedding/mlp.hh"
#include "embedding/service.hh"
#include "embedding/trace.hh"
#include "fafnir/engine.hh"
#include "fafnir/event_engine.hh"
#include "fafnir/functional.hh"
#include "hwmodel/energy_report.hh"
#include "sparse/algorithms.hh"
#include "sparse/matgen.hh"

using namespace fafnir;
using namespace fafnir::embedding;

namespace
{

struct FullRig
{
    EventQueue eq;
    TableConfig tables{32, 1u << 16, 512, 4};
    dram::MemorySystem memory;
    VectorLayout layout;

    explicit FullRig(dram::Geometry g = dram::Geometry{},
                     dram::Timing t = dram::Timing::ddr4_2400())
        : memory(eq, g, t, dram::Interleave::BlockRank, 512),
          layout(tables, memory.mapper())
    {}
};

std::vector<Query>
stream(unsigned count, std::uint64_t seed)
{
    WorkloadConfig wc;
    wc.tables = {32, 1u << 16, 512, 4};
    wc.batchSize = 1;
    wc.querySize = 12;
    wc.zipfSkew = 1.0;
    wc.hotFraction = 0.002;
    BatchGenerator gen(wc, seed);
    std::vector<Query> queries;
    for (unsigned i = 0; i < count; ++i) {
        Query q = gen.next().queries.front();
        q.id = 0;
        queries.push_back(std::move(q));
    }
    return queries;
}

} // namespace

TEST(Integration, TraceToBatcherToEngineToEnergy)
{
    // Persist a query stream, reload it, compose similarity batches,
    // run them, and account energy — the full host workflow.
    const auto queries = stream(128, 9);
    BatcherConfig bc;
    bc.batchSize = 16;
    bc.windowSize = 128;
    const auto composed = composeBatches(queries, bc);

    const std::string path = "/tmp/fafnir_integration_trace.txt";
    saveTrace(path, composed.batches);
    const auto reloaded = loadTrace(path);
    ASSERT_EQ(reloaded.size(), composed.batches.size());

    FullRig rig;
    core::FafnirEngine engine(rig.memory, rig.layout,
                              core::EngineConfig{});
    const auto timings = engine.lookupMany(reloaded, 0);
    EXPECT_EQ(timings.size(), reloaded.size());

    const hwmodel::EnergyReport report;
    const auto energy =
        report.account(rig.memory, timings.back().complete);
    EXPECT_GT(energy.total(), 0.0);
    EXPECT_EQ(rig.memory.readCount(), engine.issuedReads());
}

TEST(Integration, FunctionalScoresFeedTheMlp)
{
    // Tree-reduced embeddings drive a deterministic MLP score, end to
    // end with real values.
    FullRig rig;
    const EmbeddingStore store(rig.tables);
    const core::TreeTopology topology(32);
    const core::FunctionalTree tree(topology);

    WorkloadConfig wc;
    wc.tables = rig.tables;
    wc.batchSize = 4;
    wc.querySize = 8;
    const Batch batch = BatchGenerator(wc, 10).next();
    const core::TreeRun run =
        tree.run(core::prepareBatch(rig.layout, &store, batch, true));

    Vector features;
    for (const auto &pooled : run.results)
        features.insert(features.end(), pooled.begin(), pooled.end());
    const Mlp mlp({128u * 4, 64, 1}, 99);
    const Vector score_a = mlp.forward(features);

    // Same inputs, same score — and perturbing one embedding changes it.
    const Vector score_b = mlp.forward(features);
    EXPECT_EQ(score_a, score_b);
    features[0] += 10.0f;
    EXPECT_NE(mlp.forward(features), score_a);
}

TEST(Integration, EventEngineOnHbmWithProtocolAudit)
{
    FullRig rig(dram::Geometry::hbm2(), dram::Timing::hbm2());
    dram::CommandLog log;
    rig.memory.attachCommandLog(&log);

    core::EventDrivenEngine engine(rig.memory, rig.layout,
                                   core::EventEngineConfig{});
    WorkloadConfig wc;
    wc.tables = rig.tables;
    wc.batchSize = 16;
    wc.querySize = 16;
    const Batch batch = BatchGenerator(wc, 11).next();
    const auto t = engine.lookup(batch, 0);
    EXPECT_GT(t.complete, 0u);

    const auto violations =
        dram::checkProtocol(log, rig.memory.timing(),
                            rig.memory.geometry());
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations.front().rule);
}

TEST(Integration, ServiceOverSimilarityBatches)
{
    const auto queries = stream(64, 12);
    BatcherConfig bc;
    bc.batchSize = 8;
    bc.windowSize = 64;
    const auto composed = composeBatches(queries, bc);

    FullRig rig;
    core::FafnirEngine engine(rig.memory, rig.layout,
                              core::EngineConfig{});
    ServiceGuard guard({}, [&](const Batch &batch, Tick at) {
        return ServeSample{engine.lookup(batch, at).complete, {}};
    });
    const auto report =
        serveGuardedOpenLoop(composed.batches, 4 * kTicksPerUs, guard);
    EXPECT_EQ(report.requests.size(), composed.batches.size());
    EXPECT_FALSE(report.saturated());
}

TEST(Integration, PageRankOnHbm)
{
    Rng rng(13);
    const auto adj = sparse::columnNormalize(
        sparse::makePowerLawGraph(2048, 8.0, 0.9, rng).transpose());

    EventQueue eq;
    dram::MemorySystem memory(eq, dram::Geometry::hbm2(),
                              dram::Timing::hbm2());
    sparse::FafnirSpmv engine(memory, sparse::FafnirSpmvConfig{});
    const auto result = sparse::pageRank(
        engine, sparse::LilMatrix::fromCsr(adj), 0.85, {});
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.simulatedTicks, 0u);
}

TEST(Integration, RecNmpAndFafnirAgreeOnWorkNotTime)
{
    // Both engines serve the same references; only who reduces differs.
    const auto queries = stream(32, 14);
    BatcherConfig bc;
    bc.batchSize = 16;
    bc.policy = BatchPolicy::Fifo;
    const auto composed = composeBatches(queries, bc);

    FullRig f_rig;
    core::EngineConfig raw;
    raw.dedup = false;
    core::FafnirEngine fafnir(f_rig.memory, f_rig.layout, raw);
    const auto tf = fafnir.lookupMany(composed.batches, 0);

    FullRig r_rig;
    baselines::RecNmpEngine recnmp(r_rig.memory, r_rig.layout);
    const auto tr = recnmp.lookupMany(composed.batches, 0);

    std::size_t f_reads = 0;
    for (const auto &t : tf)
        f_reads += t.memAccesses;
    std::size_t r_reads = 0;
    for (const auto &t : tr)
        r_reads += t.memAccesses;
    EXPECT_EQ(f_reads, r_reads);
    // Fafnir never ships raw vectors; RecNMP must.
    EXPECT_EQ(f_rig.memory.bytesToHost(), 0u);
    EXPECT_GT(r_rig.memory.bytesToHost(), 0u);
}
