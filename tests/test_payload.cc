/**
 * @file
 * Quantized-transport differential tests: the engines, the serving
 * pipeline, and the sharded tier under --payload=int8/twobit must stay
 * bit-deterministic, pin against the store-side quantized reference,
 * and charge the compressed byte widths — while fp32 stays the exact
 * path, bit-identical to the seed behavior.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "embedding/quantize.hh"
#include "fafnir/engine.hh"
#include "fafnir/event_engine.hh"
#include "fafnir/host.hh"
#include "fafnir/serving.hh"
#include "fafnir/sharding.hh"
#include "sim/eventq.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

struct PayloadRig
{
    TableConfig tables{32, 4096, 512, 4};
    EventQueue eq;
    dram::MemorySystem memory;
    EmbeddingStore store;
    VectorLayout layout;

    PayloadRig()
        : memory(eq, dram::Geometry::withTotalRanks(32),
                 dram::Timing::ddr4_2400(), dram::Interleave::BlockRank,
                 512),
          store(tables), layout(tables, memory.mapper())
    {}
};

std::vector<Batch>
makeBatches(const TableConfig &tables, unsigned count,
            std::uint64_t seed)
{
    WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = 8;
    wc.querySize = 12;
    wc.popularity = Popularity::Zipfian;
    wc.zipfSkew = 0.9;
    wc.hotFraction = 0.01;
    BatchGenerator gen(wc, seed);
    std::vector<Batch> batches;
    for (unsigned i = 0; i < count; ++i)
        batches.push_back(gen.next());
    return batches;
}

bool
bitEqual(const Vector &a, const Vector &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(float)) == 0);
}

} // namespace

TEST(Payload, PreparedBatchCarriesFormatAndByteWidths)
{
    PayloadRig rig;
    const auto batches = makeBatches(rig.tables, 1, 21);
    for (const PayloadFormat fmt :
         {PayloadFormat::Fp32, PayloadFormat::Int8,
          PayloadFormat::TwoBit}) {
        const PreparedBatch prepared = prepareBatch(
            rig.layout, &rig.store, batches[0], true, nullptr, fmt);
        EXPECT_EQ(prepared.payload, fmt);
        EXPECT_EQ(prepared.vectorPayloadBytes(rig.tables.dim()),
                  payloadBytes(fmt, rig.tables.dim()));
    }
}

TEST(Payload, LeafValuesAreQuantizedOnce)
{
    // makeRankRead round-trips each leaf vector: a second round-trip of
    // a prepared item value is the identity (values sit on the format's
    // grid), while the fp32-prepared value differs from the quantized
    // one.
    PayloadRig rig;
    const auto batches = makeBatches(rig.tables, 1, 23);
    const PreparedBatch exact = prepareBatch(rig.layout, &rig.store,
                                             batches[0], true, nullptr,
                                             PayloadFormat::Fp32);
    const PreparedBatch quant = prepareBatch(rig.layout, &rig.store,
                                             batches[0], true, nullptr,
                                             PayloadFormat::Int8);
    bool any_difference = false;
    for (std::size_t r = 0; r < quant.rankReads.size(); ++r) {
        for (std::size_t i = 0; i < quant.rankReads[r].size(); ++i) {
            const Vector &value = quant.rankReads[r][i].value;
            if (value.empty())
                continue;
            Vector again = value;
            payloadRoundTrip(PayloadFormat::Int8, again.data(),
                             again.size());
            ASSERT_TRUE(bitEqual(value, again));
            if (!bitEqual(value, exact.rankReads[r][i].value))
                any_difference = true;
        }
    }
    EXPECT_TRUE(any_difference)
        << "int8 prepare left every leaf identical to fp32";
}

TEST(Payload, EventEngineMatchesQuantizedReference)
{
    for (const PayloadFormat fmt :
         {PayloadFormat::Int8, PayloadFormat::TwoBit}) {
        PayloadRig rig;
        EventEngineConfig ecfg;
        ecfg.base.payload = fmt;
        ecfg.computeValues = true;
        EventDrivenEngine engine(rig.memory, rig.layout, ecfg,
                                 &rig.store);
        const auto batches = makeBatches(rig.tables, 3, 31);
        const auto timings = engine.lookupMany(batches, 0);
        ASSERT_EQ(timings.size(), batches.size());
        for (std::size_t b = 0; b < batches.size(); ++b) {
            for (std::size_t q = 0; q < batches[b].queries.size();
                 ++q) {
                const Vector reference = quantizedReduce(
                    fmt, rig.store, batches[b].queries[q].indices);
                EXPECT_TRUE(
                    bitEqual(timings[b].results[q], reference))
                    << payloadFormatName(fmt) << " batch " << b
                    << " query " << q;
            }
        }
    }
}

TEST(Payload, Fp32PathIsUnchangedExactReference)
{
    PayloadRig rig;
    EventEngineConfig ecfg;
    ecfg.computeValues = true;
    EventDrivenEngine engine(rig.memory, rig.layout, ecfg, &rig.store);
    const auto batches = makeBatches(rig.tables, 2, 37);
    const auto timings = engine.lookupMany(batches, 0);
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const auto reference = rig.store.reduceBatch(batches[b]);
        for (std::size_t q = 0; q < reference.size(); ++q)
            EXPECT_TRUE(bitEqual(timings[b].results[q], reference[q]));
    }
}

TEST(Payload, EnginesChargeCompressedBytes)
{
    const auto run = [](PayloadFormat fmt, bool event_engine) {
        PayloadRig rig;
        std::uint64_t dram = 0, link = 0;
        const auto batches = makeBatches(rig.tables, 2, 41);
        if (event_engine) {
            EventEngineConfig ecfg;
            ecfg.base.payload = fmt;
            EventDrivenEngine engine(rig.memory, rig.layout, ecfg,
                                     nullptr);
            for (const auto &t : engine.lookupMany(batches, 0)) {
                dram += t.dramPayloadBytes;
                link += t.linkPayloadBytes;
            }
        } else {
            EngineConfig cfg;
            cfg.payload = fmt;
            FafnirEngine engine(rig.memory, rig.layout, cfg);
            for (const auto &t : engine.lookupMany(batches, 0)) {
                dram += t.dramPayloadBytes;
                link += t.linkPayloadBytes;
            }
        }
        return std::pair<std::uint64_t, std::uint64_t>(dram, link);
    };

    for (const bool event_engine : {false, true}) {
        const auto [fp32_dram, fp32_link] =
            run(PayloadFormat::Fp32, event_engine);
        const auto [int8_dram, int8_link] =
            run(PayloadFormat::Int8, event_engine);
        ASSERT_GT(fp32_dram, 0u);
        ASSERT_GT(fp32_link, 0u);
        // Same reads, same meetings — only the per-vector width
        // changes, so the ratio is exactly 512/132.
        EXPECT_EQ(fp32_dram * 132, int8_dram * 512);
        EXPECT_EQ(fp32_link * 132, int8_link * 512);
        EXPECT_GE(static_cast<double>(fp32_dram + fp32_link) /
                      static_cast<double>(int8_dram + int8_link),
                  3.5);
    }

    // The analytic and event engines replay the same functional run, so
    // their byte accounting agrees format for format.
    EXPECT_EQ(run(PayloadFormat::Int8, false),
              run(PayloadFormat::Int8, true));
}

TEST(Payload, QuantizedMeetingsCountCodecWork)
{
    PayloadRig rig;
    EngineConfig cfg;
    cfg.payload = PayloadFormat::Int8;
    FafnirEngine engine(rig.memory, rig.layout, cfg);
    const auto batches = makeBatches(rig.tables, 1, 43);
    std::uint64_t dequants = 0, requants = 0, reduces = 0;
    for (const auto &t : engine.lookupMany(batches, 0)) {
        dequants += t.activity.dequants;
        requants += t.activity.requants;
        reduces += t.activity.reduces;
    }
    EXPECT_EQ(dequants, 2 * reduces);
    EXPECT_EQ(requants, reduces);

    PayloadRig exact_rig;
    FafnirEngine exact(exact_rig.memory, exact_rig.layout,
                       EngineConfig{});
    for (const auto &t : exact.lookupMany(batches, 0)) {
        EXPECT_EQ(t.activity.dequants, 0u);
        EXPECT_EQ(t.activity.requants, 0u);
    }
}

TEST(Payload, ServingPipelineDeterministicAcrossWorkerCounts)
{
    const auto serve = [](unsigned workers, PayloadFormat fmt) {
        TableConfig tables{32, 4096, 512, 4};
        EmbeddingStore store(tables);
        ReplicaMemoryConfig mem;
        EventEngineConfig ecfg;
        ecfg.base.payload = fmt;
        ecfg.computeValues = true;
        std::vector<EngineReplica> replicas =
            makeEventReplicas(2, mem, tables, ecfg, &store);
        ServingConfig sc;
        sc.engines = 2;
        sc.pipelineDepth = 4;
        sc.prepareWorkers = workers;
        sc.payload = fmt;
        ServingPipeline pipeline(sc, replicas, &store);
        const auto batches = makeBatches(tables, 4, 47);
        const PipelineReport report = pipeline.serve(batches, 0);
        std::uint64_t dram = 0, link = 0;
        std::vector<Vector> results;
        for (const auto &trace : report.batches) {
            dram += trace.timing.dramPayloadBytes;
            link += trace.timing.linkPayloadBytes;
            for (const Vector &v : trace.timing.results)
                results.push_back(v);
        }
        return std::tuple<std::uint64_t, std::uint64_t,
                          std::vector<Vector>>(dram, link,
                                               std::move(results));
    };

    // The modelled prepare time scales with the worker count; the
    // served values and the byte accounting must not.
    const auto serial = serve(1, PayloadFormat::Int8);
    const auto pooled = serve(4, PayloadFormat::Int8);
    ASSERT_GT(std::get<1>(serial), 0u);
    EXPECT_EQ(std::get<0>(serial), std::get<0>(pooled));
    EXPECT_EQ(std::get<1>(serial), std::get<1>(pooled));
    const auto &sv = std::get<2>(serial);
    const auto &pv = std::get<2>(pooled);
    ASSERT_EQ(sv.size(), pv.size());
    ASSERT_FALSE(sv.empty());
    for (std::size_t i = 0; i < sv.size(); ++i)
        EXPECT_TRUE(bitEqual(sv[i], pv[i])) << "result " << i;

    const auto fp32 = serve(1, PayloadFormat::Fp32);
    EXPECT_EQ(std::get<1>(fp32) * 132, std::get<1>(serial) * 512);
}

TEST(Payload, ShardedTierPinsAgainstSingleStoreReference)
{
    const TableConfig tables{32, 4096, 512, 4};
    const EmbeddingStore store(tables);
    ReplicaMemoryConfig mem;
    EventEngineConfig ecfg;
    ecfg.computeValues = true;
    std::vector<std::vector<EngineReplica>> groups =
        makeShardReplicas(2, 1, mem, tables, ecfg, &store);
    ShardTierConfig tc;
    tc.shards = 2;
    tc.serving.engines = 1;
    tc.serving.pipelineDepth = 2;
    tc.serving.payload = PayloadFormat::Int8;
    ShardedServingTier tier(tc, groups, &store);
    const auto batches = makeBatches(tables, 3, 53);
    const ShardedReport report = tier.serve(batches, 0);
    ASSERT_EQ(report.batches.size(), batches.size());
    for (const ShardedBatchTrace &trace : report.batches) {
        const auto &queries = batches[trace.batch].queries;
        ASSERT_EQ(trace.results.size(), queries.size());
        for (std::size_t q = 0; q < queries.size(); ++q) {
            const Vector reference = quantizedReduce(
                PayloadFormat::Int8, store, queries[q].indices);
            EXPECT_TRUE(bitEqual(trace.results[q], reference))
                << "batch " << trace.batch << " query " << q;
        }
    }
}
