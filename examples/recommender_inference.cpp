/**
 * @file
 * Recommendation-inference serving: the paper's motivating scenario.
 *
 * A stream of inference requests arrives; each needs a batch of
 * embedding lookups followed by a real top-MLP scoring stack (see embedding/mlp.hh).
 * The example serves the same stream with the CPU baseline, RecNMP, and
 * Fafnir, and reports tail latency and throughput — the service metrics
 * a production recommender cares about.
 */

#include <cstdio>
#include <vector>

#include <sstream>

#include "baselines/cpu.hh"
#include "baselines/recnmp.hh"
#include "common/stats.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "embedding/mlp.hh"
#include "embedding/service.hh"
#include "fafnir/engine.hh"
#include "fafnir/functional.hh"

using namespace fafnir;

namespace
{

constexpr unsigned kRequests = 128;
constexpr unsigned kBatchSize = 16; // lookups per inference request
constexpr unsigned kQuerySize = 16;
constexpr double kHostGflops = 60.0; // small-batch GEMV throughput

/** The FC stack scoring each request: one pooled 128-d embedding per
 *  lookup feeds a top MLP producing a click-probability logit. */
const embedding::Mlp &
topMlp()
{
    static const embedding::Mlp mlp({128u * kBatchSize, 512, 128, 1},
                                    2718);
    return mlp;
}

Tick
neuralNetTicks()
{
    return topMlp().latencyTicks(kHostGflops);
}

struct ServiceStats
{
    double p50Us = 0.0;
    double p99Us = 0.0;
    double requestsPerSec = 0.0;
};

std::vector<embedding::Batch>
requestStream(const embedding::TableConfig &tables)
{
    embedding::WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = kBatchSize;
    wc.querySize = kQuerySize;
    wc.zipfSkew = 1.0;
    wc.hotFraction = 0.0005;
    embedding::BatchGenerator gen(wc, 2718);
    std::vector<embedding::Batch> stream;
    stream.reserve(kRequests);
    for (unsigned i = 0; i < kRequests; ++i)
        stream.push_back(gen.next());
    return stream;
}

template <typename Engine>
ServiceStats
serve(Engine &engine, const std::vector<embedding::Batch> &stream)
{
    Distribution latency_us;
    const auto timings = engine.lookupMany(stream, 0);
    for (const auto &t : timings)
        latency_us.sample(static_cast<double>(t.totalTime() +
                                              neuralNetTicks()) /
                          kTicksPerUs);
    const Tick span = timings.back().complete;
    return {latency_us.p50(), latency_us.p99(),
            static_cast<double>(kRequests) /
                (static_cast<double>(span) / kTicksPerSec)};
}

} // namespace

int
main()
{
    const embedding::TableConfig tables{32, 1u << 20, 512, 4};
    const auto stream = requestStream(tables);

    std::printf("serving %u requests (%u lookups x %u indices each); "
                "top MLP %ux512x128x1 costs %.1f us at %.0f GFLOP/s\n\n",
                kRequests, kBatchSize, kQuerySize, 128u * kBatchSize,
                static_cast<double>(neuralNetTicks()) / kTicksPerUs,
                kHostGflops);
    std::printf("%-12s %12s %12s %16s\n", "engine", "p50 (us)", "p99 (us)",
                "embed req/s");

    {
        EventQueue eq;
        dram::MemorySystem memory(eq, dram::Geometry{},
                                  dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        embedding::VectorLayout layout(tables, memory.mapper());
        baselines::CpuEngine engine(memory, layout);
        const auto s = serve(engine, stream);
        std::printf("%-12s %12.1f %12.1f %16.0f\n", "CPU", s.p50Us,
                    s.p99Us, s.requestsPerSec);
    }
    {
        EventQueue eq;
        dram::MemorySystem memory(eq, dram::Geometry{},
                                  dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        embedding::VectorLayout layout(tables, memory.mapper());
        baselines::RecNmpConfig cfg;
        cfg.cacheEnabled = true;
        baselines::RecNmpEngine engine(memory, layout, cfg);
        const auto s = serve(engine, stream);
        std::printf("%-12s %12.1f %12.1f %16.0f\n", "RecNMP", s.p50Us,
                    s.p99Us, s.requestsPerSec);
    }
    {
        EventQueue eq;
        dram::MemorySystem memory(eq, dram::Geometry{},
                                  dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        embedding::VectorLayout layout(tables, memory.mapper());
        core::FafnirEngine engine(memory, layout, core::EngineConfig{});
        const auto s = serve(engine, stream);
        std::printf("%-12s %12.1f %12.1f %16.0f\n", "Fafnir", s.p50Us,
                    s.p99Us, s.requestsPerSec);
    }

    // Open-loop load sweep on Fafnir: queueing + service tails as the
    // offered request rate approaches saturation.
    std::printf("\nFafnir under open-loop load (lookup portion only):\n");
    std::printf("%14s %14s %14s %12s\n", "offered req/s", "p50 (us)",
                "p99 (us)", "saturated");
    for (const double req_per_sec : {0.1e6, 0.3e6, 0.6e6, 1.0e6}) {
        EventQueue eq;
        dram::MemorySystem memory(eq, dram::Geometry{},
                                  dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        embedding::VectorLayout layout(tables, memory.mapper());
        core::FafnirEngine engine(memory, layout, core::EngineConfig{});

        const auto inter =
            static_cast<Tick>(1e12 / req_per_sec); // ps between arrivals
        embedding::ServiceGuard guard(
            {}, [&](const embedding::Batch &batch, Tick at) {
                return embedding::ServeSample{
                    engine.lookup(batch, at).complete, {}};
            });
        const auto report =
            embedding::serveGuardedOpenLoop(stream, inter, guard);
        std::printf("%14.0f %14.1f %14.1f %12s\n", req_per_sec,
                    static_cast<double>(report.percentileTotal(0.5)) /
                        kTicksPerUs,
                    static_cast<double>(report.percentileTotal(0.99)) /
                        kTicksPerUs,
                    report.saturated() ? "yes" : "no");
    }

    // Functional end-to-end check: reduce one request's embeddings
    // through the tree (real values) and score it with the MLP.
    {
        EventQueue eq;
        dram::MemorySystem memory(eq, dram::Geometry{},
                                  dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        embedding::VectorLayout layout(tables, memory.mapper());
        const embedding::EmbeddingStore store(tables);
        const core::Host host(layout, &store);
        const core::TreeTopology topology(32);
        const core::FunctionalTree tree(topology);

        const auto &request = stream.front();
        const core::TreeRun run = tree.run(host.prepare(request, true));

        embedding::Vector features;
        features.reserve(128u * kBatchSize);
        for (const auto &pooled : run.results)
            features.insert(features.end(), pooled.begin(), pooled.end());
        const embedding::Vector score = topMlp().forward(features);
        std::printf("\nend-to-end check: request 0 scored %.4f from %zu "
                    "tree-reduced embeddings (reference-matched: %s)\n",
                    score[0], run.results.size(),
                    embedding::vectorsEqual(
                        run.results[0],
                        store.reduce(request.queries[0].indices))
                        ? "yes"
                        : "NO");
    }

    // Cumulative engine statistics from the last configuration.
    {
        EventQueue eq;
        dram::MemorySystem memory(eq, dram::Geometry{},
                                  dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        embedding::VectorLayout layout(tables, memory.mapper());
        core::FafnirEngine engine(memory, layout, core::EngineConfig{});
        (void)engine.lookupMany(stream, 0);
        StatGroup stats("fafnir");
        engine.registerStats(stats);
        StatGroup mem_stats("dram");
        memory.registerStats(mem_stats);
        std::printf("\nengine statistics over the stream:\n");
        std::ostringstream os;
        stats.dump(os);
        mem_stats.dump(os);
        std::printf("%s", os.str().c_str());
    }
    return 0;
}
