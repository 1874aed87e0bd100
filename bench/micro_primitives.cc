/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot primitives:
 * interned header algebra, PE batch processing, host batch compilation, and
 * DRAM timing calculation. These guard the simulator's own performance
 * (the figure benches sweep thousands of batches through these paths).
 */

#include <benchmark/benchmark.h>

#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "fafnir/functional.hh"
#include "fafnir/headers.hh"
#include "fafnir/host.hh"

using namespace fafnir;
using namespace fafnir::core;

namespace
{

embedding::Batch
sampleBatch(unsigned batch_size)
{
    embedding::WorkloadConfig wc;
    wc.tables = {32, 1u << 20, 512, 4};
    wc.batchSize = batch_size;
    wc.querySize = 16;
    wc.zipfSkew = 0.9;
    wc.hotFraction = 0.01;
    return embedding::BatchGenerator(wc, 7).next();
}

/** The PE's header algebra on interned sets: a reduce's union (found
 *  again after the first iteration) and the merge unit's order. */
void
BM_HeaderTableOps(benchmark::State &state)
{
    HeaderTable table;
    const std::vector<IndexId> left = {1, 5, 9, 200, 301, 417, 555, 923};
    const std::vector<IndexId> right = {2, 6, 10, 201, 305, 420, 600, 1000};
    const SetId a = table.intern(left);
    const SetId b = table.intern(right);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.unite(a, b));
        benchmark::DoNotOptimize(table.less(a, b));
    }
}
BENCHMARK(BM_HeaderTableOps);

void
BM_HostPrepare(benchmark::State &state)
{
    const auto batch = sampleBatch(static_cast<unsigned>(state.range(0)));
    EventQueue eq;
    dram::MemorySystem mem(eq, dram::Geometry{}, dram::Timing::ddr4_2400(),
                           dram::Interleave::BlockRank, 512);
    embedding::TableConfig tables{32, 1u << 20, 512, 4};
    embedding::VectorLayout layout(tables, mem.mapper());
    const Host host(layout);
    for (auto _ : state)
        benchmark::DoNotOptimize(host.prepare(batch, true));
}
BENCHMARK(BM_HostPrepare)->Arg(8)->Arg(32);

void
BM_FunctionalTree(benchmark::State &state)
{
    const auto batch = sampleBatch(static_cast<unsigned>(state.range(0)));
    EventQueue eq;
    dram::MemorySystem mem(eq, dram::Geometry{}, dram::Timing::ddr4_2400(),
                           dram::Interleave::BlockRank, 512);
    embedding::TableConfig tables{32, 1u << 20, 512, 4};
    embedding::VectorLayout layout(tables, mem.mapper());
    const Host host(layout);
    const auto prepared = host.prepare(batch, true);
    const TreeTopology topo(32);
    const FunctionalTree tree(topo);
    for (auto _ : state)
        benchmark::DoNotOptimize(tree.run(prepared, false, false));
}
BENCHMARK(BM_FunctionalTree)->Arg(8)->Arg(32);

void
BM_DramRandomRead(benchmark::State &state)
{
    EventQueue eq;
    dram::MemorySystem mem(eq, dram::Geometry{}, dram::Timing::ddr4_2400(),
                           dram::Interleave::BlockRank, 512);
    Rng rng(3);
    Tick t = 0;
    for (auto _ : state) {
        const Addr addr = rng.nextBelow(1u << 30) & ~Addr(511);
        const auto result =
            mem.read(addr, 512, t, dram::Destination::Ndp);
        benchmark::DoNotOptimize(result);
        t = result.complete;
    }
}
BENCHMARK(BM_DramRandomRead);

} // namespace

BENCHMARK_MAIN();
