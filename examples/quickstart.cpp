/**
 * @file
 * Quickstart: build a 32-rank Fafnir system, look up one batch of
 * embedding queries, and check the result against the reference.
 *
 * This walks the whole public API surface in ~60 lines:
 *   1. describe the embedding tables and the DDR4 memory system,
 *   2. place vectors with the Figure 4b layout,
 *   3. generate a batch of queries,
 *   4. run it through the functional tree (values checked) and the
 *      timing engine (cycle-level latency).
 */

#include <cstdio>

#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "fafnir/engine.hh"
#include "fafnir/functional.hh"

using namespace fafnir;

int
main()
{
    // 1. Embedding space and memory system: 32 tables of 1M 512 B
    //    vectors on a 4-channel x 4-DIMM x 2-rank DDR4-2400 system.
    const embedding::TableConfig tables{32, 1u << 20, 512, 4};
    EventQueue eq;
    dram::MemorySystem memory(eq, dram::Geometry{},
                              dram::Timing::ddr4_2400(),
                              dram::Interleave::BlockRank,
                              tables.vectorBytes);

    // 2. Figure 4b placement: whole vectors round-robin over the ranks.
    const embedding::VectorLayout layout(tables, memory.mapper());

    // 3. A batch of 8 queries, 16 indices each, Zipfian popularity.
    embedding::WorkloadConfig workload;
    workload.tables = tables;
    workload.batchSize = 8;
    workload.querySize = 16;
    workload.zipfSkew = 0.9;
    workload.hotFraction = 0.001;
    embedding::BatchGenerator generator(workload, /*seed=*/1);
    const embedding::Batch batch = generator.next();

    // 4a. Functional check: tree output == reference gather-reduce.
    const embedding::EmbeddingStore store(tables);
    const core::TreeTopology topology(memory.geometry().totalRanks());
    const core::FunctionalTree tree(topology);
    const core::TreeRun run =
        tree.run(core::prepareBatch(layout, &store, batch, true));
    const auto reference = store.reduceBatch(batch);
    for (std::size_t q = 0; q < reference.size(); ++q) {
        if (!embedding::vectorsEqual(run.results[q], reference[q])) {
            std::printf("query %zu MISMATCH\n", q);
            return 1;
        }
    }
    std::printf("functional: all %zu query results match the reference\n",
                reference.size());

    // 4b. Timing: the same batch on the cycle-level engine.
    core::FafnirEngine engine(memory, layout, core::EngineConfig{});
    const core::LookupTiming t = engine.lookup(batch, 0);
    std::printf("timing: %zu unique reads for %zu references; "
                "memory %.0f ns + compute %.0f ns = %.0f ns\n",
                t.memAccesses, t.totalReferences,
                static_cast<double>(t.memoryTime()) / kTicksPerNs,
                static_cast<double>(t.computeTime()) / kTicksPerNs,
                static_cast<double>(t.totalTime()) / kTicksPerNs);
    std::printf("tree: %llu reduces, %llu forwards across %u PEs\n",
                static_cast<unsigned long long>(t.activity.reduces),
                static_cast<unsigned long long>(t.activity.forwards),
                topology.numPes());
    return 0;
}
