/**
 * @file
 * Figure 15: memory accesses after eliminating redundant ones with the
 * unique-index mechanism, per leaf-PE input, for batch sizes 8/16/32.
 *
 * Paper: Fafnir saves 34 % / 43 % / 58 % of memory accesses for batch
 * sizes 8 / 16 / 32, and the number of accesses per leaf input stays
 * below the batch size.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"
#include "fafnir/host.hh"
#include "hwmodel/energy.hh"
#include "telemetry/session.hh"

using namespace fafnir;
using namespace fafnir::bench;

int
main(int argc, char **argv)
{
    telemetry::TelemetrySession session("fig15_access_savings", argc,
                                        argv);
    const unsigned rounds = 100;
    LookupRig rig(32);

    TextTable table("Figure 15 — accesses after dedup (q=16, Zipfian "
                    "trace, mean of 100 batches)");
    table.setHeader({"batch", "refs/batch", "reads/batch", "saved",
                     "max reads per leaf input", "paper saved"});

    const char *paper[] = {"34%", "43%", "58%"};
    int paper_idx = 0;
    for (unsigned batch_size : {8u, 16u, 32u}) {
        // Heavier sharing at bigger batches, as in production traces: the
        // hot set is fixed while the batch grows over it.
        const auto batches =
            makeBatches(rig.tables, rounds, batch_size, 16, 1.05, 0.00001,
                        99);
        Distribution refs, reads, saved, per_leaf;
        for (const auto &batch : batches) {
            const auto prepared =
                core::prepareBatch(rig.layout, nullptr, batch, true);
            refs.sample(static_cast<double>(prepared.totalReferences));
            reads.sample(static_cast<double>(prepared.accessCount));
            saved.sample(prepared.accessSavings() * 100.0);
            // One leaf-PE input = one rank (the 1PE:2R leaf has two
            // independent inputs).
            per_leaf.sample(
                static_cast<double>(prepared.maxReadsPerRank()));
        }
        table.row(batch_size, refs.mean(), reads.mean(),
                  TextTable::num(saved.mean(), 1) + "%",
                  TextTable::num(per_leaf.max(), 0) + " (B=" +
                      std::to_string(batch_size) + ")",
                  paper[paper_idx++]);
    }
    table.print(std::cout);

    // Implied DRAM energy saving (linear in accesses; Section VI).
    hwmodel::DramEnergyModel energy;
    std::cout << "\nDRAM access energy is linear in reads ("
              << energy.params().activationNj << " nJ/ACT + "
              << energy.params().readBurstNj
              << " nJ/burst), so the saved-access fraction is the saved-"
                 "energy fraction.\n";
    return session.finish();
}
