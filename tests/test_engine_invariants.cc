/**
 * @file
 * Engine invariant torture matrix: for every combination of rank count,
 * batch size, dedup, interactive mode, tree scale, and memory technology
 * that the public API accepts, both engines' timing output must satisfy
 * the structural invariants (ordering, conservation, bounds), and the
 * analytic engine's cumulative statistics must reconcile with per-lookup
 * results.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "embedding/generator.hh"
#include "fafnir/engine.hh"
#include "fafnir/event_engine.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

struct InvariantParam
{
    unsigned ranks;
    unsigned batchSize;
    unsigned querySize;
    bool dedup;
    bool interactive;
    unsigned ranksPerLeafPe;
    bool hbm;
};

void
PrintTo(const InvariantParam &p, std::ostream *os)
{
    *os << "ranks=" << p.ranks << " B=" << p.batchSize
        << " q=" << p.querySize << " dedup=" << p.dedup
        << " interactive=" << p.interactive << " rpl=" << p.ranksPerLeafPe
        << " hbm=" << p.hbm;
}

class EngineInvariants : public ::testing::TestWithParam<InvariantParam>
{
};

} // namespace

TEST_P(EngineInvariants, HoldAcrossTheConfigurationSpace)
{
    const InvariantParam p = GetParam();
    if (p.hbm && p.ranks != 32)
        GTEST_SKIP() << "HBM geometry is fixed at 32 pseudo channels";
    if (p.ranksPerLeafPe > p.ranks)
        GTEST_SKIP() << "leaf scale larger than the system";

    const TableConfig tables{32, 1u << 16, 512, 4};
    const dram::Geometry geometry =
        p.hbm ? dram::Geometry::hbm2()
              : dram::Geometry::withTotalRanks(p.ranks);
    const dram::Timing timing =
        p.hbm ? dram::Timing::hbm2() : dram::Timing::ddr4_2400();
    EngineConfig cfg;
    cfg.dedup = p.dedup;
    cfg.interactive = p.interactive;
    cfg.ranksPerLeafPe = p.ranksPerLeafPe;
    WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = p.batchSize;
    wc.querySize = p.querySize;
    wc.zipfSkew = 1.0;
    wc.hotFraction = 0.005;

    // Three batches back to back; returns the reads they issued.
    const auto serve_rounds = [&](auto &engine) {
        BatchGenerator gen(wc, 4242 + p.ranks);
        Tick prev_complete = 0;
        std::uint64_t reads_sum = 0;
        for (int round = 0; round < 3; ++round) {
            const Batch batch = gen.next();
            const LookupTiming t = engine.lookup(batch, prev_complete);

            // Ordering invariants.
            EXPECT_GE(t.memFirst, t.issued);
            EXPECT_GE(t.memLast, t.memFirst);
            EXPECT_GE(t.complete, t.memLast);
            EXPECT_EQ(t.issued, prev_complete);

            // Every query completes within the batch window.
            EXPECT_EQ(t.queryComplete.size(), batch.size());
            for (Tick qc : t.queryComplete) {
                EXPECT_GT(qc, t.issued);
                EXPECT_LE(qc, t.complete);
            }

            // Access conservation.
            EXPECT_EQ(t.totalReferences, batch.totalIndices());
            if (p.interactive) {
                EXPECT_EQ(t.memAccesses, batch.totalIndices());
            } else if (p.dedup && p.batchSize <= 32) {
                EXPECT_EQ(t.memAccesses, batch.uniqueIndices());
            } else if (!p.dedup) {
                EXPECT_EQ(t.memAccesses, batch.totalIndices());
            }
            EXPECT_GE(t.memAccesses, batch.uniqueIndices());
            EXPECT_LE(t.memAccesses, batch.totalIndices());

            // The tree performed enough reductions to fold every
            // reference.
            EXPECT_GE(t.activity.reduces + t.rootCombines + batch.size(),
                      t.memAccesses);

            reads_sum += t.memAccesses;
            prev_complete = t.complete;
        }
        return reads_sum;
    };

    for (bool event : {false, true}) {
        SCOPED_TRACE(event ? "event engine" : "analytic engine");
        EventQueue eq;
        dram::MemorySystem memory(eq, geometry, timing,
                                  dram::Interleave::BlockRank, 512);
        const VectorLayout layout(tables, memory.mapper());
        if (event) {
            EventEngineConfig ecfg;
            ecfg.base = cfg;
            EventDrivenEngine engine(memory, layout, ecfg);
            serve_rounds(engine);
            continue;
        }
        FafnirEngine engine(memory, layout, cfg);
        const std::uint64_t reads_sum = serve_rounds(engine);

        // Cumulative engine counters reconcile.
        EXPECT_EQ(engine.issuedReads(), reads_sum);
        EXPECT_EQ(engine.servedQueries(), 3ull * p.batchSize);

        StatGroup group("engine");
        engine.registerStats(group);
        std::ostringstream os;
        group.dump(os);
        EXPECT_NE(os.str().find("engine.queries"), std::string::npos);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineInvariants,
    ::testing::Values(
        InvariantParam{32, 8, 16, true, false, 2, false},
        InvariantParam{32, 8, 16, false, false, 2, false},
        InvariantParam{32, 32, 16, true, false, 2, false},
        InvariantParam{32, 8, 16, true, true, 2, false},
        InvariantParam{32, 8, 16, true, false, 1, false},
        InvariantParam{32, 8, 16, true, false, 4, false},
        InvariantParam{16, 8, 8, true, false, 2, false},
        InvariantParam{8, 16, 8, true, false, 2, false},
        InvariantParam{4, 4, 4, true, false, 2, false},
        InvariantParam{2, 4, 8, false, false, 2, false},
        InvariantParam{1, 2, 4, true, false, 2, false},
        InvariantParam{32, 8, 16, true, false, 2, true},
        InvariantParam{32, 16, 16, false, true, 2, true},
        InvariantParam{32, 48, 16, true, false, 2, false}, // split path
        InvariantParam{32, 48, 16, false, false, 2, false}));

TEST(EngineInvariants, LaterStartNeverCompletesEarlier)
{
    // Time-shift property on fresh systems: the same batch issued later
    // completes later by at least the shift (no time travel).
    const TableConfig tables{32, 1u << 16, 512, 4};
    WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = 8;
    wc.querySize = 16;
    const Batch batch = BatchGenerator(wc, 5).next();

    auto run_at = [&](Tick start) {
        EventQueue eq;
        dram::MemorySystem memory(eq, dram::Geometry{},
                                  dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        const VectorLayout layout(tables, memory.mapper());
        FafnirEngine engine(memory, layout, EngineConfig{});
        return engine.lookup(batch, start);
    };

    const auto at_zero = run_at(0);
    const Tick shift = 100 * kTicksPerUs;
    const auto shifted = run_at(shift);
    EXPECT_GE(shifted.complete, at_zero.complete + shift / 2);
    EXPECT_GE(shifted.totalTime(), at_zero.totalTime() / 2);
}

TEST(EngineInvariants, DeterministicAcrossRuns)
{
    const TableConfig tables{32, 1u << 16, 512, 4};
    WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = 16;
    wc.querySize = 16;
    const Batch batch = BatchGenerator(wc, 6).next();

    auto run_once = [&] {
        EventQueue eq;
        dram::MemorySystem memory(eq, dram::Geometry{},
                                  dram::Timing::ddr4_2400(),
                                  dram::Interleave::BlockRank, 512);
        const VectorLayout layout(tables, memory.mapper());
        FafnirEngine engine(memory, layout, EngineConfig{});
        return engine.lookup(batch, 0);
    };

    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.queryComplete, b.queryComplete);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
}
