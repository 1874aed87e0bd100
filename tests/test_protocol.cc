/**
 * @file
 * DRAM protocol audit: the command log of real workloads must pass the
 * independent JEDEC-constraint checker, and the checker itself must
 * catch planted violations.
 */

#include <gtest/gtest.h>

#include "baselines/cpu.hh"
#include "baselines/recnmp.hh"
#include "baselines/tensordimm.hh"
#include "common/random.hh"
#include "dram/cmdlog.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "fafnir/engine.hh"

using namespace fafnir;
using namespace fafnir::dram;

namespace
{

std::string
firstRule(const std::vector<ProtocolViolation> &violations)
{
    return violations.empty() ? "" : violations.front().rule;
}

} // namespace

TEST(Protocol, RandomReadStreamIsClean)
{
    EventQueue eq;
    MemorySystem mem(eq, Geometry{}, Timing::ddr4_2400(),
                     Interleave::BlockRank, 512);
    CommandLog log;
    mem.attachCommandLog(&log);

    Rng rng(12);
    Tick t = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.nextBelow(1u << 28) & ~Addr(511);
        t = mem.read(addr, 512, t, Destination::Ndp).complete;
    }
    ASSERT_GT(log.size(), 2000u);
    const auto violations =
        checkProtocol(log, mem.timing(), mem.geometry());
    EXPECT_TRUE(violations.empty()) << firstRule(violations);
}

TEST(Protocol, ParallelRankTrafficIsClean)
{
    EventQueue eq;
    MemorySystem mem(eq, Geometry{}, Timing::ddr4_2400(),
                     Interleave::BlockRank, 512);
    CommandLog log;
    mem.attachCommandLog(&log);

    // All at t=0: maximal resource contention across all ranks.
    Rng rng(13);
    for (int i = 0; i < 3000; ++i) {
        const Addr addr = rng.nextBelow(1u << 28) & ~Addr(511);
        mem.read(addr, 512, 0, Destination::Ndp);
    }
    const auto violations =
        checkProtocol(log, mem.timing(), mem.geometry());
    EXPECT_TRUE(violations.empty()) << firstRule(violations);
}

TEST(Protocol, FullLookupEngineIsClean)
{
    embedding::TableConfig tables{32, 1u << 16, 512, 4};
    embedding::WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = 32;
    wc.querySize = 16;
    wc.zipfSkew = 1.0;
    wc.hotFraction = 0.001;
    embedding::BatchGenerator gen(wc, 14);
    std::vector<embedding::Batch> batches;
    for (int i = 0; i < 8; ++i)
        batches.push_back(gen.next());

    // Every engine's command stream on the same batches; TensorDIMM is
    // the only one that reads through readAt.
    for (const char *engine : {"fafnir", "cpu", "recnmp", "tensordimm"}) {
        SCOPED_TRACE(engine);
        const std::string name = engine;
        EventQueue eq;
        MemorySystem mem(eq, Geometry{}, Timing::ddr4_2400(),
                         Interleave::BlockRank, 512);
        CommandLog log;
        mem.attachCommandLog(&log);
        embedding::VectorLayout layout(tables, mem.mapper());
        if (name == "fafnir") {
            core::FafnirEngine(mem, layout, core::EngineConfig{})
                .lookupMany(batches, 0);
        } else if (name == "cpu") {
            baselines::CpuEngine(mem, layout).lookupMany(batches, 0);
        } else if (name == "recnmp") {
            baselines::RecNmpEngine(mem, layout).lookupMany(batches, 0);
        } else {
            baselines::TensorDimmEngine(mem, tables).lookupMany(batches, 0);
        }

        ASSERT_GT(log.size(), 100u);
        const auto violations =
            checkProtocol(log, mem.timing(), mem.geometry());
        EXPECT_TRUE(violations.empty()) << firstRule(violations);
    }
}

TEST(Protocol, CheckerCatchesEarlyRead)
{
    CommandLog log;
    log.record(0, 0, 0, 5, DramCommand::Act);
    log.record(100, 0, 0, 5, DramCommand::Read); // way under tRCD
    const auto violations =
        checkProtocol(log, Timing::ddr4_2400(), Geometry{});
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].rule.find("tRCD"), std::string::npos);
}

TEST(Protocol, CheckerCatchesWrongRowRead)
{
    const Timing t = Timing::ddr4_2400();
    CommandLog log;
    log.record(0, 0, 0, 5, DramCommand::Act);
    log.record(t.tRCD, 0, 0, 9, DramCommand::Read); // row 9 not open
    const auto violations = checkProtocol(log, t, Geometry{});
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].rule.find("wrong open row"),
              std::string::npos);
}

TEST(Protocol, CheckerCatchesClosedBankRead)
{
    CommandLog log;
    log.record(1000, 0, 3, 5, DramCommand::Read);
    const auto violations =
        checkProtocol(log, Timing::ddr4_2400(), Geometry{});
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].rule.find("closed bank"), std::string::npos);
}

TEST(Protocol, CheckerCatchesEarlyPrecharge)
{
    const Timing t = Timing::ddr4_2400();
    CommandLog log;
    log.record(0, 0, 0, 5, DramCommand::Act);
    log.record(t.tRAS / 2, 0, 0, 5, DramCommand::Pre);
    const auto violations = checkProtocol(log, t, Geometry{});
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].rule.find("tRAS"), std::string::npos);
}

TEST(Protocol, CheckerCatchesFawBurst)
{
    const Timing t = Timing::ddr4_2400();
    CommandLog log;
    // Five ACTs to distinct banks spaced only tRRD apart: the fifth
    // lands inside the first's tFAW window.
    for (unsigned i = 0; i < 5; ++i)
        log.record(i * t.tRRD, 0, i, 1, DramCommand::Act);
    const auto violations = checkProtocol(log, t, Geometry{});
    ASSERT_GE(violations.size(), 1u);
    EXPECT_NE(violations[0].rule.find("tFAW"), std::string::npos);
}

TEST(Protocol, CheckerCatchesDoubleActivate)
{
    const Timing t = Timing::ddr4_2400();
    CommandLog log;
    log.record(0, 0, 0, 5, DramCommand::Act);
    log.record(10 * t.tRC(), 0, 0, 6, DramCommand::Act); // no PRE between
    const auto violations = checkProtocol(log, t, Geometry{});
    ASSERT_GE(violations.size(), 1u);
    EXPECT_NE(violations[0].rule.find("open bank"), std::string::npos);
}
