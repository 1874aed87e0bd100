/**
 * @file
 * Queued-controller tests: completion delivery, FCFS ordering, FR-FCFS
 * row-hit preference, starvation protection, multi-rank
 * independence, and one dram_stall draw per request.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/faultinject.hh"
#include "dram/controller.hh"

using namespace fafnir;
using namespace fafnir::dram;

namespace
{

struct ControllerRig
{
    EventQueue eq;
    MemorySystem memory;
    Controller controller;

    explicit ControllerRig(SchedulingPolicy policy,
                           Tick age_cap = 500 * kTicksPerNs)
        : memory(eq, Geometry{}, Timing::ddr4_2400(),
                 Interleave::BlockRank, 512),
          controller(memory, policy, age_cap)
    {}

    /** Address of (rank slot 0, bank 0, row) for 512 B blocks. */
    Addr
    rowAddr(std::uint64_t row, unsigned block_in_row = 0) const
    {
        Coordinates c;
        c.channel = 0;
        c.dimm = 0;
        c.rank = 0;
        c.bank = 0;
        c.row = row;
        c.column = block_in_row * 512;
        return memory.mapper().encode(c);
    }
};

} // namespace

TEST(Controller, DeliversCompletions)
{
    ControllerRig rig(SchedulingPolicy::Fcfs);
    std::vector<Tick> completions;
    for (int i = 0; i < 4; ++i) {
        rig.controller.enqueue(
            rig.rowAddr(i), 512, 0, Destination::Ndp,
            [&](Tick when, const AccessResult &) {
                completions.push_back(when);
            });
    }
    EXPECT_EQ(rig.controller.pending(), 4u);
    rig.eq.run();
    EXPECT_EQ(rig.controller.pending(), 0u);
    ASSERT_EQ(completions.size(), 4u);
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_GE(completions[i], completions[i - 1]);
    EXPECT_EQ(rig.controller.issuedCount(), 4u);
}

TEST(Controller, FcfsPreservesArrivalOrder)
{
    ControllerRig rig(SchedulingPolicy::Fcfs);
    std::vector<int> order;
    // Rows 0,1,0,1 in one bank: FCFS must thrash but keep order.
    const std::uint64_t rows[] = {0, 1, 0, 1};
    for (int i = 0; i < 4; ++i) {
        rig.controller.enqueue(rig.rowAddr(rows[i], i % 2), 512, 0,
                               Destination::Ndp,
                               [&order, i](Tick, const AccessResult &) {
                                   order.push_back(i);
                               });
    }
    rig.eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(rig.controller.reorderedCount(), 0u);
}

TEST(Controller, FrFcfsGroupsRowHits)
{
    // Same pattern: FR-FCFS should serve both row-0 requests before the
    // row-1 pair, halving activations.
    ControllerRig fcfs(SchedulingPolicy::Fcfs);
    ControllerRig frfcfs(SchedulingPolicy::FrFcfs);

    auto run = [](ControllerRig &rig, std::vector<int> &order) {
        const std::uint64_t rows[] = {0, 1, 0, 1};
        for (int i = 0; i < 4; ++i) {
            rig.controller.enqueue(
                rig.rowAddr(rows[i], i % 2), 512, 0, Destination::Ndp,
                [&order, i](Tick, const AccessResult &) {
                    order.push_back(i);
                });
        }
        rig.eq.run();
    };

    std::vector<int> fcfs_order;
    std::vector<int> frfcfs_order;
    run(fcfs, fcfs_order);
    run(frfcfs, frfcfs_order);

    EXPECT_EQ(frfcfs_order, (std::vector<int>{0, 2, 1, 3}));
    EXPECT_GT(frfcfs.controller.reorderedCount(), 0u);
    EXPECT_LT(frfcfs.memory.activationCount(),
              fcfs.memory.activationCount());
    EXPECT_GT(frfcfs.memory.rowHitCount(), fcfs.memory.rowHitCount());
}

TEST(Controller, AgeCapPreventsStarvation)
{
    // Strictly-zero age cap degenerates to oldest-first once the oldest
    // has waited at all; a tiny cap must force the row-miss request out
    // even under a stream of row hits.
    ControllerRig rig(SchedulingPolicy::FrFcfs, 50 * kTicksPerNs);
    std::vector<int> order;
    // Request 0: row 5 (will be the victim). Requests 1..8: row 0 hits
    // arriving together.
    rig.controller.enqueue(rig.rowAddr(5), 512, 0, Destination::Ndp,
                           [&](Tick, const AccessResult &) {
                               order.push_back(0);
                           });
    for (int i = 1; i <= 8; ++i) {
        rig.controller.enqueue(rig.rowAddr(0, i % 16), 512, 0,
                               Destination::Ndp,
                               [&order, i](Tick, const AccessResult &) {
                                   order.push_back(i);
                               });
    }
    rig.eq.run();
    ASSERT_EQ(order.size(), 9u);
    // The victim must not be last: the age cap promotes it mid-stream.
    const auto victim_pos = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), 0) - order.begin());
    EXPECT_LT(victim_pos, order.size() - 1);
}

TEST(Controller, RanksDrainIndependently)
{
    ControllerRig rig(SchedulingPolicy::FrFcfs);
    std::vector<Tick> completions(2, 0);
    // Blocks 0 and 1 land on different ranks under BlockRank interleave.
    rig.controller.enqueue(0, 512, 0, Destination::Ndp,
                           [&](Tick when, const AccessResult &) {
                               completions[0] = when;
                           });
    rig.controller.enqueue(512, 512, 0, Destination::Ndp,
                           [&](Tick when, const AccessResult &) {
                               completions[1] = when;
                           });
    rig.eq.run();
    EXPECT_EQ(completions[0], completions[1]); // fully parallel
}

TEST(Controller, FutureArrivalsWaitForTheirTime)
{
    ControllerRig rig(SchedulingPolicy::Fcfs);
    Tick completed = 0;
    const Tick arrival = 10 * kTicksPerUs;
    rig.controller.enqueue(rig.rowAddr(3), 512, arrival,
                           Destination::Ndp,
                           [&](Tick when, const AccessResult &) {
                               completed = when;
                           });
    rig.eq.run();
    EXPECT_GE(completed, arrival);
}

// dram_stall is drawn where MemorySystem::read issues the request, once
// per request: a drain pass draws nothing of its own.
TEST(Controller, DramStallDrawnOncePerRequest)
{
    fault::FaultPlan plan = fault::FaultPlan::parse("dram_stall:0.000001", 7);
    fault::ScopedPlanInstall install(&plan);
    ControllerRig rig(SchedulingPolicy::FrFcfs);
    // Two requests on each of the 32 ranks (BlockRank interleave).
    for (int i = 0; i < 64; ++i)
        rig.controller.enqueue(Addr(i) * 512, 512, 0, Destination::Ndp, {});
    rig.eq.run();
    EXPECT_EQ(rig.controller.issuedCount(), 64u);
    EXPECT_EQ(plan.checkedCount(fault::Hook::DramStall),
              rig.controller.issuedCount());
}
