/**
 * @file
 * DRAM model tests: geometry, timing presets, address mapping round
 * trips, row-buffer behavior, bank/rank/channel contention, and the
 * streaming/transfer helpers.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "dram/address.hh"
#include "dram/cmdlog.hh"
#include "dram/config.hh"
#include "dram/memsystem.hh"
#include "dram/timing.hh"

using namespace fafnir;
using namespace fafnir::dram;

namespace
{

MemorySystem
makeSystem(EventQueue &eq, unsigned ranks = 32)
{
    return MemorySystem(eq, Geometry::withTotalRanks(ranks),
                        Timing::ddr4_2400(), Interleave::BlockRank, 512);
}

} // namespace

TEST(Geometry, DefaultIsPaperSystem)
{
    const Geometry g;
    EXPECT_EQ(g.channels, 4u);
    EXPECT_EQ(g.totalDimms(), 16u);
    EXPECT_EQ(g.totalRanks(), 32u);
    g.check();
}

TEST(Geometry, WithTotalRanksShapes)
{
    for (unsigned ranks : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const Geometry g = Geometry::withTotalRanks(ranks);
        EXPECT_EQ(g.totalRanks(), ranks);
        g.check();
    }
    EXPECT_EQ(Geometry::withTotalRanks(8).channels, 4u);
    EXPECT_EQ(Geometry::withTotalRanks(4).channels, 2u);
}

TEST(Geometry, CapacityArithmetic)
{
    const Geometry g;
    EXPECT_EQ(g.bytesPerRank(),
              16ull * (1ull << 16) * 8192); // banks * rows * rowBytes
    EXPECT_EQ(g.capacityBytes(), g.bytesPerRank() * 32);
}

TEST(Timing, PresetsAreOrdered)
{
    const Timing t24 = Timing::ddr4_2400();
    const Timing t32 = Timing::ddr4_3200();
    EXPECT_GT(t24.tCK, t32.tCK);
    EXPECT_GT(t24.tRAS, t24.tRCD);
    EXPECT_GT(t24.tFAW, t24.tRRD);
    EXPECT_EQ(t24.tRC(), t24.tRAS + t24.tRP);
}

TEST(AddressMapper, RoundTripBlockRank)
{
    const Geometry g;
    const AddressMapper mapper(g, Interleave::BlockRank, 512);
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr =
            rng.nextBelow(g.capacityBytes()) & ~Addr(63);
        const Coordinates c = mapper.decode(addr);
        EXPECT_EQ(mapper.encode(c), addr & ~Addr(63))
            << toString(c);
    }
}

TEST(AddressMapper, ConsecutiveBlocksHitConsecutiveRanks)
{
    // The Figure 4b property: vector i and vector i+1 are on different
    // ranks, cycling through all 32.
    const Geometry g;
    const AddressMapper mapper(g, Interleave::BlockRank, 512);
    EXPECT_EQ(mapper.rankShift(), 9u); // the paper's bits [9:13]
    std::set<unsigned> ranks;
    for (Addr block = 0; block < 32; ++block) {
        const Coordinates c = mapper.decode(block * 512);
        ranks.insert(c.globalRank(g));
    }
    EXPECT_EQ(ranks.size(), 32u);
}

TEST(AddressMapper, BlockStaysInOneRow)
{
    const Geometry g;
    const AddressMapper mapper(g, Interleave::BlockRank, 512);
    const Coordinates first = mapper.decode(512 * 77);
    const Coordinates last = mapper.decode(512 * 77 + 511);
    EXPECT_EQ(first.row, last.row);
    EXPECT_EQ(first.bank, last.bank);
    EXPECT_EQ(first.globalRank(g), last.globalRank(g));
}

TEST(MemorySystem, ClosedRowReadLatency)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    const Timing t = Timing::ddr4_2400();
    const auto result = mem.read(0, 64, 0, Destination::Ndp);
    EXPECT_EQ(result.complete, t.tRCD + t.tCL + t.tBurst);
    EXPECT_EQ(result.rowMisses, 1u);
    EXPECT_EQ(result.rowHits, 0u);
}

TEST(MemorySystem, RowHitIsFaster)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    const auto miss = mem.read(0, 64, 0, Destination::Ndp);
    const auto hit = mem.read(64, 64, miss.complete, Destination::Ndp);
    EXPECT_EQ(hit.rowHits, 1u);
    EXPECT_LT(hit.complete - miss.complete, miss.complete);
}

TEST(MemorySystem, RowConflictPaysPrecharge)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    const Geometry &g = mem.geometry();
    // Two addresses in the same bank, different rows: same rank/bank
    // bits, row bit flipped.
    const Addr a = 0;
    const Addr b = Addr(g.rowBytes / 512) * 512 * g.totalRanks() *
                   g.banksPerRank; // next row, same bank, same rank
    const auto ca = mem.mapper().decode(a);
    const auto cb = mem.mapper().decode(b);
    ASSERT_EQ(ca.bank, cb.bank);
    ASSERT_EQ(ca.globalRank(g), cb.globalRank(g));
    ASSERT_NE(ca.row, cb.row);

    const auto first = mem.read(a, 64, 0, Destination::Ndp);
    const auto second = mem.read(b, 64, 0, Destination::Ndp);
    // The second access must wait for tRAS + tRP before activating.
    EXPECT_GT(second.complete,
              first.complete + mem.timing().tRP);
    EXPECT_EQ(second.rowMisses, 1u);
}

TEST(MemorySystem, DifferentRanksProceedInParallel)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    const auto a = mem.read(0 * 512, 512, 0, Destination::Ndp);
    const auto b = mem.read(1 * 512, 512, 0, Destination::Ndp);
    // Blocks 0 and 1 are on different ranks; latencies are identical.
    EXPECT_EQ(a.complete, b.complete);
}

TEST(MemorySystem, SameRankSerializesOnRankBus)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    const Geometry &g = mem.geometry();
    const Addr second_block_same_rank = Addr(g.totalRanks()) * 512;
    const auto a = mem.read(0, 512, 0, Destination::Ndp);
    const auto b =
        mem.read(second_block_same_rank, 512, 0, Destination::Ndp);
    EXPECT_GT(b.complete, a.complete);
}

TEST(MemorySystem, HostReadsShareChannelBus)
{
    // Two reads on different ranks of the SAME channel: to NDP they
    // overlap fully; to the host the channel data bus serializes them.
    EventQueue eq1;
    auto ndp = makeSystem(eq1);
    const Geometry &g = ndp.geometry();
    const Addr same_channel = Addr(g.channels) * 512; // rank +4, channel 0
    const auto n1 = ndp.read(0, 512, 0, Destination::Ndp);
    const auto n2 = ndp.read(same_channel, 512, 0, Destination::Ndp);

    EventQueue eq2;
    auto host = makeSystem(eq2);
    const auto h1 = host.read(0, 512, 0, Destination::Host);
    const auto h2 = host.read(same_channel, 512, 0, Destination::Host);

    EXPECT_EQ(n1.complete, n2.complete);
    EXPECT_GT(h2.complete, h1.complete);
    EXPECT_GE(h2.complete - h1.complete,
              8 * host.timing().tBurst); // 512 B = 8 bursts serialized
}

TEST(MemorySystem, FawLimitsActivationBursts)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    CommandLog log;
    mem.attachCommandLog(&log);
    // Row activations in distinct banks of one rank.
    std::vector<Tick> completions;
    for (unsigned bank = 0; bank < 9; ++bank) {
        Coordinates c;
        c.channel = 0;
        c.dimm = 0;
        c.rank = 0;
        c.bank = bank;
        c.row = 7;
        c.column = 0;
        completions.push_back(
            mem.readAt(c, 64, 0, Destination::Ndp).complete);
    }
    // The fifth activation cannot start before first_act + tFAW.
    const Timing t = mem.timing();
    EXPECT_GE(completions[4], t.tFAW + t.tRCD + t.tCL + t.tBurst);

    // Each ACT waits for tRRD after the previous one and for tFAW after
    // the one four back: exactly the oldest of the last four, no later.
    std::vector<Tick> acts;
    for (const CommandRecord &r : log.records())
        if (r.command == DramCommand::Act)
            acts.push_back(r.at);
    ASSERT_EQ(acts.size(), 9u);
    for (std::size_t i = 0; i < acts.size(); ++i) {
        Tick expected = i == 0 ? 0 : acts[i - 1] + t.tRRD;
        if (i >= 4)
            expected = std::max(expected, acts[i - 4] + t.tFAW);
        EXPECT_EQ(acts[i], expected) << "ACT " << i;
    }
}

TEST(MemorySystem, MultiBurstReadMatchesItsBurstsOneAtATime)
{
    // read() decodes a block's first burst and advances the column for
    // the rest; its commands must equal those of each burst decoded and
    // read on its own, across block (and so rank) boundaries.
    EventQueue eq;
    auto whole = makeSystem(eq);
    auto bursts = makeSystem(eq);
    CommandLog whole_log;
    CommandLog burst_log;
    whole.attachCommandLog(&whole_log);
    bursts.attachCommandLog(&burst_log);

    struct Access
    {
        Addr addr;
        unsigned bytes;
        Destination dest;
    };
    Tick earliest = 0;
    for (const Access &access :
         {Access{512 * 77 - 64, 512, Destination::Ndp},
          Access{512 * 40 + 128, 1024, Destination::Host}}) {
        const auto result =
            whole.read(access.addr, access.bytes, earliest, access.dest);
        const unsigned burst = whole.geometry().burstBytes;
        const Addr first = access.addr / burst * burst;
        for (Addr a = first; a < access.addr + access.bytes; a += burst) {
            bursts.readAt(bursts.mapper().decode(a), burst, earliest,
                          access.dest);
        }
        earliest = result.complete;
    }

    ASSERT_GT(whole_log.size(), 24u);
    ASSERT_EQ(whole_log.size(), burst_log.size());
    for (std::size_t i = 0; i < whole_log.size(); ++i) {
        const CommandRecord &w = whole_log.records()[i];
        const CommandRecord &b = burst_log.records()[i];
        SCOPED_TRACE(i);
        EXPECT_EQ(w.at, b.at);
        EXPECT_EQ(w.rank, b.rank);
        EXPECT_EQ(w.bank, b.bank);
        EXPECT_EQ(w.row, b.row);
        EXPECT_EQ(w.command, b.command);
    }
}

TEST(MemorySystem, CountersTrackDestinations)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    mem.read(0, 512, 0, Destination::Ndp);
    mem.read(512, 512, 0, Destination::Host);
    EXPECT_EQ(mem.bytesToNdp(), 512u);
    EXPECT_EQ(mem.bytesToHost(), 512u);
    EXPECT_EQ(mem.readCount(), 2u);
    mem.reset();
    EXPECT_EQ(mem.readCount(), 0u);
    EXPECT_EQ(mem.bytesToNdp(), 0u);
}

TEST(MemorySystem, StreamScalesWithBytes)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    const Tick small = mem.streamFromRank(0, 1 << 12, 0,
                                          Destination::Ndp);
    mem.reset();
    const Tick large = mem.streamFromRank(0, 1 << 16, 0,
                                          Destination::Ndp);
    EXPECT_GT(large, small);
    // Asymptotically one burst slot per 64 B.
    const Timing t = mem.timing();
    EXPECT_NEAR(static_cast<double>(large),
                static_cast<double>((1 << 16) / 64 * t.tBurst),
                static_cast<double>(t.tRCD + t.tCL + t.tBurst));
}

TEST(MemorySystem, StreamsSerializeOnRank)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    const Tick first = mem.streamFromRank(3, 4096, 0, Destination::Ndp);
    const Tick second = mem.streamFromRank(3, 4096, 0, Destination::Ndp);
    EXPECT_GT(second, first);
    const Tick other = mem.streamFromRank(4, 4096, 0, Destination::Ndp);
    EXPECT_LT(other, second);
}

TEST(MemorySystem, TransferToHostSerializesPerChannel)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    const Tick a = mem.transferToHost(0, 512, 0);
    const Tick b = mem.transferToHost(0, 512, 0);
    const Tick c = mem.transferToHost(1, 512, 0);
    EXPECT_GT(b, a);
    EXPECT_EQ(c, a);
}

TEST(MemorySystem, RankChannelMapping)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    EXPECT_EQ(mem.rankChannel(0), 0u);
    EXPECT_EQ(mem.rankChannel(7), 0u);
    EXPECT_EQ(mem.rankChannel(8), 1u);
    EXPECT_EQ(mem.rankChannel(31), 3u);
}

TEST(MemorySystem, BankGroupPacing)
{
    // Two open-row CAS commands: same bank group paces at tCCD_L,
    // different groups at tCCD_S (faster).
    auto paced_gap = [](unsigned second_bank) {
        EventQueue eq;
        auto mem = makeSystem(eq);
        Coordinates first;
        first.bank = 0;
        first.row = 3;
        Coordinates second;
        second.bank = second_bank;
        second.row = 3;
        // Open both rows first so the second access is a pure CAS.
        mem.readAt(first, 64, 0, Destination::Ndp);
        mem.readAt(second, 64, 0, Destination::Ndp);
        const Tick t1 =
            mem.readAt(first, 64, 10 * kTicksPerUs, Destination::Ndp)
                .complete;
        const Tick t2 =
            mem.readAt(second, 64, 10 * kTicksPerUs, Destination::Ndp)
                .complete;
        return t2 - t1;
    };
    const Timing t = Timing::ddr4_2400();
    // bank 4 shares group 0 with bank 0 (group = bank % 4); bank 1
    // is in another group.
    EXPECT_GT(paced_gap(4), paced_gap(1));
    EXPECT_GE(paced_gap(1), t.tCCDS);
}

TEST(MemorySystem, RefreshBlocksTheRank)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    const Timing t = mem.timing();
    ASSERT_GT(t.tREFI, 0u);

    // An access landing inside the first refresh window is pushed to the
    // window's end.
    const auto delayed = mem.read(0, 64, t.tREFI + 1, Destination::Ndp);
    EXPECT_GE(delayed.complete, t.tREFI + t.tRFC);
    EXPECT_GE(mem.refreshStallCount(), 1u);
}

TEST(MemorySystem, RefreshDisabledWhenZero)
{
    EventQueue eq;
    Timing t = Timing::ddr4_2400();
    t.tREFI = 0;
    MemorySystem mem(eq, Geometry{}, t, Interleave::BlockRank, 512);
    const auto r = mem.read(0, 64, 10 * kTicksPerMs, Destination::Ndp);
    EXPECT_EQ(r.complete,
              10 * kTicksPerMs + t.tRCD + t.tCL + t.tBurst);
    EXPECT_EQ(mem.refreshStallCount(), 0u);
}

TEST(MemorySystem, RefreshCatchesUpOnIdleRanks)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    const Timing t = mem.timing();
    // Far in the future, well past many refresh windows but not inside
    // one: no stall, normal latency.
    const Tick when = 10 * t.tREFI + t.tRFC + t.tREFI / 2;
    const auto r = mem.read(0, 64, when, Destination::Ndp);
    EXPECT_EQ(r.complete, when + t.tRCD + t.tCL + t.tBurst);
}

TEST(MemorySystem, UtilizationAccounting)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    // One 512 B NDP read: 8 bursts of rank-bus time, no channel time.
    const auto r = mem.read(0, 512, 0, Destination::Ndp);
    const Timing t = mem.timing();
    const double rank_util = mem.rankBusUtilization(r.complete);
    EXPECT_GT(rank_util, 0.0);
    EXPECT_LT(rank_util, 1.0);
    EXPECT_DOUBLE_EQ(mem.channelBusUtilization(r.complete), 0.0);
    // Busy time is exactly 8 bursts over 32 rank-buses.
    EXPECT_NEAR(rank_util,
                static_cast<double>(8 * t.tBurst) /
                    (static_cast<double>(r.complete) * 32),
                1e-12);

    // A host read additionally occupies the channel bus.
    const auto h = mem.read(512, 512, r.complete, Destination::Host);
    EXPECT_GT(mem.channelBusUtilization(h.complete), 0.0);
}

TEST(MemorySystem, AchievedBandwidthMatchesBytes)
{
    EventQueue eq;
    auto mem = makeSystem(eq);
    Tick complete = 0;
    for (unsigned i = 0; i < 64; ++i) {
        complete = std::max(
            complete,
            mem.read(Addr(i) * 512, 512, 0, Destination::Ndp).complete);
    }
    const double gbs = mem.achievedBandwidthGBs(complete);
    const double expect = 64.0 * 512 /
                          (static_cast<double>(complete) / kTicksPerSec) /
                          1e9;
    EXPECT_NEAR(gbs, expect, 1e-9);
    EXPECT_GT(gbs, 0.0);
}
