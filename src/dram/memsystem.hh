/**
 * @file
 * Cycle-level DDR4 memory-system model.
 *
 * Models per-bank row-buffer state (open-page policy), per-bank
 * tRCD/tCL/tRP/tRAS/tCCD/tRTP constraints, per-rank tRRD and tFAW
 * activation limits, the per-rank internal data bus, and the shared
 * per-channel data bus.
 *
 * Two delivery destinations are distinguished because they define the
 * paper's entire design space:
 *
 *  - Destination::Ndp  — the data stays inside the DIMM's buffer device
 *    (where TensorDIMM / RecNMP / Fafnir leaf PEs sit). It occupies the
 *    rank's internal bus but NOT the channel bus, so all ranks of a
 *    channel can stream to their NDP units concurrently.
 *  - Destination::Host — the data crosses the channel to the CPU and
 *    serializes on the channel data bus (the baseline path, and RecNMP's
 *    forwarded non-co-located vectors).
 *
 * The model is a resource-reservation timing calculator: each access asks
 * for the earliest completion consistent with all resource constraints and
 * advances the resources. Requests must be presented in non-decreasing
 * `earliest` order per caller for meaningful contention; the engines in
 * this repository do so by construction.
 *
 * Host cost per read: read() decodes the first burst of each block and
 * advances the column for the block's other bursts, since a block sits
 * in one rank, bank and row. Each rank keeps the tFAW expiry of its
 * last four ACTs in a fixed ring.
 */

#ifndef FAFNIR_DRAM_MEMSYSTEM_HH
#define FAFNIR_DRAM_MEMSYSTEM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/address.hh"
#include "dram/cmdlog.hh"
#include "dram/config.hh"
#include "dram/timing.hh"
#include "sim/eventq.hh"

namespace fafnir::dram
{

/** Where read data is delivered. */
enum class Destination
{
    Ndp,
    Host,
};

/** Outcome of one (possibly multi-burst) access. */
struct AccessResult
{
    /** Tick at which the last data beat has been delivered. */
    Tick complete = 0;
    /** Tick at which the first data beat appears (pipelining begins). */
    Tick firstData = 0;
    unsigned rowHits = 0;
    unsigned rowMisses = 0;
    unsigned bursts = 0;
};

/**
 * The memory system: geometry + timing + live bank/rank/channel state.
 */
class MemorySystem
{
  public:
    MemorySystem(EventQueue &eq, const Geometry &geometry,
                 const Timing &timing,
                 Interleave interleave = Interleave::BlockRank,
                 unsigned block_bytes = 512);

    /**
     * Timing for reading @p bytes starting at @p addr, no earlier than
     * @p earliest, delivered to @p dest. Updates resource state.
     */
    AccessResult read(Addr addr, unsigned bytes, Tick earliest,
                      Destination dest);

    /**
     * Read @p bytes starting at explicit coordinates — used by engines
     * whose data layout is not an address-mapper policy (TensorDIMM's
     * column-major striping addresses each rank's local space directly).
     * Consecutive bursts advance the column and wrap to the next row of
     * the same bank.
     */
    AccessResult readAt(const Coordinates &coords, unsigned bytes,
                        Tick earliest, Destination dest);

    /**
     * Sequential bulk stream of @p bytes out of @p rank (LIL matrix
     * chunks in the SpMV engines). Bank interleaving hides row
     * activations in a sequential stream, so the cost is data-bus
     * occupancy; the access is accounted at burst granularity without
     * simulating each burst individually.
     * @return completion tick.
     */
    Tick streamFromRank(unsigned rank, std::uint64_t bytes, Tick earliest,
                        Destination dest);

    /** Bulk sequential write into @p rank; same cost model as streaming
     *  reads. */
    Tick streamToRank(unsigned rank, std::uint64_t bytes, Tick earliest);

    /**
     * Occupy the channel data bus for an NDP-to-host transfer of
     * @p bytes (partial results forwarded by RecNMP/TensorDIMM units).
     * Contends with DRAM reads destined for the host on the same channel.
     * @return completion tick.
     */
    Tick transferToHost(unsigned channel, unsigned bytes, Tick earliest);

    const Geometry &geometry() const { return mapper_.geometry(); }
    const Timing &timing() const { return timing_; }
    const AddressMapper &mapper() const { return mapper_; }
    EventQueue &eventq() { return eventq_; }

    /** Latency of an isolated closed-row single-burst read. */
    Tick
    closedRowReadLatency() const
    {
        return timing_.tRCD + timing_.tCL + timing_.tBurst;
    }

    /** Reset all bank/bus state and statistics (between experiments). */
    void reset();

    /** Attach a command log (nullptr detaches). Not owned. */
    void attachCommandLog(CommandLog *log) { commandLog_ = log; }

    /** Channel that physical @p rank lives on. */
    unsigned rankChannel(unsigned rank) const;

    /** Currently open row of (@p rank, @p bank), or -1 if precharged —
     *  exposed for open-page scheduling decisions. */
    std::int64_t openRow(unsigned rank, unsigned bank) const;

    /** @{ Statistics. */
    std::uint64_t readCount() const { return reads_.value(); }
    std::uint64_t burstCount() const { return bursts_.value(); }
    std::uint64_t rowHitCount() const { return rowHits_.value(); }
    std::uint64_t rowMissCount() const { return rowMisses_.value(); }
    std::uint64_t activationCount() const { return activations_.value(); }
    std::uint64_t bytesToHost() const { return bytesToHost_.value(); }
    std::uint64_t bytesToNdp() const { return bytesToNdp_.value(); }
    std::uint64_t refreshStallCount() const
    {
        return refreshStalls_.value();
    }

    /**
     * Fraction of aggregate rank-bus capacity used over @p elapsed —
     * the roofline the paper argues Fafnir fills and the baselines
     * leave empty.
     */
    double rankBusUtilization(Tick elapsed) const;

    /** Fraction of aggregate channel-bus capacity used (host traffic). */
    double channelBusUtilization(Tick elapsed) const;

    /** Achieved DRAM read bandwidth over @p elapsed in GB/s. */
    double
    achievedBandwidthGBs(Tick elapsed) const
    {
        return elapsed == 0
            ? 0.0
            : static_cast<double>(bytesToHost_.value() +
                                  bytesToNdp_.value()) /
                  (static_cast<double>(elapsed) / kTicksPerSec) / 1e9;
    }
    void registerStats(StatGroup &group) const;
    /** @} */

  private:
    struct BankState
    {
        /** Open row, or -1 when precharged. */
        std::int64_t openRow = -1;
        /** Earliest next ACT to this bank. */
        Tick nextAct = 0;
        /** Earliest next column command. */
        Tick nextCas = 0;
        /** Earliest next PRE (tRAS / tRTP). */
        Tick nextPre = 0;
    };

    struct RankState
    {
        /** ACTs per tFAW window. */
        static constexpr unsigned kFawActs = 4;

        std::vector<BankState> banks;
        /** When each of the last kFawActs ACTs leaves the tFAW window
         *  (its tick + tFAW); 0 in slots no ACT has filled yet. */
        std::array<Tick, kFawActs> fawRing{};
        /** Slot of the oldest ACT, where the next one is written. */
        unsigned fawOldest = 0;
        /** Earliest next ACT anywhere in the rank (tRRD). */
        Tick nextAct = 0;
        /** Rank-internal data bus. */
        Tick busFreeAt = 0;
        /** Start of the next refresh window (tREFI grid). */
        Tick nextRefresh = 0;
        /** Bank group of the most recent column command (-1 = none). */
        int lastCasGroup = -1;
        /** Issue time of the most recent column command. */
        Tick lastCasAt = 0;
    };

    /**
     * Delay @p t out of any refresh window the rank owes (all-bank
     * refresh blocks the rank for tRFC every tREFI).
     */
    Tick refreshAdjust(RankState &rank, Tick t);

    struct ChannelState
    {
        /** Channel data bus towards the host. */
        Tick busFreeAt = 0;
    };

    /** One burst on flat rank @p global_rank (coords.globalRank());
     *  returns delivery-complete tick. */
    Tick accessBurst(const Coordinates &coords, unsigned global_rank,
                     Tick earliest, Destination dest, AccessResult &result);

    EventQueue &eventq_;
    Timing timing_;
    AddressMapper mapper_;
    /** log2 of the burst size (a checked power of two). */
    unsigned burstShift_;
    CommandLog *commandLog_ = nullptr;
    std::vector<RankState> ranks_;
    /** Bank group of each bank index within a rank. */
    std::vector<int> bankGroup_;
    std::vector<ChannelState> channels_;

    Counter reads_;
    Counter writes_;
    Counter bursts_;
    Counter rowHits_;
    Counter rowMisses_;
    Counter activations_;
    Counter bytesToHost_;
    Counter bytesToNdp_;
    Counter refreshStalls_;
    /** Cumulative rank-bus occupancy across all ranks (ticks). */
    Counter rankBusBusy_;
    /** Cumulative channel-bus occupancy across all channels (ticks). */
    Counter channelBusBusy_;
    /** Bursts served per physical rank. */
    std::vector<Counter> rankBursts_;
    /** Completion - request time of each read() / readAt(), in ns. */
    Distribution readLatencyNs_;
};

} // namespace fafnir::dram

#endif // FAFNIR_DRAM_MEMSYSTEM_HH
