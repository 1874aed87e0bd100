/**
 * @file
 * Implementation of the DDR4 timing model.
 */

#include "memsystem.hh"

#include <algorithm>

#include "common/faultinject.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir::dram
{

MemorySystem::MemorySystem(EventQueue &eq, const Geometry &geometry,
                           const Timing &timing, Interleave interleave,
                           unsigned block_bytes)
    : eventq_(eq), timing_(timing),
      mapper_(geometry, interleave, block_bytes),
      burstShift_(floorLog2(geometry.burstBytes))
{
    ranks_.resize(geometry.totalRanks());
    for (auto &rank : ranks_)
        rank.banks.resize(geometry.banksPerRank);
    bankGroup_.resize(geometry.banksPerRank);
    for (unsigned bank = 0; bank < geometry.banksPerRank; ++bank)
        bankGroup_[bank] = static_cast<int>(bank % geometry.bankGroups);
    channels_.resize(geometry.channels);
    rankBursts_.resize(geometry.totalRanks());
}

void
MemorySystem::reset()
{
    for (auto &rank : ranks_) {
        for (auto &bank : rank.banks)
            bank = BankState{};
        rank.fawRing = {};
        rank.fawOldest = 0;
        rank.nextAct = 0;
        rank.busFreeAt = 0;
        rank.nextRefresh = 0;
        rank.lastCasGroup = -1;
        rank.lastCasAt = 0;
    }
    refreshStalls_.reset();
    rankBusBusy_.reset();
    channelBusBusy_.reset();
    for (auto &channel : channels_)
        channel = ChannelState{};
    reads_.reset();
    writes_.reset();
    bursts_.reset();
    rowHits_.reset();
    rowMisses_.reset();
    activations_.reset();
    bytesToHost_.reset();
    bytesToNdp_.reset();
    for (auto &counter : rankBursts_)
        counter.reset();
    readLatencyNs_.reset();
}

Tick
MemorySystem::refreshAdjust(RankState &rank, Tick t)
{
    if (timing_.tREFI == 0)
        return t;
    if (rank.nextRefresh == 0)
        rank.nextRefresh = timing_.tREFI;
    // Catch up on windows that passed, then step out of a live one.
    while (t >= rank.nextRefresh) {
        const Tick window_end = rank.nextRefresh + timing_.tRFC;
        if (t < window_end) {
            t = window_end;
            ++refreshStalls_;
        }
        rank.nextRefresh += timing_.tREFI;
    }
    return t;
}

Tick
MemorySystem::accessBurst(const Coordinates &coords, unsigned global_rank,
                          Tick earliest, Destination dest,
                          AccessResult &result)
{
    RankState &rank = ranks_[global_rank];
    earliest = refreshAdjust(rank, earliest);
    BankState &bank = rank.banks[coords.bank];
    ChannelState &channel = channels_[coords.channel];
    const auto row = static_cast<std::int64_t>(coords.row);

    // Bank-group pacing: back-to-back CAS commands in the same group
    // space at tCCD_L, across groups at tCCD_S.
    const int group = bankGroup_[coords.bank];
    Tick group_ready = earliest;
    if (rank.lastCasGroup >= 0) {
        group_ready = rank.lastCasAt + (group == rank.lastCasGroup
                                            ? timing_.tCCD
                                            : timing_.tCCDS);
    }

    Tick cas; // effective column-command issue time
    if (bank.openRow == row) {
        ++result.rowHits;
        ++rowHits_;
        cas = std::max(earliest, bank.nextCas);
    } else {
        ++result.rowMisses;
        ++rowMisses_;
        Tick act_ready = earliest;
        if (bank.openRow >= 0) {
            const Tick pre = std::max(earliest, bank.nextPre);
            act_ready = pre + timing_.tRP;
            if (commandLog_) {
                commandLog_->record(
                    pre, global_rank, coords.bank,
                    static_cast<std::uint64_t>(bank.openRow),
                    DramCommand::Pre);
            }
        }
        // tRRD and tFAW activation constraints within the rank.
        const Tick act = std::max({act_ready, rank.nextAct, bank.nextAct,
                                   rank.fawRing[rank.fawOldest]});
        if (commandLog_) {
            commandLog_->record(act, global_rank, coords.bank, coords.row,
                                DramCommand::Act);
        }

        // The new ACT replaces the oldest of the last four.
        rank.fawRing[rank.fawOldest] = act + timing_.tFAW;
        rank.fawOldest = (rank.fawOldest + 1) % RankState::kFawActs;
        rank.nextAct = act + timing_.tRRD;
        bank.nextAct = act + timing_.tRC();
        bank.openRow = row;
        bank.nextPre = act + timing_.tRAS;
        bank.nextCas = act + timing_.tRCD;
        ++activations_;

        cas = bank.nextCas;
    }

    cas = std::max(cas, group_ready);

    // The data beats must find both the rank-internal bus and, for host
    // deliveries, the channel bus free. Delay the effective CAS until the
    // data window is available.
    Tick data_start = cas + timing_.tCL;
    data_start = std::max(data_start, rank.busFreeAt);
    if (dest == Destination::Host)
        data_start = std::max(data_start, channel.busFreeAt);

    const Tick complete = data_start + timing_.tBurst;
    rank.busFreeAt = complete;
    rankBusBusy_ += timing_.tBurst;
    if (dest == Destination::Host) {
        channel.busFreeAt = complete + timing_.tRTR;
        channelBusBusy_ += timing_.tBurst;
    }

    const Tick eff_cas = data_start - timing_.tCL;
    bank.nextCas = std::max(bank.nextCas, eff_cas + timing_.tCCD);
    bank.nextPre = std::max(bank.nextPre, eff_cas + timing_.tRTP);
    rank.lastCasGroup = group;
    rank.lastCasAt = eff_cas;
    if (commandLog_) {
        commandLog_->record(eff_cas, global_rank, coords.bank, coords.row,
                            DramCommand::Read);
    }

    if (result.bursts == 0)
        result.firstData = data_start;
    ++result.bursts;
    ++bursts_;
    ++rankBursts_[global_rank];
    return complete;
}

namespace
{

// The helpers below are cold: callers test the sink or plan pointer
// first, so a read without tracing or faults pays one branch each, not
// a call.

/** One span per read request on the owning rank's trace track. */
[[gnu::cold]] void
traceRead(telemetry::TraceSink &ts, unsigned rank, unsigned bytes,
          Tick earliest, const AccessResult &result, std::uint64_t flow)
{
    ts.setThreadName(telemetry::kPidDram, static_cast<int>(rank),
                     "rank " + std::to_string(rank));
    ts.completeEvent(telemetry::kPidDram, static_cast<int>(rank),
                     "dram.read", "rd", earliest,
                     result.complete - earliest,
                     {{"bytes", static_cast<double>(bytes)},
                      {"rowHits", static_cast<double>(result.rowHits)},
                      {"rowMisses", static_cast<double>(result.rowMisses)},
                      {"flow", static_cast<double>(flow)}});
}

/**
 * Transient command stall before issuing a read (dram_stall hook).
 * @return the possibly-delayed issue time.
 */
[[gnu::cold]] Tick
injectCommandStall(fault::FaultPlan &plan, Tick earliest)
{
    const Tick stall = plan.dramStallTicks();
    if (stall == 0)
        return earliest;
    if (auto *ts = telemetry::sink()) {
        ts->instantEvent(telemetry::kPidDram, 0, "fault", "dram_stall",
                         earliest,
                         {{"stallNs",
                           static_cast<double>(stall) / kTicksPerNs}});
    }
    return earliest + stall;
}

/**
 * Late data delivery on a completed read (dram_latency hook): the bus
 * reservations already made stand; only the consumer sees the data
 * arrive late, modelling ECC retries or thermal throttling on the DIMM.
 * @return the possibly-extended completion time.
 */
[[gnu::cold]] Tick
injectReadLatency(fault::FaultPlan &plan, Tick earliest, Tick complete)
{
    const Tick extra = plan.dramLatencyExtra(complete - earliest);
    if (extra == 0)
        return complete;
    if (auto *ts = telemetry::sink()) {
        ts->instantEvent(telemetry::kPidDram, 0, "fault", "dram_latency",
                         complete + extra,
                         {{"extraNs",
                           static_cast<double>(extra) / kTicksPerNs}});
    }
    return complete + extra;
}

} // namespace

AccessResult
MemorySystem::read(Addr addr, unsigned bytes, Tick earliest,
                   Destination dest)
{
    FAFNIR_ASSERT(bytes > 0, "zero-length read");
    fault::FaultPlan *faults = fault::plan();
    if (faults != nullptr)
        earliest = injectCommandStall(*faults, earliest);
    const Geometry &g = mapper_.geometry();

    AccessResult result;
    ++reads_;
    Tick complete = earliest;
    const Addr first = addr & ~Addr(g.burstBytes - 1);
    const Addr last = (addr + bytes - 1) & ~Addr(g.burstBytes - 1);
    // A block sits in one rank, bank and row, so only a block's first
    // burst is decoded; its other bursts advance the column. Capacity
    // and rows hold whole blocks, so decode's range checks on the first
    // burst cover the rest of the block.
    const Addr block_mask = mapper_.blockBytes() - 1;
    // The first burst's coordinates also tag the trace and the recorder.
    const Coordinates head = mapper_.decode(first);
    const unsigned head_rank = head.globalRank(g);
    complete = std::max(complete,
                        accessBurst(head, head_rank, earliest, dest, result));
    Coordinates c = head;
    unsigned rank = head_rank;
    for (Addr a = first + g.burstBytes; a <= last; a += g.burstBytes) {
        if ((a & block_mask) != 0) {
            c.column += g.burstBytes;
        } else {
            c = mapper_.decode(a);
            rank = c.globalRank(g);
        }
        complete = std::max(complete,
                            accessBurst(c, rank, earliest, dest, result));
    }
    result.complete = faults != nullptr
        ? injectReadLatency(*faults, earliest, complete)
        : complete;

    if (dest == Destination::Host)
        bytesToHost_ += bytes;
    else
        bytesToNdp_ += bytes;
    readLatencyNs_.sample(
        static_cast<double>(result.complete - earliest) / kTicksPerNs);
    if (auto *ts = telemetry::sink()) {
        traceRead(*ts, head_rank, bytes, earliest, result,
                  eventq_.currentFlow());
    }
    // code = flat rank of the first burst; a = bytes, b = service ticks.
    if (auto *rec = telemetry::flightRecorder()) {
        rec->record(telemetry::Stage::DramService, result.complete,
                    head_rank, bytes, result.complete - earliest);
    }
    return result;
}

AccessResult
MemorySystem::readAt(const Coordinates &coords, unsigned bytes,
                     Tick earliest, Destination dest)
{
    FAFNIR_ASSERT(bytes > 0, "zero-length read");
    fault::FaultPlan *faults = fault::plan();
    if (faults != nullptr)
        earliest = injectCommandStall(*faults, earliest);
    const Geometry &g = mapper_.geometry();

    AccessResult result;
    ++reads_;
    Tick complete = earliest;
    const unsigned rank = coords.globalRank(g);
    const unsigned burst_mask = g.burstBytes - 1;
    Coordinates c = coords;
    c.column &= ~burst_mask;
    const auto bursts = static_cast<unsigned>(
        (std::uint64_t(bytes) + (coords.column & burst_mask) + burst_mask) >>
        burstShift_);
    for (unsigned i = 0; i < bursts; ++i) {
        complete = std::max(complete,
                            accessBurst(c, rank, earliest, dest, result));
        c.column += g.burstBytes;
        if (c.column >= g.rowBytes) {
            c.column = 0;
            ++c.row;
            FAFNIR_ASSERT(c.row < g.rowsPerBank, "readAt ran off the bank");
        }
    }
    result.complete = faults != nullptr
        ? injectReadLatency(*faults, earliest, complete)
        : complete;
    if (dest == Destination::Host)
        bytesToHost_ += bytes;
    else
        bytesToNdp_ += bytes;
    readLatencyNs_.sample(
        static_cast<double>(result.complete - earliest) / kTicksPerNs);
    if (auto *ts = telemetry::sink())
        traceRead(*ts, rank, bytes, earliest, result, eventq_.currentFlow());
    // code = flat rank; a = bytes, b = service ticks (as in read()).
    if (auto *rec = telemetry::flightRecorder()) {
        rec->record(telemetry::Stage::DramService, result.complete, rank,
                    bytes, result.complete - earliest);
    }
    return result;
}

double
MemorySystem::rankBusUtilization(Tick elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(rankBusBusy_.value()) /
           (static_cast<double>(elapsed) *
            mapper_.geometry().totalRanks());
}

double
MemorySystem::channelBusUtilization(Tick elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(channelBusBusy_.value()) /
           (static_cast<double>(elapsed) * mapper_.geometry().channels);
}

Tick
MemorySystem::streamFromRank(unsigned rank, std::uint64_t bytes,
                             Tick earliest, Destination dest)
{
    FAFNIR_ASSERT(rank < ranks_.size(), "bad rank ", rank);
    if (bytes == 0)
        return earliest;
    const Geometry &g = mapper_.geometry();
    RankState &state = ranks_[rank];

    const std::uint64_t bursts = divCeil(bytes, g.burstBytes);
    // First data needs one closed-row access; the rest streams at the
    // data-bus rate with activations hidden by bank interleaving.
    const Tick start_at =
        refreshAdjust(state, std::max(earliest, state.busFreeAt));
    const Tick first = start_at + timing_.tRCD + timing_.tCL;
    const Tick complete = first + bursts * timing_.tBurst;
    state.busFreeAt = complete;
    bursts_ += bursts;
    rankBusBusy_ += bursts * timing_.tBurst;
    activations_ += divCeil(bytes, g.rowBytes);
    rowHits_ += bursts - std::min(bursts, divCeil(bytes, g.rowBytes));
    rowMisses_ += divCeil(bytes, g.rowBytes);
    ++reads_;
    if (dest == Destination::Host) {
        ChannelState &channel = channels_[rankChannel(rank)];
        channel.busFreeAt = std::max(channel.busFreeAt, complete);
        channelBusBusy_ += bursts * timing_.tBurst;
        bytesToHost_ += bytes;
    } else {
        bytesToNdp_ += bytes;
    }
    rankBursts_[rank] += bursts;
    if (auto *ts = telemetry::sink()) {
        ts->setThreadName(telemetry::kPidDram, static_cast<int>(rank),
                          "rank " + std::to_string(rank));
        ts->completeEvent(telemetry::kPidDram, static_cast<int>(rank),
                          "dram.stream", "stream", start_at,
                          complete - start_at,
                          {{"bytes", static_cast<double>(bytes)}});
    }
    return complete;
}

Tick
MemorySystem::streamToRank(unsigned rank, std::uint64_t bytes,
                           Tick earliest)
{
    FAFNIR_ASSERT(rank < ranks_.size(), "bad rank ", rank);
    if (bytes == 0)
        return earliest;
    const Geometry &g = mapper_.geometry();
    RankState &state = ranks_[rank];
    const std::uint64_t bursts = divCeil(bytes, g.burstBytes);
    const Tick first = std::max(earliest, state.busFreeAt) + timing_.tRCD;
    const Tick complete = first + bursts * timing_.tBurst;
    state.busFreeAt = complete;
    bursts_ += bursts;
    rankBusBusy_ += bursts * timing_.tBurst;
    rankBursts_[rank] += bursts;
    ++writes_;
    bytesToNdp_ += bytes;
    return complete;
}

unsigned
MemorySystem::rankChannel(unsigned rank) const
{
    return rank / mapper_.geometry().ranksPerChannel();
}

std::int64_t
MemorySystem::openRow(unsigned rank, unsigned bank) const
{
    FAFNIR_ASSERT(rank < ranks_.size(), "bad rank ", rank);
    FAFNIR_ASSERT(bank < ranks_[rank].banks.size(), "bad bank ", bank);
    return ranks_[rank].banks[bank].openRow;
}

Tick
MemorySystem::transferToHost(unsigned channel, unsigned bytes,
                             Tick earliest)
{
    FAFNIR_ASSERT(channel < channels_.size(), "bad channel ", channel);
    FAFNIR_ASSERT(bytes > 0, "empty transfer");
    ChannelState &state = channels_[channel];
    const Geometry &g = mapper_.geometry();
    const Tick duration =
        divCeil(bytes, g.burstBytes) * timing_.tBurst;
    const Tick start = std::max(earliest, state.busFreeAt);
    state.busFreeAt = start + duration + timing_.tRTR;
    channelBusBusy_ += duration;
    bytesToHost_ += bytes;
    return start + duration;
}

void
MemorySystem::registerStats(StatGroup &group) const
{
    group.addCounter("reads", reads_, "read requests");
    group.addCounter("writes", writes_, "write requests");
    group.addCounter("bursts", bursts_, "64B bursts transferred");
    group.addCounter("rowHits", rowHits_, "row-buffer hits");
    group.addCounter("rowMisses", rowMisses_, "row-buffer misses");
    group.addCounter("activations", activations_, "row activations");
    group.addCounter("bytesToHost", bytesToHost_,
                     "bytes crossing the channel bus to the host");
    group.addCounter("bytesToNdp", bytesToNdp_,
                     "bytes consumed inside DIMMs by NDP units");
    group.addCounter("refreshStalls", refreshStalls_,
                     "accesses delayed by a refresh window");
    group.addDistribution("readLatencyNs", readLatencyNs_,
                          "per-request read latency (ns)");
    for (std::size_t rank = 0; rank < rankBursts_.size(); ++rank) {
        group.addCounter("rank" + std::to_string(rank) + ".bursts",
                         rankBursts_[rank],
                         "bursts served by rank " + std::to_string(rank));
    }
}

} // namespace fafnir::dram
