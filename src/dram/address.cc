/**
 * @file
 * Implementation of the address decoder.
 */

#include "address.hh"

#include <sstream>

namespace fafnir::dram
{

AddressMapper::AddressMapper(const Geometry &geometry, Interleave policy,
                             unsigned block_bytes)
    : geometry_(geometry), policy_(policy), blockBytes_(block_bytes)
{
    geometry_.check();
    FAFNIR_ASSERT(isPowerOf2(blockBytes_), "block size must be power of 2");
    FAFNIR_ASSERT(blockBytes_ >= geometry_.burstBytes,
                  "block smaller than a burst");
    FAFNIR_ASSERT(blockBytes_ <= geometry_.rowBytes,
                  "block larger than a row");
    FAFNIR_ASSERT(isPowerOf2(geometry_.dimmsPerChannel) &&
                      isPowerOf2(geometry_.ranksPerDimm),
                  "per-channel geometry must be powers of two");
    const Geometry &g = geometry_;
    capacityBytes_ = g.capacityBytes();
    blockShift_ = floorLog2(blockBytes_);
    burstShift_ = floorLog2(g.burstBytes);
    rankBits_ = floorLog2(g.totalRanks());
    blockInRowBits_ = floorLog2(g.rowBytes / blockBytes_);
    columnBits_ = floorLog2(g.rowBytes / g.burstBytes);
    bankBits_ = floorLog2(g.banksPerRank);
    channelBits_ = floorLog2(g.channels);
    dimmBits_ = floorLog2(g.dimmsPerChannel);
    rankInDimmBits_ = floorLog2(g.ranksPerDimm);
}

unsigned
AddressMapper::rankShift() const
{
    FAFNIR_ASSERT(policy_ == Interleave::BlockRank,
                  "rankShift only defined for BlockRank interleave");
    return blockShift_;
}

namespace
{

/** The low @p width bits of @p value. */
constexpr std::uint64_t
low(std::uint64_t value, unsigned width)
{
    return value & ((std::uint64_t(1) << width) - 1);
}

} // namespace

Coordinates
AddressMapper::decode(Addr addr) const
{
    FAFNIR_ASSERT(addr < capacityBytes_, "address 0x", std::hex, addr,
                  " beyond capacity");

    Coordinates c;
    if (policy_ == Interleave::BlockRank) {
        const std::uint64_t offset = low(addr, blockShift_);
        const auto grank =
            static_cast<unsigned>(low(addr >> blockShift_, rankBits_));
        std::uint64_t rest = addr >> (blockShift_ + rankBits_);

        const std::uint64_t block_in_row = low(rest, blockInRowBits_);
        rest >>= blockInRowBits_;
        c.bank = static_cast<unsigned>(low(rest, bankBits_));
        c.row = rest >> bankBits_;

        // Channel occupies the low rank bits so consecutive blocks spread
        // over channels first, maximizing parallel gather bandwidth.
        c.channel = static_cast<unsigned>(low(grank, channelBits_));
        const unsigned in_channel = grank >> channelBits_;
        c.dimm = static_cast<unsigned>(low(in_channel, dimmBits_));
        c.rank = in_channel >> dimmBits_;

        const std::uint64_t byte_in_row =
            (block_in_row << blockShift_) | offset;
        c.column =
            static_cast<unsigned>(byte_in_row >> burstShift_ << burstShift_);
    } else {
        // LineChannel: row | rank | dimm | bank | column | channel | offset
        std::uint64_t rest = addr >> burstShift_;
        c.channel = static_cast<unsigned>(low(rest, channelBits_));
        rest >>= channelBits_;
        c.column = static_cast<unsigned>(low(rest, columnBits_)
                                         << burstShift_);
        rest >>= columnBits_;
        c.bank = static_cast<unsigned>(low(rest, bankBits_));
        rest >>= bankBits_;
        c.dimm = static_cast<unsigned>(low(rest, dimmBits_));
        rest >>= dimmBits_;
        c.rank = static_cast<unsigned>(low(rest, rankInDimmBits_));
        c.row = rest >> rankInDimmBits_;
    }

    FAFNIR_ASSERT(c.row < geometry_.rowsPerBank, "row out of range");
    return c;
}

Addr
AddressMapper::encode(const Coordinates &c) const
{
    if (policy_ == Interleave::BlockRank) {
        const unsigned grank =
            c.channel | ((c.dimm | (c.rank << dimmBits_)) << channelBits_);

        const std::uint64_t block_in_row = c.column >> blockShift_;
        const std::uint64_t offset = low(c.column, blockShift_);

        std::uint64_t rest = (c.row << bankBits_) | c.bank;
        rest = (rest << blockInRowBits_) | block_in_row;
        return (rest << (blockShift_ + rankBits_)) |
               (static_cast<std::uint64_t>(grank) << blockShift_) | offset;
    }

    std::uint64_t rest = c.row;
    rest = (rest << rankInDimmBits_) | c.rank;
    rest = (rest << dimmBits_) | c.dimm;
    rest = (rest << bankBits_) | c.bank;
    rest = (rest << columnBits_) | (c.column >> burstShift_);
    rest = (rest << channelBits_) | c.channel;
    return rest << burstShift_;
}

std::string
toString(const Coordinates &c)
{
    std::ostringstream os;
    os << "ch" << c.channel << ".dimm" << c.dimm << ".rk" << c.rank << ".bk"
       << c.bank << ".row" << c.row << ".col" << c.column;
    return os.str();
}

} // namespace fafnir::dram
