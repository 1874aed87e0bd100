/**
 * @file
 * Physical address decomposition.
 *
 * Decodes a flat physical address into (channel, dimm, rank, bank, row,
 * column). The layout matters a great deal to this paper: Fafnir/RecNMP
 * map whole 512 B embedding vectors to individual ranks (rank bits above
 * the vector offset, the "bits [9-13]" mapping of Figure 4b), whereas
 * TensorDIMM stripes every vector across all ranks and addresses each
 * rank's local space directly (MemorySystem::readAt).
 */

#ifndef FAFNIR_DRAM_ADDRESS_HH
#define FAFNIR_DRAM_ADDRESS_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "dram/config.hh"

namespace fafnir::dram
{

/** Fully decoded DRAM coordinates of a burst. */
struct Coordinates
{
    unsigned channel = 0;
    unsigned dimm = 0;     ///< within the channel
    unsigned rank = 0;     ///< within the DIMM
    unsigned bank = 0;
    std::uint64_t row = 0;
    unsigned column = 0;   ///< burst-aligned column offset within the row

    /** Flat rank id across the whole system. */
    unsigned
    globalRank(const Geometry &g) const
    {
        return (channel * g.dimmsPerChannel + dimm) * g.ranksPerDimm + rank;
    }

    /** Flat DIMM id across the whole system. */
    unsigned
    globalDimm(const Geometry &g) const
    {
        return channel * g.dimmsPerChannel + dimm;
    }

    bool
    operator==(const Coordinates &other) const = default;
};

/** Interleaving policy. BlockRank is the only layout; MemorySystem and
 *  AddressMapper still take it because perfbench/ and the benches pass
 *  it. */
enum class Interleave
{
    /**
     * Rank bits directly above a block offset: consecutive aligned blocks
     * (default 512 B, one embedding vector) land on consecutive ranks, and
     * the row bits sit above the rank bits. This is the paper's Figure 4b
     * layout for Fafnir and RecNMP.
     */
    BlockRank,
};

/**
 * Address decoder for one Geometry under the BlockRank layout.
 */
class AddressMapper
{
  public:
    AddressMapper(const Geometry &geometry, Interleave policy,
                  unsigned block_bytes = 512);

    /** Decode a physical address. Faults on out-of-range addresses. */
    Coordinates decode(Addr addr) const;

    /**
     * Compose an address from coordinates (inverse of decode for
     * burst-aligned addresses).
     */
    Addr encode(const Coordinates &coords) const;

    const Geometry &geometry() const { return geometry_; }
    unsigned blockBytes() const { return blockBytes_; }

    /** First bit of the global-rank field (the paper's bit 9 for 512 B). */
    unsigned rankShift() const { return blockShift_; }

  private:
    Geometry geometry_;
    unsigned blockBytes_;
    /** Field widths in bits, fixed by the geometry and block size. */
    std::uint64_t capacityBytes_ = 0;
    unsigned blockShift_ = 0;     ///< byte offset within a block
    unsigned burstShift_ = 0;     ///< byte offset within a burst
    unsigned rankBits_ = 0;       ///< global rank
    unsigned blockInRowBits_ = 0; ///< block within a row
    unsigned bankBits_ = 0;
    unsigned channelBits_ = 0;
    unsigned dimmBits_ = 0;
};

/** Human-readable coordinates, for debugging and test failure messages. */
std::string toString(const Coordinates &coords);

} // namespace fafnir::dram

#endif // FAFNIR_DRAM_ADDRESS_HH
