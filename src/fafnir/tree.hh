/**
 * @file
 * Topology of the Fafnir reduction tree.
 *
 * The tree's leaves attach to the ranks of the memory system; with the
 * default 1PE:2R scale each leaf PE concurrently serves two ranks
 * (Figure 4a), so a 32-rank system has 16 leaf PEs and 31 PEs total. PEs
 * are heap-indexed: the root is PE 1, the children of PE i are 2i and
 * 2i+1, and leaf PEs occupy [numLeafPes, 2*numLeafPes). Rank r (physical
 * global id: channel-major, then DIMM, then rank) feeds leaf PE
 * leafPeOf(r) on side r % ranksPerLeafPe — which keeps each leaf PE,
 * each DIMM/rank node, and the channel node aligned with physical
 * packaging (a DIMM/rank node spans exactly one channel's DIMMs).
 */

#ifndef FAFNIR_FAFNIR_TREE_HH
#define FAFNIR_FAFNIR_TREE_HH

#include "common/intmath.hh"
#include "common/logging.hh"
#include "dram/config.hh"

namespace fafnir::core
{

/** Static shape of the tree. */
class TreeTopology
{
  public:
    /**
     * @param num_ranks physical ranks (leaf data sources).
     * @param ranks_per_leaf_pe the paper's 1PE:2R scale by default; 1 and
     *        4 are the other scales discussed in Section IV-B.
     */
    explicit TreeTopology(unsigned num_ranks, unsigned ranks_per_leaf_pe = 2)
        : numRanks_(num_ranks), ranksPerLeafPe_(ranks_per_leaf_pe)
    {
        FAFNIR_ASSERT(numRanks_ > 0, "tree needs at least one rank");
        FAFNIR_ASSERT(ranksPerLeafPe_ > 0, "ranksPerLeafPe must be > 0");
        numLeafPes_ = divCeil(numRanks_, ranksPerLeafPe_);
        FAFNIR_ASSERT(isPowerOf2(numLeafPes_),
                      "leaf PE count must be a power of two, got ",
                      numLeafPes_);
    }

    unsigned numRanks() const { return numRanks_; }
    unsigned ranksPerLeafPe() const { return ranksPerLeafPe_; }
    unsigned numLeafPes() const { return static_cast<unsigned>(numLeafPes_); }

    /** Total PEs in the tree (2L - 1). */
    unsigned
    numPes() const
    {
        return 2 * numLeafPes() - 1;
    }

    /** PE levels from leaves to root (a 16-leaf tree has 5). */
    unsigned
    numLevels() const
    {
        return floorLog2(numLeafPes()) + 1;
    }

    /** Heap index of the root PE. */
    static constexpr unsigned rootPe() { return 1; }

    bool
    isLeafPe(unsigned pe) const
    {
        return pe >= numLeafPes() && pe < 2 * numLeafPes();
    }

    unsigned
    parent(unsigned pe) const
    {
        FAFNIR_ASSERT(pe > rootPe() && pe <= numPes(), "no parent for ", pe);
        return pe / 2;
    }

    unsigned leftChild(unsigned pe) const { return 2 * pe; }
    unsigned rightChild(unsigned pe) const { return 2 * pe + 1; }

    /** Distance from the leaf level: leaves are 0, the root is
     *  numLevels()-1. */
    unsigned
    heightOf(unsigned pe) const
    {
        FAFNIR_ASSERT(pe >= 1 && pe <= numPes(), "bad PE id ", pe);
        return floorLog2(numLeafPes()) - floorLog2(pe);
    }

    /** Leaf PE fed by physical rank @p rank. */
    unsigned
    leafPeOf(unsigned rank) const
    {
        FAFNIR_ASSERT(rank < numRanks_, "rank ", rank, " out of range");
        return numLeafPes() + rank / ranksPerLeafPe_;
    }

    /** Input side (0 = A, 1 = B) of @p rank at its leaf PE. With more than
     *  two ranks per leaf PE, ranks alternate sides. */
    unsigned
    sideOf(unsigned rank) const
    {
        return (rank % ranksPerLeafPe_) % 2;
    }

    /**
     * Internal tree links: a binary tree with L leaf PEs has 2L - 2 edges.
     * With one output link from the root to the cores per core c, the total
     * is (2L - 2) + c + numRanks rank-attachment links — the paper's
     * connection-count argument (Section IV-A) counts (2m - 2) + c against
     * the all-to-all c * m.
     */
    unsigned
    connectionCount(unsigned cores) const
    {
        return (2 * numLeafPes() - 2) + cores + numRanks_;
    }

    /** All-to-all connection count of the no-NDP baseline. */
    static unsigned
    allToAllConnections(unsigned cores, unsigned memory_devices)
    {
        return cores * memory_devices;
    }

  private:
    unsigned numRanks_;
    unsigned ranksPerLeafPe_;
    std::uint64_t numLeafPes_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_TREE_HH
