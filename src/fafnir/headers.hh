/**
 * @file
 * Interned header index sets: a HeaderTable stores each distinct
 * `indices` set of one evaluation (FunctionalTree::run) once, in one
 * flat arena, under a 4-byte SetId, so two headers are equal exactly
 * when their ids are (hash-consing). The PE kernel builds reduces'
 * headers with unite(), keys its merge stash by id and orders outputs
 * with less(). A table only grows and is not thread-safe.
 */

#ifndef FAFNIR_FAFNIR_HEADERS_HH
#define FAFNIR_FAFNIR_HEADERS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace fafnir::core
{

/** Id of an interned index set; ids are dense from 0. */
using SetId = std::uint32_t;

/** Hash-consed store of one evaluation's index sets. */
class HeaderTable
{
  public:
    /** A table with room for about @p expected sets before it grows. */
    explicit HeaderTable(std::size_t expected = 8)
        : slots_(std::bit_ceil(std::max<std::size_t>(2 * expected, 16)),
                 kNone)
    {
        sets_.reserve(expected);
        ids_.reserve(4 * expected);
    }

    /** The id of the set holding @p set, whose ids must ascend without
     *  repeats; added if new. */
    SetId
    intern(std::span<const IndexId> set)
    {
        FAFNIR_ASSERT(std::ranges::adjacent_find(set, std::greater_equal{}) ==
                          set.end(),
                      "interned ids not ascending and distinct");
        const std::size_t offset = ids_.size();
        std::uint64_t h = 0;
        for (IndexId index : set)
            h += mix(index);
        ids_.insert(ids_.end(), set.begin(), set.end());
        return commit(offset, h);
    }

    /** The id of @p a ∪ @p b; faults if they overlap (a reduction must
     *  not double-count a vector). A set hashes to the sum of its ids'
     *  mixes, so a union's hash is its operands' sum. */
    SetId
    unite(SetId a, SetId b)
    {
        const std::size_t offset = ids_.size();
        ids_.resize(offset + sizeOf(a) + sizeOf(b));
        const auto out = ids_.begin() + offset;
        std::ranges::merge((*this)[a], (*this)[b], out);
        FAFNIR_ASSERT(std::adjacent_find(out, ids_.end()) == ids_.end(),
                      "unite on overlapping sets");
        return commit(offset, sets_[a].hash + sets_[b].hash);
    }

    /** The contents of set @p id, ascending. */
    std::span<const IndexId>
    operator[](SetId id) const
    {
        return {ids_.data() + sets_[id].offset, sets_[id].length};
    }

    std::size_t sizeOf(SetId id) const { return sets_[id].length; }

    /** Number of distinct sets interned so far (one past the last id). */
    std::size_t size() const { return sets_.size(); }

    /** Sets' first two ids, an absent one as 0: key(a) < key(b) implies
     *  a < b, and a < b implies key(a) <= key(b). */
    std::uint64_t orderKey(SetId id) const { return sets_[id].key; }

    /** Lexicographic order on the contents. */
    bool
    less(SetId a, SetId b) const
    {
        return orderKey(a) != orderKey(b)
            ? orderKey(a) < orderKey(b)
            : std::ranges::lexicographical_compare((*this)[a], (*this)[b]);
    }

  private:
    struct Set
    {
        std::uint32_t offset, length;
        std::uint64_t key, hash;
    };

    static constexpr SetId kNone = ~SetId{0};

    /** One id's share of a set hash (the splitmix64 finalizer). */
    static std::uint64_t
    mix(IndexId index)
    {
        std::uint64_t z = index + 0x9E3779B97F4A7C15ull;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Intern the ids appended at @p offset, whose hash is @p h: the id
     *  of an equal set (dropping the copy) or of a new one. */
    SetId
    commit(std::size_t offset, std::uint64_t h)
    {
        const IndexId *data = ids_.data() + offset;
        const std::size_t n = ids_.size() - offset;
        const std::size_t mask = slots_.size() - 1;
        std::size_t slot = h & mask;
        for (; slots_[slot] != kNone; slot = (slot + 1) & mask) {
            const SetId id = slots_[slot];
            if (sets_[id].hash == h && sizeOf(id) == n &&
                std::equal(data, data + n, (*this)[id].begin())) {
                ids_.resize(offset);
                return id;
            }
        }
        FAFNIR_ASSERT(ids_.size() <= kNone && sets_.size() < kNone,
                      "header table full");
        const auto id = static_cast<SetId>(sets_.size());
        const std::uint64_t key =
            (n > 0 ? std::uint64_t{data[0]} << 32 : 0) | (n > 1 ? data[1] : 0);
        sets_.push_back({static_cast<std::uint32_t>(offset),
                         static_cast<std::uint32_t>(n), key, h});
        slots_[slot] = id;
        // At most half full keeps probes short and a free slot in reach.
        if (2 * sets_.size() > slots_.size())
            rehash();
        return id;
    }

    /** Double the slots and reinsert every set. */
    void
    rehash()
    {
        slots_.assign(2 * slots_.size(), kNone);
        const std::size_t mask = slots_.size() - 1;
        for (SetId id = 0; id < sets_.size(); ++id) {
            std::size_t slot = sets_[id].hash & mask;
            while (slots_[slot] != kNone)
                slot = (slot + 1) & mask;
            slots_[slot] = id;
        }
    }

    /** Every set's ids, back to back. */
    std::vector<IndexId> ids_;
    std::vector<Set> sets_;
    /** Open addressing on the hash: a set id or kNone per slot. */
    std::vector<SetId> slots_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_HEADERS_HH
