/**
 * @file
 * The per-copy placement allocator, kept as an executable
 * specification of layout::Partitioner::allocateBaseLines: every
 * vector's home placement is its own std::vector, every replica's lives
 * in a hash map keyed by (vector, group), and sub-vectors are found by
 * walking the dimensions one rank-group slice at a time.
 *
 * The production partitioner computes sub-vectors arithmetically and
 * keeps all base lines in one dense table; tests/test_partition.cc
 * runs both side by side and asserts the same rank, dimension range
 * and base line for every (vector, group, sub-vector). Do not optimize
 * this code; its value is being the obviously-correct definition of
 * the allocation order.
 */

#ifndef ANSMET_TESTS_REFERENCE_PLACEMENT_H
#define ANSMET_TESTS_REFERENCE_PLACEMENT_H

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bitops.h"
#include "common/check.h"
#include "layout/partition.h"

namespace ansmet::layout::test {

/** One sub-vector of one copy, with its allocated base line. */
struct ReferencePlace
{
    unsigned rank;
    unsigned dimBegin;
    unsigned dimEnd;
    std::uint64_t baseLine;
};

class ReferencePlacement
{
  public:
    /**
     * @param part supplies only the group shape (groupOf, numGroups,
     *        ranksPerGroup, dims, numRanks)
     * @param sub_lines lines of the i-th sub-vector of every copy
     */
    ReferencePlacement(const Partitioner &part, std::size_t num_vectors,
                       const std::vector<VectorId> &hot,
                       const std::vector<unsigned> &sub_lines)
        : part_(part), hot_(hot.begin(), hot.end())
    {
        std::vector<std::uint64_t> rank_alloc(part.numRanks(), 0);
        const auto allocate = [&](VectorId id, unsigned g) {
            std::vector<ReferencePlace> out;
            const auto subs = walk(id, g);
            for (std::size_t i = 0; i < subs.size(); ++i) {
                const SubVector &s = subs[i];
                out.push_back(ReferencePlace{s.rank, s.dimBegin, s.dimEnd,
                                             rank_alloc[s.rank]});
                rank_alloc[s.rank] += sub_lines.at(i);
            }
            return out;
        };

        home_place_.resize(num_vectors);
        for (std::size_t v = 0; v < num_vectors; ++v) {
            const auto id = static_cast<VectorId>(v);
            const unsigned home = part.groupOf(id);
            home_place_[v] = allocate(id, home);
            if (hot_.count(id) == 0)
                continue;
            for (unsigned g = 0; g < part.numGroups(); ++g) {
                if (g != home)
                    replica_place_[key(id, g)] = allocate(id, g);
            }
        }
    }

    /** The copy of @p v in @p group; fatal if there is none. */
    const std::vector<ReferencePlace> &
    placeOf(VectorId v, unsigned group) const
    {
        if (group == part_.groupOf(v))
            return home_place_[v];
        const auto it = replica_place_.find(key(v, group));
        ANSMET_CHECK(it != replica_place_.end(),
                     "no replica of vector in requested group");
        return it->second;
    }

  private:
    static std::uint64_t
    key(VectorId v, unsigned group)
    {
        return (static_cast<std::uint64_t>(v) << 8) | group;
    }

    /** Sub-vectors of @p v in @p group, one dimension slice at a time. */
    std::vector<SubVector>
    walk(VectorId v, unsigned group) const
    {
        const unsigned dims = part_.dims();
        const unsigned rpg = part_.ranksPerGroup();
        const auto per_sub = static_cast<unsigned>(divCeil(dims, rpg));
        std::vector<SubVector> subs;
        unsigned d = 0;
        unsigned i = 0;
        while (d < dims) {
            const unsigned end = std::min(d + per_sub, dims);
            const unsigned rank =
                group * rpg + (i + static_cast<unsigned>(v)) % rpg;
            subs.push_back({rank, d, end});
            d = end;
            ++i;
        }
        return subs;
    }

    const Partitioner &part_;
    std::unordered_set<VectorId> hot_;
    std::vector<std::vector<ReferencePlace>> home_place_;
    std::unordered_map<std::uint64_t, std::vector<ReferencePlace>>
        replica_place_;
};

} // namespace ansmet::layout::test

#endif // ANSMET_TESTS_REFERENCE_PLACEMENT_H
