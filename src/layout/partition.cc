#include "layout/partition.h"

#include <algorithm>

#include "common/bitops.h"

namespace ansmet::layout {

Partitioner::Partitioner(const PartitionConfig &cfg, unsigned dims,
                         unsigned bytes_per_dim, std::size_t num_vectors)
    : cfg_(cfg), dims_(dims), bytes_per_dim_(bytes_per_dim),
      num_vectors_(num_vectors)
{
    ANSMET_CHECK(cfg.numRanks >= 1 && dims >= 1 && bytes_per_dim >= 1);

    const std::uint64_t vector_bytes =
        static_cast<std::uint64_t>(dims) * bytes_per_dim;
    const std::uint64_t s =
        std::max<std::uint64_t>(cfg.subVectorBytes, kLineBytes);

    ranks_per_group_ = static_cast<unsigned>(
        std::min<std::uint64_t>(divCeil(vector_bytes, s), cfg.numRanks));
    ranks_per_group_ = std::max(1u, ranks_per_group_);
    num_groups_ = std::max(1u, cfg.numRanks / ranks_per_group_);

    // Dimensions per sub-vector: even split over the group.
    dims_per_sub_ =
        static_cast<unsigned>(divCeil(dims, ranks_per_group_));
}

std::vector<SubVector>
Partitioner::placement(VectorId v, unsigned group) const
{
    ANSMET_CHECK(group < num_groups_);
    std::vector<SubVector> subs;
    const unsigned base_rank = group * ranks_per_group_;

    unsigned d = 0;
    unsigned i = 0;
    while (d < dims_) {
        const unsigned end = std::min(d + dims_per_sub_, dims_);
        // Rotate the starting rank by vector id so single sub-vector
        // vectors spread across the ranks of the group.
        const unsigned rank =
            base_rank + (i + static_cast<unsigned>(v)) % ranks_per_group_;
        subs.push_back({rank, d, end});
        d = end;
        ++i;
    }
    return subs;
}

} // namespace ansmet::layout
