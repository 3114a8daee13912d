#include "layout/partition.h"

#include "common/bitops.h"

namespace ansmet::layout {

Partitioner::Partitioner(const PartitionConfig &cfg, unsigned dims,
                         unsigned bytes_per_dim, std::size_t num_vectors)
    : cfg_(cfg), dims_(dims), bytes_per_dim_(bytes_per_dim),
      num_vectors_(num_vectors), replicated_(num_vectors, false)
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

    // Dimensions per sub-vector: even split over the group. Rounding up
    // can leave fewer sub-vectors than ranks in the group.
    dims_per_sub_ =
        static_cast<unsigned>(divCeil(dims, ranks_per_group_));
    subs_per_vector_ =
        static_cast<unsigned>(divCeil(dims, dims_per_sub_));
}

std::vector<SubVector>
Partitioner::placement(VectorId v, unsigned group) const
{
    ANSMET_CHECK(group < num_groups_);
    std::vector<SubVector> subs;
    subs.reserve(subs_per_vector_);
    for (unsigned i = 0; i < subs_per_vector_; ++i)
        subs.push_back(sub(v, group, i));
    return subs;
}

void
Partitioner::replicate(const std::vector<VectorId> &hot)
{
    for (const VectorId v : hot) {
        ANSMET_CHECK(v < num_vectors_, "replicated vector ", v,
                     " out of range (", num_vectors_, " vectors)");
        if (!replicated_[v]) {
            replicated_[v] = true;
            ++num_replicated_;
        }
    }
}

void
Partitioner::allocateBaseLines(const std::vector<unsigned> &sub_lines)
{
    ANSMET_CHECK(sub_lines.size() == subs_per_vector_);
    base_lines_.assign(num_vectors_ * num_groups_ * subs_per_vector_,
                       kNoCopy);
    // Groups own disjoint ranks, so only the vector order decides each
    // rank's layout; the group order within a vector does not matter.
    std::vector<std::uint64_t> next(cfg_.numRanks, 0);
    for (std::size_t id = 0; id < num_vectors_; ++id) {
        const auto v = static_cast<VectorId>(id);
        const unsigned home = groupOf(v);
        for (unsigned g = 0; g < num_groups_; ++g) {
            if (g != home && !replicated_[id])
                continue;
            for (unsigned i = 0; i < subs_per_vector_; ++i) {
                std::uint64_t &line = next[sub(v, g, i).rank];
                ANSMET_CHECK(line < kNoCopy,
                             "rank-local line address overflows 32 bits");
                base_lines_[copyIndex(v, g) + i] =
                    static_cast<std::uint32_t>(line);
                line += sub_lines[i];
            }
        }
    }
}

} // namespace ansmet::layout
