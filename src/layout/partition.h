/**
 * @file
 * Hybrid vertical/horizontal partitioning of vector data across DRAM
 * ranks (Section 5.3 of the paper).
 *
 * A single knob — the sub-vector size S — spans the whole space:
 * S = 64 B is pure vertical partitioning (every rank holds a slice of
 * every vector), S >= vector size is pure horizontal (each vector
 * lives entirely in one rank), and intermediate values form rank
 * groups of ceil(vectorBytes / S) ranks. Vectors hash across groups;
 * hot vectors (HNSW top layers, IVF centroids) can be replicated to
 * every group to fight load imbalance.
 *
 * Each copy's rank-local base line lives in one dense table, filled
 * once after replicate(): the replay looks a copy up by index, with
 * no per-copy allocation and no hashing.
 */

#ifndef ANSMET_LAYOUT_PARTITION_H
#define ANSMET_LAYOUT_PARTITION_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace ansmet::layout {

/** Partitioning configuration. */
struct PartitionConfig
{
    unsigned numRanks = 32;
    unsigned subVectorBytes = 1024; //!< S; the paper's best is 1 kB

    /** Pure vertical = minimum sub-vector (one 64 B line). */
    static PartitionConfig
    vertical(unsigned ranks)
    {
        return {ranks, kLineBytes};
    }

    /** Pure horizontal = whole vector per rank. */
    static PartitionConfig
    horizontal(unsigned ranks)
    {
        return {ranks, ~0u};
    }

    static PartitionConfig
    hybrid(unsigned ranks, unsigned s)
    {
        return {ranks, s};
    }
};

/** One dimension-slice of a vector mapped to a rank. */
struct SubVector
{
    unsigned rank;
    unsigned dimBegin;
    unsigned dimEnd; //!< exclusive
};

/** Static data placement across ranks. */
class Partitioner
{
  public:
    /**
     * @param dims vector dimensionality
     * @param bytes_per_dim storage bytes of one element
     */
    Partitioner(const PartitionConfig &cfg, unsigned dims,
                unsigned bytes_per_dim, std::size_t num_vectors);

    /** Ranks cooperating on one vector. */
    unsigned ranksPerGroup() const { return ranks_per_group_; }

    /** Number of independent rank groups. */
    unsigned numGroups() const { return num_groups_; }

    /** Home group of @p v. */
    unsigned
    groupOf(VectorId v) const
    {
        // Multiplicative hash so consecutive ids spread across groups.
        return static_cast<unsigned>(
            (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ull >> 32) %
            num_groups_);
    }

    /** Sub-vectors per vector (at most ranksPerGroup()). */
    unsigned subsPerVector() const { return subs_per_vector_; }

    /**
     * Rank and dimension range of sub-vector @p i of @p v within group
     * @p group (its home group unless the vector is replicated and the
     * caller picked another group).
     */
    SubVector
    sub(VectorId v, unsigned group, unsigned i) const
    {
        ANSMET_DCHECK(group < num_groups_ && i < subs_per_vector_);
        const unsigned begin = i * dims_per_sub_;
        // Rotate the starting rank by vector id so single sub-vector
        // vectors spread across the ranks of the group.
        return {group * ranks_per_group_ +
                    (i + static_cast<unsigned>(v)) % ranks_per_group_,
                begin, std::min(begin + dims_per_sub_, dims_)};
    }

    /** All sub-vectors of @p v within group @p group, in order. */
    std::vector<SubVector> placement(VectorId v, unsigned group) const;

    std::vector<SubVector>
    placement(VectorId v) const
    {
        return placement(v, groupOf(v));
    }

    /** Mark @p hot vectors as replicated to every group. */
    void replicate(const std::vector<VectorId> &hot);

    bool
    isReplicated(VectorId v) const
    {
        ANSMET_DCHECK(v < num_vectors_);
        return replicated_[v];
    }

    std::size_t numReplicated() const { return num_replicated_; }

    /** Replicated bytes across all extra copies. */
    std::uint64_t
    replicationBytes() const
    {
        return static_cast<std::uint64_t>(num_replicated_) *
               (num_groups_ - 1) * dims_ * bytes_per_dim_;
    }

    /**
     * Allocate every copy's rank-local lines; call once, after
     * replicate(). Sub-vector i of a copy takes @p sub_lines[i] lines
     * of its rank, and each rank stacks its sub-vectors in vector id
     * order.
     */
    void allocateBaseLines(const std::vector<unsigned> &sub_lines);

    /** First rank-local line of sub-vector @p i of @p v's copy in
     *  @p group; fatal if @p v has no copy there. */
    std::uint32_t
    baseLine(VectorId v, unsigned group, unsigned i) const
    {
        ANSMET_DCHECK(v < num_vectors_ && group < num_groups_ &&
                      i < subs_per_vector_);
        const std::uint32_t line = base_lines_[copyIndex(v, group) + i];
        ANSMET_CHECK(line != kNoCopy,
                     "no replica of vector in requested group");
        return line;
    }

    unsigned dims() const { return dims_; }
    unsigned numRanks() const { return cfg_.numRanks; }

  private:
    /** baseLine() entry of a copy that does not exist. */
    static constexpr std::uint32_t kNoCopy = ~std::uint32_t{0};

    /** base_lines_ index of sub-vector 0 of @p v's copy in @p group. */
    std::size_t
    copyIndex(VectorId v, unsigned group) const
    {
        return (static_cast<std::size_t>(v) * num_groups_ + group) *
               subs_per_vector_;
    }

    PartitionConfig cfg_;
    unsigned dims_;
    unsigned bytes_per_dim_;
    std::size_t num_vectors_;
    unsigned dims_per_sub_;
    unsigned ranks_per_group_;
    unsigned num_groups_;
    unsigned subs_per_vector_;
    std::vector<bool> replicated_; //!< per vector id
    std::size_t num_replicated_ = 0;
    std::vector<std::uint32_t> base_lines_; //!< [copyIndex() + i]
};

/** Load-imbalance accounting: max-over-ranks vs average. */
class LoadTracker
{
  public:
    explicit LoadTracker(unsigned num_ranks) : load_(num_ranks, 0) {}

    void add(unsigned rank, std::uint64_t lines) { load_[rank] += lines; }

    std::uint64_t load(unsigned rank) const { return load_[rank]; }

    /** max(load) / mean(load); 1.0 = perfectly balanced. */
    double
    imbalanceRatio() const
    {
        std::uint64_t max = 0, sum = 0;
        for (const auto l : load_) {
            max = std::max(max, l);
            sum += l;
        }
        if (sum == 0)
            return 1.0;
        const double mean =
            static_cast<double>(sum) / static_cast<double>(load_.size());
        return static_cast<double>(max) / mean;
    }

  private:
    std::vector<std::uint64_t> load_;
};

} // namespace ansmet::layout

#endif // ANSMET_LAYOUT_PARTITION_H
