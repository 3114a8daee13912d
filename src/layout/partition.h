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
 */

#ifndef ANSMET_LAYOUT_PARTITION_H
#define ANSMET_LAYOUT_PARTITION_H

#include <cstdint>
#include <unordered_set>
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

    /**
     * Placement of @p v within group @p group (its home group unless
     * the vector is replicated and the caller picked another group).
     */
    std::vector<SubVector> placement(VectorId v, unsigned group) const;

    std::vector<SubVector>
    placement(VectorId v) const
    {
        return placement(v, groupOf(v));
    }

    /** Mark @p hot vectors as replicated to every group. */
    void
    replicate(const std::vector<VectorId> &hot)
    {
        replicated_.insert(hot.begin(), hot.end());
    }

    bool
    isReplicated(VectorId v) const
    {
        return replicated_.count(v) != 0;
    }

    std::size_t numReplicated() const { return replicated_.size(); }

    /** Replicated bytes across all extra copies. */
    std::uint64_t
    replicationBytes() const
    {
        return static_cast<std::uint64_t>(replicated_.size()) *
               (num_groups_ - 1) * dims_ * bytes_per_dim_;
    }

    unsigned dims() const { return dims_; }
    unsigned numRanks() const { return cfg_.numRanks; }

  private:
    PartitionConfig cfg_;
    unsigned dims_;
    unsigned bytes_per_dim_;
    std::size_t num_vectors_;
    unsigned dims_per_sub_;
    unsigned ranks_per_group_;
    unsigned num_groups_;
    std::unordered_set<VectorId> replicated_;
};

/** Load-imbalance accounting: max-over-ranks vs average. */
class LoadTracker
{
  public:
    explicit LoadTracker(unsigned num_ranks) : load_(num_ranks, 0) {}

    void add(unsigned rank, std::uint64_t lines) { load_[rank] += lines; }

    std::uint64_t load(unsigned rank) const { return load_[rank]; }

    /** The rank with the smallest accumulated load among @p ranks. */
    unsigned
    leastLoaded(const std::vector<unsigned> &ranks) const
    {
        ANSMET_CHECK(!ranks.empty());
        unsigned best = ranks[0];
        for (const unsigned r : ranks)
            if (load_[r] < load_[best])
                best = r;
        return best;
    }

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
