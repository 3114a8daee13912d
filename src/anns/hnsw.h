/**
 * @file
 * Hierarchical Navigable Small World index (Malkov & Yashunin, and
 * Section 2.1 of the ANSMET paper).
 *
 * Build parameters follow the paper's methodology: efConstruction=500
 * and maximum degree 16 by default. Search exposes efSearch (k' in the
 * paper) and reports every comparison through a SearchObserver so the
 * timing layer can replay it.
 *
 * Construction is deterministic batch-parallel insertion over the task
 * runtime. The vertex stream is processed in exponentially growing
 * batches; all candidate searches of a batch run in parallel against
 * the graph frozen at batch start, then edges are applied in insertion
 * order. The resulting graph is a pure function of the seed, identical
 * for any thread count — this is what keeps traces and figures
 * reproducible.
 * Search is thread-safe and lock-free: per-call visited-set scratch
 * comes from an internal pool instead of shared mutable members.
 */

#ifndef ANSMET_ANNS_HNSW_H
#define ANSMET_ANNS_HNSW_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "anns/distance.h"
#include "anns/heap.h"
#include "anns/observer.h"
#include "anns/vector.h"
#include "common/prng.h"

namespace ansmet::anns {

/** HNSW construction parameters. */
struct HnswParams
{
    unsigned m = 16;              //!< max degree on upper layers
    unsigned efConstruction = 500;
    std::uint64_t seed = 42;

    unsigned maxDegree(unsigned level) const { return level == 0 ? 2 * m : m; }
};

/** Graph index over an externally owned VectorSet. */
class HnswIndex
{
  public:
    /**
     * Build the index over @p vs (which must outlive the index).
     * @param m distance metric (kCosine data must be pre-normalized)
     */
    HnswIndex(const VectorSet &vs, Metric m, HnswParams params = {});

    // Out-of-line: members hold pointers to types incomplete here.
    HnswIndex(HnswIndex &&) noexcept;
    ~HnswIndex();

    /**
     * Approximate k-nearest-neighbor search. Safe to call from many
     * threads concurrently (each call draws its own visited-set
     * scratch from a pool).
     * @param ef beam width (k', >= k)
     * @return up to k ids ascending by distance
     */
    std::vector<VectorId> search(const float *query, std::size_t k,
                                 std::size_t ef,
                                 SearchObserver &obs = nullObserver()) const;

    unsigned maxLevel() const { return max_level_; }
    VectorId entryPoint() const { return entry_; }
    Metric metric() const { return metric_; }
    const VectorSet &vectors() const { return vs_; }

    /** Neighbors of @p v at @p level. */
    const std::vector<VectorId> &neighbors(VectorId v, unsigned level) const;

    /** Level of vertex @p v (0 = base only). */
    unsigned levelOf(VectorId v) const
    {
        return static_cast<unsigned>(nodes_[v].links.size()) - 1;
    }

    /** Vertices present at @p level and above (hot-set for replication). */
    std::vector<VectorId> verticesAtLevel(unsigned level) const;

    /** Total adjacency storage in bytes (graph memory footprint). */
    std::size_t graphBytes() const;

    /**
     * Serialize the graph (not the vectors) to a binary stream, so
     * expensive builds can be cached across experiment binaries.
     */
    void save(std::ostream &os) const;

    /**
     * Deserialize a graph previously written by save(). @p vs must be
     * the same vector set the graph was built over.
     */
    static HnswIndex load(std::istream &is, const VectorSet &vs, Metric m,
                          HnswParams params = {});

  private:
    struct LoadTag {};

    /** Internal: construct without building (used by load()). */
    HnswIndex(LoadTag, const VectorSet &vs, Metric m, HnswParams params);

    struct Node
    {
        // links[l] = adjacency at layer l; size() == level + 1.
        std::vector<std::vector<VectorId>> links;
    };

    /** Per-search visited-set scratch (tag array + epoch counter). */
    struct VisitScratch
    {
        std::vector<std::uint32_t> tag;
        std::uint32_t epoch = 0;
        // Neighbor-expansion staging for the batched distance kernel;
        // kept here so expansion allocates nothing per step.
        std::vector<VectorId> batchIds;
        std::vector<double> batchDist;
    };

    /** Pool of VisitScratch instances for concurrent searches. */
    class ScratchPool;

    /** RAII lease of one VisitScratch from the pool. */
    class ScratchLease;

    /** Neighbor lists selected for one vertex, per level (0..top). */
    struct InsertPlan
    {
        std::vector<std::vector<VectorId>> selected;
    };

    unsigned randomLevel(Prng &rng) const;

    double
    dist(const float *q, VectorId v) const
    {
        return distance(metric_, q, vs_, v);
    }

    /**
     * Beam search within one layer from @p entry.
     * @param vis per-call visited scratch
     * @return candidates found, ascending by distance (up to ef).
     */
    std::vector<Neighbor> searchLayer(const float *q, Neighbor entry,
                                      std::size_t ef, unsigned level,
                                      SearchObserver *obs,
                                      VisitScratch &vis) const;

    /** HNSW Algorithm 4 neighbor selection (heuristic with pruning). */
    std::vector<VectorId> selectNeighbors(const float *q,
                                          std::vector<Neighbor> candidates,
                                          unsigned m_target) const;

    /** Per-vertex levels drawn from seed-derived per-vertex streams. */
    std::vector<unsigned> drawLevels() const;

    /** Candidate selection for @p v against the current (frozen) graph. */
    InsertPlan planInsert(VectorId v, unsigned level,
                          VisitScratch &vis) const;

    void buildOrdered(const std::vector<unsigned> &levels);

    void shrink(VectorId v, unsigned level);

    const VectorSet &vs_;
    Metric metric_;
    HnswParams params_;
    double level_mult_;
    std::vector<Node> nodes_;
    VectorId entry_ = kInvalidVector;
    unsigned max_level_ = 0;

    // Search scratch pool; mutable because search is logically const.
    mutable std::unique_ptr<ScratchPool> scratch_;
};

} // namespace ansmet::anns

#endif // ANSMET_ANNS_HNSW_H
