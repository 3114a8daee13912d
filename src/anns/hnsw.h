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
 *
 * Search is thread-safe and lock-free: the index is immutable once
 * built, and each thread keeps one visited-set scratch of its own
 * (thread_local, grown to the largest index it has searched). A search
 * must not start another on the same thread — a SearchObserver calling
 * search() panics instead of corrupting the caller's visited set.
 */

#ifndef ANSMET_ANNS_HNSW_H
#define ANSMET_ANNS_HNSW_H

#include <cstdint>
#include <iosfwd>
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

    /**
     * Approximate k-nearest-neighbor search. Safe to call from many
     * threads concurrently (each uses its own thread's visited-set
     * scratch); @p obs must not search on the calling thread.
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

    /**
     * Serialize the graph (not the vectors) to a binary stream, so
     * expensive builds can be cached across experiment binaries.
     */
    void save(std::ostream &os) const;

    /**
     * Deserialize a graph previously written by save(). @p vs must be
     * the same vector set the graph was built over, and @p params the
     * parameters it was built with. The stream is untrusted: a graph
     * that is truncated, has trailing bytes, or breaks a structural
     * invariant (entry point, level counts, degree caps, neighbor ids)
     * panics before anything is sized from it.
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

    /**
     * Per-thread scratch: the visited set (tag array + epoch counter)
     * and the staging buffers that keep search and build from
     * allocating per step.
     */
    struct VisitScratch
    {
        std::vector<std::uint32_t> tag;
        std::uint32_t epoch = 0;
        // Neighbor-expansion staging for the batched distance kernel.
        std::vector<VectorId> batchIds;
        std::vector<double> batchDist;
        // Build-time decodes: the vertex being inserted or shrunk, and
        // the candidate selectNeighbors() tests while it is decoded.
        std::vector<float> vertex;
        std::vector<float> cand;
        bool inUse = false; //!< a search or build chunk holds it
    };

    /** RAII claim on the calling thread's VisitScratch (hnsw.cc). */
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

    /**
     * HNSW Algorithm 4 neighbor selection (heuristic with pruning).
     * Decodes candidates into @p s.cand, so the caller's vertex may
     * sit in @p s.vertex.
     */
    std::vector<VectorId> selectNeighbors(std::vector<Neighbor> candidates,
                                          unsigned m_target,
                                          VisitScratch &s) const;

    /** Per-vertex levels drawn from seed-derived per-vertex streams. */
    std::vector<unsigned> drawLevels() const;

    /** Candidate selection for @p v against the current (frozen) graph. */
    InsertPlan planInsert(VectorId v, unsigned level,
                          VisitScratch &vis) const;

    void buildOrdered(const std::vector<unsigned> &levels);

    void shrink(VectorId v, unsigned level, VisitScratch &s);

    const VectorSet &vs_;
    Metric metric_;
    HnswParams params_;
    double level_mult_;
    std::vector<Node> nodes_;
    VectorId entry_ = kInvalidVector;
    unsigned max_level_ = 0;
};

} // namespace ansmet::anns

#endif // ANSMET_ANNS_HNSW_H
