/**
 * @file
 * Early-terminated *exact* search (Section 4.1: "our approach has no
 * accuracy loss, and can even be used in accurate search algorithms
 * like kmeans and kNN").
 *
 * A brute-force kNN scan where each candidate's fetch is cut short as
 * soon as its conservative lower bound crosses the current kth-best
 * distance. The result is bit-identical to the plain scan; only the
 * amount of data touched changes.
 */

#ifndef ANSMET_ET_EXACT_H
#define ANSMET_ET_EXACT_H

#include <cstdint>
#include <vector>

#include "anns/heap.h"
#include "et/fetchsim.h"

namespace ansmet::et {

/** Statistics of one early-terminated exact scan. */
struct ExactScanStats
{
    std::uint64_t linesFetched = 0;
    std::uint64_t linesFull = 0; //!< what a plain scan would fetch
    std::uint64_t terminated = 0;
};

/**
 * Exact kNN with early termination.
 * @param sim a FetchSimulator over the dataset (any lossless scheme)
 * @param stats optional accounting of the data-touch savings
 * @return the exact k nearest neighbors, ascending by distance
 */
std::vector<anns::Neighbor>
exactKnnEt(const FetchSimulator &sim, const float *query, std::size_t k,
           ExactScanStats *stats = nullptr);

/**
 * One k-means assignment pass with early termination: for each vector
 * the candidate centroid's bound check prunes against the best
 * centroid distance so far. Returns the assignment; exact.
 *
 * @param centroids row-major [k x dims]
 */
std::vector<unsigned>
kmeansAssignEt(const anns::VectorSet &vs, anns::Metric metric,
               const std::vector<float> &centroids, unsigned k,
               ExactScanStats *stats = nullptr);

} // namespace ansmet::et

#endif // ANSMET_ET_EXACT_H
