/**
 * @file
 * Exact k-nearest-neighbor search by linear scan, used as ground truth
 * for recall measurements and in tests.
 */

#ifndef ANSMET_ANNS_BRUTEFORCE_H
#define ANSMET_ANNS_BRUTEFORCE_H

#include <vector>

#include "anns/distance.h"
#include "anns/heap.h"
#include "anns/vector.h"

namespace ansmet::anns {

/** Exact k nearest neighbors of @p query, ascending by distance. */
std::vector<Neighbor> bruteForceKnn(Metric m, const float *query,
                                    const VectorSet &vs, std::size_t k);

/** Ground truth for a batch of queries. */
std::vector<std::vector<Neighbor>>
bruteForceAll(Metric m, const std::vector<std::vector<float>> &queries,
              const VectorSet &vs, std::size_t k);

/**
 * recall@k: fraction of the exact k nearest neighbors present in
 * @p result (the paper's accuracy metric, Figure 8).
 */
double recallAtK(const std::vector<VectorId> &result,
                 const std::vector<Neighbor> &ground_truth, std::size_t k);

} // namespace ansmet::anns

#endif // ANSMET_ANNS_BRUTEFORCE_H
