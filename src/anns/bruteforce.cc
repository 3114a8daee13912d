#include "anns/bruteforce.h"

#include <algorithm>

#include "common/check.h"
#include "common/runtime/runtime.h"

namespace ansmet::anns {

std::vector<Neighbor>
bruteForceKnn(Metric m, const float *query, const VectorSet &vs,
              std::size_t k)
{
    // Chunked through the batched distance kernel: one dispatch per
    // block instead of one per vector, with next-row prefetch inside
    // the kernel. Offers happen per block, so results match the
    // one-at-a-time loop exactly.
    constexpr std::size_t kChunk = 256;
    VectorId ids[kChunk];
    double dist[kChunk];

    ResultSet rs(k);
    const std::size_t n = vs.size();
    for (std::size_t base = 0; base < n; base += kChunk) {
        const std::size_t m_block = std::min(kChunk, n - base);
        for (std::size_t i = 0; i < m_block; ++i)
            ids[i] = static_cast<VectorId>(base + i);
        distanceBatch(m, query, vs, ids, m_block, dist);
        for (std::size_t i = 0; i < m_block; ++i)
            rs.offer({dist[i], ids[i]});
    }
    return rs.sorted();
}

std::vector<std::vector<Neighbor>>
bruteForceAll(Metric m, const std::vector<std::vector<float>> &queries,
              const VectorSet &vs, std::size_t k)
{
    // Embarrassingly parallel over queries; each slot is written by
    // exactly one iteration, so the result matches a serial run.
    std::vector<std::vector<Neighbor>> out(queries.size());
    runtime::parallelFor(0, queries.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t q = lo; q < hi; ++q)
            out[q] = bruteForceKnn(m, queries[q].data(), vs, k);
    });
    return out;
}

double
recallAtK(const std::vector<VectorId> &result,
          const std::vector<Neighbor> &ground_truth, std::size_t k)
{
    ANSMET_CHECK(!ground_truth.empty());
    const std::size_t kk = std::min(k, ground_truth.size());
    std::size_t hits = 0;
    for (std::size_t i = 0; i < kk; ++i) {
        const VectorId want = ground_truth[i].id;
        for (std::size_t j = 0; j < result.size() && j < k; ++j) {
            if (result[j] == want) {
                ++hits;
                break;
            }
        }
    }
    return static_cast<double>(hits) / static_cast<double>(kk);
}

} // namespace ansmet::anns
