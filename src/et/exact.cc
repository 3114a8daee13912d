#include "et/exact.h"

#include <limits>

#include "common/check.h"

namespace ansmet::et {

std::vector<anns::Neighbor>
exactKnnEt(const FetchSimulator &sim, const float *query, std::size_t k,
           ExactScanStats *stats)
{
    anns::ResultSet rs(k);
    ExactScanStats local;
    const unsigned full = sim.fullLines();
    const auto n = static_cast<VectorId>(sim.datasetSize());

    for (VectorId v = 0; v < n; ++v) {
        const FetchResult r = sim.simulate(query, v, rs.worst());
        local.linesFetched += r.totalLines();
        local.linesFull += full;
        if (r.terminatedEarly) {
            ++local.terminated;
            continue; // provably outside the current top-k
        }
        rs.offer({r.exactDist, v});
    }

    if (stats) {
        stats->linesFetched += local.linesFetched;
        stats->linesFull += local.linesFull;
        stats->terminated += local.terminated;
    }
    return rs.sorted();
}

std::vector<unsigned>
kmeansAssignEt(const anns::VectorSet &vs, anns::Metric metric,
               const std::vector<float> &centroids, unsigned k,
               ExactScanStats *stats)
{
    ANSMET_CHECK(k > 0 && centroids.size() ==
                              static_cast<std::size_t>(k) * vs.dims());
    const FetchSimulator sim(vs, metric, EtScheme::kHeuristic, nullptr);
    const unsigned full = sim.fullLines();

    std::vector<unsigned> assign(vs.size(), 0);
    ExactScanStats local;

    for (std::size_t v = 0; v < vs.size(); ++v) {
        double best = std::numeric_limits<double>::infinity();
        unsigned best_c = 0;
        for (unsigned c = 0; c < k; ++c) {
            const FetchResult r = sim.simulate(
                centroids.data() + static_cast<std::size_t>(c) * vs.dims(),
                static_cast<VectorId>(v), best);
            local.linesFetched += r.totalLines();
            local.linesFull += full;
            if (r.terminatedEarly) {
                ++local.terminated;
                continue; // provably not the nearest centroid
            }
            if (r.exactDist < best) {
                best = r.exactDist;
                best_c = c;
            }
        }
        assign[v] = best_c;
    }

    if (stats) {
        stats->linesFetched += local.linesFetched;
        stats->linesFull += local.linesFull;
        stats->terminated += local.terminated;
    }
    return assign;
}

} // namespace ansmet::et
