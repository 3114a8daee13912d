#include "anns/ivf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace ansmet::anns {

IvfIndex::IvfIndex(const VectorSet &vs, Metric m, IvfParams params)
    : vs_(vs), metric_(m)
{
    ANSMET_CHECK(vs.size() > 0, "empty vector set");
    if (params.numClusters == 0) {
        params.numClusters = static_cast<unsigned>(
            std::ceil(std::sqrt(static_cast<double>(vs.size()))));
    }
    params.numClusters = std::min<unsigned>(
        params.numClusters, static_cast<unsigned>(vs.size()));
    kmeans(params);
}

void
IvfIndex::kmeans(const IvfParams &params)
{
    const unsigned d = vs_.dims();
    const std::size_t n = vs_.size();
    const unsigned kc = params.numClusters;
    Prng rng(params.seed);

    // Init: distinct random picks (Forgy).
    centroids_.assign(kc, std::vector<float>(d, 0.0f));
    std::vector<std::size_t> picks;
    while (picks.size() < kc) {
        const std::size_t p = rng.below(n);
        if (std::find(picks.begin(), picks.end(), p) == picks.end())
            picks.push_back(p);
    }
    for (unsigned c = 0; c < kc; ++c)
        vs_.toFloat(static_cast<VectorId>(picks[c]), centroids_[c].data());

    // Assignment is always by L2 (standard even for IP datasets, since
    // our IP data is unit-normalized so L2 ordering == cosine ordering).
    std::vector<unsigned> assign(n, 0);
    std::vector<float> buf(d);

    for (unsigned iter = 0; iter < params.kmeansIters; ++iter) {
        bool changed = false;
        for (std::size_t v = 0; v < n; ++v) {
            vs_.toFloat(static_cast<VectorId>(v), buf.data());
            double best = std::numeric_limits<double>::infinity();
            unsigned best_c = 0;
            for (unsigned c = 0; c < kc; ++c) {
                const double dist = l2Sq(buf.data(), centroids_[c].data(), d);
                if (dist < best) {
                    best = dist;
                    best_c = c;
                }
            }
            if (assign[v] != best_c) {
                assign[v] = best_c;
                changed = true;
            }
        }
        if (!changed)
            break;

        // Update step.
        std::vector<std::vector<double>> sums(kc,
                                              std::vector<double>(d, 0.0));
        std::vector<std::size_t> counts(kc, 0);
        for (std::size_t v = 0; v < n; ++v) {
            vs_.toFloat(static_cast<VectorId>(v), buf.data());
            for (unsigned i = 0; i < d; ++i)
                sums[assign[v]][i] += buf[i];
            ++counts[assign[v]];
        }
        for (unsigned c = 0; c < kc; ++c) {
            if (counts[c] == 0) {
                // Re-seed an empty cluster on a random vector.
                vs_.toFloat(static_cast<VectorId>(rng.below(n)),
                            centroids_[c].data());
                continue;
            }
            for (unsigned i = 0; i < d; ++i)
                centroids_[c][i] = static_cast<float>(
                    sums[c][i] / static_cast<double>(counts[c]));
        }
    }

    lists_.assign(kc, {});
    for (std::size_t v = 0; v < n; ++v)
        lists_[assign[v]].push_back(static_cast<VectorId>(v));
}

std::vector<VectorId>
IvfIndex::search(const float *query, std::size_t k, unsigned nprobe,
                 SearchObserver &obs) const
{
    const unsigned kc = numClusters();
    nprobe = std::min(nprobe, kc);

    // Rank centroids (host-side index work; always by L2, see kmeans()).
    obs.beginStep(StepKind::kCentroidScan,
                  static_cast<std::size_t>(kc) * vs_.dims() * sizeof(float),
                  0);
    std::vector<Neighbor> ranked(kc);
    for (unsigned c = 0; c < kc; ++c) {
        ranked[c] = {l2Sq(query, centroids_[c].data(), vs_.dims()),
                     static_cast<VectorId>(c)};
    }
    std::sort(ranked.begin(), ranked.end());
    obs.onHeapOps(kc);

    // Posting lists are scanned in chunks of 8 comparisons — the
    // QSHR task capacity, i.e. one set-search instruction per chunk —
    // with the threshold refreshed between chunks.
    constexpr std::size_t kChunk = 8;
    ResultSet results(std::max<std::size_t>(k, 1));
    for (unsigned p = 0; p < nprobe; ++p) {
        const auto &members = lists_[ranked[p].id];
        for (std::size_t c0 = 0; c0 < members.size(); c0 += kChunk) {
            const std::size_t c1 = std::min(c0 + kChunk, members.size());
            obs.beginStep(StepKind::kClusterScan,
                          (c1 - c0) * sizeof(VectorId), ranked[p].id);
            const double batch_threshold = results.worst();
            for (std::size_t i = c0; i < c1; ++i) {
                const VectorId v = members[i];
                const double dist = distance(metric_, query, vs_, v);
                const bool accepted = dist < batch_threshold;
                obs.onCompare(v, batch_threshold, dist, accepted);
                if (results.offer({dist, v}))
                    obs.onHeapOps(1);
            }
        }
    }
    return results.topIds(k);
}

} // namespace ansmet::anns
