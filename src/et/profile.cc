#include "et/profile.h"

#include <algorithm>
#include <cmath>

#include "anns/kernels.h"
#include "common/check.h"
#include "common/prng.h"
#include "et/bounds.h"

namespace ansmet::et {

namespace {

/** Sample pairwise distances; return the percentile threshold. */
double
sampleThreshold(const anns::VectorSet &vs, anns::Metric metric,
                const std::vector<VectorId> &sample, double percentile)
{
    std::vector<double> dists;
    std::vector<float> buf(vs.dims());
    for (std::size_t i = 0; i < sample.size(); ++i) {
        vs.toFloat(sample[i], buf.data());
        for (std::size_t j = 0; j < sample.size(); ++j) {
            if (i == j)
                continue;
            dists.push_back(
                anns::distance(metric, buf.data(), vs, sample[j]));
        }
    }
    ANSMET_CHECK(!dists.empty());
    std::sort(dists.begin(), dists.end());
    auto idx = static_cast<std::size_t>(
        percentile * static_cast<double>(dists.size()));
    idx = std::min(idx, dists.size() - 1);
    return dists[idx];
}

/**
 * pET of one (query, vector) pair: the smallest uniform per-element
 * prefix length whose bound exceeds the threshold; W+1 if none.
 * @p keys holds the vector's @p d sortable keys.
 */
unsigned
etPosition(ScalarType type, unsigned d, anns::Metric metric, const float *q,
           const std::uint32_t *keys, double threshold,
           ValueInterval global_range, BoundScratch &s)
{
    const unsigned w = keyBits(type);
    s.acc.reset(metric, q, d, global_range);

    // One batched kernel pass per prefix length: stage every
    // dimension's refined interval, then tighten them all at once.
    const anns::PrefixIntervalsFn stage =
        anns::kernels().prefixIntervals[anns::typeIndex(type)];
    for (unsigned len = 1; len <= w; ++len) {
        stage(keys, d, len, s.nlo.data(), s.nhi.data());
        s.acc.updateBatch(0, d, s.nlo.data(), s.nhi.data());
        if (s.acc.lowerBound() >= threshold)
            return len;
    }
    return w + 1;
}

} // namespace

std::uint64_t
planCostLines(const FetchPlanSpec &plan, unsigned p_et, unsigned key_width)
{
    if (p_et > key_width)
        return plan.totalLines();
    std::uint64_t lines = 0;
    for (unsigned l = 0; l < plan.levels(); ++l) {
        lines += plan.linesInLevel(l);
        if (plan.knownBitsAfterLevel(l) >= p_et)
            return lines;
    }
    return lines;
}

DualParams
optimizeDual(const std::vector<unsigned> &et_positions, unsigned key_width,
             unsigned prefix_len, unsigned dims)
{
    ANSMET_CHECK(prefix_len < key_width);
    const unsigned payload = key_width - prefix_len;

    static const unsigned kCoarse[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32};
    static const unsigned kFine[] = {1, 2, 3, 4, 6, 8};

    // The key-bit position histogram lets each candidate plan be
    // costed in O(W) instead of O(#samples).
    std::vector<std::uint64_t> at(key_width + 2, 0);
    for (const unsigned p : et_positions)
        ++at[std::min<unsigned>(p, key_width + 1)];

    // Dummy scalar type of the right width for plan construction.
    const ScalarType t = key_width == 8
                             ? ScalarType::kUint8
                             : (key_width == 16 ? ScalarType::kFp16
                                                : ScalarType::kFp32);
    const bool meta = prefix_len > 0;

    DualParams best{std::min(payload, 8u), 0, std::min(payload, 4u)};
    std::uint64_t best_cost = ~std::uint64_t{0};

    for (const unsigned nc : kCoarse) {
        if (nc > payload)
            continue;
        const unsigned max_tc =
            static_cast<unsigned>(divCeil(payload, nc));
        for (const unsigned nf : kFine) {
            if (nf > nc)
                continue;
            for (unsigned tc = 0; tc <= max_tc; ++tc) {
                // tc == max_tc with nf unused is the "uniform nc" plan.
                const DualParams dp{nc, tc, nf};
                const FetchPlanSpec plan = FetchPlanSpec::dual(
                    t, dims, prefix_len, nc, tc, nf, meta);
                std::uint64_t cost = 0;
                for (unsigned p = 1; p <= key_width + 1; ++p) {
                    if (at[p])
                        cost += at[p] * planCostLines(plan, p, key_width);
                }
                if (cost < best_cost) {
                    best_cost = cost;
                    best = dp;
                }
            }
        }
    }
    return best;
}

double
klDivergence(const std::vector<double> &p, const std::vector<double> &q,
             double eps)
{
    const std::size_t n = std::max(p.size(), q.size());
    double kl = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double pi = (i < p.size() ? p[i] : 0.0) + eps;
        const double qi = (i < q.size() ? q[i] : 0.0) + eps;
        kl += pi * std::log(pi / qi);
    }
    return kl;
}

ValueInterval
globalValueRange(const anns::VectorSet &vs)
{
    ANSMET_CHECK(vs.size() >= 1,
                 "globalValueRange needs at least one vector");
    double lo = vs.at(0, 0), hi = lo;
    std::vector<float> buf(vs.dims());
    for (std::size_t v = 0; v < vs.size(); ++v) {
        vs.toFloat(static_cast<VectorId>(v), buf.data());
        for (const double x : buf) {
            lo = std::min(lo, x);
            hi = std::max(hi, x);
        }
    }
    return {lo, hi};
}

std::vector<double>
prefixEntropy(const std::vector<std::uint32_t> &keys, unsigned key_width)
{
    ANSMET_CHECK(key_width >= 1 && key_width <= 32);
    // Sorted run-length counting: summation order is ascending prefix
    // value, so the floating-point entropy sum is schedule- and
    // hash-independent (iterating an unordered_map here would make the
    // sum depend on bucket order). Truncating sorted keys keeps them
    // sorted, so one sort serves every prefix length, and each
    // length's runs come out in the same ascending order.
    std::vector<std::uint32_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> entropy(key_width);
    for (unsigned len = 1; len <= key_width; ++len) {
        const unsigned shift = key_width - len;
        double h = 0.0;
        for (std::size_t i = 0; i < sorted.size();) {
            const std::uint32_t prefix = sorted[i] >> shift;
            std::size_t j = i + 1;
            while (j < sorted.size() && (sorted[j] >> shift) == prefix)
                ++j;
            const double p = static_cast<double>(j - i) /
                             static_cast<double>(sorted.size());
            h -= p * std::log2(p);
            i = j;
        }
        entropy[len - 1] = h; // raw entropy in bits
    }
    return entropy;
}

EtProfile
buildProfile(const anns::VectorSet &vs, anns::Metric metric,
             const ProfileConfig &cfg)
{
    ANSMET_CHECK(vs.size() >= 2, "buildProfile needs at least 2 vectors, "
                 "got ", vs.size());
    ANSMET_CHECK(cfg.numSamples >= 2, "buildProfile needs numSamples >= 2, "
                 "got ", cfg.numSamples);
    EtProfile prof;
    prof.type = vs.type();
    prof.metric = metric;
    prof.dims = vs.dims();
    const unsigned w = keyBits(vs.type());

    // Global element value range over the full set (needed for a sound
    // IP bound on unfetched dimensions).
    prof.globalRange = globalValueRange(vs);

    // Sample vectors.
    Prng rng(cfg.seed);
    const std::size_t ns = std::min(cfg.numSamples, vs.size());
    std::vector<VectorId> sample;
    while (sample.size() < ns) {
        const auto v = static_cast<VectorId>(rng.below(vs.size()));
        if (std::find(sample.begin(), sample.end(), v) == sample.end())
            sample.push_back(v);
    }

    prof.threshold = sampleThreshold(vs, metric, sample,
                                     cfg.thresholdPercentile);

    // The sample's sortable keys, sample-major: the entropy pass, the
    // ET-position walk and the common-prefix search all read them.
    std::vector<std::uint32_t> keys;
    keys.reserve(sample.size() * vs.dims());
    for (const VectorId v : sample)
        for (unsigned d = 0; d < vs.dims(); ++d)
            keys.push_back(toKey(vs.type(), vs.bitsAt(v, d)));

    // Prefix entropy per length (Figure 3, blue curve).
    prof.prefixEntropy = prefixEntropy(keys, w);

    // ET positions over sampled (query, vector) pairs (Figure 3, red).
    std::vector<float> qbuf(vs.dims());
    BoundScratch scratch;
    scratch.arm(vs.dims());
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < sample.size() && pairs < cfg.maxPairs; ++i) {
        vs.toFloat(sample[i], qbuf.data());
        for (std::size_t j = 0; j < sample.size() && pairs < cfg.maxPairs;
             ++j) {
            if (i == j)
                continue;
            prof.etPositions.push_back(etPosition(
                vs.type(), vs.dims(), metric, qbuf.data(),
                keys.data() + j * vs.dims(), prof.threshold,
                prof.globalRange, scratch));
            ++pairs;
        }
    }

    prof.etFrequency.assign(w, 0.0);
    for (const unsigned p : prof.etPositions)
        if (p <= w)
            prof.etFrequency[p - 1] += 1.0;
    for (auto &f : prof.etFrequency)
        f /= static_cast<double>(prof.etPositions.size());

    // Common prefix from the sample.
    prof.commonPrefix = findCommonPrefix(vs.type(), keys, cfg.outlierFrac);

    // Dual-granularity parameters, with and without elimination.
    prof.dualNoPrefix = optimizeDual(prof.etPositions, w, 0, vs.dims());
    prof.dualWithPrefix = optimizeDual(prof.etPositions, w,
                                       prof.commonPrefix.length, vs.dims());

    // Fetch-count distribution under the ETOpt plan (for polling).
    const FetchPlanSpec plan = FetchPlanSpec::dual(
        vs.type(), vs.dims(), prof.commonPrefix.length,
        prof.dualWithPrefix.nc, prof.dualWithPrefix.tc,
        prof.dualWithPrefix.nf, prof.commonPrefix.length > 0);
    const unsigned max_lines = plan.totalLines();
    prof.fetchCountDist.assign(max_lines + 1, 0.0);
    for (const unsigned p : prof.etPositions) {
        const auto lines = static_cast<std::size_t>(
            std::min<std::uint64_t>(planCostLines(plan, p, w), max_lines));
        prof.fetchCountDist[lines] += 1.0;
    }
    for (auto &f : prof.fetchCountDist)
        f /= static_cast<double>(prof.etPositions.size());

    return prof;
}

} // namespace ansmet::et
