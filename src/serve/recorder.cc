#include "serve/recorder.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ansmet::serve {

namespace {

/** 1-based nearest rank of the q-quantile (0 < q <= 1) of @p n
 *  samples. */
std::size_t
nearestRank(std::size_t n, double q)
{
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return rank < 1 ? 1 : std::min(rank, n);
}

/** The q-quantile of @p sorted, if kMinBeyondRank samples lie beyond
 *  its rank. */
Quantile
tailQuantile(const std::vector<std::uint64_t> &sorted, double q)
{
    Quantile out;
    out.n = sorted.size();
    const std::size_t rank = nearestRank(out.n, q);
    if (out.n >= rank + kMinBeyondRank)
        out.ps = sorted[rank - 1];
    return out;
}

} // namespace

const char *
phaseName(Phase p)
{
    switch (p) {
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kTraverse: return "traverse";
    case Phase::kOffload: return "offload";
    case Phase::kCompute: return "compute";
    case Phase::kCollect: return "collect";
    case Phase::kTotal: return "total";
    }
    return "?";
}

void
LatencyRecorder::record(Phase phase, std::uint64_t ps)
{
    const auto p = static_cast<unsigned>(phase);
    ANSMET_DCHECK(p < kNumPhases);
    samples_[p].push_back(ps);
}

std::size_t
LatencyRecorder::count(Phase phase) const
{
    return samples_[static_cast<unsigned>(phase)].size();
}

const std::vector<std::uint64_t> &
LatencyRecorder::samples(Phase phase) const
{
    return samples_[static_cast<unsigned>(phase)];
}

std::uint64_t
LatencyRecorder::exactQuantile(Phase phase, double q) const
{
    const auto &s = samples_[static_cast<unsigned>(phase)];
    if (s.empty())
        return 0;
    std::vector<std::uint64_t> sorted(s);
    std::sort(sorted.begin(), sorted.end());
    return sorted[nearestRank(sorted.size(), q) - 1];
}

PhaseSummary
LatencyRecorder::summary(Phase phase) const
{
    const auto &s = samples_[static_cast<unsigned>(phase)];
    PhaseSummary out;
    out.count = s.size();
    std::vector<std::uint64_t> sorted(s);
    std::sort(sorted.begin(), sorted.end());
    out.p50 = tailQuantile(sorted, 0.50);
    out.p99 = tailQuantile(sorted, 0.99);
    out.p999 = tailQuantile(sorted, 0.999);
    if (sorted.empty())
        return out;
    out.max = sorted.back();
    double sum = 0.0;
    for (std::uint64_t v : sorted)
        sum += static_cast<double>(v);
    out.mean = sum / static_cast<double>(sorted.size());
    return out;
}

} // namespace ansmet::serve
