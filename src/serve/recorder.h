/**
 * @file
 * Per-phase latency recorder for the serving engine.
 *
 * Every completed query contributes one sample per phase (queue wait,
 * traverse, offload, compute, collect, end-to-end total). The recorder
 * keeps every raw sample, so its quantiles are *exact* nearest-rank
 * ones: the p50/p99/p999/max the bench reports and CI gates on carry
 * no bucketing error, and a quantile too few samples support is
 * reported as unavailable rather than as the maximum in disguise.
 *
 * The recorder is driven only from simulation callbacks (one thread);
 * it is not thread-safe and does not need to be.
 */

#ifndef ANSMET_SERVE_RECORDER_H
#define ANSMET_SERVE_RECORDER_H

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

namespace ansmet::serve {

/** Latency phases of one served query. */
enum class Phase : unsigned
{
    kQueueWait = 0, //!< arrival (enqueue) to admission on a slot
    kTraverse,      //!< index reads + step overhead + heap ops
    kOffload,       //!< NDP instruction transfer
    kCompute,       //!< distance comparison (CPU or NDP)
    kCollect,       //!< result polling / collection
    kTotal,         //!< arrival to completion (queue wait included)
};

constexpr unsigned kNumPhases = 6;

const char *phaseName(Phase p);

/**
 * Samples a quantile needs beyond its nearest rank before summary()
 * reports it (perfbench/quantiles.py applies the same rule): a p50
 * needs 20 samples, a p99 1000 and a p999 10,000. With fewer, the
 * quantile is one of the few largest samples, not a tail estimate.
 */
constexpr std::size_t kMinBeyondRank = 10;

/** One nearest-rank quantile and the sample count behind it. */
struct Quantile
{
    std::optional<std::uint64_t> ps; //!< empty when n cannot support it
    std::size_t n = 0;
};

/** Order statistics of one phase's samples, in picoseconds. */
struct PhaseSummary
{
    std::size_t count = 0;
    Quantile p50;
    Quantile p99;
    Quantile p999;
    std::uint64_t max = 0;
    double mean = 0.0;
};

class LatencyRecorder
{
  public:
    /** Record one @p ps sample for @p phase. */
    void record(Phase phase, std::uint64_t ps);

    /** Samples recorded for @p phase so far. */
    std::size_t count(Phase phase) const;

    /**
     * Exact q-quantile (0 < q <= 1) of @p phase by nearest rank:
     * sorted[ceil(q * n) - 1]. 0 when no samples.
     */
    std::uint64_t exactQuantile(Phase phase, double q) const;

    /** p50/p99/p999 (each only if kMinBeyondRank samples lie beyond
     *  its rank), max and mean of @p phase. */
    PhaseSummary summary(Phase phase) const;

    /** The raw samples of @p phase in recording (completion) order. */
    const std::vector<std::uint64_t> &samples(Phase phase) const;

  private:
    std::array<std::vector<std::uint64_t>, kNumPhases> samples_;
};

} // namespace ansmet::serve

#endif // ANSMET_SERVE_RECORDER_H
