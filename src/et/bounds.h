/**
 * @file
 * Conservative distance lower bounds from partially known vectors
 * (Section 4.1 of the paper).
 *
 * Each dimension of the search vector is known only as a value
 * interval (from the fetched key-prefix bits). The accumulator keeps a
 * per-dimension contribution and a running total:
 *
 *  - L2: the minimum of (v - q)^2 over the interval — 0 if q is inside,
 *    the squared gap to the nearer endpoint otherwise. An unfetched
 *    dimension contributes 0 (the paper's partial-dimension bound).
 *  - IP (distance = -sum v*q): the lower bound on distance is minus the
 *    *maximum* achievable dot contribution; unfetched dimensions fall
 *    back to the dataset's global value range, which is exactly why
 *    dimension-only ET is ineffective for IP (the paper's NDP-DimET
 *    observation) while bit-level prefixes restore tight bounds.
 *
 * Narrowing an interval can only tighten (raise) the bound, so updates
 * are incremental O(1). Intervals and contributions are stored as
 * structure-of-arrays so a whole fetch-step's worth of dimensions can
 * be tightened in one pass by the SIMD bound kernels (anns/kernels.h,
 * updateBatch below), and the accumulator is reusable via reset() so
 * the fetch simulator leases one per thread instead of allocating per
 * comparison.
 */

#ifndef ANSMET_ET_BOUNDS_H
#define ANSMET_ET_BOUNDS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "anns/distance.h"
#include "common/check.h"
#include "et/sortable.h"

namespace ansmet::et {

using anns::Metric;

/** Incremental distance lower-bound accumulator over value intervals. */
class BoundAccumulator
{
  public:
    /** Empty accumulator; reset() before use. */
    BoundAccumulator() = default;

    /**
     * @param query full query vector (dims entries)
     * @param global_range dataset-wide [min, max] element value; only
     *        used for unfetched dimensions under IP
     */
    BoundAccumulator(Metric m, const float *query, unsigned dims,
                     ValueInterval global_range)
    {
        reset(m, query, dims, global_range);
    }

    /**
     * Re-arm for a new comparison, reusing the existing storage (no
     * allocation once the capacity has grown to @p dims).
     */
    void
    reset(Metric m, const float *query, unsigned dims,
          ValueInterval global_range)
    {
        metric_ = m;
        query_ = query;
        dims_ = dims;
        global_ = global_range;
        lo_.assign(dims, global_range.lo);
        hi_.assign(dims, global_range.hi);
        contrib_.resize(dims);
        total_ = 0.0;
        for (unsigned d = 0; d < dims; ++d) {
            contrib_[d] = contribution(d, global_range);
            total_ += contrib_[d];
        }
    }

    /**
     * Tighten dimension @p d with interval @p iv. The new knowledge is
     * intersected with everything already known about the dimension
     * (including the global range), so the bound only ever tightens —
     * a short bit prefix can imply a wider raw interval than the
     * dataset's value range, but the true value is in both.
     */
    void
    update(unsigned d, ValueInterval iv)
    {
        ANSMET_DCHECK(d < dims_, "bound update for dimension ", d,
                      " of ", dims_);
        // Select semantics mirror the SIMD max/min instructions so the
        // scalar and batched paths store identical endpoints.
        const double lo = lo_[d] > iv.lo ? lo_[d] : iv.lo;
        const double hi = hi_[d] < iv.hi ? hi_[d] : iv.hi;
        ANSMET_DCHECK(lo <= hi,
                      "inconsistent interval knowledge for dimension ", d,
                      ": [", lo, ", ", hi, "]");
        lo_[d] = lo;
        hi_[d] = hi;
        const double c = contribution(d, {lo, hi});
        // Narrowing an interval can only tighten the bound: the L2
        // contribution (min gap^2) grows, the IP contribution (max dot
        // term, later negated) shrinks. Both formulas are monotone in
        // the endpoints, exactly, even in floating point.
        ANSMET_DCHECK(metric_ == Metric::kL2 ? c >= contrib_[d]
                                             : c <= contrib_[d],
                      "bound loosened by an update on dimension ", d);
        total_ += c - contrib_[d];
        contrib_[d] = c;
    }

    /**
     * Tighten the @p n consecutive dimensions starting at @p begin
     * with the intervals [nlo[i], nhi[i]] in one pass through the
     * active SIMD bound kernel. Dimensions that learned nothing this
     * step pass an infinite interval (intersection is then a no-op
     * and the delta is exactly zero). The per-step delta is summed in
     * the kernels' canonical blocked order, so the running total is
     * deterministic and identical across kernel tiers.
     */
    void
    updateBatch(unsigned begin, unsigned n, const double *nlo,
                const double *nhi)
    {
        ANSMET_DCHECK(begin + n <= dims_, "bound batch [", begin, ", ",
                      begin + n, ") of ", dims_);
        if (auditEnabled())
            auditBatch(begin, n, nlo, nhi);
        const anns::KernelOps &ops = anns::kernels();
        const auto fn =
            metric_ == Metric::kL2 ? ops.boundL2 : ops.boundIp;
        total_ += fn(query_ + begin, lo_.data() + begin,
                     hi_.data() + begin, contrib_.data() + begin, nlo,
                     nhi, n);
    }

    /** Current conservative lower bound on the distance. */
    double
    lowerBound() const
    {
        return metric_ == Metric::kL2 ? total_ : -total_;
    }

    unsigned dims() const { return dims_; }

    /**
     * Contribution of dimension @p d if its value lies in @p iv.
     * For L2 this is min (v-q)^2; for IP it is max v*q.
     */
    double
    contribution(unsigned d, ValueInterval iv) const
    {
        const double q = query_[d];
        if (metric_ == Metric::kL2) {
            if (q < iv.lo) {
                const double gap = iv.lo - q;
                return gap * gap;
            }
            if (q > iv.hi) {
                const double gap = q - iv.hi;
                return gap * gap;
            }
            return 0.0;
        }
        return q >= 0.0 ? iv.hi * q : iv.lo * q;
    }

  private:
    /**
     * Audit-mode pre-pass of updateBatch: the invariants the per-dim
     * update() DCHECKs, validated without touching state (the kernel
     * then performs the identical arithmetic), so audit mode never
     * changes the numbers a run produces.
     */
    void
    auditBatch(unsigned begin, unsigned n, const double *nlo,
               const double *nhi) const
    {
        for (unsigned i = 0; i < n; ++i) {
            const unsigned d = begin + i;
            const double lo = lo_[d] > nlo[i] ? lo_[d] : nlo[i];
            const double hi = hi_[d] < nhi[i] ? hi_[d] : nhi[i];
            ANSMET_DCHECK(lo <= hi,
                          "inconsistent interval knowledge for dimension ",
                          d, ": [", lo, ", ", hi, "]");
            const double c = contribution(d, {lo, hi});
            ANSMET_DCHECK(metric_ == Metric::kL2 ? c >= contrib_[d]
                                                 : c <= contrib_[d],
                          "bound loosened by an update on dimension ", d);
        }
    }

    Metric metric_ = Metric::kL2;
    const float *query_ = nullptr;
    unsigned dims_ = 0;
    ValueInterval global_{0.0, 0.0};
    // Structure-of-arrays interval knowledge, kernel-friendly.
    std::vector<double> lo_;
    std::vector<double> hi_;
    std::vector<double> contrib_;
    double total_ = 0.0;
};

/**
 * Buffers of one bound walk: a reusable accumulator, the vector's
 * sortable keys and the intervals staged for the batched bound kernel.
 * The fetch simulator keeps one per thread and the profile's pET sweep
 * one per sweep, so a walk allocates nothing once they have grown.
 */
struct BoundScratch
{
    BoundAccumulator acc;
    std::vector<std::uint32_t> keys;
    std::vector<double> nlo;
    std::vector<double> nhi;

    /** Grow the key and staging buffers to at least @p dims entries. */
    void
    arm(unsigned dims)
    {
        if (nlo.size() < dims) {
            keys.resize(dims);
            nlo.resize(dims);
            nhi.resize(dims);
        }
    }
};

/**
 * Safe termination predicate: trips only when the bound clears the
 * threshold with a small relative margin, so floating-point summation
 * order can never reject a vector whose exact distance is (barely)
 * inside the threshold.
 */
inline bool
boundExceeds(double bound, double threshold)
{
    return bound >= threshold + 1e-9 * (1.0 + std::abs(threshold));
}

} // namespace ansmet::et

#endif // ANSMET_ET_BOUNDS_H
