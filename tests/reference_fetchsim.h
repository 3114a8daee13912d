/**
 * @file
 * The per-element fetch-simulation loop, kept as an executable
 * specification of et::FetchSimulator::simulateRange: for every fetched
 * line, each element's sortable key is re-extracted and its value
 * interval derived one element at a time with et::intervalFromPrefix,
 * at the prefix length PrefixElimination::knownLen reports under kOpt.
 *
 * The production simulator extracts keys once per call and stages a
 * whole line through the kernel table's prefixIntervals op instead;
 * tests/test_fetchsim.cc runs both side by side and asserts bitwise-
 * identical FetchResults. Do not optimize this loop; its value is
 * being the obviously-correct definition of the bound walk.
 */

#ifndef ANSMET_TESTS_REFERENCE_FETCHSIM_H
#define ANSMET_TESTS_REFERENCE_FETCHSIM_H

#include <limits>
#include <vector>

#include "anns/distance.h"
#include "anns/vector.h"
#include "common/bitops.h"
#include "et/bounds.h"
#include "et/fetchsim.h"
#include "et/layout.h"
#include "et/sortable.h"

namespace ansmet::et::test {

/**
 * The comparison @p sim simulates for (query, v, threshold) over dims
 * [dim_begin, dim_end), computed element by element.
 * @param global_range the range the simulator's IP bound starts from
 *        (the profile's, or globalValueRange() without one)
 */
inline FetchResult
referenceSimulateRange(const FetchSimulator &sim, const anns::VectorSet &vs,
                       anns::Metric metric, ValueInterval global_range,
                       const float *query, VectorId v, double threshold,
                       unsigned dim_begin, unsigned dim_end)
{
    const FetchPlanSpec &plan = sim.subPlan(dim_end - dim_begin);
    const PrefixElimination *pe = sim.prefixElimination();

    FetchResult res;
    res.exactDist = anns::distance(metric, query, vs, v);
    res.accepted = res.exactDist < threshold;

    const unsigned w = keyBits(vs.type());
    const bool checks_bounds =
        sim.scheme() != EtScheme::kNone &&
        !(sim.scheme() == EtScheme::kDimOnly &&
          metric != anns::Metric::kL2);
    if (!checks_bounds) {
        res.lines = plan.totalLines();
        res.estimate = res.exactDist;
        return res;
    }

    BoundAccumulator acc(metric, query, vs.dims(), global_range);
    std::vector<double> nlo(vs.dims()), nhi(vs.dims());
    FetchCursor cursor(plan);

    const bool is_outlier = pe && pe->vectorIsOutlier(v);
    if (pe && !is_outlier && plan.prefixLen > 0) {
        for (unsigned d = dim_begin; d < dim_end; ++d) {
            const ValueInterval iv = intervalFromPrefix(
                vs.type(), toKey(vs.type(), vs.bitsAt(v, d)) >>
                               (w - plan.prefixLen),
                plan.prefixLen);
            nlo[d - dim_begin] = iv.lo;
            nhi[d - dim_begin] = iv.hi;
        }
        acc.updateBatch(dim_begin, dim_end - dim_begin, nlo.data(),
                        nhi.data());
    }

    while (!cursor.done()) {
        const LineInfo info = cursor.next();
        ++res.lines;
        for (unsigned sd = info.dimBegin; sd < info.dimEnd; ++sd) {
            const unsigned d = dim_begin + sd;
            const unsigned slot = sd - info.dimBegin;
            unsigned known = info.knownBitsAfter;
            if (pe) {
                const unsigned fetched =
                    info.knownBitsAfter - plan.prefixLen;
                known = pe->knownLen(v, d, fetched);
            }
            if (known == 0) {
                nlo[slot] = -std::numeric_limits<double>::infinity();
                nhi[slot] = std::numeric_limits<double>::infinity();
                continue;
            }
            const std::uint32_t key = toKey(vs.type(), vs.bitsAt(v, d));
            const ValueInterval iv =
                intervalFromPrefix(vs.type(), key >> (w - known), known);
            nlo[slot] = iv.lo;
            nhi[slot] = iv.hi;
        }
        acc.updateBatch(dim_begin + info.dimBegin,
                        info.dimEnd - info.dimBegin, nlo.data(),
                        nhi.data());
        if (boundExceeds(acc.lowerBound(), threshold)) {
            res.terminatedEarly = true;
            res.estimate = acc.lowerBound();
            return res;
        }
    }

    res.estimate = acc.lowerBound();
    if (is_outlier) {
        res.backupLines = static_cast<unsigned>(
            divCeil(static_cast<std::uint64_t>(dim_end - dim_begin) * w,
                    512));
    }
    return res;
}

} // namespace ansmet::et::test

#endif // ANSMET_TESTS_REFERENCE_FETCHSIM_H
