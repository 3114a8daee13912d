#include "et/fetchsim.h"

#include <algorithm>
#include <limits>

#include "anns/kernels.h"
#include "common/check.h"
#include "obs/metrics.h"

namespace ansmet::et {

namespace {

struct EtMetrics
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter comparisons = reg.counter("et.comparisons");
    obs::Counter linesFetched = reg.counter("et.lines_fetched");
    obs::Counter linesSkipped = reg.counter("et.lines_skipped");
    obs::Counter terminations = reg.counter("et.terminations");
    obs::Counter boundSteps = reg.counter("et.bound_steps");
    obs::Counter backupLines = reg.counter("et.backup_lines");
};

EtMetrics &
etMetrics()
{
    static EtMetrics m;
    return m;
}

/**
 * One comparison's metric deltas, accumulated locally and published
 * in a single batch on scope exit: simulateRange runs on thread-pool
 * workers during precompute, and per-line shard traffic there would
 * be measurable.
 */
struct ComparisonRecord
{
    unsigned totalLines;
    unsigned lines = 0;
    unsigned boundSteps = 0;
    unsigned backupLines = 0;
    bool terminated = false;

    explicit ComparisonRecord(unsigned total) : totalLines(total) {}

    ~ComparisonRecord()
    {
        EtMetrics &m = etMetrics();
        m.comparisons.inc();
        m.linesFetched.add(lines);
        m.linesSkipped.add(totalLines - lines);
        m.boundSteps.add(boundSteps);
        m.backupLines.add(backupLines);
        if (terminated)
            m.terminations.inc();
    }
};

} // namespace

const char *
schemeName(EtScheme s)
{
    switch (s) {
      case EtScheme::kNone:      return "None";
      case EtScheme::kDimOnly:   return "DimET";
      case EtScheme::kBitSerial: return "BitET";
      case EtScheme::kHeuristic: return "ET";
      case EtScheme::kDual:      return "ET+Dual";
      case EtScheme::kOpt:       return "ETOpt";
    }
    return "?";
}

namespace {

/**
 * Per-thread comparison scratch. One-time allocation per thread;
 * simulate() then runs allocation-free no matter how many comparisons
 * it performs.
 */
thread_local BoundScratch t_scratch;

FetchPlanSpec
planFor(EtScheme s, ScalarType t, unsigned dims, const EtProfile *prof)
{
    switch (s) {
      case EtScheme::kNone:
      case EtScheme::kDimOnly:
        return FetchPlanSpec::full(t, dims);
      case EtScheme::kBitSerial:
        return FetchPlanSpec::bitSerial(t, dims);
      case EtScheme::kHeuristic:
        return FetchPlanSpec::heuristic(t, dims);
      case EtScheme::kDual: {
        ANSMET_CHECK(prof, "kDual needs a profile");
        const DualParams &dp = prof->dualNoPrefix;
        return FetchPlanSpec::dual(t, dims, 0, dp.nc, dp.tc, dp.nf);
      }
      case EtScheme::kOpt: {
        ANSMET_CHECK(prof, "kOpt needs a profile");
        const DualParams &dp = prof->dualWithPrefix;
        // The OlElm bitmap is only needed when a prefix is eliminated
        // (no prefix -> no outliers to flag).
        return FetchPlanSpec::dual(t, dims, prof->commonPrefix.length,
                                   dp.nc, dp.tc, dp.nf,
                                   prof->commonPrefix.length > 0);
      }
    }
    ANSMET_PANIC("unknown scheme");
}

/** Plan for a @p dims-dimension sub-vector of a partitioned layout. */
FetchPlanSpec
subPlanFor(EtScheme s, ScalarType t, unsigned dims, const EtProfile *prof)
{
    if ((s == EtScheme::kDual || s == EtScheme::kOpt) && prof) {
        // Line packing depends on the sub-vector dimensionality, so the
        // offline pass re-optimizes (nC, TC, nF) per sub-vector size
        // rather than inheriting the full-vector parameters.
        const unsigned prefix =
            s == EtScheme::kOpt ? prof->commonPrefix.length : 0;
        const DualParams dp =
            optimizeDual(prof->etPositions, keyBits(t), prefix, dims);
        return FetchPlanSpec::dual(t, dims, prefix, dp.nc, dp.tc, dp.nf,
                                   s == EtScheme::kOpt && prefix > 0);
    }
    return planFor(s, t, dims, prof);
}

} // namespace

FetchSimulator::FetchSimulator(const anns::VectorSet &vs,
                               anns::Metric metric, EtScheme scheme,
                               const EtProfile *profile,
                               const std::vector<unsigned> &sub_dims)
    : vs_(vs), metric_(metric), scheme_(scheme),
      plan_(planFor(scheme, vs.type(), vs.dims(), profile)),
      global_range_(profile ? profile->globalRange : globalValueRange(vs))
{
    ANSMET_CHECK(plan_.valid());
    if (scheme == EtScheme::kOpt) {
        pe_ = std::make_unique<PrefixElimination>(profile->commonPrefix,
                                                  vs);
        // A normal vector then knows exactly the plan's key bits after
        // every line, which simulateRange stages a line at a time.
        ANSMET_CHECK(pe_->prefix().length == plan_.prefixLen);
    }
    for (const unsigned dims : sub_dims) {
        ANSMET_CHECK(dims >= 1 && dims <= vs.dims(), "bad sub-vector size ",
                     dims, " of ", vs.dims());
        const bool known =
            dims == vs.dims() ||
            std::any_of(sub_plans_.begin(), sub_plans_.end(),
                        [&](const auto &p) { return p.first == dims; });
        if (!known) {
            sub_plans_.emplace_back(
                dims, subPlanFor(scheme, vs.type(), dims, profile));
        }
    }
}

const FetchPlanSpec &
FetchSimulator::subPlan(unsigned dims) const
{
    if (dims == vs_.dims())
        return plan_;
    for (const auto &[d, plan] : sub_plans_) {
        if (d == dims)
            return plan;
    }
    ANSMET_PANIC("no fetch plan for a ", dims,
                 "-dimension sub-vector: declare its size when "
                 "constructing the FetchSimulator");
}

FetchResult
FetchSimulator::simulate(const float *query, VectorId v,
                         double threshold) const
{
    return simulateRange(query, v, threshold, 0, vs_.dims());
}

FetchResult
FetchSimulator::simulateRange(const float *query, VectorId v,
                              double threshold, unsigned dim_begin,
                              unsigned dim_end) const
{
    ANSMET_CHECK(dim_begin < dim_end && dim_end <= vs_.dims(),
                 "bad dimension range [", dim_begin, ", ", dim_end, ")");
    const FetchPlanSpec &plan = subPlan(dim_end - dim_begin);

    FetchResult res;
    res.exactDist = anns::distance(metric_, query, vs_, v);
    res.accepted = res.exactDist < threshold;

    ComparisonRecord rec(plan.totalLines());

    if (!checksBounds()) {
        // Plain full fetch of the sub-vector.
        res.lines = plan.totalLines();
        res.estimate = res.exactDist;
        rec.lines = res.lines;
        return res;
    }

    // The local bound covers only this rank's dims; all others keep
    // their conservative initial contribution. The accumulator, the
    // keys and the interval staging arrays are leased from the
    // per-thread scratch, so a comparison allocates nothing.
    const ScalarType type = vs_.type();
    const unsigned n = dim_end - dim_begin;
    BoundScratch &scratch = t_scratch;
    scratch.arm(vs_.dims());
    BoundAccumulator &acc = scratch.acc;
    acc.reset(metric_, query, vs_.dims(), global_range_);
    std::uint32_t *const keys = scratch.keys.data();
    double *const nlo = scratch.nlo.data();
    double *const nhi = scratch.nhi.data();
    FetchCursor cursor(plan);

    // Every element's key is extracted once; each fetch step then
    // stages intervals from it with the kernel table's staging op.
    for (unsigned i = 0; i < n; ++i)
        keys[i] = toKey(type, vs_.bitsAt(v, dim_begin + i));
    const anns::PrefixIntervalsFn stage =
        anns::kernels().prefixIntervals[anns::typeIndex(type)];

    // The eliminated common prefix is known on-chip before any fetch
    // for normal vectors; outlier vectors reveal nothing up front.
    const bool is_outlier = pe_ && pe_->vectorIsOutlier(v);
    if (pe_ && !is_outlier && plan.prefixLen > 0) {
        stage(keys, n, plan.prefixLen, nlo, nhi);
        acc.updateBatch(dim_begin, n, nlo, nhi);
    }

    // Each fetch step may only tighten the conservative bound; a
    // decreasing bound would mean the accumulator forgot knowledge and
    // early termination is no longer trustworthy.
    double prev_bound = acc.lowerBound();

    while (!cursor.done()) {
        const LineInfo info = cursor.next();
        ++res.lines;
        rec.lines = res.lines;
        ++rec.boundSteps;
        ANSMET_DCHECK(res.lines <= plan.totalLines(),
                      "fetch cursor overran the layout: ", res.lines,
                      " of ", plan.totalLines());

        // Stage the whole line's intervals, then tighten them in one
        // batched kernel pass. Every element of a normal vector knows
        // the plan's prefix length (for kOpt, the eliminated prefix
        // plus the fetched bits), so the line stages in one call.
        const unsigned line_n = info.dimEnd - info.dimBegin;
        if (!is_outlier) {
            stage(keys + info.dimBegin, line_n, info.knownBitsAfter, nlo,
                  nhi);
        } else {
            // An outlier vector's elements each know their own prefix
            // length. One that learned nothing keeps an infinite
            // interval: the intersection is a no-op and its delta is
            // exactly zero, so it costs nothing.
            const unsigned fetched = info.knownBitsAfter - plan.prefixLen;
            for (unsigned slot = 0; slot < line_n; ++slot) {
                const unsigned sd = info.dimBegin + slot;
                const unsigned known =
                    pe_->knownLen(v, dim_begin + sd, fetched);
                if (known == 0) {
                    nlo[slot] = -std::numeric_limits<double>::infinity();
                    nhi[slot] = std::numeric_limits<double>::infinity();
                } else {
                    stage(keys + sd, 1, known, nlo + slot, nhi + slot);
                }
            }
        }
        acc.updateBatch(dim_begin + info.dimBegin, line_n, nlo, nhi);

        ANSMET_DCHECK(acc.lowerBound() >= prev_bound,
                      "lower bound regressed across a fetch step: ",
                      acc.lowerBound(), " < ", prev_bound);
        prev_bound = acc.lowerBound();

        if (boundExceeds(acc.lowerBound(), threshold)) {
            res.terminatedEarly = true;
            rec.terminated = true;
            res.estimate = acc.lowerBound();
            // Lossless-vs-exact agreement: the schemes are designed so
            // termination never rejects a vector the exact comparison
            // accepts. This is THE correctness claim of the paper.
            ANSMET_CHECK(!res.accepted,
                         "early termination rejected an accepted vector");
            return res;
        }
    }

    res.estimate = acc.lowerBound();
    // A full fetch of a non-outlier vector reveals every stored bit, so
    // the accumulated bound must still lie below the exact distance (up
    // to summation-order noise); anything larger would have made a
    // lossy reject possible.
    ANSMET_DCHECK(is_outlier ||
                      res.estimate <=
                          res.exactDist +
                              1e-6 * (1.0 + std::abs(res.exactDist)),
                  "final bound ", res.estimate, " exceeds exact distance ",
                  res.exactDist);

    // In-bound result on an outlier vector: the dropped low bits make
    // the estimate inexact, so re-check this rank's share of the
    // uncompressed backup copy.
    if (is_outlier) {
        res.backupLines = static_cast<unsigned>(
            divCeil(static_cast<std::uint64_t>(n) * keyBits(type), 512));
        rec.backupLines = res.backupLines;
    }

    return res;
}

} // namespace ansmet::et
