#include "et/fetchsim.h"

#include <limits>
#include <mutex>

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
 * Per-thread comparison scratch: a reusable bound accumulator plus the
 * interval staging arrays the batched bound kernel consumes. One-time
 * allocation per thread; simulate() then runs allocation-free no
 * matter how many comparisons it performs.
 */
struct SimScratch
{
    BoundAccumulator acc;
    std::vector<double> nlo;
    std::vector<double> nhi;

    void
    arm(unsigned dims)
    {
        if (nlo.size() < dims) {
            nlo.resize(dims);
            nhi.resize(dims);
        }
    }
};

thread_local SimScratch t_scratch;

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

} // namespace

FetchSimulator::FetchSimulator(const anns::VectorSet &vs,
                               anns::Metric metric, EtScheme scheme,
                               const EtProfile *profile)
    : vs_(vs), metric_(metric), scheme_(scheme), profile_(profile),
      plan_(planFor(scheme, vs.type(), vs.dims(), profile)),
      global_range_{-std::numeric_limits<double>::max() / 4,
                    std::numeric_limits<double>::max() / 4}
{
    ANSMET_CHECK(plan_.valid());
    if (profile)
        global_range_ = profile->globalRange;
    if (scheme == EtScheme::kOpt) {
        pe_ = std::make_unique<PrefixElimination>(profile->commonPrefix,
                                                  vs);
    }
}

const FetchPlanSpec &
FetchSimulator::subPlan(unsigned dims) const
{
    if (dims == vs_.dims())
        return plan_;
    {
        // Read-mostly fast path: after warm-up every lookup lands here
        // and proceeds concurrently with every other reader.
        ReaderLock lk(sub_plans_mu_);
        const auto it = sub_plans_.find(dims);
        if (it != sub_plans_.end())
            return it->second;
    }
    WriterLock lk(sub_plans_mu_);
    // Double-checked: another thread may have built the plan between
    // the two lock acquisitions.
    auto it = sub_plans_.find(dims);
    if (it == sub_plans_.end()) {
        FetchPlanSpec plan;
        if ((scheme_ == EtScheme::kDual || scheme_ == EtScheme::kOpt) &&
            profile_) {
            // Line packing depends on the sub-vector dimensionality, so
            // the offline pass re-optimizes (nC, TC, nF) per sub-vector
            // size rather than inheriting the full-vector parameters.
            const unsigned prefix = scheme_ == EtScheme::kOpt
                                        ? profile_->commonPrefix.length
                                        : 0;
            const DualParams dp = optimizeDual(
                profile_->etPositions, keyBits(vs_.type()), prefix, dims);
            plan = FetchPlanSpec::dual(vs_.type(), dims, prefix, dp.nc,
                                       dp.tc, dp.nf,
                                       scheme_ == EtScheme::kOpt &&
                                           prefix > 0);
        } else {
            plan = planFor(scheme_, vs_.type(), dims, profile_);
        }
        it = sub_plans_.emplace(dims, std::move(plan)).first;
    }
    return it->second;
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

    const unsigned w = keyBits(vs_.type());
    ComparisonRecord rec(plan.totalLines());

    if (!checksBounds()) {
        // Plain full fetch of the sub-vector.
        res.lines = plan.totalLines();
        res.estimate = res.exactDist;
        rec.lines = res.lines;
        return res;
    }

    // The local bound covers only this rank's dims; all others keep
    // their conservative initial contribution. The accumulator and the
    // interval staging arrays are leased from the per-thread scratch,
    // so a comparison allocates nothing.
    SimScratch &scratch = t_scratch;
    scratch.arm(vs_.dims());
    BoundAccumulator &acc = scratch.acc;
    acc.reset(metric_, query, vs_.dims(), global_range_);
    double *const nlo = scratch.nlo.data();
    double *const nhi = scratch.nhi.data();
    FetchCursor cursor(plan);

    // The eliminated common prefix is known on-chip before any fetch
    // for normal vectors; outlier vectors reveal nothing up front.
    const bool is_outlier = pe_ && pe_->vectorIsOutlier(v);
    if (pe_ && !is_outlier && plan.prefixLen > 0) {
        for (unsigned d = dim_begin; d < dim_end; ++d) {
            const ValueInterval iv = intervalFromPrefix(
                vs_.type(), toKey(vs_.type(), vs_.bitsAt(v, d)) >>
                                (w - plan.prefixLen),
                plan.prefixLen);
            nlo[d - dim_begin] = iv.lo;
            nhi[d - dim_begin] = iv.hi;
        }
        acc.updateBatch(dim_begin, dim_end - dim_begin, nlo, nhi);
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
        // batched kernel pass. A dimension that learned nothing keeps
        // an infinite interval: the intersection is a no-op and its
        // delta is exactly zero, so skipped dims cost nothing.
        for (unsigned sd = info.dimBegin; sd < info.dimEnd; ++sd) {
            const unsigned d = dim_begin + sd;
            const unsigned slot = sd - info.dimBegin;
            unsigned known = info.knownBitsAfter;
            if (pe_) {
                const unsigned fetched =
                    info.knownBitsAfter - plan.prefixLen;
                known = pe_->knownLen(v, d, fetched);
            }
            if (known == 0) {
                nlo[slot] = -std::numeric_limits<double>::infinity();
                nhi[slot] = std::numeric_limits<double>::infinity();
                continue;
            }
            const std::uint32_t key = toKey(vs_.type(), vs_.bitsAt(v, d));
            const ValueInterval iv =
                intervalFromPrefix(vs_.type(), key >> (w - known), known);
            nlo[slot] = iv.lo;
            nhi[slot] = iv.hi;
        }
        acc.updateBatch(dim_begin + info.dimBegin,
                        info.dimEnd - info.dimBegin, nlo, nhi);

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
            divCeil(static_cast<std::uint64_t>(dim_end - dim_begin) *
                        keyBits(vs_.type()),
                    512));
        rec.backupLines = res.backupLines;
    }

    return res;
}

} // namespace ansmet::et
