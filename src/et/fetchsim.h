/**
 * @file
 * Per-comparison fetch simulation.
 *
 * Given a query, a database vector, and the threshold in force, the
 * FetchSimulator walks the vector's in-memory layout line by line,
 * updating the conservative lower bound after each 64 B fetch exactly
 * as the NDP distance-computing unit would, and reports how many lines
 * were fetched, whether early termination fired, and the final
 * accept/reject decision. One simulator instance is built per
 * (dataset, scheme); results are deterministic, so the timing layer
 * can share them across designs.
 *
 * A simulator is immutable once constructed: every fetch plan it will
 * use, the full vector's and one per declared sub-vector size, is
 * built by the constructor, so concurrent callers share it without a
 * lock (the timing layer precomputes fetch results across queries in
 * parallel).
 */

#ifndef ANSMET_ET_FETCHSIM_H
#define ANSMET_ET_FETCHSIM_H

#include <memory>
#include <utility>
#include <vector>

#include "anns/distance.h"
#include "anns/vector.h"
#include "et/bounds.h"
#include "et/layout.h"
#include "et/prefix.h"
#include "et/profile.h"

namespace ansmet::et {

/** Early-termination schemes evaluated in the paper (Section 6). */
enum class EtScheme : std::uint8_t
{
    kNone,      //!< fetch everything (CPU-Base / NDP-Base)
    kDimOnly,   //!< partial dimensions, full bits (NDP-DimET)
    kBitSerial, //!< fixed 1-bit steps (NDP-BitET, BitNN-style)
    kHeuristic, //!< hybrid 4-bit int / 8-bit float chunks (NDP-ET)
    kDual,      //!< + dual-granularity fetch (NDP-ET+Dual)
    kOpt,       //!< + common prefix elimination (NDP-ETOpt / ANSMET)
};

const char *schemeName(EtScheme s);

/** Outcome of simulating one comparison. */
struct FetchResult
{
    unsigned lines = 0;        //!< transformed-layout lines fetched
    unsigned backupLines = 0;  //!< outlier-backup re-check lines
    bool terminatedEarly = false;
    bool accepted = false;     //!< exact decision (lossless schemes)
    double exactDist = 0.0;
    /**
     * Final lower-bound estimate; for lossy no-backup operation this
     * is what the accept decision would be based on (Table 5b).
     */
    double estimate = 0.0;

    unsigned totalLines() const { return lines + backupLines; }
};

/** Simulates the fetch/bound loop of one ET scheme over a dataset. */
class FetchSimulator
{
  public:
    /**
     * @param profile preprocessing output; required for kDual/kOpt,
     *        optional otherwise (kNone..kHeuristic only need the
     *        global range for IP, which without a profile is taken
     *        over @p vs here, as buildProfile() does)
     * @param sub_dims dimension counts of the sub-vectors
     *        simulateRange() will be asked for besides the full vector
     *        (a partitioned layout's rank split; repeats are fine)
     */
    FetchSimulator(const anns::VectorSet &vs, anns::Metric metric,
                   EtScheme scheme, const EtProfile *profile,
                   const std::vector<unsigned> &sub_dims = {});

    /** Simulate one comparison against @p threshold. */
    FetchResult simulate(const float *query, VectorId v,
                         double threshold) const;

    /**
     * Simulate the rank-local part of a comparison when the vector is
     * vertically split: only dims [dim_begin, dim_end) are fetched by
     * this rank, and its local bound (partial distance of the
     * sub-vector, everything else conservatively open) is compared to
     * the full threshold — the paper's reduced-effectiveness local ET.
     */
    FetchResult simulateRange(const float *query, VectorId v,
                              double threshold, unsigned dim_begin,
                              unsigned dim_end) const;

    const FetchPlanSpec &plan() const { return plan_; }
    EtScheme scheme() const { return scheme_; }

    /** Number of vectors in the underlying set. */
    std::size_t datasetSize() const { return vs_.size(); }

    /** Lines per vector when nothing terminates (layout size). */
    unsigned fullLines() const { return plan_.totalLines(); }

    /** Prefix-elimination state (kOpt only). */
    const PrefixElimination *prefixElimination() const { return pe_.get(); }

    /**
     * Plan for a sub-vector of @p dims dimensions: the full-vector
     * plan, or one built for a size declared at construction. Any
     * other size panics.
     */
    const FetchPlanSpec &subPlan(unsigned dims) const;

  private:
    /**
     * Whether this scheme performs bound checks at all. Matches the
     * paper's observation that partial-dimension-only ET (prior work)
     * "does not work for the inner-product metric" — unfetched
     * dimensions can contribute arbitrary negative values, and prior
     * designs have no mechanism to bound them, so NDP-DimET degrades
     * to NDP-Base on IP datasets (Figure 6, GloVe/Txt2Img).
     */
    bool
    checksBounds() const
    {
        if (scheme_ == EtScheme::kNone)
            return false;
        if (scheme_ == EtScheme::kDimOnly &&
            metric_ != anns::Metric::kL2) {
            return false;
        }
        return true;
    }

    const anns::VectorSet &vs_;
    anns::Metric metric_;
    EtScheme scheme_;
    FetchPlanSpec plan_;
    ValueInterval global_range_;
    std::unique_ptr<PrefixElimination> pe_;
    /** (dims, plan) per declared sub-vector size; a handful at most. */
    std::vector<std::pair<unsigned, FetchPlanSpec>> sub_plans_;
};

} // namespace ansmet::et

#endif // ANSMET_ET_FETCHSIM_H
