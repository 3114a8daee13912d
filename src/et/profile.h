/**
 * @file
 * Sampling-based offline preprocessing (Section 4.2 and Figure 3).
 *
 * From a small sample (default 100 vectors, the paper's choice) we
 * derive everything the runtime needs:
 *  - the ET threshold: a percentile of the sampled pairwise distance
 *    distribution (default 10%);
 *  - per-prefix-length entropy and early-termination frequency
 *    (Figure 3's two curves);
 *  - the (mostly) common prefix to eliminate;
 *  - the dual-granularity fetch parameters (nC, TC, nF) minimizing the
 *    expected access cost under the paper's cost model;
 *  - the fetch-count distribution used by adaptive polling (Sec. 5.4).
 */

#ifndef ANSMET_ET_PROFILE_H
#define ANSMET_ET_PROFILE_H

#include <cstdint>
#include <vector>

#include "anns/distance.h"
#include "anns/vector.h"
#include "et/layout.h"
#include "et/prefix.h"

namespace ansmet::et {

/** Dual-granularity fetch parameters. */
struct DualParams
{
    unsigned nc = 8; //!< coarse bit step
    unsigned tc = 0; //!< number of coarse steps
    unsigned nf = 4; //!< fine bit step

    bool operator==(const DualParams &) const = default;
};

/** Everything learned by preprocessing one dataset. */
struct EtProfile
{
    ScalarType type = ScalarType::kFp32;
    anns::Metric metric = anns::Metric::kL2;
    unsigned dims = 0;

    double threshold = 0.0;
    ValueInterval globalRange{0.0, 0.0};

    /** Index L-1 = statistics for prefix length L (1..W). */
    std::vector<double> prefixEntropy;
    std::vector<double> etFrequency;
    /** Raw pET samples; keyBits+1 means "never terminated". */
    std::vector<unsigned> etPositions;

    CommonPrefix commonPrefix;
    DualParams dualNoPrefix;   //!< for NDP-ET+Dual (no elimination)
    DualParams dualWithPrefix; //!< for NDP-ETOpt

    /** P(comparison fetches i 64 B lines) under the ETOpt plan. */
    std::vector<double> fetchCountDist;

    bool operator==(const EtProfile &) const = default;
};

/** Preprocessing configuration (paper defaults). */
struct ProfileConfig
{
    std::size_t numSamples = 100;
    double thresholdPercentile = 0.10;
    double outlierFrac = 0.001;
    std::size_t maxPairs = 4000;
    std::uint64_t seed = 7;
};

/**
 * Dataset-wide [min, max] element value of @p vs: what an IP bound
 * assumes for a dimension none of whose bits have been fetched.
 * @p vs must hold at least one vector.
 */
ValueInterval globalValueRange(const anns::VectorSet &vs);

/**
 * Shannon entropy, in bits, of the key prefixes of every length over
 * @p keys (Figure 3, blue curve): element L-1 is the entropy of the
 * top-L-bit prefixes of the @p key_width-bit keys, for L = 1..W.
 */
std::vector<double> prefixEntropy(const std::vector<std::uint32_t> &keys,
                                  unsigned key_width);

/**
 * Run the full preprocessing pass over @p vs. Needs at least two
 * vectors and cfg.numSamples >= 2: the threshold is a percentile of
 * distances between distinct sampled vectors.
 */
EtProfile buildProfile(const anns::VectorSet &vs, anns::Metric metric,
                       const ProfileConfig &cfg = {});

/**
 * Grid-search (nC, TC, nF) minimizing the summed access cost of the
 * sampled ET positions (the paper's cost model, Section 4.2, counted
 * exactly by planCostLines()), for a given eliminated-prefix length.
 */
DualParams optimizeDual(const std::vector<unsigned> &et_positions,
                        unsigned key_width, unsigned prefix_len,
                        unsigned dims);

/**
 * Exact per-plan cost: lines fetched until the plan's known bits reach
 * @p p_et (level granularity), or all lines if p_et > key_width.
 * Accounts for padding and metadata bits exactly.
 */
std::uint64_t planCostLines(const FetchPlanSpec &plan, unsigned p_et,
                            unsigned key_width);

/** Kullback-Leibler divergence D(p || q) with epsilon smoothing. */
double klDivergence(const std::vector<double> &p,
                    const std::vector<double> &q, double eps = 1e-6);

} // namespace ansmet::et

#endif // ANSMET_ET_PROFILE_H
