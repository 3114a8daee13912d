/**
 * @file
 * Fetch-simulator tests — the heart of the reproduction:
 *  - losslessness: early termination never rejects an accepted vector,
 *    for every scheme, metric, and dtype;
 *  - savings ordering: ET schemes never fetch more than the full
 *    layout, and the optimized schemes fetch less on prefix-friendly
 *    data;
 *  - the paper's scheme-specific observations (DimET unstable for IP,
 *    BitET wasteful at low dimensionality);
 *  - bitwise identity with the per-element reference loop
 *    (reference_fetchsim.h) across schemes, types and kernel tiers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "anns/bruteforce.h"
#include "anns/dataset.h"
#include "anns/kernels.h"
#include "common/check.h"
#include "common/prng.h"
#include "common/simd.h"
#include "et/fetchsim.h"
#include "et/profile.h"
#include "reference_fetchsim.h"
#include "test_guards.h"

namespace ansmet::et {
namespace {

using anns::DatasetId;

struct Workload
{
    anns::Dataset ds;
    EtProfile profile;
};

const Workload &
workload(DatasetId id)
{
    static std::map<DatasetId, Workload> cache;
    auto it = cache.find(id);
    if (it == cache.end()) {
        Workload w{anns::makeDataset(id, 1500, 10, 1), {}};
        ProfileConfig cfg;
        cfg.numSamples = 60;
        cfg.maxPairs = 800;
        w.profile = buildProfile(*w.ds.base, w.ds.metric(), cfg);
        it = cache.emplace(id, std::move(w)).first;
    }
    return it->second;
}

std::vector<EtScheme>
allSchemes()
{
    return {EtScheme::kNone,      EtScheme::kDimOnly,
            EtScheme::kBitSerial, EtScheme::kHeuristic,
            EtScheme::kDual,      EtScheme::kOpt};
}

class LosslessTest
    : public ::testing::TestWithParam<std::tuple<DatasetId, EtScheme>>
{
};

TEST_P(LosslessTest, TerminationNeverDropsAcceptedVectors)
{
    const auto [id, scheme] = GetParam();
    const Workload &w = workload(id);
    const FetchSimulator sim(*w.ds.base, w.ds.metric(), scheme,
                             &w.profile);

    for (const auto &q : w.ds.queries) {
        // Use a realistic converged threshold: the 10th-NN distance.
        const auto gt =
            anns::bruteForceKnn(w.ds.metric(), q.data(), *w.ds.base, 10);
        const double threshold = gt.back().dist * 1.0000001;

        for (VectorId v = 0; v < 300; ++v) {
            const FetchResult r = sim.simulate(q.data(), v, threshold);
            const bool truly_accepted =
                anns::distance(w.ds.metric(), q.data(), *w.ds.base, v) <
                threshold;
            EXPECT_EQ(r.accepted, truly_accepted);
            if (r.terminatedEarly) {
                EXPECT_FALSE(truly_accepted)
                    << "scheme " << schemeName(scheme)
                    << " terminated an accepted vector " << v;
            }
            EXPECT_LE(r.lines, sim.fullLines());
            EXPECT_GE(r.lines, 1u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAcrossDatasets, LosslessTest,
    ::testing::Combine(::testing::Values(DatasetId::kSift,
                                         DatasetId::kSpacev,
                                         DatasetId::kDeep,
                                         DatasetId::kGlove,
                                         DatasetId::kGist),
                       ::testing::ValuesIn(allSchemes())),
    [](const auto &info) {
        std::string n = anns::datasetSpec(std::get<0>(info.param)).name +
                        std::string("_") +
                        schemeName(std::get<1>(info.param));
        for (auto &c : n)
            if (c == '+' || c == '-')
                c = '_';
        return n;
    });

/** Mean lines per comparison at a converged threshold. */
double
meanLines(const Workload &w, EtScheme scheme)
{
    const FetchSimulator sim(*w.ds.base, w.ds.metric(), scheme,
                             &w.profile);
    double total = 0.0;
    std::size_t n = 0;
    for (const auto &q : w.ds.queries) {
        const auto gt =
            anns::bruteForceKnn(w.ds.metric(), q.data(), *w.ds.base, 10);
        const double threshold = gt.back().dist;
        for (VectorId v = 0; v < 400; ++v) {
            total += sim.simulate(q.data(), v, threshold).totalLines();
            ++n;
        }
    }
    return total / static_cast<double>(n);
}

TEST(FetchSavings, HybridEtBeatsFullFetchOnL2)
{
    for (const DatasetId id :
         {DatasetId::kSift, DatasetId::kDeep, DatasetId::kGist}) {
        const Workload &w = workload(id);
        const double none = meanLines(w, EtScheme::kNone);
        const double et = meanLines(w, EtScheme::kHeuristic);
        EXPECT_LT(et, none)
            << anns::datasetSpec(id).name << ": ET saved nothing";
    }
}

TEST(FetchSavings, DualAndOptImproveOnFloatData)
{
    // DEEP/GIST: narrow fp32 ranges -> prefix elimination and dual
    // granularity should beat the naive 8-bit heuristic.
    for (const DatasetId id : {DatasetId::kDeep, DatasetId::kGist}) {
        const Workload &w = workload(id);
        const double heur = meanLines(w, EtScheme::kHeuristic);
        const double opt = meanLines(w, EtScheme::kOpt);
        EXPECT_LE(opt, heur * 1.05)
            << anns::datasetSpec(id).name;
    }
}

TEST(FetchSavings, DimOnlyUselessForInnerProduct)
{
    // The paper: unfetched dims can contribute negatives, so
    // NDP-DimET gets no stable bound on GloVe/Txt2Img.
    const Workload &w = workload(DatasetId::kGlove);
    const double none = meanLines(w, EtScheme::kNone);
    const double dim = meanLines(w, EtScheme::kDimOnly);
    EXPECT_GT(dim, none * 0.95)
        << "partial dimensions should save ~nothing under IP";

    // ...while bit-level hybrid ET still works there.
    const double opt = meanLines(w, EtScheme::kOpt);
    EXPECT_LT(opt, none * 0.9);
}

TEST(FetchSavings, BitSerialWastefulAtLowDimensionality)
{
    // SIFT: 128 x 1 bit = 16 B per line -> 75% waste; full data is
    // only 2 lines, so bit-serial fetches *more* lines than NDP-Base.
    const Workload &w = workload(DatasetId::kSift);
    const double none = meanLines(w, EtScheme::kNone);
    const double bits = meanLines(w, EtScheme::kBitSerial);
    EXPECT_GT(bits, none);

    // GIST (960 dims) has enough elements per bit-plane to profit.
    const Workload &g = workload(DatasetId::kGist);
    EXPECT_LT(meanLines(g, EtScheme::kBitSerial),
              meanLines(g, EtScheme::kNone));
}

TEST(FetchSim, InfinityThresholdNeverTerminates)
{
    const Workload &w = workload(DatasetId::kSift);
    const FetchSimulator sim(*w.ds.base, w.ds.metric(), EtScheme::kOpt,
                             &w.profile);
    const auto &q = w.ds.queries[0];
    const FetchResult r = sim.simulate(
        q.data(), 5, std::numeric_limits<double>::infinity());
    EXPECT_FALSE(r.terminatedEarly);
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.lines, sim.fullLines());
}

TEST(FetchSim, RangeSimulationCoversSubvectors)
{
    const Workload &w = workload(DatasetId::kGist);
    const FetchSimulator sim(*w.ds.base, w.ds.metric(), EtScheme::kOpt,
                             &w.profile, {240});
    const auto &q = w.ds.queries[0];
    const auto gt =
        anns::bruteForceKnn(w.ds.metric(), q.data(), *w.ds.base, 10);
    const double threshold = gt.back().dist;

    const unsigned dims = w.ds.base->dims();
    for (VectorId v = 0; v < 50; ++v) {
        unsigned total_range = 0;
        for (unsigned d0 = 0; d0 < dims; d0 += 240) {
            const auto r = sim.simulateRange(q.data(), v, threshold, d0,
                                             std::min(d0 + 240, dims));
            total_range += r.lines;
            EXPECT_LE(r.lines, sim.subPlan(240).totalLines());
        }
        // Local ET is weaker: rank-local fetches can only be less
        // effective than the full-vector view, never fetch more than
        // the whole layout split four ways.
        EXPECT_LE(total_range, 4u * sim.subPlan(240).totalLines());
        EXPECT_GE(total_range, 1u);
    }
}

TEST(FetchSim, OutlierVectorsPayBackupOnAccept)
{
    const Workload &w = workload(DatasetId::kSpacev);
    const FetchSimulator sim(*w.ds.base, w.ds.metric(), EtScheme::kOpt,
                             &w.profile);
    const auto *pe = sim.prefixElimination();
    ASSERT_NE(pe, nullptr);

    const auto &q = w.ds.queries[0];
    bool saw_backup = false;
    for (VectorId v = 0; v < static_cast<VectorId>(w.ds.base->size());
         ++v) {
        const auto r = sim.simulate(
            q.data(), v, std::numeric_limits<double>::infinity());
        if (pe->vectorIsOutlier(v)) {
            EXPECT_GT(r.backupLines, 0u);
            saw_backup = true;
        } else {
            EXPECT_EQ(r.backupLines, 0u);
        }
    }
    // With a 0.1% outlier element budget the full set should contain
    // at least one outlier vector.
    (void)saw_backup;
}

TEST(FetchSim, EstimateIsConservative)
{
    const Workload &w = workload(DatasetId::kDeep);
    const FetchSimulator sim(*w.ds.base, w.ds.metric(), EtScheme::kOpt,
                             &w.profile);
    for (const auto &q : w.ds.queries) {
        for (VectorId v = 0; v < 200; ++v) {
            const auto r = sim.simulate(
                q.data(), v, std::numeric_limits<double>::infinity());
            EXPECT_LE(r.estimate, r.exactDist + 1e-9);
        }
    }
}

/** Random vectors of @p type; queries are members cast to float. */
anns::VectorSet
randomVectors(anns::ScalarType type, std::size_t n, unsigned dims,
              std::uint64_t seed)
{
    Prng rng(seed);
    anns::VectorSet vs(n, dims, type);
    for (std::size_t v = 0; v < n; ++v) {
        for (unsigned d = 0; d < dims; ++d) {
            float x;
            switch (type) {
              case anns::ScalarType::kUint8:
                x = static_cast<float>(rng.below(256));
                break;
              case anns::ScalarType::kInt8:
                x = static_cast<float>(
                        static_cast<int>(rng.below(256))) -
                    128.0f;
                break;
              default:
                x = static_cast<float>(rng.uniform(-2.0, 2.0));
            }
            vs.set(static_cast<VectorId>(v), d, x);
        }
    }
    return vs;
}

struct DualCase
{
    anns::Metric metric;
    anns::ScalarType type;
    unsigned dims;
};

class DualScheduleTest : public ::testing::TestWithParam<DualCase>
{
};

TEST_P(DualScheduleTest, BoundStaysBelowExactForAllSchedules)
{
    // Property test over the dual-granularity *schedule space*, not
    // just the optimizer's pick: for any (nC, TC, nF) the per-step
    // lower bound must stay below the exact distance (losslessness)
    // and the fetch count within the layout. The audit layer is live
    // so the per-step DCHECKs inside the bound loop fire too.
    const auto [metric, type, dims] = GetParam();
    setAuditEnabled(true);
    const anns::VectorSet vs = randomVectors(type, 300, dims, 7 + dims);

    ProfileConfig pc;
    pc.numSamples = 40;
    pc.maxPairs = 400;
    const EtProfile base = buildProfile(vs, metric, pc);

    // Coarse/fine grids chosen to cover degenerate (tc=0, nf=keyBits)
    // and extreme (bit-serial fine phase) corners of the space.
    const DualParams schedules[] = {
        {8, 0, 4}, {4, 2, 2}, {8, 1, 1}, {3, 2, 5}, {16, 1, 8},
        {1, 4, 1}, {8, 4, 8},
    };

    Prng rng(99);
    for (const DualParams &dp : schedules) {
        EtProfile prof = base;
        prof.dualNoPrefix = dp;
        const FetchSimulator sim(vs, metric, EtScheme::kDual, &prof);

        for (unsigned trial = 0; trial < 8; ++trial) {
            const auto qsrc =
                static_cast<VectorId>(rng.below(vs.size()));
            const std::vector<float> q = vs.toFloat(qsrc);
            const auto gt = anns::bruteForceKnn(metric, q.data(), vs, 10);
            // Converged, loose, and infinite thresholds.
            const double thresholds[] = {
                gt.back().dist, gt.back().dist * 2.0 + 1.0,
                std::numeric_limits<double>::infinity()};

            for (const double threshold : thresholds) {
                for (VectorId v = 0; v < 100; ++v) {
                    const FetchResult r =
                        sim.simulate(q.data(), v, threshold);
                    EXPECT_LE(r.estimate, r.exactDist + 1e-9)
                        << "nc=" << dp.nc << " tc=" << dp.tc
                        << " nf=" << dp.nf << " v=" << v;
                    EXPECT_EQ(r.accepted, r.exactDist < threshold);
                    if (r.terminatedEarly) {
                        EXPECT_FALSE(r.accepted);
                    }
                    EXPECT_GE(r.lines, 1u);
                    EXPECT_LE(r.lines, sim.fullLines());
                }
            }
        }
    }
    setAuditEnabled(false);
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndTypes, DualScheduleTest,
    ::testing::Values(DualCase{anns::Metric::kL2,
                               anns::ScalarType::kUint8, 48},
                      DualCase{anns::Metric::kL2,
                               anns::ScalarType::kFp32, 32},
                      DualCase{anns::Metric::kIp,
                               anns::ScalarType::kFp32, 36},
                      DualCase{anns::Metric::kIp,
                               anns::ScalarType::kInt8, 40}),
    [](const auto &info) {
        return std::string(anns::metricName(info.param.metric)) + "_" +
               anns::scalarName(info.param.type);
    });

/**
 * Linear-scan top-k where every comparison goes through the fetch
 * simulator with the current kth-best distance as the ET threshold —
 * the access pattern of a real lossless ET search.
 */
std::vector<double>
etTopKDistances(const FetchSimulator &sim, const anns::VectorSet &vs,
                const float *q, std::size_t k)
{
    std::vector<double> best; // ascending, at most k entries
    for (VectorId v = 0; v < static_cast<VectorId>(vs.size()); ++v) {
        const double threshold =
            best.size() < k ? std::numeric_limits<double>::infinity()
                            : best.back();
        const FetchResult r = sim.simulate(q, v, threshold);
        if (!r.accepted)
            continue;
        best.insert(
            std::upper_bound(best.begin(), best.end(), r.exactDist),
            r.exactDist);
        if (best.size() > k)
            best.pop_back();
    }
    return best;
}

TEST(LosslessTopK, EtSearchMatchesBruteForce)
{
    // End-to-end losslessness: a top-k scan that prunes through ET
    // must return exactly the brute-force result, for every scheme
    // and across randomized dual schedules.
    constexpr std::size_t kK = 10;
    Prng rng(2718);
    for (const auto &[metric, type, dims] :
         {DualCase{anns::Metric::kL2, anns::ScalarType::kUint8, 48},
          DualCase{anns::Metric::kIp, anns::ScalarType::kFp32, 36}}) {
        const anns::VectorSet vs = randomVectors(type, 400, dims, 11);
        ProfileConfig pc;
        pc.numSamples = 40;
        pc.maxPairs = 400;
        const EtProfile base = buildProfile(vs, metric, pc);

        std::vector<std::pair<EtScheme, EtProfile>> configs;
        for (const EtScheme s : allSchemes())
            configs.emplace_back(s, base);
        for (unsigned i = 0; i < 4; ++i) { // randomized dual schedules
            EtProfile prof = base;
            prof.dualNoPrefix = {
                1 + static_cast<unsigned>(rng.below(8)),
                static_cast<unsigned>(rng.below(5)),
                1 + static_cast<unsigned>(rng.below(8))};
            configs.emplace_back(EtScheme::kDual, std::move(prof));
        }

        for (const auto &[scheme, prof] : configs) {
            const FetchSimulator sim(vs, metric, scheme, &prof);
            for (unsigned trial = 0; trial < 6; ++trial) {
                const auto qsrc =
                    static_cast<VectorId>(rng.below(vs.size()));
                const std::vector<float> q = vs.toFloat(qsrc);
                const auto gt =
                    anns::bruteForceKnn(metric, q.data(), vs, kK);
                const std::vector<double> et =
                    etTopKDistances(sim, vs, q.data(), kK);
                ASSERT_EQ(et.size(), gt.size())
                    << schemeName(scheme);
                for (std::size_t i = 0; i < kK; ++i)
                    EXPECT_DOUBLE_EQ(et[i], gt[i].dist)
                        << schemeName(scheme) << " rank " << i;
            }
        }
    }
}

TEST(FetchSimInvariants, AuditCleanAcrossSchemes)
{
    // Run the fetch loop with the audit layer live: every per-step
    // DCHECK (bound monotonicity, cursor limits, final bound vs exact
    // distance) fires on violation, so a clean pass demonstrates the
    // invariants hold across schemes and thresholds.
    setAuditEnabled(true);
    const Workload &w = workload(DatasetId::kDeep);
    for (const EtScheme s : {EtScheme::kBitSerial, EtScheme::kHeuristic,
                             EtScheme::kDual, EtScheme::kOpt}) {
        const FetchSimulator sim(*w.ds.base, w.ds.metric(), s, &w.profile);
        for (const auto &q : w.ds.queries) {
            for (VectorId v = 0; v < 100; ++v) {
                // A tight threshold exercises early termination, the
                // infinite one exercises the full-fetch final check.
                (void)sim.simulate(q.data(), v, 1.0);
                (void)sim.simulate(
                    q.data(), v, std::numeric_limits<double>::infinity());
            }
        }
    }
    setAuditEnabled(false);
}

TEST(FetchSimInvariants, BadDimensionRangePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Workload &w = workload(DatasetId::kDeep);
    const FetchSimulator sim(*w.ds.base, w.ds.metric(), EtScheme::kHeuristic,
                             &w.profile);
    const auto &q = w.ds.queries.front();
    EXPECT_DEATH(sim.simulateRange(q.data(), 0, 1.0, 5, 5),
                 "bad dimension range");
    // Plans are built at construction only: a sub-vector size that
    // was never declared has none.
    EXPECT_DEATH(sim.simulateRange(q.data(), 0, 1.0, 0, 7),
                 "no fetch plan for a 7-dimension sub-vector");
}

/**
 * Vectors of @p type clustered in one binade, so a common key prefix
 * exists, with one far element in every fifth vector: kOpt then
 * eliminates a prefix and keeps those vectors as outliers.
 */
anns::VectorSet
clusteredVectors(anns::ScalarType type, std::size_t n, unsigned dims,
                 std::uint64_t seed)
{
    Prng rng(seed);
    anns::VectorSet vs(n, dims, type);
    for (std::size_t v = 0; v < n; ++v) {
        for (unsigned d = 0; d < dims; ++d) {
            const bool far = v % 5 == 0 && d == v % dims;
            float x;
            switch (type) {
              case anns::ScalarType::kUint8:
                x = far ? 200.0f : static_cast<float>(64 + rng.below(64));
                break;
              case anns::ScalarType::kInt8:
                x = far ? -100.0f : static_cast<float>(64 + rng.below(64));
                break;
              default:
                x = far ? -3.0f : static_cast<float>(rng.uniform(1.0, 1.99));
            }
            vs.set(static_cast<VectorId>(v), d, x);
        }
    }
    return vs;
}

/** The full range of @p dims dimensions plus a four-way split. */
std::vector<std::pair<unsigned, unsigned>>
referenceRanges(unsigned dims)
{
    std::vector<std::pair<unsigned, unsigned>> ranges = {{0, dims}};
    for (unsigned r = 0; r < 4; ++r)
        ranges.emplace_back(r * dims / 4, (r + 1) * dims / 4);
    return ranges;
}

/** Sub-vector sizes of referenceRanges(@p dims), for the simulator. */
std::vector<unsigned>
referenceSizes(unsigned dims)
{
    std::vector<unsigned> sizes;
    for (const auto &[b, e] : referenceRanges(dims))
        sizes.push_back(e - b);
    return sizes;
}

/**
 * Run every comparison of @p vs against @p q through @p sim and the
 * reference loop, on every kernel tier with audit off and on, and
 * demand the six FetchResult fields match exactly.
 */
void
expectMatchesReference(const FetchSimulator &sim, const anns::VectorSet &vs,
                       anns::Metric metric, ValueInterval global_range,
                       const std::vector<float> &q,
                       const std::vector<double> &thresholds,
                       const std::string &label)
{
    const auto ranges = referenceRanges(vs.dims());

    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
        if (!anns::setKernelLevel(level))
            continue;
        for (const bool audit : {false, true}) {
            setAuditEnabled(audit);
            for (const auto &[b, e] : ranges) {
                for (const double t : thresholds) {
                    for (VectorId v = 0; v < vs.size(); ++v) {
                        const FetchResult got =
                            sim.simulateRange(q.data(), v, t, b, e);
                        const FetchResult want =
                            test::referenceSimulateRange(
                                sim, vs, metric, global_range, q.data(),
                                v, t, b, e);
                        std::ostringstream where;
                        where << label << " tier=" << simdLevelName(level)
                              << " audit=" << audit << " dims=[" << b
                              << "," << e << ") threshold=" << t
                              << " v=" << v;
                        EXPECT_EQ(got.lines, want.lines) << where.str();
                        EXPECT_EQ(got.backupLines, want.backupLines)
                            << where.str();
                        EXPECT_EQ(got.terminatedEarly, want.terminatedEarly)
                            << where.str();
                        EXPECT_EQ(got.accepted, want.accepted)
                            << where.str();
                        EXPECT_EQ(got.exactDist, want.exactDist)
                            << where.str();
                        EXPECT_EQ(got.estimate, want.estimate)
                            << where.str();
                    }
                }
            }
        }
    }
}

TEST(FetchSimReference, StagedLinesMatchPerElementLoop)
{
    // The line-staged simulator against the per-element reference
    // loop: every scheme (plus the null-profile path of the schemes
    // that allow one), every type, both metrics, the full range and a
    // four-way split, kOpt outlier and normal vectors, low, mid and
    // infinite thresholds, every kernel tier, audit off and on.
    constexpr std::size_t kN = 40;
    // The passes below switch tier and audit mode; restore both
    // however the test exits.
    const ansmet::test::AuditGuard audit_guard(auditEnabled());
    const ansmet::test::KernelLevelGuard level_guard;

    for (const anns::ScalarType type :
         {anns::ScalarType::kUint8, anns::ScalarType::kInt8,
          anns::ScalarType::kFp16, anns::ScalarType::kFp32}) {
        const anns::VectorSet vs = clusteredVectors(type, kN, 45, 5);
        for (const anns::Metric metric :
             {anns::Metric::kL2, anns::Metric::kIp}) {
            ProfileConfig pc;
            pc.numSamples = 20;
            pc.maxPairs = 200;
            pc.outlierFrac = 0.02;
            const EtProfile prof = buildProfile(vs, metric, pc);

            std::vector<float> q = vs.toFloat(3);
            Prng rng(17);
            for (float &x : q)
                x += static_cast<float>(rng.uniform(-0.5, 0.5));
            std::vector<double> dists;
            for (VectorId v = 0; v < kN; ++v)
                dists.push_back(anns::distance(metric, q.data(), vs, v));
            std::sort(dists.begin(), dists.end());
            const std::vector<double> thresholds = {
                dists[kN / 10], dists[kN / 2],
                std::numeric_limits<double>::infinity()};

            for (const EtScheme scheme : allSchemes()) {
                const std::string label =
                    std::string(anns::scalarName(type)) + " " +
                    anns::metricName(metric) + " " + schemeName(scheme);
                const FetchSimulator sim(vs, metric, scheme, &prof,
                                         referenceSizes(vs.dims()));
                if (scheme == EtScheme::kOpt) {
                    const PrefixElimination *pe = sim.prefixElimination();
                    ASSERT_GT(pe->prefix().length, 0u) << label;
                    ASSERT_GT(pe->numOutlierVectors(), 0u) << label;
                    ASSERT_LT(pe->numOutlierVectors(), kN) << label;
                }
                expectMatchesReference(sim, vs, metric, prof.globalRange,
                                       q, thresholds, label);
                if (scheme == EtScheme::kDual || scheme == EtScheme::kOpt)
                    continue;
                const FetchSimulator bare(vs, metric, scheme, nullptr,
                                          referenceSizes(vs.dims()));
                expectMatchesReference(bare, vs, metric,
                                       globalValueRange(vs), q, thresholds,
                                       label + " null-profile");
            }
        }
    }
}

} // namespace
} // namespace ansmet::et
