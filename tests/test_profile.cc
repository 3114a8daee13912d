/**
 * @file
 * Sampling-based preprocessing tests: threshold percentiles, entropy
 * and ET-frequency profiles (Figure 3's shapes), the one-sort entropy
 * pass against its per-length reference, the dual-granularity cost
 * model and optimizer, KL divergence, and the size preconditions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "anns/dataset.h"
#include "common/prng.h"
#include "et/profile.h"
#include "reference_profile.h"

namespace ansmet::et {
namespace {

using anns::DatasetId;

/** Lines an FP32 dual plan fetches until pET @p p_et: the cost
 *  optimizeDual() minimizes. */
std::uint64_t
dualCost(unsigned p_et, unsigned prefix_len, unsigned dims,
         const DualParams &dp)
{
    return planCostLines(FetchPlanSpec::dual(ScalarType::kFp32, dims,
                                             prefix_len, dp.nc, dp.tc,
                                             dp.nf),
                         p_et, 32);
}

TEST(AccessCost, CoarseOnlyRange)
{
    // W=32, no prefix, nc=8 x tc=4 covers everything; nf unused.
    const DualParams dp{8, 4, 4};
    // 64 dims at 8 bits -> 512 bits/line -> 1 line per step.
    EXPECT_EQ(dualCost(1, 0, 64, dp), 1u);
    EXPECT_EQ(dualCost(8, 0, 64, dp), 1u);
    EXPECT_EQ(dualCost(9, 0, 64, dp), 2u);
    EXPECT_EQ(dualCost(32, 0, 64, dp), 4u);
    // Never terminated: full fetch.
    EXPECT_EQ(dualCost(33, 0, 64, dp), 4u);
}

TEST(AccessCost, FineRangeAfterCoarse)
{
    // nc=8 x tc=2, then nf=2 for the rest (16 bits).
    const DualParams dp{8, 2, 2};
    const unsigned dims = 64;
    // Terminating at bit 17 needs 2 coarse + 1 fine step.
    // Coarse lines/step: 64 dims @ 8 bits = 1; fine: 64 @ 2 bits = 1.
    EXPECT_EQ(dualCost(17, 0, dims, dp), 3u);
    EXPECT_EQ(dualCost(18, 0, dims, dp), 3u);
    EXPECT_EQ(dualCost(19, 0, dims, dp), 4u);
}

TEST(AccessCost, PrefixShiftsPositions)
{
    const DualParams dp{8, 4, 4};
    // pET inside the eliminated prefix still costs one step.
    EXPECT_EQ(dualCost(3, 6, 64, dp), dualCost(7, 6, 64, dp));
    EXPECT_GT(dualCost(20, 0, 64, dp), dualCost(20, 6, 64, dp));
}

TEST(AccessCost, HighDimDatasetsNeedMultipleLinesPerStep)
{
    const DualParams dp{8, 4, 4};
    // 960 dims at 8 bits = 15 lines per coarse step.
    EXPECT_EQ(dualCost(8, 0, 960, dp), 15u);
    EXPECT_EQ(dualCost(16, 0, 960, dp), 30u);
}

TEST(OptimizeDual, PrefersCoarseWhenTerminationIsLate)
{
    // Every pair terminates deep (bit 24 of 32): fine early steps
    // would waste fetches, so the optimizer should cover the first ~24
    // bits with coarse steps.
    std::vector<unsigned> positions(100, 24);
    const DualParams dp = optimizeDual(positions, 32, 0, 64);
    const unsigned coarse_covered = dp.nc * dp.tc;
    EXPECT_GE(coarse_covered + dp.nf, 24u);
    // Optimal cost: with 64 dims, 8-bit steps pack one line each, so
    // bit 24 is reachable in 3 lines and nothing can do better than
    // ceil(24 * 64 / 512) = 3.
    EXPECT_LE(dualCost(24, 0, 64, dp), 3u);
}

TEST(OptimizeDual, PrefersFineWhenTerminationIsEarlyAndSpread)
{
    // Terminations spread over bits 2..9: small steps win.
    std::vector<unsigned> positions;
    for (unsigned i = 0; i < 100; ++i)
        positions.push_back(2 + i % 8);
    const DualParams dp = optimizeDual(positions, 32, 0, 64);

    // The chosen plan must beat a naive uniform-8 plan on cost.
    const DualParams naive{8, 4, 8};
    std::uint64_t chosen = 0, base = 0;
    for (const unsigned p : positions) {
        chosen += dualCost(p, 0, 64, dp);
        base += dualCost(p, 0, 64, naive);
    }
    EXPECT_LE(chosen, base);
}

TEST(OptimizeDual, RespectsPrefixBudget)
{
    std::vector<unsigned> positions(50, 12);
    const DualParams dp = optimizeDual(positions, 32, 26, 64);
    EXPECT_LE(dp.nc, 6u); // only 6 payload bits exist
}

TEST(KlDivergence, BasicProperties)
{
    const std::vector<double> p = {0.5, 0.3, 0.2};
    const std::vector<double> q = {0.1, 0.3, 0.6};
    EXPECT_NEAR(klDivergence(p, p), 0.0, 1e-9);
    EXPECT_GT(klDivergence(p, q), 0.0);
    // Asymmetric in general.
    EXPECT_NE(klDivergence(p, q), klDivergence(q, p));
}

class ProfileTest : public ::testing::Test
{
  protected:
    static const EtProfile &
    deepProfile()
    {
        static const EtProfile prof = [] {
            const auto ds = anns::makeDataset(DatasetId::kDeep, 2000, 10, 1);
            ProfileConfig cfg;
            cfg.maxPairs = 1000;
            return buildProfile(*ds.base, ds.metric(), cfg);
        }();
        return prof;
    }
};

TEST_F(ProfileTest, ThresholdIsLowPercentile)
{
    const auto &prof = deepProfile();
    EXPECT_GT(prof.threshold, 0.0);
    // DEEP vectors are unit norm: squared distances lie in [0, 4];
    // the 10th percentile must sit well below the maximum.
    EXPECT_LT(prof.threshold, 2.0);
}

TEST_F(ProfileTest, EntropyLowAtTopBitsHighInMiddle)
{
    const auto &prof = deepProfile();
    ASSERT_EQ(prof.prefixEntropy.size(), 32u);
    // The paper's low-entropy range: mostly-positive normalized fp32
    // shares sign+exponent prefixes.
    const double head = prof.prefixEntropy[2];
    const double mid = prof.prefixEntropy[11];
    EXPECT_LT(head, mid);
    // Entropy is non-decreasing in prefix length by definition.
    for (std::size_t i = 1; i < prof.prefixEntropy.size(); ++i)
        EXPECT_GE(prof.prefixEntropy[i], prof.prefixEntropy[i - 1] - 1e-9);
}

TEST_F(ProfileTest, EtFrequencyConcentratedInMiddleBits)
{
    const auto &prof = deepProfile();
    double head = 0.0, middle = 0.0;
    for (unsigned l = 0; l < 4; ++l)
        head += prof.etFrequency[l];
    for (unsigned l = 4; l < 20; ++l)
        middle += prof.etFrequency[l];
    EXPECT_GT(middle, head);
    const double total =
        std::accumulate(prof.etFrequency.begin(), prof.etFrequency.end(),
                        0.0);
    EXPECT_LE(total, 1.0 + 1e-9);
    EXPECT_GT(total, 0.3) << "most pairs should early-terminate";
}

TEST_F(ProfileTest, CommonPrefixFound)
{
    const auto &prof = deepProfile();
    EXPECT_GT(prof.commonPrefix.length, 0u);
    EXPECT_LT(prof.commonPrefix.length, 32u);
}

TEST_F(ProfileTest, FetchDistributionIsNormalized)
{
    const auto &prof = deepProfile();
    const double total = std::accumulate(prof.fetchCountDist.begin(),
                                         prof.fetchCountDist.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

/** Key sets the entropy pass must reproduce bitwise, per key width. */
std::vector<std::pair<const char *, std::vector<std::uint32_t>>>
entropyKeySets(unsigned w)
{
    const std::uint32_t mask =
        w == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << w) - 1;
    constexpr std::size_t kN = 5000;
    Prng rng(w);

    std::vector<std::uint32_t> random(kN);
    for (auto &k : random)
        k = static_cast<std::uint32_t>(rng.next()) & mask;

    // Five centers with noise in the low three bits: every prefix
    // short enough to drop the noise has at most five values.
    std::uint32_t centers[5];
    for (auto &c : centers)
        c = static_cast<std::uint32_t>(rng.next()) & mask & ~7u;
    std::vector<std::uint32_t> clustered(kN);
    for (auto &k : clustered)
        k = centers[rng.below(5)] | static_cast<std::uint32_t>(rng.below(8));

    const std::vector<std::uint32_t> equal(kN, 0x5a5a5a5au & mask);

    // Distinct keys in shuffled order: kN of them, or every 8-bit key
    // once (i times an odd constant is a bijection modulo 2^w).
    std::vector<std::uint32_t> distinct(
        std::min<std::size_t>(kN, std::size_t{mask} + 1));
    for (std::size_t i = 0; i < distinct.size(); ++i)
        distinct[i] = static_cast<std::uint32_t>(i * 2654435761u) & mask;
    for (std::size_t i = distinct.size() - 1; i > 0; --i)
        std::swap(distinct[i], distinct[rng.below(i + 1)]);

    return {{"random", random},
            {"clustered", clustered},
            {"all-equal", equal},
            {"all-distinct", distinct},
            {"one key", {0x1234567u & mask}}};
}

TEST(PrefixEntropy, OneSortMatchesPerLengthSortsBitwise)
{
    for (const unsigned w : {8u, 16u, 32u}) {
        for (const auto &[name, keys] : entropyKeySets(w)) {
            const std::vector<double> got = prefixEntropy(keys, w);
            ASSERT_EQ(got.size(), w);
            EXPECT_EQ(got, test::referencePrefixEntropy(keys, w))
                << name << " keys, width " << w;
        }
    }
}

TEST(PrefixEntropy, KnownValues)
{
    // All-equal keys carry no information at any length; the 256
    // distinct 8-bit keys carry exactly L bits in their top L.
    for (const double h : prefixEntropy(std::vector<std::uint32_t>(9, 77), 8))
        EXPECT_EQ(h, 0.0);
    std::vector<std::uint32_t> all(256);
    std::iota(all.begin(), all.end(), 0u);
    const std::vector<double> h = prefixEntropy(all, 8);
    for (unsigned len = 1; len <= 8; ++len)
        EXPECT_DOUBLE_EQ(h[len - 1], static_cast<double>(len));
}

TEST(ProfileDeathTest, EmptyAndTinySetsDieWithAMessage)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const anns::VectorSet empty(0, 4, ScalarType::kFp32);
    EXPECT_DEATH((void)globalValueRange(empty),
                 "globalValueRange needs at least one vector");

    const anns::VectorSet one(1, 4, ScalarType::kFp32);
    EXPECT_DEATH((void)buildProfile(one, anns::Metric::kL2),
                 "buildProfile needs at least 2 vectors, got 1");

    anns::VectorSet two(2, 4, ScalarType::kFp32);
    two.set(1, 0, 1.0f);
    ProfileConfig cfg;
    cfg.numSamples = 1;
    EXPECT_DEATH((void)buildProfile(two, anns::Metric::kL2, cfg),
                 "buildProfile needs numSamples >= 2, got 1");
}

TEST(Profile, SmallestValidInputsBuild)
{
    anns::VectorSet two(2, 4, ScalarType::kFp32);
    two.set(1, 0, 1.0f);
    EXPECT_EQ(globalValueRange(two), (ValueInterval{0.0, 1.0}));
    ProfileConfig cfg;
    cfg.numSamples = 2;
    const EtProfile prof = buildProfile(two, anns::Metric::kL2, cfg);
    EXPECT_EQ(prof.etPositions.size(), 2u);
    EXPECT_EQ(prof.threshold, 1.0);
}

TEST(Profile, SamplingConvergence)
{
    // More samples -> lower KL divergence to a high-sample reference
    // (the Figure 11(a) experiment in miniature).
    const auto ds = anns::makeDataset(DatasetId::kDeep, 3000, 10, 2);

    auto freq = [&](std::size_t samples, std::uint64_t seed) {
        ProfileConfig cfg;
        cfg.numSamples = samples;
        cfg.maxPairs = 2000;
        cfg.seed = seed;
        return buildProfile(*ds.base, ds.metric(), cfg).etFrequency;
    };

    const auto ref = freq(120, 99);
    const double kl_small = klDivergence(freq(5, 7), ref);
    const double kl_large = klDivergence(freq(80, 7), ref);
    EXPECT_LT(kl_large, kl_small);
}

} // namespace
} // namespace ansmet::et
