/**
 * @file
 * Kernel-parity suite for the SIMD batch-kernel layer.
 *
 * Every compiled ISA tier must produce bitwise-identical results to
 * the scalar reference (the canonical blocked-summation contract in
 * anns/kernels.h), the batched forms must match the single-row forms
 * exactly, and the bound kernels must uphold the conservative-bound
 * contract: the accumulated lower bound never exceeds the exact
 * distance. The cross-tier tests therefore use EXPECT_EQ on doubles —
 * exact equality, not tolerances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "anns/distance.h"
#include "anns/kernels.h"
#include "anns/vector.h"
#include "common/bitops.h"
#include "common/check.h"
#include "common/prng.h"
#include "common/simd.h"
#include "et/bounds.h"
#include "et/fetchsim.h"
#include "et/profile.h"
#include "et/sortable.h"
#include "test_guards.h"

namespace ansmet::anns {
namespace {

constexpr ScalarType kTypes[] = {ScalarType::kUint8, ScalarType::kInt8,
                                 ScalarType::kFp16, ScalarType::kFp32};

// Dimension counts straddling the 16-lane block boundary, plus the
// degenerate and GIST-sized cases.
constexpr unsigned kDims[] = {1, 3, 95, 96, 97, 960};

using test::AuditGuard;
using test::KernelLevelGuard;

std::vector<const KernelOps *>
simdTiers()
{
    std::vector<const KernelOps *> tiers;
    for (const SimdLevel l : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
        if (const KernelOps *ops = kernelsFor(l))
            tiers.push_back(ops);
    }
    return tiers;
}

/**
 * Fill vector @p v with type-appropriate pseudorandom values,
 * including negatives for the signed types and denormals for the
 * float types (exercised through the exact-conversion contract).
 */
void
fillVector(VectorSet &vs, VectorId v, Prng &rng)
{
    for (unsigned d = 0; d < vs.dims(); ++d) {
        float x = 0.0f;
        switch (vs.type()) {
          case ScalarType::kUint8:
            x = static_cast<float>(rng.below(256));
            break;
          case ScalarType::kInt8:
            x = static_cast<float>(rng.below(256)) - 128.0f;
            break;
          case ScalarType::kFp16:
            // Every 16th element a subnormal-scale value.
            x = d % 16 == 7
                    ? static_cast<float>(rng.uniform(-6e-5, 6e-5))
                    : static_cast<float>(rng.uniform(-8.0, 8.0));
            break;
          case ScalarType::kFp32:
            x = d % 16 == 7
                    ? static_cast<float>(rng.uniform(-1e-38, 1e-38))
                    : static_cast<float>(rng.uniform(-8.0, 8.0));
            break;
        }
        vs.set(v, d, x);
    }
}

std::vector<float>
randomQuery(unsigned dims, Prng &rng, bool denormals = true)
{
    std::vector<float> q(dims);
    for (unsigned d = 0; d < dims; ++d) {
        q[d] = denormals && d % 16 == 3
                   ? static_cast<float>(rng.uniform(-1e-38, 1e-38))
                   : static_cast<float>(rng.uniform(-8.0, 8.0));
    }
    return q;
}

TEST(KernelParity, RowDistanceMatchesScalarBitwise)
{
    const KernelOps *scalar = kernel_detail::scalarKernels();
    ASSERT_NE(scalar, nullptr);
    const auto tiers = simdTiers();

    Prng rng(11);
    for (const ScalarType t : kTypes) {
        for (const unsigned dims : kDims) {
            VectorSet vs(4, dims, t);
            for (VectorId v = 0; v < 4; ++v)
                fillVector(vs, v, rng);
            const auto q = randomQuery(dims, rng);
            const unsigned ti = typeIndex(t);
            for (VectorId v = 0; v < 4; ++v) {
                const double l2_ref =
                    scalar->l2[ti](q.data(), vs.raw(v), dims);
                const double dot_ref =
                    scalar->dot[ti](q.data(), vs.raw(v), dims);
                for (const KernelOps *ops : tiers) {
                    EXPECT_EQ(ops->l2[ti](q.data(), vs.raw(v), dims),
                              l2_ref)
                        << scalarName(t) << " dims=" << dims << " tier="
                        << simdLevelName(ops->level);
                    EXPECT_EQ(ops->dot[ti](q.data(), vs.raw(v), dims),
                              dot_ref)
                        << scalarName(t) << " dims=" << dims << " tier="
                        << simdLevelName(ops->level);
                }
            }
        }
    }
}

TEST(KernelParity, BatchMatchesSingleRowExactly)
{
    const KernelOps *scalar = kernel_detail::scalarKernels();
    ASSERT_NE(scalar, nullptr);
    auto tiers = simdTiers();
    tiers.push_back(scalar); // the scalar batch form must also agree

    Prng rng(12);
    for (const ScalarType t : kTypes) {
        for (const unsigned dims : {3u, 96u, 97u}) {
            const std::size_t n = 33; // odd, exercises batch tails
            VectorSet vs(n, dims, t);
            for (VectorId v = 0; v < n; ++v)
                fillVector(vs, v, rng);
            const auto q = randomQuery(dims, rng);
            const unsigned ti = typeIndex(t);

            // Scattered ids, some repeated.
            std::vector<VectorId> ids;
            for (std::size_t i = 0; i < n; ++i)
                ids.push_back(static_cast<VectorId>((i * 7 + 3) % n));

            std::vector<double> out(n);
            for (const KernelOps *ops : tiers) {
                ops->l2Batch[ti](q.data(), vs.raw(0), vs.vectorBytes(),
                                 ids.data(), n, dims, out.data());
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(out[i], scalar->l2[ti](q.data(),
                                                     vs.raw(ids[i]), dims))
                        << scalarName(t) << " dims=" << dims << " tier="
                        << simdLevelName(ops->level) << " i=" << i;
                }
                ops->dotBatch[ti](q.data(), vs.raw(0), vs.vectorBytes(),
                                  ids.data(), n, dims, out.data());
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(out[i], scalar->dot[ti](q.data(),
                                                      vs.raw(ids[i]), dims))
                        << scalarName(t) << " dims=" << dims << " tier="
                        << simdLevelName(ops->level) << " i=" << i;
                }
            }
        }
    }
}

TEST(KernelParity, NormalizeMatchesScalarBitwise)
{
    const KernelOps *scalar = kernel_detail::scalarKernels();
    ASSERT_NE(scalar, nullptr);
    const auto tiers = simdTiers();

    Prng rng(13);
    for (const unsigned dims : kDims) {
        const auto base = randomQuery(dims, rng, /*denormals=*/false);

        auto ref = base;
        scalar->normalize(ref.data(), dims);
        double norm = 0.0;
        for (unsigned d = 0; d < dims; ++d)
            norm += static_cast<double>(ref[d]) * ref[d];
        EXPECT_NEAR(norm, 1.0, 1e-5) << "dims=" << dims;

        for (const KernelOps *ops : tiers) {
            auto v = base;
            ops->normalize(v.data(), dims);
            for (unsigned d = 0; d < dims; ++d) {
                EXPECT_EQ(v[d], ref[d])
                    << "dims=" << dims << " tier="
                    << simdLevelName(ops->level) << " d=" << d;
            }
        }
    }
}

TEST(KernelParity, BoundBatchMatchesScalarBitwise)
{
    const KernelOps *scalar = kernel_detail::scalarKernels();
    ASSERT_NE(scalar, nullptr);
    const auto tiers = simdTiers();

    Prng rng(14);
    for (const bool is_l2 : {true, false}) {
        for (const unsigned dims : kDims) {
            const auto q = randomQuery(dims, rng);

            // Reference interval state plus one clone per tier; feed
            // all of them the same progressively tightening rounds and
            // demand bitwise-equal deltas AND bitwise-equal state.
            std::vector<double> lo(dims, -10.0), hi(dims, 10.0);
            std::vector<double> contrib(dims, 0.0);
            for (unsigned d = 0; d < dims; ++d) {
                // Seed contributions consistently with [lo, hi].
                const double qd = q[d];
                if (is_l2) {
                    contrib[d] = qd < lo[d]
                                     ? (lo[d] - qd) * (lo[d] - qd)
                                     : (qd > hi[d]
                                            ? (qd - hi[d]) * (qd - hi[d])
                                            : 0.0);
                } else {
                    contrib[d] = qd >= 0.0 ? hi[d] * qd : lo[d] * qd;
                }
            }
            struct State
            {
                const KernelOps *ops;
                std::vector<double> lo, hi, contrib;
                double total = 0.0;
            };
            std::vector<State> states;
            for (const KernelOps *ops : tiers)
                states.push_back({ops, lo, hi, contrib, 0.0});
            State ref{scalar, lo, hi, contrib, 0.0};

            std::vector<double> nlo(dims), nhi(dims);
            for (int round = 0; round < 4; ++round) {
                for (unsigned d = 0; d < dims; ++d) {
                    // Overlapping refinement: the intersection with the
                    // current interval is never empty.
                    const double mid = (ref.lo[d] + ref.hi[d]) / 2;
                    nlo[d] = rng.uniform(ref.lo[d] - 1.0, mid);
                    nhi[d] = rng.uniform(mid, ref.hi[d] + 1.0);
                }
                const auto run = [&](State &s) {
                    const BoundBatchFn fn =
                        is_l2 ? s.ops->boundL2 : s.ops->boundIp;
                    s.total += fn(q.data(), s.lo.data(), s.hi.data(),
                                  s.contrib.data(), nlo.data(), nhi.data(),
                                  dims);
                };
                run(ref);
                for (State &s : states) {
                    run(s);
                    EXPECT_EQ(s.total, ref.total)
                        << (is_l2 ? "L2" : "IP") << " dims=" << dims
                        << " tier=" << simdLevelName(s.ops->level)
                        << " round=" << round;
                    for (unsigned d = 0; d < dims; ++d) {
                        EXPECT_EQ(s.lo[d], ref.lo[d]) << "d=" << d;
                        EXPECT_EQ(s.hi[d], ref.hi[d]) << "d=" << d;
                        EXPECT_EQ(s.contrib[d], ref.contrib[d])
                            << "d=" << d;
                    }
                }
            }
        }
    }
}

/**
 * Keys that stress the staging op's clamp and decode: for the float
 * types ±0, denormals, the finite extremes next to the clamp, ±Inf
 * and NaNs (as raw bit patterns); for every type the ends of the key
 * space; then random keys to fill @p n slots.
 */
std::vector<std::uint32_t>
stagingKeys(ScalarType t, unsigned n, Prng &rng)
{
    std::vector<std::uint32_t> raws;
    if (t == ScalarType::kFp32) {
        raws = {0x00000000u, 0x80000000u, 0x00000001u, 0x007fffffu,
                0x80000001u, 0x807fffffu, 0x00800000u, 0x80800000u,
                0x7f7fffffu, 0xff7fffffu, 0x7f7ffffeu, 0xff7ffffeu,
                0x7f800000u, 0xff800000u, 0x7fc00000u, 0xffc00000u,
                0x7f800001u, 0xff800001u, 0x7fffffffu, 0xffffffffu};
    } else if (t == ScalarType::kFp16) {
        raws = {0x0000u, 0x8000u, 0x0001u, 0x03ffu, 0x8001u, 0x83ffu,
                0x0400u, 0x8400u, 0x7bffu, 0xfbffu, 0x7bfeu, 0xfbfeu,
                0x7c00u, 0xfc00u, 0x7e00u, 0xfe00u, 0x7c01u, 0xfc01u,
                0x7fffu, 0xffffu};
    } else {
        raws = {0x00u, 0x01u, 0x7fu, 0x80u, 0x81u, 0xfeu, 0xffu};
    }
    const unsigned w = et::keyBits(t);
    const auto top = static_cast<std::uint32_t>(maskLow(w));
    std::vector<std::uint32_t> keys;
    for (const std::uint32_t r : raws)
        keys.push_back(et::toKey(t, r));
    for (const std::uint32_t k : {0u, 1u, top >> 1, (top >> 1) + 1, top})
        keys.push_back(k);
    while (keys.size() < n)
        keys.push_back(static_cast<std::uint32_t>(rng.next()) & top);
    keys.resize(n);
    return keys;
}

TEST(KernelParity, PrefixIntervalsMatchIntervalFromPrefix)
{
    auto tiers = simdTiers();
    tiers.push_back(kernel_detail::scalarKernels());

    // Lengths that leave every 8- and 16-lane tail shape, up to a
    // full 1-bit line (512 elements).
    constexpr unsigned kMax = 512;
    const unsigned lengths[] = {1,  2,  7,  8,  9,  15, 16,  17,
                                23, 24, 31, 33, 45, 64, 85, kMax};
    constexpr double kUntouched = 12345.5;

    Prng rng(17);
    for (const ScalarType t : kTypes) {
        const unsigned w = et::keyBits(t);
        const unsigned ti = typeIndex(t);
        const auto keys = stagingKeys(t, kMax, rng);
        std::vector<double> lo(kMax + 16), hi(kMax + 16);
        for (const KernelOps *ops : tiers) {
            ASSERT_NE(ops->prefixIntervals[ti], nullptr);
            for (unsigned known = 1; known <= w; ++known) {
                for (const unsigned n : lengths) {
                    std::fill(lo.begin(), lo.end(), kUntouched);
                    std::fill(hi.begin(), hi.end(), kUntouched);
                    ops->prefixIntervals[ti](keys.data(), n, known,
                                             lo.data(), hi.data());
                    for (unsigned i = 0; i < n; ++i) {
                        const et::ValueInterval want =
                            et::intervalFromPrefix(
                                t, keys[i] >> (w - known), known);
                        EXPECT_EQ(lo[i], want.lo)
                            << scalarName(t) << " tier="
                            << simdLevelName(ops->level) << " known="
                            << known << " n=" << n << " key=" << keys[i];
                        EXPECT_EQ(hi[i], want.hi)
                            << scalarName(t) << " tier="
                            << simdLevelName(ops->level) << " known="
                            << known << " n=" << n << " key=" << keys[i];
                    }
                    for (unsigned i = n; i < lo.size(); ++i) {
                        EXPECT_EQ(lo[i], kUntouched) << "wrote past n=" << n;
                        EXPECT_EQ(hi[i], kUntouched) << "wrote past n=" << n;
                    }
                }
            }
        }
    }
}

TEST(KernelDispatch, OverrideAndRestore)
{
    KernelLevelGuard guard;

    ASSERT_TRUE(setKernelLevel(SimdLevel::kScalar));
    EXPECT_EQ(activeKernelLevel(), SimdLevel::kScalar);

    for (const SimdLevel l : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
        if (kernelsFor(l)) {
            EXPECT_TRUE(setKernelLevel(l));
            EXPECT_EQ(activeKernelLevel(), l);
            EXPECT_EQ(kernels().level, l);
        } else {
            EXPECT_FALSE(setKernelLevel(l));
        }
    }
}

TEST(KernelDispatch, KernelsForScalarAlwaysAvailable)
{
    const KernelOps *ops = kernelsFor(SimdLevel::kScalar);
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->level, SimdLevel::kScalar);
    for (const ScalarType t : kTypes) {
        EXPECT_NE(ops->l2[typeIndex(t)], nullptr);
        EXPECT_NE(ops->dot[typeIndex(t)], nullptr);
        EXPECT_NE(ops->l2Batch[typeIndex(t)], nullptr);
        EXPECT_NE(ops->dotBatch[typeIndex(t)], nullptr);
    }
    EXPECT_NE(ops->normalize, nullptr);
    EXPECT_NE(ops->boundL2, nullptr);
    EXPECT_NE(ops->boundIp, nullptr);
    for (const ScalarType t : kTypes)
        EXPECT_NE(ops->prefixIntervals[typeIndex(t)], nullptr);
}

/**
 * The conservative-bound contract, audited: refining a vector's value
 * intervals prefix-bit by prefix-bit must keep the accumulated lower
 * bound at or below the exact distance, for every scalar type, both
 * metrics, and every kernel tier.
 */
TEST(BoundContract, NeverExceedsExactUnderAudit)
{
    KernelLevelGuard level_guard;
    AuditGuard audit(true);

    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
        if (!setKernelLevel(level))
            continue;
        Prng rng(15);
        for (const ScalarType t : kTypes) {
            const unsigned dims = 40;
            const unsigned w = et::keyBits(t);
            VectorSet vs(8, dims, t);
            for (VectorId v = 0; v < 8; ++v)
                fillVector(vs, v, rng);

            // Dataset-wide value range (IP's fallback for unknowns).
            const et::ValueInterval range = et::globalValueRange(vs);

            const auto q = vs.toFloat(0);
            for (const Metric m : {Metric::kL2, Metric::kIp}) {
                for (VectorId v = 1; v < 8; ++v) {
                    const double exact =
                        distance(m, q.data(), vs, v);
                    const double slack =
                        1e-6 * (1.0 + std::abs(exact));
                    et::BoundAccumulator acc(m, q.data(), dims, range);
                    std::vector<double> nlo(dims), nhi(dims);
                    for (unsigned len = 1; len <= w; ++len) {
                        for (unsigned d = 0; d < dims; ++d) {
                            const auto key =
                                et::toKey(t, vs.bitsAt(v, d));
                            const et::ValueInterval iv =
                                et::intervalFromPrefix(
                                    t, key >> (w - len), len);
                            nlo[d] = iv.lo;
                            nhi[d] = iv.hi;
                        }
                        acc.updateBatch(0, dims, nlo.data(), nhi.data());
                        EXPECT_LE(acc.lowerBound(), exact + slack)
                            << scalarName(t) << " v=" << v << " len="
                            << len << " metric="
                            << (m == Metric::kL2 ? "L2" : "IP")
                            << " tier=" << simdLevelName(level);
                    }
                }
            }
        }
    }
}

/**
 * End-to-end tier invariance: the fetch simulator must report the
 * exact same per-comparison outcome (lines fetched, termination,
 * estimate, decision) no matter which kernel tier computed it, for
 * every scalar type (fp32 has its own SIMD interval staging).
 */
TEST(BoundContract, FetchResultsIdenticalAcrossTiers)
{
    KernelLevelGuard level_guard;
    AuditGuard audit(true);

    Prng rng(16);
    const unsigned dims = 32;
    for (const ScalarType t : kTypes) {
        VectorSet vs(32, dims, t);
        for (VectorId v = 0; v < 32; ++v)
            fillVector(vs, v, rng);
        const auto q = vs.toFloat(0);

        for (const Metric m : {Metric::kL2, Metric::kIp}) {
            for (const et::EtScheme scheme :
                 {et::EtScheme::kBitSerial, et::EtScheme::kHeuristic}) {
                // No profile: IP's bound on unfetched dimensions then
                // starts from the dataset's own value range.
                const et::FetchSimulator sim(vs, m, scheme, nullptr);
                const double threshold =
                    distance(m, q.data(), vs, 7); // plausible mid threshold

                std::vector<std::vector<et::FetchResult>> per_tier;
                for (const SimdLevel level :
                     {SimdLevel::kScalar, SimdLevel::kAvx2,
                      SimdLevel::kAvx512}) {
                    if (!setKernelLevel(level))
                        continue;
                    std::vector<et::FetchResult> outs;
                    for (VectorId v = 1; v < 32; ++v)
                        outs.push_back(sim.simulate(q.data(), v, threshold));
                    per_tier.push_back(std::move(outs));
                }
                ASSERT_GE(per_tier.size(), 1u);
                for (std::size_t tier = 1; tier < per_tier.size(); ++tier) {
                    for (std::size_t i = 0; i < per_tier[0].size(); ++i) {
                        const et::FetchResult &a = per_tier[tier][i];
                        const et::FetchResult &b = per_tier[0][i];
                        EXPECT_EQ(a.lines, b.lines) << scalarName(t) << i;
                        EXPECT_EQ(a.terminatedEarly, b.terminatedEarly)
                            << scalarName(t) << i;
                        EXPECT_EQ(a.accepted, b.accepted)
                            << scalarName(t) << i;
                        EXPECT_EQ(a.exactDist, b.exactDist)
                            << scalarName(t) << i;
                        EXPECT_EQ(a.estimate, b.estimate)
                            << scalarName(t) << i;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace ansmet::anns
