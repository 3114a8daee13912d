/**
 * @file
 * ANNS primitives: scalar conversions, vector storage, distances,
 * heaps, brute force, recall, and the dataset generators.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "anns/bruteforce.h"
#include "anns/dataset.h"
#include "anns/distance.h"
#include "anns/heap.h"
#include "anns/vector.h"
#include "common/prng.h"

namespace ansmet::anns {
namespace {

TEST(Scalar, HalfRoundTripExactValues)
{
    // Values exactly representable in fp16 round-trip losslessly.
    for (const float f : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f,
                          65504.0f, -65504.0f, 6.1035156e-5f}) {
        EXPECT_EQ(halfToFloat(floatToHalf(f)), f) << f;
    }
}

TEST(Scalar, HalfSubnormals)
{
    const float tiny = 5.9604645e-8f; // smallest positive subnormal
    EXPECT_EQ(halfToFloat(floatToHalf(tiny)), tiny);
    EXPECT_EQ(halfToFloat(floatToHalf(tiny / 4)), 0.0f); // underflow
}

TEST(Scalar, HalfRounding)
{
    Prng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const float f = static_cast<float>(rng.uniform(-1000.0, 1000.0));
        const float back = halfToFloat(floatToHalf(f));
        // fp16 has ~3 decimal digits: relative error < 2^-10.
        EXPECT_NEAR(back, f, std::abs(f) * 0.001f + 1e-6f);
    }
}

TEST(VectorSet, TypedStorageRoundTrip)
{
    for (const ScalarType t :
         {ScalarType::kUint8, ScalarType::kInt8, ScalarType::kFp16,
          ScalarType::kFp32}) {
        VectorSet vs(4, 8, t);
        vs.set(1, 3, 42.0f);
        vs.set(2, 0, t == ScalarType::kUint8 ? 7.0f : -7.0f);
        EXPECT_EQ(vs.at(1, 3), 42.0f) << scalarName(t);
        EXPECT_EQ(vs.at(2, 0), t == ScalarType::kUint8 ? 7.0f : -7.0f);
        EXPECT_EQ(vs.at(0, 0), 0.0f);
    }
}

TEST(VectorSet, ClampsToRange)
{
    VectorSet u8(1, 2, ScalarType::kUint8);
    u8.set(0, 0, -5.0f);
    u8.set(0, 1, 300.0f);
    EXPECT_EQ(u8.at(0, 0), 0.0f);
    EXPECT_EQ(u8.at(0, 1), 255.0f);

    VectorSet i8(1, 2, ScalarType::kInt8);
    i8.set(0, 0, -200.0f);
    i8.set(0, 1, 200.0f);
    EXPECT_EQ(i8.at(0, 0), -128.0f);
    EXPECT_EQ(i8.at(0, 1), 127.0f);
}

TEST(VectorSet, ToFloatMatchesAtBitwise)
{
    Prng rng(11);
    for (const ScalarType t :
         {ScalarType::kUint8, ScalarType::kInt8, ScalarType::kFp16,
          ScalarType::kFp32}) {
        for (const unsigned dims : {1u, 7u, 100u, 960u}) {
            // Random bit patterns reach every sign, fp16 subnormals,
            // infinities and NaNs; vector 0's first element has its
            // sign bit forced, so even one dim sees a negative value.
            VectorSet vs(6, dims, t);
            for (VectorId v = 0; v < vs.size(); ++v) {
                std::uint8_t *p = vs.raw(v);
                for (std::size_t b = 0; b < vs.vectorBytes(); ++b)
                    p[b] = static_cast<std::uint8_t>(rng.next());
            }
            vs.raw(0)[scalarBytes(t) - 1] |= 0x80;
            if (t != ScalarType::kUint8) {
                EXPECT_TRUE(std::signbit(vs.at(0, 0))) << scalarName(t);
            }

            std::vector<float> out(dims);
            for (VectorId v = 0; v < vs.size(); ++v) {
                vs.toFloat(v, out.data());
                for (unsigned d = 0; d < dims; ++d) {
                    ASSERT_EQ(floatBits(out[d]), floatBits(vs.at(v, d)))
                        << scalarName(t) << " dims=" << dims << " v=" << v
                        << " d=" << d;
                }
            }
        }
    }
}

TEST(Distance, L2MatchesManual)
{
    VectorSet vs(1, 3, ScalarType::kFp32);
    vs.set(0, 0, 1.0f);
    vs.set(0, 1, 2.0f);
    vs.set(0, 2, -3.0f);
    const float q[3] = {4.0f, -2.0f, 0.0f};
    EXPECT_DOUBLE_EQ(l2Sq(q, vs, 0), 9.0 + 16.0 + 9.0);
}

TEST(Distance, IpMatchesManualAndIsNegated)
{
    VectorSet vs(1, 3, ScalarType::kFp32);
    vs.set(0, 0, 1.0f);
    vs.set(0, 1, 2.0f);
    vs.set(0, 2, 3.0f);
    const float q[3] = {1.0f, 1.0f, 1.0f};
    EXPECT_DOUBLE_EQ(negIp(q, vs, 0), -6.0);
}

TEST(Distance, TypedFastPathsAgreeWithGeneric)
{
    Prng rng(9);
    for (const ScalarType t :
         {ScalarType::kUint8, ScalarType::kInt8, ScalarType::kFp32}) {
        VectorSet vs(8, 16, t);
        std::vector<float> q(16);
        for (unsigned v = 0; v < 8; ++v)
            for (unsigned d = 0; d < 16; ++d)
                vs.set(v, d, static_cast<float>(rng.uniform(-100, 100)));
        for (unsigned d = 0; d < 16; ++d)
            q[d] = static_cast<float>(rng.uniform(-100, 100));

        for (unsigned v = 0; v < 8; ++v) {
            double manual = 0.0;
            for (unsigned d = 0; d < 16; ++d) {
                const double diff = static_cast<double>(q[d]) -
                                    static_cast<double>(vs.at(v, d));
                manual += diff * diff;
            }
            EXPECT_NEAR(l2Sq(q.data(), vs, v), manual,
                        1e-9 * (1.0 + manual));
        }
    }
}

TEST(Normalize, UnitNorm)
{
    float v[4] = {3.0f, 0.0f, 4.0f, 0.0f};
    normalizeL2(v, 4);
    EXPECT_NEAR(v[0], 0.6f, 1e-6);
    EXPECT_NEAR(v[2], 0.8f, 1e-6);
}

TEST(ResultSet, KeepsKSmallest)
{
    ResultSet rs(3);
    EXPECT_TRUE(std::isinf(rs.worst()));
    rs.offer({5.0, 1});
    rs.offer({3.0, 2});
    rs.offer({9.0, 3});
    EXPECT_TRUE(rs.full());
    EXPECT_DOUBLE_EQ(rs.worst(), 9.0);

    EXPECT_TRUE(rs.offer({1.0, 4}));   // evicts 9.0
    EXPECT_FALSE(rs.offer({100.0, 5}));
    const auto s = rs.sorted();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].id, 4u);
    EXPECT_EQ(s[1].id, 2u);
    EXPECT_EQ(s[2].id, 1u);
}

TEST(SearchSet, MinHeapOrder)
{
    SearchSet ss;
    ss.push({3.0, 1});
    ss.push({1.0, 2});
    ss.push({2.0, 3});
    EXPECT_EQ(ss.pop().id, 2u);
    EXPECT_EQ(ss.pop().id, 3u);
    EXPECT_EQ(ss.pop().id, 1u);
    EXPECT_TRUE(ss.empty());
}

TEST(HeapInvariants, ZeroCapacityResultSetPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(ResultSet rs(0), "result set needs capacity >= 1");
}

TEST(HeapInvariants, PopFromEmptySearchSetPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SearchSet ss;
    EXPECT_DEATH(ss.pop(), "pop from an empty search set");
}

TEST(BruteForce, FindsExactNeighbors)
{
    VectorSet vs(100, 4, ScalarType::kFp32);
    Prng rng(1);
    for (unsigned v = 0; v < 100; ++v)
        for (unsigned d = 0; d < 4; ++d)
            vs.set(v, d, static_cast<float>(rng.uniform(-10, 10)));

    // Make vector 42 the exact query.
    const auto q = vs.toFloat(42);
    const auto nn = bruteForceKnn(Metric::kL2, q.data(), vs, 5);
    ASSERT_EQ(nn.size(), 5u);
    EXPECT_EQ(nn[0].id, 42u);
    EXPECT_DOUBLE_EQ(nn[0].dist, 0.0);
    for (std::size_t i = 1; i < nn.size(); ++i)
        EXPECT_GE(nn[i].dist, nn[i - 1].dist);
}

TEST(Recall, CountsOverlap)
{
    std::vector<Neighbor> gt = {{0.0, 1}, {1.0, 2}, {2.0, 3}, {3.0, 4}};
    EXPECT_DOUBLE_EQ(recallAtK({1, 2, 3, 4}, gt, 4), 1.0);
    EXPECT_DOUBLE_EQ(recallAtK({1, 2, 9, 8}, gt, 4), 0.5);
    EXPECT_DOUBLE_EQ(recallAtK({9, 8, 7, 6}, gt, 4), 0.0);
}

class DatasetTest : public ::testing::TestWithParam<DatasetId>
{
};

TEST_P(DatasetTest, MatchesSpec)
{
    const auto &spec = datasetSpec(GetParam());
    const auto ds = makeDataset(GetParam(), 500, 20, 3);
    EXPECT_EQ(ds.base->size(), 500u);
    EXPECT_EQ(ds.base->dims(), spec.dims);
    EXPECT_EQ(ds.base->type(), spec.type);
    EXPECT_EQ(ds.queries.size(), 20u);
    for (const auto &q : ds.queries)
        EXPECT_EQ(q.size(), spec.dims);
}

TEST_P(DatasetTest, Deterministic)
{
    const auto a = makeDataset(GetParam(), 100, 5, 7);
    const auto b = makeDataset(GetParam(), 100, 5, 7);
    for (unsigned v = 0; v < 100; ++v)
        for (unsigned d = 0; d < a.base->dims(); ++d)
            ASSERT_EQ(a.base->bitsAt(v, d), b.base->bitsAt(v, d));
}

TEST_P(DatasetTest, NormalizedWhenIp)
{
    const auto ds = makeDataset(GetParam(), 200, 5, 3);
    if (ds.metric() != Metric::kIp)
        return;
    for (unsigned v = 0; v < 200; v += 17) {
        double n = 0.0;
        for (unsigned d = 0; d < ds.base->dims(); ++d) {
            const double x = ds.base->at(v, d);
            n += x * x;
        }
        EXPECT_NEAR(std::sqrt(n), 1.0, 1e-3);
    }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetTest,
                         ::testing::ValuesIn(allDatasets()),
                         [](const auto &info) {
                             return datasetSpec(info.param).name;
                         });

TEST(Dataset, ZipfQueriesAreSkewed)
{
    // Just ensure generation succeeds and is deterministic with skew.
    const auto a = makeDataset(DatasetId::kSift, 300, 50, 5, 2.0);
    const auto b = makeDataset(DatasetId::kSift, 300, 50, 5, 2.0);
    for (std::size_t q = 0; q < a.queries.size(); ++q)
        EXPECT_EQ(a.queries[q], b.queries[q]);
}

} // namespace
} // namespace ansmet::anns
