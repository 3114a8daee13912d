/**
 * @file
 * Rank-partitioning tests: dimension coverage, group structure across
 * the vertical/hybrid/horizontal spectrum, replication, the base-line
 * table against the reference allocator, and load tracking.
 */

#include <gtest/gtest.h>

#include <string>

#include "layout/partition.h"
#include "reference_placement.h"

namespace ansmet::layout {
namespace {

TEST(Partitioner, HorizontalKeepsVectorInOneRank)
{
    Partitioner p(PartitionConfig::horizontal(32), 128, 1, 1000);
    EXPECT_EQ(p.ranksPerGroup(), 1u);
    EXPECT_EQ(p.numGroups(), 32u);
    const auto subs = p.placement(7);
    ASSERT_EQ(subs.size(), 1u);
    EXPECT_EQ(subs[0].dimBegin, 0u);
    EXPECT_EQ(subs[0].dimEnd, 128u);
}

TEST(Partitioner, VerticalSplitsAcrossManyRanks)
{
    // GIST-like: 960 dims x 4 B = 3840 B; 64 B sub-vectors want 60
    // ranks, capped at 32.
    Partitioner p(PartitionConfig::vertical(32), 960, 4, 1000);
    EXPECT_EQ(p.ranksPerGroup(), 32u);
    EXPECT_EQ(p.numGroups(), 1u);
}

TEST(Partitioner, Hybrid1kbMatchesPaperShape)
{
    // 960 x 4 B = 3840 B over 1 kB sub-vectors -> 4 ranks per group,
    // 8 groups of the 32 ranks.
    Partitioner p(PartitionConfig::hybrid(32, 1024), 960, 4, 1000);
    EXPECT_EQ(p.ranksPerGroup(), 4u);
    EXPECT_EQ(p.numGroups(), 8u);
}

TEST(Partitioner, SmallVectorsStayWholeUnderHybrid)
{
    // SIFT: 128 B < 1 kB -> one rank per vector even in hybrid mode.
    Partitioner p(PartitionConfig::hybrid(32, 1024), 128, 1, 1000);
    EXPECT_EQ(p.ranksPerGroup(), 1u);
    EXPECT_EQ(p.numGroups(), 32u);
}

TEST(Partitioner, PlacementCoversDimsExactlyOnce)
{
    Partitioner p(PartitionConfig::hybrid(32, 256), 960, 4, 100);
    for (VectorId v = 0; v < 100; ++v) {
        const auto subs = p.placement(v);
        unsigned expect = 0;
        for (const auto &s : subs) {
            EXPECT_EQ(s.dimBegin, expect);
            EXPECT_GT(s.dimEnd, s.dimBegin);
            EXPECT_LT(s.rank, 32u);
            expect = s.dimEnd;
        }
        EXPECT_EQ(expect, 960u);
    }
}

TEST(Partitioner, SubVectorsLandInOwnGroup)
{
    Partitioner p(PartitionConfig::hybrid(32, 1024), 960, 4, 100);
    for (VectorId v = 0; v < 100; ++v) {
        const unsigned g = p.groupOf(v);
        for (const auto &s : p.placement(v)) {
            EXPECT_GE(s.rank, g * p.ranksPerGroup());
            EXPECT_LT(s.rank, (g + 1) * p.ranksPerGroup());
        }
    }
}

TEST(Partitioner, GroupsAreReasonablyBalanced)
{
    Partitioner p(PartitionConfig::horizontal(8), 128, 1, 0);
    std::vector<unsigned> counts(8, 0);
    for (VectorId v = 0; v < 8000; ++v)
        ++counts[p.groupOf(v)];
    for (const unsigned c : counts) {
        EXPECT_GT(c, 700u);
        EXPECT_LT(c, 1300u);
    }
}

TEST(Partitioner, Replication)
{
    Partitioner p(PartitionConfig::hybrid(32, 1024), 960, 4, 100);
    EXPECT_FALSE(p.isReplicated(3));
    p.replicate({3, 5});
    EXPECT_TRUE(p.isReplicated(3));
    EXPECT_TRUE(p.isReplicated(5));
    EXPECT_EQ(p.numReplicated(), 2u);
    EXPECT_EQ(p.replicationBytes(),
              2ull * (p.numGroups() - 1) * 960 * 4);

    // A replica placement in a foreign group stays in that group.
    const unsigned foreign = (p.groupOf(3) + 1) % p.numGroups();
    for (const auto &s : p.placement(3, foreign)) {
        EXPECT_GE(s.rank, foreign * p.ranksPerGroup());
        EXPECT_LT(s.rank, (foreign + 1) * p.ranksPerGroup());
    }
}

TEST(Partitioner, LastSubVectorTakesTheRemainder)
{
    // 100 x 4 B over 64 B sub-vectors: 7 ranks of ceil(100 / 7) = 15
    // dims each, so the seventh sub-vector holds the last 10.
    Partitioner p(PartitionConfig::hybrid(32, 64), 100, 4, 10);
    EXPECT_EQ(p.ranksPerGroup(), 7u);
    ASSERT_EQ(p.subsPerVector(), 7u);
    const SubVector last = p.sub(3, 0, 6);
    EXPECT_EQ(last.dimBegin, 90u);
    EXPECT_EQ(last.dimEnd, 100u);
}

TEST(Partitioner, BaseLineTableMatchesReferenceAllocator)
{
    struct Shape
    {
        unsigned dims;
        unsigned bytesPerDim;
    };
    const Shape shapes[] = {{128, 1}, {100, 4}, {960, 4}};
    const PartitionConfig cfgs[] = {
        PartitionConfig::hybrid(32, 64), PartitionConfig::hybrid(32, 256),
        PartitionConfig::hybrid(32, 1024), PartitionConfig::horizontal(32)};
    // 0: no replication, 7: every 7th vector, 1: every vector.
    const unsigned strides[] = {0, 7, 1};
    constexpr std::size_t kVectors = 150;

    for (const PartitionConfig &cfg : cfgs) {
        for (const Shape &shape : shapes) {
            for (const unsigned stride : strides) {
                SCOPED_TRACE("S=" + std::to_string(cfg.subVectorBytes) +
                             " dims=" + std::to_string(shape.dims) + "x" +
                             std::to_string(shape.bytesPerDim) +
                             " stride=" + std::to_string(stride));
                std::vector<VectorId> hot;
                for (std::size_t v = 0; stride != 0 && v < kVectors;
                     v += stride)
                    hot.push_back(static_cast<VectorId>(v));

                Partitioner p(cfg, shape.dims, shape.bytesPerDim, kVectors);
                p.replicate(hot);
                EXPECT_EQ(p.numReplicated(), hot.size());
                // Unequal line counts per sub-vector position.
                std::vector<unsigned> sub_lines;
                for (unsigned i = 0; i < p.subsPerVector(); ++i)
                    sub_lines.push_back(1 + (i * 5 + 3) % 7);
                p.allocateBaseLines(sub_lines);
                const test::ReferencePlacement ref(p, kVectors, hot,
                                                   sub_lines);

                for (VectorId v = 0; v < kVectors; ++v) {
                    for (unsigned g = 0; g < p.numGroups(); ++g) {
                        if (g != p.groupOf(v) && !p.isReplicated(v))
                            continue;
                        const auto &want = ref.placeOf(v, g);
                        const auto subs = p.placement(v, g);
                        ASSERT_EQ(want.size(), p.subsPerVector());
                        ASSERT_EQ(subs.size(), p.subsPerVector());
                        for (unsigned i = 0; i < p.subsPerVector(); ++i) {
                            const SubVector sv = p.sub(v, g, i);
                            ASSERT_EQ(sv.rank, want[i].rank);
                            ASSERT_EQ(sv.dimBegin, want[i].dimBegin);
                            ASSERT_EQ(sv.dimEnd, want[i].dimEnd);
                            ASSERT_EQ(subs[i].rank, want[i].rank);
                            ASSERT_EQ(subs[i].dimBegin, want[i].dimBegin);
                            ASSERT_EQ(subs[i].dimEnd, want[i].dimEnd);
                            ASSERT_EQ(p.baseLine(v, g, i), want[i].baseLine);
                        }
                    }
                }
            }
        }
    }
}

TEST(PartitionerDeathTest, BaseLineOfMissingReplicaDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Partitioner p(PartitionConfig::horizontal(32), 128, 1, 10);
    p.replicate({3});
    p.allocateBaseLines({2});
    // Vector 3 has a copy in every group; vector 4 only in its home.
    for (unsigned g = 0; g < p.numGroups(); ++g)
        (void)p.baseLine(3, g, 0);
    const unsigned foreign = (p.groupOf(4) + 1) % p.numGroups();
    EXPECT_DEATH((void)p.baseLine(4, foreign, 0),
                 "no replica of vector in requested group");
}

TEST(PartitionerDeathTest, ReplicateOutOfRangeIdDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Partitioner p(PartitionConfig::horizontal(32), 128, 1, 10);
    EXPECT_DEATH(p.replicate({2, 10}), "out of range");
}

TEST(LoadTracker, ImbalanceRatio)
{
    LoadTracker lt(4);
    lt.add(0, 100);
    lt.add(1, 100);
    lt.add(2, 100);
    lt.add(3, 100);
    EXPECT_DOUBLE_EQ(lt.imbalanceRatio(), 1.0);
    lt.add(0, 100);
    EXPECT_DOUBLE_EQ(lt.imbalanceRatio(), 200.0 / 125.0);
}

} // namespace
} // namespace ansmet::layout
