/**
 * @file
 * Experiment harness tests: context construction, efSearch tuning to
 * the paper's recall floor, trace consistency, and design replay.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "core/experiment.h"

namespace ansmet::core {
namespace {

class ExperimentTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        // Isolate the on-disk cache for tests.
        ::setenv("ANSMET_CACHE", ".ansmet_test_cache", 1);
    }

    static ExperimentConfig
    smallConfig()
    {
        ExperimentConfig cfg;
        cfg.dataset = anns::DatasetId::kSift;
        cfg.numVectors = 1200;
        cfg.numQueries = 10;
        cfg.hnsw = anns::HnswParams{16, 60, 42};
        cfg.profile.numSamples = 50;
        cfg.profile.maxPairs = 500;
        return cfg;
    }

    static const ExperimentContext &
    ctx()
    {
        static const ExperimentContext c(smallConfig());
        return c;
    }
};

TEST_F(ExperimentTest, MeetsRecallTarget)
{
    EXPECT_GE(ctx().recall(), ctx().config().targetRecall);
    EXPECT_GE(ctx().efSearch(), 10u);
}

TEST_F(ExperimentTest, TracesMatchQueries)
{
    EXPECT_EQ(ctx().traces().size(), 10u);
    for (const auto &t : ctx().traces()) {
        EXPECT_FALSE(t.steps.empty());
        EXPECT_FALSE(t.result.empty());
    }
}

TEST_F(ExperimentTest, HotSetIsSmall)
{
    EXPECT_GT(ctx().hotVectors().size(), 0u);
    EXPECT_LT(ctx().hotVectors().size(), ctx().dataset().base->size() / 2);
}

TEST_F(ExperimentTest, RunsAllDesigns)
{
    for (const Design d : {Design::kCpuBase, Design::kNdpEtOpt}) {
        const RunStats rs = ctx().runDesign(d);
        EXPECT_EQ(rs.queries.size(), 10u);
        EXPECT_GT(rs.qps(), 0.0);
    }
}

TEST_F(ExperimentTest, EfSweepChangesWork)
{
    const auto [small_traces, small_recall] = ctx().traceWithEf(10);
    const auto [big_traces, big_recall] = ctx().traceWithEf(200);
    std::size_t small_cmp = 0, big_cmp = 0;
    for (const auto &t : small_traces)
        small_cmp += t.numComparisons();
    for (const auto &t : big_traces)
        big_cmp += t.numComparisons();
    EXPECT_LT(small_cmp, big_cmp);
    EXPECT_LE(small_recall, big_recall + 1e-9);
}

TEST_F(ExperimentTest, GraphCacheRoundTrips)
{
    // A second context with identical config must load the cached
    // graph and produce identical traces.
    const ExperimentContext again(smallConfig());
    ASSERT_EQ(again.traces().size(), ctx().traces().size());
    for (std::size_t i = 0; i < again.traces().size(); ++i) {
        EXPECT_EQ(again.traces()[i].result, ctx().traces()[i].result);
        EXPECT_EQ(again.traces()[i].numComparisons(),
                  ctx().traces()[i].numComparisons());
    }
    EXPECT_EQ(again.efSearch(), ctx().efSearch());

    // The graph reached the cache through a temp file renamed into
    // place; none of this process's temp files may be left behind.
    // (Other test processes may be mid-write in the same directory.)
    const std::string suffix = ".tmp." + std::to_string(::getpid());
    for (const auto &entry :
         std::filesystem::directory_iterator(".ansmet_test_cache")) {
        const std::string name = entry.path().filename().string();
        EXPECT_FALSE(name.ends_with(suffix)) << name;
    }
}

TEST_F(ExperimentTest, ProfileDoesNotDependOnK)
{
    // Dataset, graph and ET profile take no k, so contexts that differ
    // only in k could share them.
    for (const anns::DatasetId id :
         {anns::DatasetId::kDeep, anns::DatasetId::kSift}) {
        ExperimentConfig cfg = smallConfig();
        cfg.dataset = id;
        cfg.k = 1;
        const ExperimentContext k1(cfg);
        cfg.k = 10;
        const ExperimentContext k10(cfg);
        EXPECT_EQ(k1.profile(), k10.profile())
            << anns::datasetSpec(id).name;
    }
}

TEST_F(ExperimentTest, PreprocessingTimeIsRecorded)
{
    EXPECT_GT(ctx().etPreprocSeconds(), 0.0);
}

} // namespace
} // namespace ansmet::core
