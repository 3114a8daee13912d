/**
 * @file
 * Integration tests of the full co-simulation: all nine designs run a
 * small workload end to end; the paper's headline orderings must hold
 * (NDP beats CPU, ET reduces lines, adaptive polling beats fixed); and
 * the replay publishes the registry metrics perfbench reads.
 */

#include <gtest/gtest.h>

#include <map>

#include "anns/dataset.h"
#include "anns/hnsw.h"
#include "core/system.h"
#include "et/profile.h"
#include "obs/metrics.h"

namespace ansmet::core {
namespace {

using anns::DatasetId;

struct Fixture
{
    anns::Dataset ds;
    std::unique_ptr<anns::HnswIndex> index;
    et::EtProfile profile;
    std::vector<QueryTrace> traces;
    std::vector<VectorId> hot;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        // DEEP: fp32 x 96 dims = 6 lines per vector, the regime where
        // rank-level NDP bandwidth matters (the paper's best dataset).
        Fixture fx{anns::makeDataset(DatasetId::kDeep, 1500, 12, 1),
                   nullptr,
                   {},
                   {},
                   {}};
        fx.index = std::make_unique<anns::HnswIndex>(
            *fx.ds.base, fx.ds.metric(), anns::HnswParams{16, 80, 42});
        et::ProfileConfig pc;
        pc.numSamples = 60;
        pc.maxPairs = 600;
        fx.profile = et::buildProfile(*fx.ds.base, fx.ds.metric(), pc);
        for (const auto &q : fx.ds.queries)
            fx.traces.push_back(traceHnswQuery(*fx.index, q, 10, 48));
        const unsigned top = fx.index->maxLevel();
        fx.hot = fx.index->verticesAtLevel(top >= 3 ? top - 3 : 1);
        return fx;
    }();
    return f;
}

RunStats
runDesign(Design d, std::function<void(SystemConfig &)> mutate = nullptr)
{
    const Fixture &f = fixture();
    SystemConfig cfg;
    cfg.design = d;
    cfg.concurrentQueries = 8;
    scaleCachesToDataset(cfg,
                         f.ds.base->size() * f.ds.base->vectorBytes());
    if (mutate)
        mutate(cfg);
    SystemModel model(cfg, *f.ds.base, f.ds.metric(), &f.profile, f.hot);
    return model.run(f.traces);
}

const RunStats &
cachedRun(Design d)
{
    static std::map<Design, RunStats> cache;
    auto it = cache.find(d);
    if (it == cache.end())
        it = cache.emplace(d, runDesign(d)).first;
    return it->second;
}

class AllDesignsTest : public ::testing::TestWithParam<Design>
{
};

TEST_P(AllDesignsTest, CompletesAllQueriesWithSaneStats)
{
    const RunStats &rs = cachedRun(GetParam());
    const Fixture &f = fixture();

    ASSERT_EQ(rs.queries.size(), f.traces.size());
    EXPECT_GT(rs.makespan, TickDelta{});
    EXPECT_GT(rs.energy.totalNj(), 0.0);

    std::size_t comparisons = 0;
    for (const auto &t : f.traces)
        comparisons += t.numComparisons();
    const auto totals = rs.totals();
    EXPECT_EQ(totals.comparisons, comparisons);
    EXPECT_GT(totals.linesEffectual + totals.linesIneffectual, 0u);

    for (const auto &q : rs.queries) {
        EXPECT_GT(q.latency(), TickDelta{});
        EXPECT_LE(q.start, q.end);
        EXPECT_GT(q.traversal, TickDelta{});
        EXPECT_GT(q.distComp, TickDelta{});
    }
}

INSTANTIATE_TEST_SUITE_P(Everything, AllDesignsTest,
                         ::testing::ValuesIn(allDesigns()),
                         [](const auto &info) {
                             std::string n = designName(info.param);
                             for (auto &c : n)
                                 if (c == '-' || c == '+')
                                     c = '_';
                             return n;
                         });

TEST(System, NdpBeatsCpuBaseline)
{
    const double cpu_qps = cachedRun(Design::kCpuBase).qps();
    const double ndp_qps = cachedRun(Design::kNdpBase).qps();
    EXPECT_GT(ndp_qps, cpu_qps * 1.5)
        << "rank-level NDP must clearly beat the channel-bound CPU";
}

TEST(System, EtReducesFetchedLines)
{
    const auto base = cachedRun(Design::kNdpBase).totals();
    const auto et = cachedRun(Design::kNdpEt).totals();
    EXPECT_LT(et.linesEffectual + et.linesIneffectual,
              base.linesEffectual + base.linesIneffectual);
    EXPECT_GT(et.terminated, 0u);
    EXPECT_EQ(base.terminated, 0u);
}

TEST(System, EtOptImprovesQpsOverNdpBase)
{
    EXPECT_GT(cachedRun(Design::kNdpEtOpt).qps(),
              cachedRun(Design::kNdpBase).qps());
}

TEST(System, AcceptedCountsIdenticalAcrossDesigns)
{
    // Losslessness at system level: every design sees the same
    // accept/reject outcomes.
    const auto ref = cachedRun(Design::kCpuBase).totals().accepted;
    for (const Design d : allDesigns())
        EXPECT_EQ(cachedRun(d).totals().accepted, ref) << designName(d);
}

TEST(System, DeterministicRuns)
{
    const RunStats a = runDesign(Design::kNdpEtOpt);
    const RunStats b = runDesign(Design::kNdpEtOpt);
    EXPECT_EQ(a.makespan, b.makespan);
    ASSERT_EQ(a.queries.size(), b.queries.size());
    for (std::size_t i = 0; i < a.queries.size(); ++i)
        EXPECT_EQ(a.queries[i].latency(), b.queries[i].latency());
    EXPECT_DOUBLE_EQ(a.energy.totalNj(), b.energy.totalNj());
}

TEST(System, PollingModesOrdering)
{
    auto with_poll = [&](ndp::PollingMode m) {
        return runDesign(Design::kNdpEtOpt, [m](SystemConfig &c) {
            c.polling.mode = m;
        });
    };
    const RunStats ideal = with_poll(ndp::PollingMode::kIdeal);
    const RunStats adaptive = with_poll(ndp::PollingMode::kAdaptive);
    const RunStats conv = with_poll(ndp::PollingMode::kConventional);

    // Ideal has zero collection cost; adaptive must not lose to the
    // fixed 100 ns interval; both are upper-bounded by ideal.
    EXPECT_EQ(ideal.totals().collect, TickDelta{});
    EXPECT_GT(conv.totals().collect, TickDelta{});
    EXPECT_LE(adaptive.totals().collect, conv.totals().collect);
    EXPECT_LE(ideal.makespan, adaptive.makespan);
}

TEST(System, NdpScalesWithUnits)
{
    auto with_units = [&](unsigned n) {
        return runDesign(Design::kNdpEtOpt, [n](SystemConfig &c) {
            c.ndpUnits = n;
        }).qps();
    };
    const double qps8 = with_units(8);
    const double qps32 = with_units(32);
    EXPECT_GT(qps32, qps8);
}

TEST(System, EnergyNdpLowerThanCpu)
{
    const double cpu = cachedRun(Design::kCpuBase).energy.totalNj();
    const double ndp = cachedRun(Design::kNdpBase).energy.totalNj();
    EXPECT_LT(ndp, cpu);
}

TEST(System, ReplicationImprovesBalanceUnderSkew)
{
    // Build a skewed workload directly on the fixture's index.
    const Fixture &f = fixture();

    auto imbalance = [&](bool replicate) {
        SystemConfig cfg;
        cfg.design = Design::kNdpBase;
        cfg.concurrentQueries = 8;
        cfg.replicateHot = replicate;
        SystemModel model(cfg, *f.ds.base, f.ds.metric(), &f.profile,
                          f.hot);
        return model.run(f.traces).loadImbalance;
    };

    const double without = imbalance(false);
    const double with = imbalance(true);
    EXPECT_LE(with, without + 1e-9);
    EXPECT_GE(without, 1.0);
}

TEST(System, PublishesTheMetricsPerfbenchReads)
{
    // perfbench/replay.cc's kCounters. perfbench reads a missing name
    // as 0, so deleting or renaming one of these metrics would zero a
    // per-layer figure silently; this test fails instead. The one
    // exception is dram.writes: nothing writes a DRAM bank, so the
    // counter is gone, and the 0 perfbench reads for it is the 0 it
    // always read (dram.row_hit_ratio does not move).
    const char *const kPerfbenchCounters[] = {
        "sim.events",          "dram.reads",        "dram.row_activates",
        "dram.row_conflicts",  "ndp.tasks_completed", "ndp.lines_fetched",
        "ndp.backpressure_staged", "host.cache_hits", "host.cache_misses",
        "et.lines_fetched",    "et.lines_skipped",
    };
    const Fixture &f = fixture();
    const obs::Snapshot before = obs::Registry::instance().snapshot();
    // Built here so hnsw.distance_comps moves even when the fixture's
    // index was built before the first snapshot.
    const anns::HnswIndex small(*f.ds.base, f.ds.metric(),
                                anns::HnswParams{8, 32, 5});
    runDesign(Design::kNdpEtOpt);
    runDesign(Design::kCpuBase);
    const obs::Snapshot after = obs::Registry::instance().snapshot();

    for (const char *name : kPerfbenchCounters)
        EXPECT_EQ(after.counters.count(name), 1u) << name;

    auto count = [](const obs::Snapshot &s, const char *name) {
        const auto it = s.counters.find(name);
        return it == s.counters.end() ? std::uint64_t{0} : it->second;
    };
    for (const char *name :
         {"sim.events", "dram.reads", "dram.row_activates",
          "ndp.tasks_completed", "ndp.lines_fetched", "host.cache_hits",
          "host.cache_misses", "et.lines_fetched", "hnsw.distance_comps"})
        EXPECT_GT(count(after, name), count(before, name)) << name;

    const char *const kLatency = "dram.queue_latency_ps";
    const auto lat = after.histograms.find(kLatency);
    ASSERT_NE(lat, after.histograms.end());
    const auto was = before.histograms.find(kLatency);
    EXPECT_GT(lat->second.count,
              was == before.histograms.end() ? 0u : was->second.count);
}

} // namespace
} // namespace ansmet::core
