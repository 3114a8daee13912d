/**
 * @file
 * Serial-vs-parallel determinism: every thread-pooled stage (ground
 * truth, HNSW construction, concurrent search, trace replay) must
 * produce results bit-identical to the single-threaded reference path
 * for a fixed seed.
 *
 * The serial reference is obtained by running the stage as the body
 * of a one-lane private runtime's parallelFor: bodies are flagged
 * thread-local, so every nested runtime::parallelFor degrades to a
 * plain inline loop — exactly the ANSMET_THREADS=1 code path — while
 * the parallel run on the main thread uses the full global runtime. On
 * a single-core machine both sides are serial and the tests pass
 * trivially.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "anns/bruteforce.h"
#include "anns/dataset.h"
#include "anns/hnsw.h"
#include "common/runtime/runtime.h"
#include "core/system.h"
#include "core/trace.h"
#include "et/profile.h"

namespace ansmet {
namespace {

using anns::DatasetId;

/** Run @p fn with every nested runtime::parallelFor forced inline. */
template <typename Fn>
auto
runSerial(Fn fn) -> decltype(fn())
{
    runtime::Runtime sandbox(1);
    std::optional<decltype(fn())> out;
    sandbox.parallelFor(0, 1,
                        [&](std::size_t, std::size_t) { out.emplace(fn()); });
    return std::move(*out);
}

const anns::Dataset &
dataset()
{
    static const anns::Dataset ds =
        anns::makeDataset(DatasetId::kSift, 1200, 10, 1);
    return ds;
}

TEST(ParallelDeterminism, GroundTruthMatchesSerial)
{
    const auto &ds = dataset();
    const auto par =
        anns::bruteForceAll(anns::Metric::kL2, ds.queries, *ds.base, 10);
    const auto ser = runSerial([&] {
        return anns::bruteForceAll(anns::Metric::kL2, ds.queries, *ds.base,
                                   10);
    });
    ASSERT_EQ(par.size(), ser.size());
    for (std::size_t q = 0; q < par.size(); ++q) {
        ASSERT_EQ(par[q].size(), ser[q].size()) << "query " << q;
        for (std::size_t i = 0; i < par[q].size(); ++i) {
            EXPECT_EQ(par[q][i].id, ser[q][i].id) << "query " << q;
            EXPECT_EQ(par[q][i].dist, ser[q][i].dist) << "query " << q;
        }
    }
}

TEST(ParallelDeterminism, HnswBuildMatchesSerial)
{
    const auto &ds = dataset();
    const anns::HnswParams params{16, 80, 42};
    const anns::HnswIndex par(*ds.base, anns::Metric::kL2, params);
    const auto ser = runSerial([&] {
        return std::make_unique<anns::HnswIndex>(*ds.base,
                                                 anns::Metric::kL2, params);
    });

    EXPECT_EQ(par.entryPoint(), ser->entryPoint());
    ASSERT_EQ(par.maxLevel(), ser->maxLevel());
    for (VectorId v = 0; v < ds.base->size(); ++v) {
        ASSERT_EQ(par.levelOf(v), ser->levelOf(v)) << "v=" << v;
        for (unsigned l = 0; l <= par.levelOf(v); ++l)
            EXPECT_EQ(par.neighbors(v, l), ser->neighbors(v, l))
                << "v=" << v << " level=" << l;
    }
}

TEST(ParallelDeterminism, ConcurrentSearchMatchesSerial)
{
    const auto &ds = dataset();
    const anns::HnswIndex idx(*ds.base, anns::Metric::kL2,
                              anns::HnswParams{16, 80, 42});

    std::vector<std::vector<VectorId>> serial(ds.queries.size());
    for (std::size_t q = 0; q < ds.queries.size(); ++q)
        serial[q] = idx.search(ds.queries[q].data(), 10, 64);

    // Search is const and each thread has its own visit scratch, so
    // many threads may query one index at once with identical
    // per-query results.
    std::vector<std::vector<VectorId>> parallel(ds.queries.size());
    runtime::parallelFor(0, ds.queries.size(),
                         [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t q = lo; q < hi; ++q)
                                 parallel[q] =
                                     idx.search(ds.queries[q].data(), 10, 64);
                         },
                         /*grain=*/1);
    EXPECT_EQ(parallel, serial);
}

TEST(ParallelDeterminism, TraceReplayStatsMatchOnTheFlyReference)
{
    const auto ds = anns::makeDataset(DatasetId::kDeep, 1200, 10, 1);
    const anns::HnswIndex idx(*ds.base, ds.metric(),
                              anns::HnswParams{16, 80, 42});
    et::ProfileConfig pc;
    pc.numSamples = 60;
    pc.maxPairs = 600;
    const et::EtProfile profile = et::buildProfile(*ds.base, ds.metric(), pc);
    std::vector<core::QueryTrace> traces;
    for (const auto &q : ds.queries)
        traces.push_back(core::traceHnswQuery(idx, q, 10, 48));
    const unsigned top = idx.maxLevel();
    const auto hot = idx.verticesAtLevel(top >= 3 ? top - 3 : 1);

    auto run = [&](core::Design d, bool prefetch) {
        core::SystemConfig cfg;
        cfg.design = d;
        cfg.concurrentQueries = 8;
        cfg.prefetchReplay = prefetch;
        core::SystemModel model(cfg, *ds.base, ds.metric(), &profile, hot);
        return model.run(traces);
    };

    for (const core::Design d :
         {core::Design::kCpuEt, core::Design::kNdpEtOpt}) {
        const core::RunStats pre = run(d, true);
        const core::RunStats fly = run(d, false);
        EXPECT_EQ(pre.makespan, fly.makespan) << designName(d);
        EXPECT_DOUBLE_EQ(pre.energy.totalNj(), fly.energy.totalNj())
            << designName(d);
        ASSERT_EQ(pre.queries.size(), fly.queries.size());
        for (std::size_t q = 0; q < pre.queries.size(); ++q) {
            const auto &a = pre.queries[q];
            const auto &b = fly.queries[q];
            EXPECT_EQ(a.start, b.start) << designName(d) << " q=" << q;
            EXPECT_EQ(a.end, b.end) << designName(d) << " q=" << q;
            EXPECT_EQ(a.comparisons, b.comparisons);
            EXPECT_EQ(a.accepted, b.accepted);
            EXPECT_EQ(a.terminated, b.terminated);
            EXPECT_EQ(a.linesEffectual, b.linesEffectual);
            EXPECT_EQ(a.linesIneffectual, b.linesIneffectual);
            EXPECT_EQ(a.backupLines, b.backupLines);
            EXPECT_EQ(a.polls, b.polls);
        }
    }
}

} // namespace
} // namespace ansmet
