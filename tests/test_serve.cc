/**
 * @file
 * Serving-layer tests: load-generator determinism (bitwise-identical
 * schedules and latency samples for a fixed ANSMET_SEED regardless of
 * thread/core configuration), admission-scheduler properties (QSHR
 * budget, FIFO no-starvation, double-admission death), and latency-
 * recorder quantile exactness.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "anns/dataset.h"
#include "anns/hnsw.h"
#include "common/runtime/runtime.h"
#include "core/system.h"
#include "core/trace.h"
#include "et/profile.h"
#include "serve/admission.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "serve/recorder.h"

namespace ansmet {
namespace {

using anns::DatasetId;

std::uint64_t
envSeed()
{
    const char *s = std::getenv("ANSMET_SEED");
    return s ? std::strtoull(s, nullptr, 10) : 1;
}

/** Run @p fn as the body of a one-lane private runtime's parallelFor:
 *  every nested parallelFor degrades to the serial (ANSMET_THREADS=1)
 *  code path. */
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

// ------------------------------------------------------------------
// Load generator
// ------------------------------------------------------------------

serve::LoadGenConfig
loadCfg(serve::ArrivalProcess p = serve::ArrivalProcess::kPoisson)
{
    serve::LoadGenConfig cfg;
    cfg.offeredQps = 50000.0;
    cfg.numQueries = 2000;
    cfg.numTraces = 50;
    cfg.process = p;
    cfg.seed = envSeed();
    return cfg;
}

TEST(LoadGen, ScheduleIsPureFunctionOfSeed)
{
    for (const auto p : {serve::ArrivalProcess::kPoisson,
                         serve::ArrivalProcess::kBursty}) {
        const auto a = serve::generateArrivals(loadCfg(p));
        const auto b = serve::generateArrivals(loadCfg(p));
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].at, b[i].at) << i;
            EXPECT_EQ(a[i].traceIdx, b[i].traceIdx) << i;
            EXPECT_EQ(a[i].queryId, b[i].queryId) << i;
        }

        auto other = loadCfg(p);
        other.seed = envSeed() + 17;
        const auto c = serve::generateArrivals(other);
        bool any_diff = false;
        for (std::size_t i = 0; i < a.size(); ++i)
            any_diff |= a[i].at != c[i].at;
        EXPECT_TRUE(any_diff) << "seed does not reach the schedule";
    }
}

TEST(LoadGen, ScheduleIsThreadIndependent)
{
    // The generator must not touch any pool or global state: the
    // schedule computed inside a serial sandbox (the ANSMET_THREADS=1
    // path) is bitwise the one computed on the main thread.
    const auto par = serve::generateArrivals(loadCfg());
    const auto ser =
        runSerial([] { return serve::generateArrivals(loadCfg()); });
    ASSERT_EQ(par.size(), ser.size());
    for (std::size_t i = 0; i < par.size(); ++i) {
        EXPECT_EQ(par[i].at, ser[i].at);
        EXPECT_EQ(par[i].traceIdx, ser[i].traceIdx);
    }
}

TEST(LoadGen, ArrivalsOrderedAndRateRoughlyOffered)
{
    for (const auto p : {serve::ArrivalProcess::kPoisson,
                         serve::ArrivalProcess::kBursty}) {
        const auto cfg = loadCfg(p);
        const auto arr = serve::generateArrivals(cfg);
        ASSERT_EQ(arr.size(), cfg.numQueries);
        for (std::size_t i = 1; i < arr.size(); ++i)
            ASSERT_LE(arr[i - 1].at, arr[i].at) << i;
        // Long-run rate within 2x of offered either way (statistical,
        // but the seed is fixed; 2000 samples keep this far from the
        // bound).
        const double secs =
            static_cast<double>(arr.back().at.raw()) * 1e-12;
        const double rate = static_cast<double>(arr.size()) / secs;
        EXPECT_GT(rate, cfg.offeredQps / 2) << serve::arrivalProcessName(p);
        EXPECT_LT(rate, cfg.offeredQps * 2) << serve::arrivalProcessName(p);
    }
}

TEST(LoadGen, PopularityIsZipfSkewed)
{
    const auto arr = serve::generateArrivals(loadCfg());
    std::vector<std::size_t> hits(50, 0);
    for (const auto &a : arr) {
        ASSERT_LT(a.traceIdx, hits.size());
        ++hits[a.traceIdx];
    }
    // Trace 0 is the hottest under Zipf; far above the uniform share.
    const std::size_t uniform = arr.size() / hits.size();
    EXPECT_GT(hits[0], 4 * uniform);
    EXPECT_GT(hits[0], hits[25]);
}

TEST(LoadGen, BurstyRequiresFeasibleQuietRate)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto cfg = loadCfg(serve::ArrivalProcess::kBursty);
    cfg.burstFactor = 20.0; // 20 * 0.1 >= 1: quiet rate would go <= 0
    EXPECT_DEATH(serve::generateArrivals(cfg),
                 "burstFactor \\* burstFraction");
}

// ------------------------------------------------------------------
// Admission scheduler properties
// ------------------------------------------------------------------

TEST(Admission, NeverExceedsQshrBudget)
{
    serve::AdmissionConfig cfg;
    cfg.queueCapacity = 128;
    cfg.numQshrs = 32;
    cfg.qshrsPerQuery = 2;
    serve::AdmissionScheduler adm(cfg);
    EXPECT_EQ(adm.maxInFlight(), 16u);

    for (std::uint64_t id = 0; id < 100; ++id)
        EXPECT_TRUE(adm.tryOffer(id, 0, Tick{id}));

    // Drain: admission stops exactly at the QSHR budget.
    std::vector<unsigned> slots;
    while (auto a = adm.admitNext(Tick{1000}))
        slots.push_back(a->slot);
    EXPECT_EQ(slots.size(), 16u);
    EXPECT_EQ(adm.occupiedQshrs(), 32u);
    EXPECT_EQ(adm.admitNext(Tick{1001}), std::nullopt);

    // Slots are distinct and allocated lowest-first.
    for (unsigned s = 0; s < slots.size(); ++s)
        EXPECT_EQ(slots[s], s);

    // Release/admit churn never raises the high-water mark past 32.
    for (std::uint64_t id = 0; id < 16; id += 2)
        adm.release(static_cast<unsigned>(id), id);
    while (auto a = adm.admitNext(Tick{2000}))
        (void)a;
    EXPECT_EQ(adm.maxOccupiedQshrs(), 32u);
    EXPECT_LE(adm.occupiedQshrs(), 32u);
}

TEST(Admission, BoundedQueueDropsWhenFull)
{
    serve::AdmissionConfig cfg;
    cfg.queueCapacity = 4;
    serve::AdmissionScheduler adm(cfg);
    for (std::uint64_t id = 0; id < 4; ++id)
        EXPECT_TRUE(adm.tryOffer(id, 0, Tick{}));
    EXPECT_FALSE(adm.tryOffer(99, 0, Tick{}));
    EXPECT_EQ(adm.dropped(), 1u);
    EXPECT_EQ(adm.queueDepth(), 4u);
    // A dropped id was never retained: offering it again is legal.
    EXPECT_EQ(adm.admitNext(Tick{}).has_value(), true);
    EXPECT_TRUE(adm.tryOffer(99, 0, Tick{}));
}

TEST(Admission, FifoPreservesArrivalOrder)
{
    serve::AdmissionConfig cfg;
    cfg.queueCapacity = 64;
    serve::AdmissionScheduler adm(cfg);
    for (std::uint64_t id = 0; id < 40; ++id)
        ASSERT_TRUE(adm.tryOffer(id, 0, Tick{id}));
    std::uint64_t expect = 0;
    while (auto a = adm.admitNext(Tick{100}))
        EXPECT_EQ(a->queryId, expect++);
    // Budget-limited: the rest stay queued, still in order.
    EXPECT_EQ(expect, adm.maxInFlight());
    adm.release(0, 0);
    const auto next = adm.admitNext(Tick{101});
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->queryId, expect);
    EXPECT_EQ(next->slot, 0u); // lowest free slot reused
}

TEST(AdmissionDeathTest, DoubleAdmissionOfSameQueryIdDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    serve::AdmissionConfig cfg;
    serve::AdmissionScheduler adm(cfg);
    ASSERT_TRUE(adm.tryOffer(7, 0, Tick{}));
    EXPECT_DEATH((void)adm.tryOffer(7, 1, Tick{}),
                 "offered while already queued or in flight");
}

// ------------------------------------------------------------------
// Latency recorder
// ------------------------------------------------------------------

TEST(LatencyRecorder, ExactQuantilesOnKnownDistribution)
{
    serve::LatencyRecorder rec;
    // 1..1000 in shuffled-ish order (order must not matter).
    for (std::uint64_t v = 1000; v >= 1; --v)
        rec.record(serve::Phase::kTotal, v);
    EXPECT_EQ(rec.count(serve::Phase::kTotal), 1000u);
    EXPECT_EQ(rec.exactQuantile(serve::Phase::kTotal, 0.50), 500u);
    EXPECT_EQ(rec.exactQuantile(serve::Phase::kTotal, 0.99), 990u);
    EXPECT_EQ(rec.exactQuantile(serve::Phase::kTotal, 0.999), 999u);
    EXPECT_EQ(rec.exactQuantile(serve::Phase::kTotal, 1.0), 1000u);

    const auto s = rec.summary(serve::Phase::kTotal);
    EXPECT_EQ(s.p50.ps, 500u);
    EXPECT_EQ(s.p99.ps, 990u);
    EXPECT_EQ(s.p99.n, 1000u);
    // Only one sample lies beyond rank 999, so the p999 is refused.
    EXPECT_FALSE(s.p999.ps.has_value());
    EXPECT_EQ(s.p999.n, 1000u);
    EXPECT_EQ(s.max, 1000u);
    EXPECT_DOUBLE_EQ(s.mean, 500.5);
}

TEST(LatencyRecorder, QuantileNeedsTenSamplesBeyondItsRank)
{
    const auto summarize = [](std::uint64_t n) {
        serve::LatencyRecorder rec;
        for (std::uint64_t v = 1; v <= n; ++v)
            rec.record(serve::Phase::kTotal, v);
        return rec.summary(serve::Phase::kTotal);
    };

    // 96 samples, one quick-scale load point: the nearest-rank p99 is
    // the maximum, so only the max and the p50 are reported.
    const auto quick = summarize(96);
    EXPECT_EQ(quick.max, 96u);
    EXPECT_EQ(quick.p50.ps, 48u);
    EXPECT_FALSE(quick.p99.ps.has_value());
    EXPECT_EQ(quick.p99.n, 96u);
    EXPECT_FALSE(quick.p999.ps.has_value());

    const auto thousand = summarize(1000);
    EXPECT_EQ(thousand.max, 1000u);
    EXPECT_EQ(thousand.p99.ps, 990u);

    // Thresholds: p50 needs 20 samples, p99 1000, p999 10,000.
    EXPECT_FALSE(summarize(19).p50.ps.has_value());
    EXPECT_EQ(summarize(20).p50.ps, 10u);
    EXPECT_FALSE(summarize(999).p99.ps.has_value());
    EXPECT_FALSE(summarize(9999).p999.ps.has_value());
    EXPECT_EQ(summarize(10000).p999.ps, 9990u);
}

TEST(LatencyRecorder, QuantileEdgeCases)
{
    serve::LatencyRecorder rec;
    EXPECT_EQ(rec.exactQuantile(serve::Phase::kCompute, 0.99), 0u);
    rec.record(serve::Phase::kCompute, 42);
    EXPECT_EQ(rec.exactQuantile(serve::Phase::kCompute, 0.001), 42u);
    EXPECT_EQ(rec.exactQuantile(serve::Phase::kCompute, 1.0), 42u);
    EXPECT_EQ(rec.summary(serve::Phase::kQueueWait).count, 0u);
    EXPECT_FALSE(rec.summary(serve::Phase::kQueueWait).p50.ps.has_value());
}

// ------------------------------------------------------------------
// End-to-end serving runs
// ------------------------------------------------------------------

struct ServeWorld
{
    anns::Dataset ds;
    std::unique_ptr<anns::HnswIndex> idx;
    et::EtProfile profile;
    std::vector<core::QueryTrace> traces;
    std::vector<VectorId> hot;
};

const ServeWorld &
world()
{
    static const ServeWorld *w = [] {
        auto *out = new ServeWorld{
            anns::makeDataset(DatasetId::kSift, 1200, 12, 1),
            nullptr,
            {},
            {},
            {}};
        out->idx = std::make_unique<anns::HnswIndex>(
            *out->ds.base, out->ds.metric(), anns::HnswParams{16, 80, 42});
        et::ProfileConfig pc;
        pc.numSamples = 60;
        pc.maxPairs = 600;
        out->profile =
            et::buildProfile(*out->ds.base, out->ds.metric(), pc);
        for (const auto &q : out->ds.queries)
            out->traces.push_back(
                core::traceHnswQuery(*out->idx, q, 10, 48));
        const unsigned top = out->idx->maxLevel();
        out->hot = out->idx->verticesAtLevel(top >= 3 ? top - 3 : 1);
        return out;
    }();
    return *w;
}

serve::ServeConfig
serveCfg(double qps, std::uint64_t n, std::uint64_t seed)
{
    serve::ServeConfig cfg;
    cfg.load.offeredQps = qps;
    cfg.load.numQueries = n;
    cfg.load.zipfAlpha = 1.3;
    cfg.load.seed = seed;
    cfg.queueCapacity = 32;
    return cfg;
}

serve::ServeReport
runServe(double qps, bool prefetch = true, std::uint64_t n = 64,
         std::uint64_t seed = envSeed())
{
    const ServeWorld &w = world();
    core::SystemConfig cfg;
    cfg.design = core::Design::kNdpEtOpt;
    cfg.prefetchReplay = prefetch;
    core::SystemModel model(cfg, *w.ds.base, w.ds.metric(), &w.profile,
                            w.hot);
    return serve::serve(model, w.traces, serveCfg(qps, n, seed));
}

void
expectBitwiseEqual(const serve::ServeReport &a, const serve::ServeReport &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.run.makespan, b.run.makespan);
    ASSERT_EQ(a.queries.size(), b.queries.size());
    for (std::size_t i = 0; i < a.queries.size(); ++i) {
        EXPECT_EQ(a.queries[i].queryId, b.queries[i].queryId) << i;
        EXPECT_EQ(a.queries[i].traceIdx, b.queries[i].traceIdx) << i;
        EXPECT_EQ(a.queries[i].queueWait, b.queries[i].queueWait) << i;
        EXPECT_EQ(a.queries[i].stats.start, b.queries[i].stats.start);
        EXPECT_EQ(a.queries[i].stats.end, b.queries[i].stats.end);
    }
    for (unsigned p = 0; p < serve::kNumPhases; ++p) {
        const auto ph = static_cast<serve::Phase>(p);
        ASSERT_EQ(a.latency.samples(ph), b.latency.samples(ph))
            << serve::phaseName(ph);
    }
}

/**
 * 64-bit FNV-1a over every per-query outcome (id, trace index, queue
 * wait, start, end, in completion order) and every latency sample.
 */
std::uint64_t
reportHash(const serve::ServeReport &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &q : r.queries) {
        mix(q.queryId);
        mix(q.traceIdx);
        mix(q.queueWait.raw());
        mix(q.stats.start.raw());
        mix(q.stats.end.raw());
    }
    for (unsigned p = 0; p < serve::kNumPhases; ++p) {
        for (const std::uint64_t v :
             r.latency.samples(static_cast<serve::Phase>(p)))
            mix(v);
    }
    return h;
}

TEST(Serve, ReportIsPinned)
{
    // Hashes recorded at commit 8a2bf6b, which queued every arrival at
    // tick 0 before the run: the chained arrivals must reproduce that
    // event order exactly, at a load under capacity (nothing dropped)
    // and one above it (drops). The seed is fixed, not ANSMET_SEED.
    // Dataset and graph generation call libm, so, like the golden
    // figures, the hashes are pinned to the toolchain.
    struct Point
    {
        double qps;
        std::uint64_t queries;
        std::uint64_t hash;
    };
    // Capacity is about 1.6M QPS.
    const Point points[] = {
        {200000.0, 64, 0xb7762b6f8f83ecf5ull},
        {4.0e6, 256, 0x698067c0af8546f2ull},
    };
    for (const Point &pt : points) {
        const auto r = runServe(pt.qps, true, pt.queries, /*seed=*/1);
        EXPECT_EQ(r.dropped == 0, pt.qps < 1.6e6) << pt.qps;
        EXPECT_EQ(reportHash(r), pt.hash)
            << pt.qps << " QPS: got 0x" << std::hex << reportHash(r);
    }
}

TEST(Serve, FixedSeedRunIsBitwiseReproducible)
{
    const auto a = runServe(200000.0);
    const auto b = runServe(200000.0);
    expectBitwiseEqual(a, b);
}

TEST(Serve, LatencySamplesIndependentOfThreadConfig)
{
    // The only parallel stage in a serve is the pure fetch precompute;
    // forcing the on-the-fly reference path (prefetchReplay=false, the
    // ANSMET_THREADS=1 equivalent) must not move one sample. Together
    // with the sandboxed generateArrivals test this is the
    // "bitwise-identical across ANSMET_THREADS" contract: the lane
    // count only ever reaches those two mechanisms.
    const auto pooled = runServe(200000.0, /*prefetch=*/true);
    const auto serial = runServe(200000.0, /*prefetch=*/false);
    expectBitwiseEqual(pooled, serial);

    const auto sandboxed =
        runSerial([] { return runServe(200000.0, /*prefetch=*/true); });
    expectBitwiseEqual(pooled, sandboxed);
}

TEST(Serve, ReportsAllPhasesWithOrderedTails)
{
    const auto r = runServe(500000.0, true, 128);
    EXPECT_EQ(r.offered, 128u);
    EXPECT_EQ(r.completed + r.dropped, r.offered);
    EXPECT_GT(r.completed, 0u);
    EXPECT_GT(r.achievedQps(), 0.0);
    EXPECT_LE(r.maxOccupiedQshrs, 32u);
    for (unsigned p = 0; p < serve::kNumPhases; ++p) {
        const auto ph = static_cast<serve::Phase>(p);
        EXPECT_EQ(r.latency.count(ph), r.completed)
            << serve::phaseName(ph);
        // Fewer than 1000 samples support a p50 but no p99 or p999.
        const auto s = r.latency.summary(ph);
        ASSERT_TRUE(s.p50.ps.has_value()) << serve::phaseName(ph);
        EXPECT_LE(*s.p50.ps, s.max) << serve::phaseName(ph);
        EXPECT_FALSE(s.p99.ps.has_value()) << serve::phaseName(ph);
        EXPECT_FALSE(s.p999.ps.has_value()) << serve::phaseName(ph);
    }
    // Total covers queue wait plus every service phase.
    const auto total = r.latency.summary(serve::Phase::kTotal);
    const auto qw = r.latency.summary(serve::Phase::kQueueWait);
    EXPECT_GE(total.max, qw.max);
}

TEST(Serve, FifoQueueWaitBoundedUnderZipfSkew)
{
    // No-starvation property: under FIFO admission a query waits at
    // most the full drain of the bounded queue ahead of it, so
    // max(queue wait) <= (capacity + 1) * max(service time) however
    // skewed the popularity draw is. Overload on purpose (queue
    // pressure + drops) to stress the bound.
    const auto r = runServe(2.0e6, true, 192);
    ASSERT_GT(r.completed, 0u);
    std::uint64_t max_service = 0;
    for (const auto &q : r.queries)
        max_service = std::max(max_service, q.stats.latency().raw());
    const std::uint64_t bound = (32 + 1) * max_service;
    for (const auto &q : r.queries)
        EXPECT_LE(q.queueWait.raw(), bound) << "query " << q.queryId;
}

TEST(Serve, OverloadDropsInsteadOfUnboundedQueueing)
{
    // Far past saturation the bounded queue must shed load.
    const auto r = runServe(5.0e7, true, 256);
    EXPECT_GT(r.dropped, 0u);
    EXPECT_EQ(r.completed + r.dropped, r.offered);
}

} // namespace
} // namespace ansmet
