/**
 * @file
 * Observability-layer tests: registry semantics (counters,
 * histograms, shard merging across threads), snapshot JSON shape, and
 * the Chrome-trace writer's off-by-default behaviour and write-error
 * report, from an explicit flush and from the flush at exit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ansmet::obs {
namespace {

class RegistryTest : public ::testing::Test
{
  protected:
    void SetUp() override { Registry::instance().reset(); }
    void TearDown() override { Registry::instance().reset(); }
};

TEST_F(RegistryTest, CounterAccumulates)
{
    Counter c = Registry::instance().counter("test.counter_a");
    c.inc();
    c.add(41);
    const Snapshot snap = Registry::instance().snapshot();
    ASSERT_TRUE(snap.counters.count("test.counter_a"));
    EXPECT_EQ(snap.counters.at("test.counter_a"), 42u);
}

TEST_F(RegistryTest, RegistrationIsIdempotent)
{
    Counter a = Registry::instance().counter("test.same_name");
    Counter b = Registry::instance().counter("test.same_name");
    a.add(1);
    b.add(2);
    const Snapshot snap = Registry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("test.same_name"), 3u);
}

TEST_F(RegistryTest, HistogramBucketsByLog2)
{
    Histogram h = Registry::instance().histogram("test.hist", 8);
    h.sample(0); // bucket 0
    h.sample(1); // bucket 1: [1, 2)
    h.sample(3); // bucket 2: [2, 4)
    h.sample(1000000); // clamps into the last bucket
    const Snapshot snap = Registry::instance().snapshot();
    const HistogramData &d = snap.histograms.at("test.hist");
    EXPECT_EQ(d.count, 4u);
    EXPECT_EQ(d.sum, 0u + 1 + 3 + 1000000);
    ASSERT_EQ(d.buckets.size(), 8u);
    EXPECT_EQ(d.buckets[0], 1u);
    EXPECT_EQ(d.buckets[1], 1u);
    EXPECT_EQ(d.buckets[2], 1u);
    EXPECT_EQ(d.buckets[7], 1u);
    EXPECT_DOUBLE_EQ(d.mean(), (0.0 + 1 + 3 + 1000000) / 4.0);
}

TEST_F(RegistryTest, HistogramQuantileExactOnBucketBoundaries)
{
    // Values whose bucket upper bound equals the value itself make the
    // log2 quantile exact: 0 (zero bucket) and 2^i - 1.
    Histogram h = Registry::instance().histogram("test.quant_exact", 12);
    for (int i = 0; i < 50; ++i)
        h.sample(0);
    for (int i = 0; i < 30; ++i)
        h.sample(1); // bucket 1, upper bound 1
    for (int i = 0; i < 15; ++i)
        h.sample(3); // bucket 2, upper bound 3
    for (int i = 0; i < 5; ++i)
        h.sample(7); // bucket 3, upper bound 7
    const Snapshot snap = Registry::instance().snapshot();
    const HistogramData &d = snap.histograms.at("test.quant_exact");
    EXPECT_EQ(d.quantile(0.50), 0u);   // rank 50 of 100
    EXPECT_EQ(d.quantile(0.51), 1u);   // rank 51
    EXPECT_EQ(d.quantile(0.80), 1u);   // rank 80
    EXPECT_EQ(d.quantile(0.95), 3u);   // rank 95
    EXPECT_EQ(d.quantile(0.99), 7u);   // rank 99
    EXPECT_EQ(d.quantile(1.0), 7u);
    EXPECT_EQ(HistogramData{}.quantile(0.99), 0u); // empty
}

TEST_F(RegistryTest, HistogramQuantileWithinLog2ErrorBound)
{
    // For any in-range sample distribution, the bucketed estimate e of
    // a quantile whose true sample is v satisfies e/2 < v <= e — the
    // documented log2 bound. Check against the exact nearest-rank
    // quantile of a fixed sample set.
    Histogram h = Registry::instance().histogram("test.quant_bound", 32);
    std::vector<std::uint64_t> vals;
    std::uint64_t x = 12345;
    for (int i = 0; i < 1000; ++i) {
        // Deterministic LCG spread over a few decades.
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        vals.push_back(1 + (x >> 33) % 1000000);
    }
    for (std::uint64_t v : vals)
        h.sample(v);
    std::vector<std::uint64_t> sorted = vals;
    std::sort(sorted.begin(), sorted.end());
    const Snapshot snap = Registry::instance().snapshot();
    const HistogramData &d = snap.histograms.at("test.quant_bound");
    for (double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(sorted.size())));
        const std::uint64_t truth = sorted[rank - 1];
        const std::uint64_t est = d.quantile(q);
        EXPECT_LE(truth, est) << "q=" << q;
        EXPECT_LT(est, 2 * truth) << "q=" << q;
    }
}

TEST_F(RegistryTest, HistogramQuantileMergesAcrossShards)
{
    // Each thread contributes a disjoint slice of the distribution
    // from its own shard; quantiles over the merged snapshot must see
    // the union.
    Histogram h = Registry::instance().histogram("test.quant_mt", 24);
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            // Thread t samples 250 values around 2^(4 + 2t).
            const std::uint64_t v = std::uint64_t{1} << (4 + 2 * t);
            for (int i = 0; i < 250; ++i)
                h.sample(v);
        });
    }
    for (auto &t : threads)
        t.join();
    const Snapshot snap = Registry::instance().snapshot();
    const HistogramData &d = snap.histograms.at("test.quant_mt");
    EXPECT_EQ(d.count, 1000u);
    // Quartile boundaries land between the per-thread clusters.
    EXPECT_LT(d.quantile(0.25), 32u);      // cluster 0: v=16
    EXPECT_LT(d.quantile(0.50), 128u);     // cluster 1: v=64
    EXPECT_LT(d.quantile(0.75), 512u);     // cluster 2: v=256
    EXPECT_GE(d.quantile(1.0), 1024u);     // cluster 3: v=1024
}

TEST_F(RegistryTest, SnapshotDoesNotTearHistogramMidRun)
{
    // Regression for the bucket/sum tear: a snapshot taken while a
    // histogram sample is mid-flight (bucket slot bumped, sum slot not
    // yet) used to report sum != value * count. The per-shard seqlock
    // epoch makes every snapshot internally consistent.
    //
    // The writer samples in short bursts with a pause between them, so
    // the reader always finds a stable epoch well inside its retry
    // bound and the assertion is not flaky; the burst itself is what
    // used to tear. Run under tsan in CI for ordering coverage.
    Histogram h = Registry::instance().histogram("test.tear", 16);
    constexpr std::uint64_t kValue = 5;
    constexpr int kBursts = 400;
    constexpr int kPerBurst = 16;
    std::atomic<bool> done{false};
    std::thread writer([&] {
        for (int b = 0; b < kBursts; ++b) {
            for (int i = 0; i < kPerBurst; ++i)
                h.sample(kValue);
            std::this_thread::yield();
        }
        done.store(true, std::memory_order_release);
    });
    std::uint64_t snapshots = 0;
    while (!done.load(std::memory_order_acquire)) {
        const Snapshot snap = Registry::instance().snapshot();
        const HistogramData &d = snap.histograms.at("test.tear");
        EXPECT_EQ(d.sum, kValue * d.count)
            << "torn snapshot after " << snapshots << " reads";
        ++snapshots;
    }
    writer.join();
    const Snapshot fin = Registry::instance().snapshot();
    const HistogramData &final_d = fin.histograms.at("test.tear");
    EXPECT_EQ(final_d.count,
              static_cast<std::uint64_t>(kBursts) * kPerBurst);
    EXPECT_EQ(final_d.sum, kValue * final_d.count);
}

TEST_F(RegistryTest, ShardsMergeAcrossThreads)
{
    Counter c = Registry::instance().counter("test.mt_counter");
    Histogram h = Registry::instance().histogram("test.mt_hist", 8);
    constexpr int kThreads = 8;
    constexpr int kIters = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                h.sample(2);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const Snapshot snap = Registry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("test.mt_counter"),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(snap.histograms.at("test.mt_hist").count,
              static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_F(RegistryTest, SnapshotJsonIsParsableShape)
{
    Registry::instance().counter("test.json_counter").add(5);
    Registry::instance().counter("test.\"quoted\"").add(2);
    Registry::instance().histogram("test.json_hist", 4).sample(1);
    const std::string json = Registry::instance().snapshotJson();
    // Not a full JSON parser — assert the structural anchors a real
    // consumer (tools/, CI artifact readers) relies on: exactly the
    // two instrument kinds, and names escaped as JSON strings.
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json_counter\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"test.\\\"quoted\\\"\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"test.json_hist\": {\"count\": 1"),
              std::string::npos);
    EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST_F(RegistryTest, ResetZeroesEverything)
{
    Counter c = Registry::instance().counter("test.reset_counter");
    c.add(9);
    Registry::instance().reset();
    const Snapshot snap = Registry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("test.reset_counter"), 0u);
}

TEST(TraceWriterTest, DisabledWithoutEnv)
{
    // The test binary never sets ANSMET_TRACE, so recording must be
    // off and every call a cheap no-op.
    auto &tw = TraceWriter::instance();
    EXPECT_FALSE(tw.enabled());
    tw.beginRun("test-run");
    tw.span("noop", 0, Tick{}, Tick{10});
    tw.counter("noop", 0, Tick{}, 1);
    EXPECT_TRUE(tw.flush());
    EXPECT_EQ(tw.dropped(), 0u);
}

TEST(TraceWriterDeathTest, FailedWriteIsReported)
{
    // /dev/full opens fine and fails every write: the trace is lost,
    // and flush() must say so instead of passing silently.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Each child is a fresh process, so this is the singleton's first
    // use: it reads ANSMET_TRACE there.
    EXPECT_EXIT(
        {
            ::setenv("ANSMET_TRACE", "/dev/full", 1);
            auto &tw = TraceWriter::instance();
            tw.span("query", 0, Tick{}, Tick{10});
            // _Exit skips the exit-time flush; the code is the result.
            std::_Exit(tw.flush() ? 0 : 3);
        },
        ::testing::ExitedWithCode(3),
        "ansmet: cannot write ANSMET_TRACE path '/dev/full'");
    // A process that exits normally with an unwritten trace fails.
    EXPECT_EXIT(
        {
            ::setenv("ANSMET_TRACE", "/dev/full", 1);
            TraceWriter::instance().span("query", 0, Tick{}, Tick{10});
            std::exit(0);
        },
        ::testing::ExitedWithCode(1),
        "ansmet: cannot write ANSMET_TRACE path '/dev/full'");
}

} // namespace
} // namespace ansmet::obs
