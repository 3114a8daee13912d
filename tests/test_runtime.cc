/**
 * @file
 * Runtime tests: the configured lane count, the one-lane inline path,
 * parked workers waking for trickled calls, the nesting rule across
 * runtimes, result identity across lane counts, and parallelFor used
 * as a plain worker pool (range coverage, nesting, exceptions,
 * repeated rounds). The tsan job runs them under -fsanitize=thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/runtime/runtime.h"

namespace ansmet::runtime {
namespace {

// --------------------------------------------------------------------
// Runtime: inline path, parking, nesting across runtimes
// --------------------------------------------------------------------

TEST(Runtime, OneLaneRuntimeRunsEverythingInlineOnTheCaller)
{
    Runtime rt(1);
    EXPECT_EQ(rt.lanes(), 1u);
    const std::thread::id self = std::this_thread::get_id();
    std::vector<unsigned> hits(100, 0);
    rt.parallelFor(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        for (std::size_t i = lo; i < hi; ++i)
            ++hits[i];
    });
    for (unsigned h : hits)
        EXPECT_EQ(h, 1u);
}

TEST(Runtime, ParkedWorkersWakeForTrickledWork)
{
    // Small calls with gaps long enough for the workers to park: every
    // call must wake them (a lost wakeup hangs this test).
    Runtime rt(3);
    std::atomic<unsigned> ran{0};
    for (unsigned t = 0; t < 50; ++t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        rt.parallelFor(
            0, 4,
            [&ran](std::size_t lo, std::size_t hi) {
                ran.fetch_add(static_cast<unsigned>(hi - lo),
                              std::memory_order_relaxed);
            },
            /*grain=*/1);
    }
    EXPECT_EQ(ran.load(), 200u);
}

TEST(Runtime, BodyOfAnyRuntimeRunsNestedGlobalCallsInline)
{
    // The contract the tests' runSerial sandbox relies on: inside the
    // body of a one-lane private runtime's parallelFor, a call on the
    // global runtime runs as one inline call.
    Runtime sandbox(1);
    const std::thread::id self = std::this_thread::get_id();
    unsigned calls = 0;
    sandbox.parallelFor(0, 1, [&](std::size_t, std::size_t) {
        runtime::parallelFor(0, 1000, [&](std::size_t lo, std::size_t hi) {
            ++calls;
            EXPECT_EQ(lo, 0u);
            EXPECT_EQ(hi, 1000u);
            EXPECT_EQ(std::this_thread::get_id(), self);
        });
    });
    EXPECT_EQ(calls, 1u);
}

// --------------------------------------------------------------------
// Determinism across lane counts
// --------------------------------------------------------------------

/** A toy reduction whose result must not depend on the lane count:
 *  per-index values land in indexed slots, the reduction is serial. */
std::uint64_t
checksumWithLanes(unsigned lanes)
{
    Runtime rt(lanes);
    constexpr std::size_t kN = 4096;
    std::vector<std::uint64_t> slot(kN, 0);
    rt.parallelFor(0, kN, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            std::uint64_t x = 0x9E3779B97F4A7C15ull * (i + 1);
            x ^= x >> 29;
            slot[i] = x;
        }
    });
    std::vector<std::uint64_t> partial(16, 0);
    rt.parallelFor(
        0, partial.size(),
        [&](std::size_t lo, std::size_t hi) {
            const std::size_t chunk = kN / partial.size();
            for (std::size_t p = lo; p < hi; ++p)
                for (std::size_t i = p * chunk; i < (p + 1) * chunk; ++i)
                    partial[p] += slot[i];
        },
        /*grain=*/1);
    // Canonical serial reduction order.
    return std::accumulate(partial.begin(), partial.end(),
                           std::uint64_t{0});
}

TEST(Runtime, ResultsAreIdenticalAcrossLaneCounts)
{
    const std::uint64_t one = checksumWithLanes(1);
    EXPECT_EQ(checksumWithLanes(2), one);
    EXPECT_EQ(checksumWithLanes(4), one);
    EXPECT_EQ(checksumWithLanes(7), one);
}

// --------------------------------------------------------------------
// parallelFor on the runtime directly
// --------------------------------------------------------------------

TEST(Runtime, ParallelForCoversEveryIndexExactlyOnce)
{
    Runtime rt(4);
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<unsigned>> hits(kN);
    rt.parallelFor(
        0, kN,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        /*grain=*/7);
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(Runtime, NestedParallelForRunsInline)
{
    Runtime rt(4);
    std::atomic<unsigned> outer{0};
    std::atomic<unsigned> inner{0};
    rt.parallelFor(0, 8, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            outer.fetch_add(1, std::memory_order_relaxed);
            const std::thread::id self = std::this_thread::get_id();
            rt.parallelFor(0, 4, [&](std::size_t nlo, std::size_t nhi) {
                EXPECT_EQ(std::this_thread::get_id(), self);
                inner.fetch_add(static_cast<unsigned>(nhi - nlo),
                                std::memory_order_relaxed);
            });
        }
    });
    EXPECT_EQ(outer.load(), 8u);
    EXPECT_EQ(inner.load(), 32u);
}

TEST(Runtime, ParallelForPropagatesFirstException)
{
    Runtime rt(4);
    std::atomic<unsigned> ran{0};
    EXPECT_THROW(
        rt.parallelFor(0, 1000,
                       [&](std::size_t lo, std::size_t hi) {
                           ran.fetch_add(static_cast<unsigned>(hi - lo),
                                         std::memory_order_relaxed);
                           if (lo == 0)
                               throw std::runtime_error("chunk failed");
                       }),
        std::runtime_error);
    EXPECT_EQ(ran.load(), 1000u); // the range still completes
}

// --------------------------------------------------------------------
// ThreadPool: the runtime used as a plain worker pool, one private
// runtime of n lanes per test, driven only through parallelFor.
// --------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    // Every pool size from the inline one-lane path up.
    for (unsigned lanes = 1; lanes <= 4; ++lanes) {
        Runtime rt(lanes);
        constexpr std::size_t kN = 10000;
        std::vector<std::atomic<unsigned>> hits(kN);
        rt.parallelFor(
            0, kN,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    hits[i].fetch_add(1, std::memory_order_relaxed);
            },
            /*grain=*/7);
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[i].load(), 1u)
                << "lanes " << lanes << ", index " << i;
    }
}

TEST(ThreadPool, ParallelForHonorsNonZeroBegin)
{
    Runtime rt(3);
    std::atomic<std::size_t> sum{0};
    rt.parallelFor(100, 200, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 14950u); // (100 + 199) * 100 / 2
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody)
{
    Runtime rt(2);
    bool called = false;
    rt.parallelFor(5, 5, [&](std::size_t, std::size_t) { called = true; });
    rt.parallelFor(7, 3, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForPropagatesFirstExceptionAndCompletes)
{
    Runtime rt(4);
    constexpr std::size_t kN = 512;
    std::vector<std::atomic<unsigned>> hits(kN);
    EXPECT_THROW(rt.parallelFor(
                     0, kN,
                     [&](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i)
                             hits[i].fetch_add(1, std::memory_order_relaxed);
                         if (lo <= kN / 2 && kN / 2 < hi)
                             throw std::runtime_error("chunk boom");
                     },
                     /*grain=*/8),
                 std::runtime_error);
    // The failing chunk must not strand the rest of the range.
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    Runtime rt(4);
    constexpr std::size_t kOuter = 64;
    constexpr std::size_t kInner = 100;
    std::vector<std::size_t> sums(kOuter, 0);
    rt.parallelFor(0, kOuter, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t o = lo; o < hi; ++o) {
            // A nested call from runtime work must degrade to a plain
            // serial loop (the non-atomic sums[o] relies on it) instead
            // of waiting on pool capacity.
            rt.parallelFor(0, kInner, [&](std::size_t ilo, std::size_t ihi) {
                for (std::size_t i = ilo; i < ihi; ++i)
                    sums[o] += i;
            });
        }
    });
    for (std::size_t o = 0; o < kOuter; ++o)
        EXPECT_EQ(sums[o], kInner * (kInner - 1) / 2);
}

TEST(ThreadPool, SingleThreadPoolRunsInlineInOneCall)
{
    Runtime rt(1);
    EXPECT_EQ(rt.lanes(), 1u);
    const std::thread::id self = std::this_thread::get_id();
    unsigned calls = 0;
    rt.parallelFor(3, 40, [&](std::size_t lo, std::size_t hi) {
        ++calls;
        EXPECT_EQ(lo, 3u);
        EXPECT_EQ(hi, 40u);
        EXPECT_EQ(std::this_thread::get_id(), self);
    });
    EXPECT_EQ(calls, 1u); // no chunking on the serial reference path
}

TEST(ThreadPool, ConfiguredThreadsReadsEnv)
{
    const char *saved = std::getenv("ANSMET_THREADS");
    const std::string saved_val = saved ? saved : "";

    ::setenv("ANSMET_THREADS", "3", 1);
    EXPECT_EQ(configuredLanes(), 3u);

    ::setenv("ANSMET_THREADS", "1", 1);
    EXPECT_EQ(configuredLanes(), 1u);

    // ANSMET_THREADS=1 must build a default runtime with zero workers.
    {
        Runtime rt;
        EXPECT_EQ(rt.lanes(), 1u);
    }

    if (saved)
        ::setenv("ANSMET_THREADS", saved_val.c_str(), 1);
    else
        ::unsetenv("ANSMET_THREADS");
}

TEST(ThreadPool, ManySequentialParallelFors)
{
    // Regression guard for job publication/unpublication races: the
    // same runtime must survive many back-to-back loops with results
    // identical to serial accumulation.
    Runtime rt(4);
    std::size_t total = 0;
    for (unsigned round = 0; round < 200; ++round) {
        std::atomic<std::size_t> sum{0};
        rt.parallelFor(0, 97, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                sum.fetch_add(i + round, std::memory_order_relaxed);
        });
        total += sum.load();
    }
    std::size_t expect = 0;
    for (unsigned round = 0; round < 200; ++round)
        for (std::size_t i = 0; i < 97; ++i)
            expect += i + round;
    EXPECT_EQ(total, expect);
}

// --------------------------------------------------------------------
// ThreadPoolStress: repeated rounds sized so a TSan build gets enough
// interleavings while a plain build stays well under a second.
// --------------------------------------------------------------------

TEST(ThreadPoolStress, NestedParallelForRunsEveryIteration)
{
    Runtime rt(4);
    constexpr std::size_t kOuter = 64;
    constexpr std::size_t kInner = 64;
    std::vector<std::atomic<int>> hits(kOuter * kInner);

    for (int round = 0; round < 10; ++round) {
        rt.parallelFor(
            0, kOuter,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t o = lo; o < hi; ++o) {
                    // Nested call: must run inline, not deadlock on
                    // pool capacity.
                    rt.parallelFor(
                        0, kInner, [&, o](std::size_t ilo, std::size_t ihi) {
                            for (std::size_t i = ilo; i < ihi; ++i)
                                hits[o * kInner + i].fetch_add(
                                    1, std::memory_order_relaxed);
                        });
                }
            },
            /*grain=*/1);
    }
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 10) << "iteration " << i;
}

TEST(ThreadPoolStress, ExceptionFromManyChunksPropagatesOnce)
{
    Runtime rt(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<std::size_t> ran{0};
        bool threw = false;
        try {
            rt.parallelFor(
                0, 256,
                [&](std::size_t lo, std::size_t hi) {
                    ran.fetch_add(hi - lo, std::memory_order_relaxed);
                    // Every chunk throws; exactly one exception must
                    // surface, after the whole range has been claimed.
                    throw std::runtime_error("chunk failure");
                },
                /*grain=*/4);
        } catch (const std::runtime_error &e) {
            threw = true;
            EXPECT_STREQ(e.what(), "chunk failure");
        }
        EXPECT_TRUE(threw);
        EXPECT_EQ(ran.load(), 256u);
    }
}

TEST(ThreadPoolStress, SequentialParallelForsStayDeterministic)
{
    Runtime rt(4);
    std::vector<std::size_t> out(4096);
    for (int round = 0; round < 20; ++round) {
        rt.parallelFor(0, out.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                out[i] = i * i;
        });
        const std::size_t spot = 1234;
        ASSERT_EQ(out[spot], spot * spot);
    }
}

} // namespace
} // namespace ansmet::runtime
