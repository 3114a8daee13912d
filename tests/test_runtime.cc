/**
 * @file
 * Task runtime tests: channel SPSC/MPSC/steal stress (the tsan job
 * runs these under -fsanitize=thread), bounded-channel backpressure
 * (tasks are never dropped), affinity-hint placement with stealing
 * disabled, the one-lane inline fast path, drain-then-join shutdown
 * with the submit-after-shutdown CHECK, TaskGroup join/exception
 * semantics, result identity across lane counts, and parallelFor used
 * as a plain worker pool (range coverage, nesting, exceptions, repeated
 * rounds).
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

#include "common/runtime/core_set.h"
#include "common/runtime/mpsc_channel.h"
#include "common/runtime/runtime.h"

namespace ansmet::runtime {
namespace {

RuntimeConfig
config(unsigned lanes, std::size_t capacity = 1024, bool steal = true)
{
    RuntimeConfig cfg;
    cfg.cores = CoreSet::identity(lanes);
    cfg.channelCapacity = capacity;
    cfg.steal = steal;
    return cfg;
}

// --------------------------------------------------------------------
// CoreSet
// --------------------------------------------------------------------

TEST(CoreSet, ParsesListsRangesAndDuplicates)
{
    const CoreSet cs = CoreSet::parse("0,2,4-6");
    ASSERT_EQ(cs.size(), 5u);
    const unsigned want[] = {0, 2, 4, 5, 6};
    for (unsigned i = 0; i < cs.size(); ++i)
        EXPECT_EQ(cs[i], want[i]);
    EXPECT_TRUE(cs.pinned());

    const CoreSet down = CoreSet::parse("6-4");
    ASSERT_EQ(down.size(), 3u);
    EXPECT_EQ(down[0], 6u);
    EXPECT_EQ(down[2], 4u);

    // Duplicates keep their first position.
    const CoreSet dup = CoreSet::parse("3,1,3,1-2");
    ASSERT_EQ(dup.size(), 3u);
    EXPECT_EQ(dup[0], 3u);
    EXPECT_EQ(dup[1], 1u);
    EXPECT_EQ(dup[2], 2u);
}

TEST(CoreSet, RejectsJunkAsEmpty)
{
    EXPECT_EQ(CoreSet::parse("banana").size(), 0u);
    EXPECT_EQ(CoreSet::parse("1,x").size(), 0u);
    EXPECT_EQ(CoreSet::parse("-3").size(), 0u);
    EXPECT_EQ(CoreSet::parse(nullptr).size(), 0u);
    EXPECT_FALSE(CoreSet::parse("junk").pinned());
}

TEST(CoreSet, IdentityIsUnpinned)
{
    const CoreSet cs = CoreSet::identity(4);
    ASSERT_EQ(cs.size(), 4u);
    EXPECT_FALSE(cs.pinned());
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(cs[i], i);
}

// --------------------------------------------------------------------
// MpscChannel
// --------------------------------------------------------------------

TEST(MpscChannel, FifoSingleProducerSingleConsumer)
{
    MpscChannel<std::uint64_t> ch(64);
    constexpr std::uint64_t kN = 100000;
    std::thread producer([&ch] {
        for (std::uint64_t i = 0; i < kN; ++i)
            while (!ch.tryPush(std::uint64_t{i}))
                std::this_thread::yield();
    });
    std::uint64_t expect = 0;
    while (expect < kN) {
        std::uint64_t v = 0;
        if (!ch.tryPop(v)) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(v, expect); // SPSC degenerates to strict FIFO
        ++expect;
    }
    producer.join();
    std::uint64_t v = 0;
    EXPECT_FALSE(ch.tryPop(v));
}

TEST(MpscChannel, MultiProducerKeepsPerProducerOrderAndDropsNothing)
{
    MpscChannel<std::uint64_t> ch(128);
    constexpr unsigned kProducers = 4;
    constexpr std::uint64_t kPerProducer = 50000;
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (unsigned p = 0; p < kProducers; ++p)
        producers.emplace_back([&ch, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                const std::uint64_t tagged = (std::uint64_t{p} << 32) | i;
                while (!ch.tryPush(std::uint64_t{tagged}))
                    std::this_thread::yield();
            }
        });
    std::vector<std::uint64_t> next_seq(kProducers, 0);
    std::uint64_t popped = 0;
    while (popped < kProducers * kPerProducer) {
        std::uint64_t v = 0;
        if (!ch.tryPop(v)) {
            std::this_thread::yield();
            continue;
        }
        const unsigned p = static_cast<unsigned>(v >> 32);
        const std::uint64_t seq = v & 0xffffffffu;
        ASSERT_LT(p, kProducers);
        ASSERT_EQ(seq, next_seq[p]) << "producer " << p;
        ++next_seq[p];
        ++popped;
    }
    for (auto &t : producers)
        t.join();
}

TEST(MpscChannel, ConcurrentStealersDrainEverythingExactlyOnce)
{
    // The steal path makes the consumer side multi-participant; hammer
    // it with several poppers racing the producers.
    MpscChannel<std::uint64_t> ch(64);
    constexpr unsigned kProducers = 2;
    constexpr unsigned kConsumers = 3;
    constexpr std::uint64_t kPerProducer = 40000;
    constexpr std::uint64_t kTotal = kProducers * kPerProducer;
    std::atomic<std::uint64_t> popped{0};
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < kProducers; ++p)
        threads.emplace_back([&ch, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i)
                while (!ch.tryPush(p * kPerProducer + i))
                    std::this_thread::yield();
        });
    for (unsigned c = 0; c < kConsumers; ++c)
        threads.emplace_back([&ch, &popped, &sum] {
            while (popped.load(std::memory_order_acquire) < kTotal) {
                std::uint64_t v = 0;
                if (ch.tryPop(v)) {
                    sum.fetch_add(v, std::memory_order_relaxed);
                    popped.fetch_add(1, std::memory_order_acq_rel);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(popped.load(), kTotal);
    EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2); // each value once
}

TEST(MpscChannel, TryPushLeavesValueIntactWhenFull)
{
    MpscChannel<std::vector<int>> ch(2);
    ASSERT_TRUE(ch.tryPush(std::vector<int>{1}));
    ASSERT_TRUE(ch.tryPush(std::vector<int>{2}));
    std::vector<int> keep{3, 4, 5};
    ASSERT_FALSE(ch.tryPush(std::move(keep)));
    EXPECT_EQ(keep.size(), 3u); // backpressure retries reuse the task
}

// --------------------------------------------------------------------
// Runtime: backpressure, placement, inline path, shutdown
// --------------------------------------------------------------------

TEST(Runtime, BackpressureNeverDropsTasks)
{
    // Capacity 4 with thousands of external posts: every push beyond
    // capacity must either help-drain or wait, never drop.
    Runtime rt(config(/*lanes=*/3, /*capacity=*/4));
    constexpr unsigned kTasks = 20000;
    std::atomic<unsigned> ran{0};
    TaskGroup group(rt);
    for (unsigned t = 0; t < kTasks; ++t)
        group.run(t, Task::Fn{[&ran] {
                      ran.fetch_add(1, std::memory_order_relaxed);
                  }});
    group.wait();
    EXPECT_EQ(ran.load(), kTasks);
}

TEST(Runtime, WorkerSidePostsSurviveFullChannels)
{
    // Tasks that fan out from inside workers overflow the tiny
    // channels; the worker-producer path must run them inline instead
    // of deadlocking on its own full channel.
    Runtime rt(config(/*lanes=*/2, /*capacity=*/2));
    std::atomic<unsigned> ran{0};
    TaskGroup group(rt);
    for (unsigned t = 0; t < 64; ++t)
        group.run(t, Task::Fn{[&rt, &group, &ran] {
                      for (unsigned c = 0; c < 8; ++c)
                          group.run(c, Task::Fn{[&ran] {
                                        ran.fetch_add(
                                            1, std::memory_order_relaxed);
                                    }});
                      ran.fetch_add(1, std::memory_order_relaxed);
                  }});
    group.wait();
    EXPECT_EQ(ran.load(), 64u * 9u);
}

TEST(Runtime, AffinityHintPlacesTasksWhenStealingIsOff)
{
    constexpr unsigned kWorkers = 3;
    Runtime rt(config(kWorkers + 1, 1024, /*steal=*/false));
    ASSERT_EQ(rt.numWorkers(), kWorkers);
    constexpr unsigned kTasks = 300;
    std::vector<std::uint32_t> ran_on(kTasks, kAnyLane);
    TaskGroup group(rt);
    for (unsigned t = 0; t < kTasks; ++t)
        group.run(t, Task::Fn{[&ran_on, t] {
                      ran_on[t] = Runtime::currentWorker();
                  }});
    group.wait();
    for (unsigned t = 0; t < kTasks; ++t)
        ASSERT_EQ(ran_on[t], t % kWorkers) << "task " << t;
}

TEST(Runtime, OneLaneRuntimeRunsEverythingInlineOnTheCaller)
{
    Runtime rt(config(1));
    EXPECT_EQ(rt.numWorkers(), 0u);
    EXPECT_EQ(rt.lanes(), 1u);
    const std::thread::id self = std::this_thread::get_id();
    bool ran = false;
    rt.post(Task{Task::Fn{[&ran, self] {
                     ran = true;
                     EXPECT_EQ(std::this_thread::get_id(), self);
                     EXPECT_TRUE(Runtime::inRuntimeWork());
                     EXPECT_EQ(Runtime::currentWorker(), kAnyLane);
                 }},
                 kAnyLane});
    EXPECT_TRUE(ran);
    EXPECT_FALSE(Runtime::inRuntimeWork());

    std::vector<unsigned> hits(100, 0);
    rt.parallelFor(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        for (std::size_t i = lo; i < hi; ++i)
            ++hits[i];
    });
    for (unsigned h : hits)
        EXPECT_EQ(h, 1u);
}

TEST(Runtime, ShutdownDrainsAcceptedTasksBeforeJoining)
{
    constexpr unsigned kTasks = 5000;
    std::atomic<unsigned> ran{0};
    {
        Runtime rt(config(4));
        for (unsigned t = 0; t < kTasks; ++t)
            rt.post(Task{Task::Fn{[&ran] {
                             ran.fetch_add(1, std::memory_order_relaxed);
                         }},
                         t});
        rt.shutdown(); // must drain, not abandon
        EXPECT_EQ(ran.load(), kTasks);
        rt.shutdown(); // idempotent
    }
    EXPECT_EQ(ran.load(), kTasks);
}

TEST(RuntimeDeathTest, PostAfterShutdownIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // One lane: no worker threads in the parent, so the death-test
    // fork is clean.
    Runtime rt(config(1));
    rt.shutdown();
    EXPECT_DEATH(rt.post(Task{Task::Fn{[] {}}, kAnyLane}),
                 "post on a stopped runtime");
}

TEST(Runtime, ParkedWorkersWakeForTrickledWork)
{
    // Slow trickle with gaps well past the spin budget: every post
    // must un-park a worker (a lost wakeup hangs this test).
    Runtime rt(config(3));
    std::atomic<unsigned> ran{0};
    TaskGroup group(rt);
    for (unsigned t = 0; t < 50; ++t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        group.run(kAnyLane, Task::Fn{[&ran] {
                      ran.fetch_add(1, std::memory_order_relaxed);
                  }});
    }
    group.wait();
    EXPECT_EQ(ran.load(), 50u);
}

// --------------------------------------------------------------------
// TaskGroup
// --------------------------------------------------------------------

TEST(TaskGroup, WaitRethrowsFirstTaskError)
{
    Runtime rt(config(4));
    TaskGroup group(rt);
    std::atomic<unsigned> ran{0};
    for (unsigned t = 0; t < 100; ++t)
        group.run(t, Task::Fn{[&ran, t] {
                      ran.fetch_add(1, std::memory_order_relaxed);
                      if (t == 37)
                          throw std::runtime_error("task 37 failed");
                  }});
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 100u); // the failure does not cancel siblings
}

TEST(TaskGroup, WaitFromInsideAWorkerHelpsInsteadOfDeadlocking)
{
    // A group task that itself forks-and-joins a subgroup: with one
    // worker, the subgroup's tasks sit on that worker's own channel,
    // so its wait() must help-drain them.
    Runtime rt(config(2));
    std::atomic<unsigned> ran{0};
    TaskGroup outer(rt);
    outer.run(0, Task::Fn{[&rt, &ran] {
                  TaskGroup inner(rt);
                  for (unsigned c = 0; c < 16; ++c)
                      inner.run(c, Task::Fn{[&ran] {
                                    ran.fetch_add(
                                        1, std::memory_order_relaxed);
                                }});
                  inner.wait();
                  ran.fetch_add(1, std::memory_order_relaxed);
              }});
    outer.wait();
    EXPECT_EQ(ran.load(), 17u);
}

// --------------------------------------------------------------------
// Determinism across lane counts
// --------------------------------------------------------------------

/** A toy reduction whose result must not depend on the lane count:
 *  per-index values land in indexed slots, the reduction is serial. */
std::uint64_t
checksumWithLanes(unsigned lanes)
{
    Runtime rt(config(lanes));
    constexpr std::size_t kN = 4096;
    std::vector<std::uint64_t> slot(kN, 0);
    rt.parallelFor(0, kN, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            std::uint64_t x = 0x9E3779B97F4A7C15ull * (i + 1);
            x ^= x >> 29;
            slot[i] = x;
        }
    });
    TaskGroup group(rt);
    std::vector<std::uint64_t> partial(16, 0);
    for (unsigned p = 0; p < 16; ++p)
        group.run(p, Task::Fn{[&slot, &partial, p] {
                      const std::size_t chunk = kN / 16;
                      for (std::size_t i = p * chunk; i < (p + 1) * chunk;
                           ++i)
                          partial[p] += slot[i];
                  }});
    group.wait();
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
    Runtime rt(config(4));
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
    Runtime rt(config(4));
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
    Runtime rt(config(4));
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
        Runtime rt(config(lanes));
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
    Runtime rt(config(3));
    std::atomic<std::size_t> sum{0};
    rt.parallelFor(100, 200, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 14950u); // (100 + 199) * 100 / 2
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody)
{
    Runtime rt(config(2));
    bool called = false;
    rt.parallelFor(5, 5, [&](std::size_t, std::size_t) { called = true; });
    rt.parallelFor(7, 3, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForPropagatesFirstExceptionAndCompletes)
{
    Runtime rt(config(4));
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
    Runtime rt(config(4));
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
    Runtime rt(config(1));
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
    EXPECT_EQ(CoreSet::configuredLanes(), 3u);
    ::setenv("ANSMET_THREADS", "1", 1);
    EXPECT_EQ(CoreSet::configuredLanes(), 1u);

    // ANSMET_THREADS=1 must build a default runtime with zero workers.
    {
        Runtime rt;
        EXPECT_EQ(rt.lanes(), 1u);
        EXPECT_EQ(rt.numWorkers(), 0u);
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
    Runtime rt(config(4));
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
    Runtime rt(config(4));
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
    Runtime rt(config(4));
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
    Runtime rt(config(4));
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
