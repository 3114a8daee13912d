/**
 * @file
 * Dedicated event-queue tests: same-timestamp tie-break determinism,
 * scheduling from inside callbacks, bounded runs, far-future events,
 * randomized ordering parity between sim::EventQueue and the reference
 * heap queue, and the InlineFunction callback type.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/prng.h"
#include "reference_queue.h"
#include "sim/event_queue.h"

namespace ansmet::sim {
namespace {

/** A delta far beyond any the DRAM model schedules. */
constexpr TickDelta kFar{4'194'304};

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<Tick> seen;
    eq.schedule(Tick{30}, [&] { seen.push_back(Tick{30}); });
    eq.schedule(Tick{10}, [&] { seen.push_back(Tick{10}); });
    eq.schedule(Tick{20}, [&] { seen.push_back(Tick{20}); });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{Tick{10}, Tick{20}, Tick{30}}));
    EXPECT_EQ(eq.now(), Tick{30});
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, SameTickPriorityThenInsertionOrder)
{
    EventQueue eq;
    std::string order;
    // All at tick 100: priority breaks ties first, then insertion
    // order. This exact order is what makes replays bit-identical.
    // 'a' is scheduled after 'c' and still runs first: serve's chained
    // arrivals rely on priority -1 winning every same-tick tie. The
    // range's two ends ('z', '0') hold too.
    eq.schedule(Tick{100}, [&] { order += 'z'; }, 32767);
    eq.schedule(Tick{100}, [&] { order += 'c'; }, 1);
    eq.schedule(Tick{100}, [&] { order += 'a'; }, -1);
    eq.schedule(Tick{100}, [&] { order += 'd'; }, 1);
    eq.schedule(Tick{100}, [&] { order += 'b'; }, 0);
    eq.schedule(Tick{100}, [&] { order += '0'; }, -32768);
    eq.run();
    EXPECT_EQ(order, "0abcdz");
}

TEST(EventQueue, InsertionOrderStableAcrossInterleavedScheduling)
{
    // Events scheduled from within callbacks still honor (tick, prio,
    // insertion) ordering relative to already-pending events, also
    // when scheduled at now(): they run after that tick's events
    // already pending.
    EventQueue eq;
    std::string order;
    eq.schedule(Tick{10}, [&] {
        order += 'a';
        eq.schedule(Tick{20}, [&] { order += 'x'; });
        eq.scheduleIn(TickDelta{}, [&] { order += 'n'; });
    });
    eq.schedule(Tick{10}, [&] { order += 'm'; });
    eq.schedule(Tick{20}, [&] { order += 'b'; });
    eq.run();
    EXPECT_EQ(order, "amnbx");
    EXPECT_EQ(eq.now(), Tick{20});
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    eq.schedule(Tick{50}, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), Tick{50});
    EXPECT_DEATH(eq.schedule(Tick{10}, [] {}), "scheduling in the past");
}

TEST(EventQueue, PriorityOutOfRangePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    EXPECT_DEATH(eq.schedule(Tick{1}, [] {}, 32768),
                 "event priority out of range");
    EXPECT_DEATH(eq.schedule(Tick{1}, [] {}, -32769),
                 "event priority out of range");
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(Tick{10}, [&] { ++count; });
    eq.schedule(Tick{20}, [&] { ++count; });
    eq.run(Tick{15});
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, FarFutureEventsExecuteInOrder)
{
    // Events millions of ticks apart, scheduled out of order, execute
    // in tick order and leave the clock on the last one.
    EventQueue eq;
    std::vector<int> seen;
    const TickDelta stride = kFar + TickDelta{7};
    for (const int i : {4, 1, 5, 2, 3}) {
        eq.schedule(Tick{} + static_cast<std::uint64_t>(i) * stride,
                    [&seen, i] { seen.push_back(i); });
    }
    eq.run();
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), Tick{} + 5 * stride);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, FarFutureSameTickTiesKeepPriorityAndInsertionOrder)
{
    // Three events land on one far-future tick: two scheduled from
    // tick 0, one from a callback millions of ticks later. (tick,
    // prio, insertion) order must hold however far ahead each was
    // scheduled.
    EventQueue eq;
    std::string order;
    const Tick far = Tick{} + 2 * kFar + TickDelta{12345};
    eq.schedule(far, [&order] { order += 'a'; });
    eq.schedule(Tick{} + kFar + TickDelta{5},
                [&eq, &order, far] {
        order += 'x';
        eq.schedule(far, [&order] { order += 'c'; }, 1);
                });
    eq.schedule(far, [&order] { order += 'b'; });
    eq.run();
    EXPECT_EQ(order, "xabc");
}

/**
 * Random schedule driver usable with both queue implementations.
 * Every draw happens inside the executed callbacks, so as long as the
 * two queues execute in the same order they make identical decisions —
 * and any ordering divergence shows up as differing logs.
 */
template <class Queue>
struct ParityDriver
{
    Queue q;
    Prng rng;
    std::vector<unsigned> log;
    unsigned scheduled = 0;
    unsigned budget;

    ParityDriver(std::uint64_t seed, unsigned budget)
        : rng(seed), budget(budget)
    {
    }

    TickDelta
    draw()
    {
        switch (rng.below(4)) {
          case 0:
            return TickDelta{rng.below(4)}; // same-tick collisions
          case 1:
            return TickDelta{rng.below(2000)}; // DRAM timing scale
          case 2:
            return TickDelta{rng.below(100000)}; // queueing scale
          default: // far future
            return kFar + TickDelta{rng.below(1u << 20)};
        }
    }

    void
    spawn()
    {
        const unsigned label = scheduled++;
        const TickDelta delta = draw();
        const int prio = static_cast<int>(rng.below(3)) - 1;
        q.schedule(q.now() + delta, [this, label] { fire(label); },
                   prio);
    }

    void
    fire(unsigned label)
    {
        log.push_back(label);
        if (scheduled < budget) {
            spawn();
            if (rng.below(2) != 0 && scheduled < budget)
                spawn();
        }
    }

    void
    run()
    {
        for (int i = 0; i < 16; ++i)
            spawn();
        q.run();
    }
};

TEST(EventQueue, OrderingParityWithReferenceQueue)
{
    // The queue must execute randomized schedules in exactly the order
    // of the executable spec (reference_queue.h), including same-tick
    // priority/insertion ties and far-future events.
    for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
        ParityDriver<EventQueue> opt(seed, 4000);
        ParityDriver<test::ReferenceEventQueue> ref(seed, 4000);
        opt.run();
        ref.run();
        ASSERT_EQ(opt.log.size(), ref.log.size()) << "seed " << seed;
        EXPECT_EQ(opt.log, ref.log) << "seed " << seed;
        EXPECT_EQ(opt.q.now(), ref.q.now()) << "seed " << seed;
        EXPECT_EQ(opt.q.pending(), 0u);
    }
}

TEST(InlineFunction, InvokesAndReportsEngagement)
{
    InlineFunction<int(int), 16> f;
    EXPECT_FALSE(static_cast<bool>(f));
    int base = 40;
    f = [&base](int x) { return base + x; };
    ASSERT_TRUE(static_cast<bool>(f));
    EXPECT_EQ(f(2), 42);
    f = nullptr;
    EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunction, MoveTransfersCallableAndEmptiesSource)
{
    int calls = 0;
    InlineFunction<void(), 16> a = [&calls] { ++calls; };
    InlineFunction<void(), 16> b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);
    a = std::move(b); // move-assign back over the empty one
    EXPECT_FALSE(static_cast<bool>(b));
    a();
    EXPECT_EQ(calls, 2);
}

TEST(InlineFunction, DestroysCaptureExactlyOnce)
{
    // A shared_ptr capture counts destructions for us: after move
    // chains and reset, the use count must drop back to 1.
    auto token = std::make_shared<int>(7);
    {
        InlineFunction<int(), 32> f = [token] { return *token; };
        EXPECT_EQ(token.use_count(), 2);
        InlineFunction<int(), 32> g = std::move(f);
        EXPECT_EQ(token.use_count(), 2); // relocated, not duplicated
        EXPECT_EQ(g(), 7);
        g = nullptr;
        EXPECT_EQ(token.use_count(), 1);
    }
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace ansmet::sim
