/**
 * @file
 * Unit tests for common utilities: bit operations, PRNG, tables,
 * tick units, checks, and annotated sync primitives.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/bitops.h"
#include "common/check.h"
#include "common/prng.h"
#include "common/sync.h"
#include "common/table.h"
#include "common/types.h"

namespace ansmet {
namespace {

TEST(Bitops, MaskLow)
{
    EXPECT_EQ(maskLow(0), 0u);
    EXPECT_EQ(maskLow(1), 1u);
    EXPECT_EQ(maskLow(8), 0xffu);
    EXPECT_EQ(maskLow(32), 0xffffffffu);
    EXPECT_EQ(maskLow(64), ~std::uint64_t{0});
}

TEST(Bitops, ExtractMsbFirst)
{
    // value = 0b1011'0010, width 8
    const std::uint64_t v = 0xB2;
    EXPECT_EQ(extractMsbFirst(v, 8, 0, 4), 0xBu);
    EXPECT_EQ(extractMsbFirst(v, 8, 4, 4), 0x2u);
    EXPECT_EQ(extractMsbFirst(v, 8, 0, 8), 0xB2u);
    EXPECT_EQ(extractMsbFirst(v, 8, 2, 3), 0x6u); // bits 110
}

TEST(Bitops, RoundAndDiv)
{
    EXPECT_EQ(roundUp(0, 64), 0u);
    EXPECT_EQ(roundUp(1, 64), 64u);
    EXPECT_EQ(roundUp(64, 64), 64u);
    EXPECT_EQ(divCeil(0, 8), 0u);
    EXPECT_EQ(divCeil(1, 8), 1u);
    EXPECT_EQ(divCeil(8, 8), 1u);
    EXPECT_EQ(divCeil(9, 8), 2u);
}

TEST(Bitops, BitsFor)
{
    EXPECT_EQ(bitsFor(0), 1u);
    EXPECT_EQ(bitsFor(1), 1u);
    EXPECT_EQ(bitsFor(2), 2u);
    EXPECT_EQ(bitsFor(7), 3u);
    EXPECT_EQ(bitsFor(8), 4u);
}

TEST(Bitops, WriterReaderRoundTrip)
{
    std::vector<std::uint8_t> buf;
    BitWriter w(buf);
    w.put(0b101, 3);
    w.put(0xAB, 8);
    w.put(1, 1);
    w.put(0x3FFFF, 18);
    const auto len = w.bitLength();
    EXPECT_EQ(len, 30u);

    BitReader r(buf.data(), len);
    EXPECT_EQ(r.get(3), 0b101u);
    EXPECT_EQ(r.get(8), 0xABu);
    EXPECT_EQ(r.get(1), 1u);
    EXPECT_EQ(r.get(18), 0x3FFFFu);
}

TEST(Bitops, WriterAlign)
{
    std::vector<std::uint8_t> buf;
    BitWriter w(buf);
    w.put(1, 1);
    w.align(512);
    EXPECT_EQ(w.bitLength(), 512u);
    EXPECT_EQ(buf.size(), 64u);
}

TEST(Prng, Deterministic)
{
    Prng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Prng, UniformRange)
{
    Prng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(rng.below(17), 17u);
    }
}

TEST(Prng, GaussianMoments)
{
    Prng rng(11);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Prng, ZipfSkew)
{
    Prng rng(5);
    std::size_t low = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        if (rng.zipf(1000, 2.0) < 10)
            ++low;
    // With alpha=2 most of the mass is on the first few values.
    EXPECT_GT(low, static_cast<std::size_t>(n) / 2);
}

TEST(Table, Renders)
{
    TextTable t({"name", "value"});
    t.row().cell("alpha").cell(1.5, 1);
    t.row().cell("b").cell(std::uint64_t{42});
    const std::string s = t.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
}

// ---------------------------------------------------------------------
// Strong tick units (common/types.h). The unit contract is enforced at
// compile time; these probes pin the rejected expressions via type
// traits (a deleted operator or explicit constructor makes the
// corresponding trait false) and the accepted algebra at runtime.
// ---------------------------------------------------------------------

// Implicit construction from raw integers is rejected in both
// directions: a byte count or queue depth can never become a time.
static_assert(!std::is_convertible_v<int, sim::Tick>,
              "Tick must not be implicitly constructible from int");
static_assert(!std::is_convertible_v<std::uint64_t, sim::Tick>,
              "Tick must not be implicitly constructible from uint64");
static_assert(!std::is_convertible_v<int, sim::TickDelta>,
              "TickDelta must not be implicitly constructible from int");
static_assert(!std::is_convertible_v<std::uint64_t, sim::TickDelta>,
              "TickDelta must not be implicitly constructible from uint64");
static_assert(std::is_constructible_v<sim::Tick, std::uint64_t>,
              "explicit Tick{raw} construction stays available");

// Unit-unsound arithmetic on absolute time points does not exist:
// adding or scaling two points is meaningless.
static_assert(!std::is_invocable_v<std::plus<>, sim::Tick, sim::Tick>,
              "Tick + Tick must not compile");
static_assert(
    !std::is_invocable_v<std::multiplies<>, sim::Tick, sim::Tick>,
    "Tick * Tick must not compile");
static_assert(
    !std::is_invocable_v<std::multiplies<>, sim::Tick, std::uint64_t>,
    "Tick * scalar must not compile");
static_assert(!std::is_invocable_v<std::divides<>, sim::Tick, sim::Tick>,
              "Tick / Tick must not compile");

// The sound algebra: Tick +- TickDelta -> Tick, Tick - Tick ->
// TickDelta, TickDelta scales by counts, and span ratios are counts.
static_assert(std::is_same_v<decltype(sim::Tick{5} + sim::TickDelta{2}),
                             sim::Tick>);
static_assert(std::is_same_v<decltype(sim::Tick{5} - sim::Tick{2}),
                             sim::TickDelta>);
static_assert(
    std::is_same_v<decltype(sim::TickDelta{5} * std::uint64_t{2}),
                   sim::TickDelta>);
static_assert(
    std::is_same_v<decltype(sim::TickDelta{6} / sim::TickDelta{2}),
                   std::uint64_t>);

TEST(TickUnits, SoundAlgebraEvaluates)
{
    const Tick t0{1000};
    const TickDelta d{250};
    EXPECT_EQ(t0 + d, Tick{1250});
    EXPECT_EQ(d + t0, Tick{1250});
    EXPECT_EQ(t0 - d, Tick{750});
    EXPECT_EQ((t0 + d) - t0, d);
    EXPECT_EQ(3 * d, TickDelta{750});
    EXPECT_EQ(d * 3, TickDelta{750});
    EXPECT_EQ(TickDelta{750} / d, 3u);
    EXPECT_EQ(TickDelta{750} % d, TickDelta{});
    Tick t = t0;
    t += d;
    EXPECT_EQ(t, Tick{1250});
    t -= d;
    EXPECT_EQ(t, t0);
    EXPECT_EQ(t0.raw(), 1000u);
    EXPECT_EQ(d.raw(), 250u);
}

TEST(TickUnits, ConstantsAndConversions)
{
    EXPECT_EQ(kTicksPerNs, TickDelta{1000});
    EXPECT_EQ(periodFromGHz(1.0), TickDelta{1000});
    EXPECT_EQ(periodFromGHz(2.0), TickDelta{500});
    EXPECT_GT(kMaxTick, Tick{});
}

TEST(Check, PassingConditionsAreSilent)
{
    ANSMET_CHECK(1 + 1 == 2, "arithmetic broke");
    ANSMET_DCHECK(true, "never evaluated");
}

TEST(Check, FailedCheckPanicsWithMessage)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const int lines = 3;
    EXPECT_DEATH(ANSMET_CHECK(lines == 4, "expected 4, got ", lines),
                 "check failed: lines == 4 expected 4, got 3");
}

TEST(Check, DcheckHonorsAuditToggle)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setAuditEnabled(false);
    int evaluations = 0;
    // Disabled audit: condition is not even evaluated.
    ANSMET_DCHECK(++evaluations > 0, "unreachable");
    EXPECT_EQ(evaluations, 0);
    EXPECT_FALSE(auditEnabled());

    setAuditEnabled(true);
    EXPECT_TRUE(auditEnabled());
    ANSMET_DCHECK(++evaluations > 0, "passes");
    EXPECT_EQ(evaluations, 1);
    EXPECT_DEATH(ANSMET_DCHECK(false, "audit caught it"),
                 "dcheck failed: false audit caught it");
    setAuditEnabled(false);
}

// ---------------------------------------------------------------------
// Annotated sync primitives (common/sync.h). The annotations are
// compile-time only; these tests pin the runtime semantics of the
// wrappers under contention (and give TSan in CI something to chew on).
// ---------------------------------------------------------------------

TEST(Sync, MutexLockExcludesConcurrentIncrements)
{
    Mutex mu;
    int counter = 0;
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; ++i) {
                MutexLock lk(mu);
                ++counter;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, 4000);
}

TEST(Sync, CondVarWaitWakesOnNotify)
{
    Mutex mu;
    CondVar cv;
    bool ready = false;
    int seen = 0;
    std::thread waiter([&] {
        MutexLock lk(mu);
        while (!ready)
            cv.wait(mu);
        seen = 1;
    });
    {
        MutexLock lk(mu);
        ready = true;
    }
    cv.notifyAll();
    waiter.join();
    EXPECT_EQ(seen, 1);
}

} // namespace
} // namespace ansmet
