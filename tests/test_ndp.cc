/**
 * @file
 * NDP unit tests: task timing, QSHR ordering and parallelism,
 * instruction helpers, and the polling estimator.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/check.h"
#include "cpu/host.h"
#include "ndp/instr.h"
#include "ndp/ndp_unit.h"
#include "ndp/polling.h"

namespace ansmet::ndp {
namespace {

dram::OrgParams
smallOrg()
{
    dram::OrgParams org;
    org.channels = 1;
    org.dimmsPerChannel = 1;
    org.ranksPerDimm = 1;
    return org;
}

TEST(Instr, SetQueryWriteCounts)
{
    EXPECT_EQ(setQueryWrites(1), 1u);
    EXPECT_EQ(setQueryWrites(64), 1u);
    EXPECT_EQ(setQueryWrites(65), 2u);
    EXPECT_EQ(setQueryWrites(1024), 16u);
}

TEST(NdpUnit, SingleTaskLatency)
{
    sim::EventQueue eq;
    const dram::TimingParams tp;
    NdpUnit unit(eq, NdpParams{}, tp, smallOrg(), 0);

    Tick done{};
    NdpTask t;
    t.startLine = 0;
    t.lines = 1;
    t.onComplete = [&](Tick when) { done = when; };
    unit.submit(0, std::move(t));
    eq.run();

    // Lookup + closed-page read + compute (2 cycles + bound check).
    const NdpParams np;
    const TickDelta expect = np.period() * np.qshrLookupCycles +
                             tp.cycles(tp.tRCD + tp.tCL + tp.tBL) +
                             np.period() * 3;
    EXPECT_EQ(done, Tick{} + expect);
    EXPECT_EQ(unit.linesFetched(), 1u);
    EXPECT_EQ(unit.tasksCompleted(), 1u);
}

TEST(NdpUnit, TasksOnOneQshrSerialize)
{
    sim::EventQueue eq;
    const dram::TimingParams tp;
    NdpUnit unit(eq, NdpParams{}, tp, smallOrg(), 0);

    std::vector<Tick> done;
    for (int i = 0; i < 3; ++i) {
        NdpTask t;
        t.startLine = static_cast<std::uint64_t>(i) * 100;
        t.lines = 2;
        t.onComplete = [&](Tick when) { done.push_back(when); };
        unit.submit(0, std::move(t));
    }
    eq.run();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_LT(done[0], done[1]);
    EXPECT_LT(done[1], done[2]);
    // Serial execution: the second and third tasks take at least one
    // full fetch pipeline each after the first.
    EXPECT_GE(done[1] - done[0], tp.cycles(tp.tBL));
}

TEST(NdpUnit, QshrsOverlap)
{
    const dram::TimingParams tp;

    auto run_with_qshrs = [&](bool spread) {
        sim::EventQueue eq;
        NdpUnit unit(eq, NdpParams{}, tp, smallOrg(), 0);
        for (int i = 0; i < 8; ++i) {
            NdpTask t;
            // Different rows in different banks: parallelizable.
            t.startLine = static_cast<std::uint64_t>(i) * 4096;
            t.lines = 4;
            unit.submit(spread ? static_cast<unsigned>(i) : 0,
                        std::move(t));
        }
        eq.run();
        return eq.now();
    };

    EXPECT_LT(run_with_qshrs(true), run_with_qshrs(false));
}

TEST(NdpUnit, EarlyTerminationFetchesFewerLines)
{
    sim::EventQueue eq;
    const dram::TimingParams tp;
    NdpUnit unit(eq, NdpParams{}, tp, smallOrg(), 0);

    NdpTask full;
    full.lines = 8;
    unit.submit(0, std::move(full));
    eq.run();
    const Tick t_full = eq.now();
    EXPECT_EQ(unit.linesFetched(), 8u);

    sim::EventQueue eq2;
    NdpUnit unit2(eq2, NdpParams{}, tp, smallOrg(), 0);
    NdpTask et;
    et.lines = 2; // terminated after 2 fetches
    unit2.submit(0, std::move(et));
    eq2.run();
    EXPECT_LT(eq2.now(), t_full);
    EXPECT_EQ(unit2.linesFetched(), 2u);
}

TEST(PollingEstimator, ExpectationFromDistribution)
{
    // 50% of tasks fetch 1 line, 50% fetch 3.
    const std::vector<double> dist = {0.0, 0.5, 0.0, 0.5};
    PollingEstimator est(dist, TickDelta{100}, TickDelta{10});
    EXPECT_DOUBLE_EQ(est.expectedLines(), 2.0);
    EXPECT_EQ(est.expectedLatency(1), TickDelta{210});
    EXPECT_EQ(est.expectedLatency(4), TickDelta{840});
}

TEST(Polling, ModeNames)
{
    EXPECT_STREQ(pollingModeName(PollingMode::kConventional), "ConvPoll");
    EXPECT_STREQ(pollingModeName(PollingMode::kAdaptive), "AdaptPoll");
    EXPECT_STREQ(pollingModeName(PollingMode::kIdeal), "IdealPoll");
}

TEST(HostCpu, ComputeAdvancesTime)
{
    sim::EventQueue eq;
    cpu::HostParams hp;
    dram::TimingParams tp;
    dram::OrgParams org;
    cpu::HostCpu host(eq, hp, tp, org);

    Tick done{};
    host.compute(100, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, Tick{} + 100 * hp.period());
    EXPECT_EQ(host.computeBusy(), 100 * hp.period());
}

TEST(HostCpu, CachedReadsAreFasterThanMisses)
{
    sim::EventQueue eq;
    cpu::HostParams hp;
    dram::TimingParams tp;
    dram::OrgParams org;
    cpu::HostCpu host(eq, hp, tp, org);

    Tick first{}, second{};
    host.read(0x1000, 1, [&] {
        first = eq.now();
        host.read(0x1000, 1, [&] { second = eq.now(); });
    });
    eq.run();
    EXPECT_GT(first, Tick{});
    EXPECT_LT(second - first, first - Tick{});
}

TEST(HostCpu, MultiLineReadsOverlap)
{
    dram::TimingParams tp;
    dram::OrgParams org;

    auto span_for = [&](unsigned lines) {
        sim::EventQueue eq;
        cpu::HostParams hp;
        cpu::HostCpu host(eq, hp, tp, org);
        Tick done{};
        host.read(1 << 20, lines, [&] { done = eq.now(); });
        eq.run();
        return done - Tick{};
    };

    // 8 parallel line fetches must take far less than 8 serial ones.
    EXPECT_LT(span_for(8), 4 * span_for(1));
}

TEST(NdpUnitStress, BackpressurePastArchitecturalSlots)
{
    // Drive every QSHR well past its 8 architectural slots: the unit
    // must stage the overflow, never let the fifo exceed tasksPerQshr,
    // and still complete every task exactly once.
    sim::EventQueue eq;
    const dram::TimingParams tp;
    const NdpParams np;
    NdpUnit unit(eq, np, tp, smallOrg(), 0);

    constexpr unsigned kPerQshr = 24; // 3x the slot count
    std::uint64_t completed = 0;
    for (unsigned q = 0; q < np.numQshrs; ++q) {
        for (unsigned i = 0; i < kPerQshr; ++i) {
            NdpTask t;
            t.startLine = (static_cast<std::uint64_t>(q) * kPerQshr + i) * 8;
            t.lines = 1;
            t.onComplete = [&](Tick) { ++completed; };
            unit.submit(q, std::move(t));
        }
        // Architectural occupancy is capped; the rest is staged.
        EXPECT_EQ(unit.occupiedSlots(q), np.tasksPerQshr);
        EXPECT_EQ(unit.stagedTasks(q), kPerQshr - np.tasksPerQshr);
    }
    EXPECT_EQ(unit.backpressureEvents(),
              static_cast<std::uint64_t>(np.numQshrs) *
                  (kPerQshr - np.tasksPerQshr));

    eq.run();
    EXPECT_EQ(completed,
              static_cast<std::uint64_t>(np.numQshrs) * kPerQshr);
    EXPECT_EQ(unit.tasksCompleted(), completed);
    for (unsigned q = 0; q < np.numQshrs; ++q) {
        EXPECT_EQ(unit.occupiedSlots(q), 0u);
        EXPECT_EQ(unit.stagedTasks(q), 0u);
    }
}

TEST(NdpUnitStress, StagedTasksCompleteInFifoOrder)
{
    sim::EventQueue eq;
    const dram::TimingParams tp;
    const NdpParams np;
    NdpUnit unit(eq, np, tp, smallOrg(), 0);

    // 20 tasks on one QSHR (12 staged). Per-QSHR execution is strictly
    // serial, so completion order must equal submission order even
    // across the staged/architectural boundary.
    std::vector<unsigned> order;
    for (unsigned i = 0; i < 20; ++i) {
        NdpTask t;
        t.startLine = static_cast<std::uint64_t>(i) * 64;
        t.lines = 1 + i % 3;
        t.onComplete = [&order, i](Tick) { order.push_back(i); };
        unit.submit(3, std::move(t));
    }
    eq.run();
    ASSERT_EQ(order.size(), 20u);
    for (unsigned i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(NdpUnitStress, BackpressureIsTimingNeutral)
{
    // Staging exists so callers can over-submit without deadlock; it
    // must not change *when* work finishes. Run the same 24-task
    // sequence twice: once dumped into the unit up front (16 staged),
    // once fed by the caller so the architectural slots never
    // overflow. Completion times must match tick for tick.
    const dram::TimingParams tp;
    const NdpParams np;
    constexpr unsigned kTasks = 24;

    auto task_at = [](unsigned i) {
        NdpTask t;
        t.startLine = static_cast<std::uint64_t>(i) * 8;
        t.lines = 2;
        return t;
    };

    std::vector<Tick> staged_done;
    {
        sim::EventQueue eq;
        NdpUnit unit(eq, np, tp, smallOrg(), 0);
        for (unsigned i = 0; i < kTasks; ++i) {
            NdpTask t = task_at(i);
            t.onComplete = [&](Tick when) { staged_done.push_back(when); };
            unit.submit(0, std::move(t));
        }
        EXPECT_EQ(unit.stagedTasks(0), kTasks - np.tasksPerQshr);
        eq.run();
    }

    std::vector<Tick> fed_done;
    {
        sim::EventQueue eq;
        NdpUnit unit(eq, np, tp, smallOrg(), 0);
        unsigned next = np.tasksPerQshr;
        std::function<void(Tick)> on_done = [&](Tick when) {
            fed_done.push_back(when);
            if (next < kTasks) {
                NdpTask t = task_at(next++);
                t.onComplete = on_done;
                unit.submit(0, std::move(t));
            }
        };
        for (unsigned i = 0; i < np.tasksPerQshr; ++i) {
            NdpTask t = task_at(i);
            t.onComplete = on_done;
            unit.submit(0, std::move(t));
        }
        eq.run();
        EXPECT_EQ(unit.backpressureEvents(), 0u);
    }

    EXPECT_EQ(staged_done, fed_done);
}

TEST(NdpUnitInvariants, ZeroLineTaskFailsAudit)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setAuditEnabled(true);
    sim::EventQueue eq;
    const dram::TimingParams tp;
    NdpUnit unit(eq, NdpParams{}, tp, smallOrg(), 0);
    NdpTask task; // lines left at 0
    EXPECT_DEATH(unit.submit(0, std::move(task)), "zero-line task");
    setAuditEnabled(false);
}

TEST(NdpUnitInvariants, OccupancyQueriesRejectBadQshr)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::EventQueue eq;
    const dram::TimingParams tp;
    NdpParams np;
    NdpUnit unit(eq, np, tp, smallOrg(), 0);
    EXPECT_DEATH(unit.occupiedSlots(np.numQshrs), "bad QSHR id");
    EXPECT_DEATH(unit.stagedTasks(np.numQshrs), "bad QSHR id");
}

TEST(NdpUnitInvariants, SubmitToBadQshrPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::EventQueue eq;
    const dram::TimingParams tp;
    NdpParams np;
    NdpUnit unit(eq, np, tp, smallOrg(), 0);
    NdpTask task;
    task.lines = 1;
    EXPECT_DEATH(unit.submit(np.numQshrs, std::move(task)), "bad QSHR id");
}

TEST(PollingInvariants, EmptyDistributionPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(PollingEstimator({}, TickDelta{100}, TickDelta{100}),
                 "needs a fetch-count distribution");
}

TEST(PollingInvariants, UnnormalizedDistributionFailsAudit)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setAuditEnabled(true);
    // Mass 1.5: a distribution this broken would silently skew every
    // adaptive-polling prediction.
    EXPECT_DEATH(
        PollingEstimator({0.5, 1.0}, TickDelta{100}, TickDelta{100}),
        "distribution mass");
    setAuditEnabled(false);
}

} // namespace
} // namespace ansmet::ndp
