/**
 * @file
 * DRAM model tests: per-command timing constraint verification (via
 * the command trace), controller scheduling behavior, address mapping,
 * bus-only transfers, and refresh.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "dram/controller.h"
#include "dram/power.h"
#include "sim/event_queue.h"

namespace ansmet::dram {
namespace {

TimingParams
timing()
{
    return TimingParams{};
}

OrgParams
smallOrg()
{
    OrgParams org;
    org.channels = 1;
    org.dimmsPerChannel = 1;
    org.ranksPerDimm = 1;
    return org;
}

/** A set under which tFAW, not 4 x tRRD_S, limits a burst of ACTs. The
 *  default DDR5-4800 set has 4 x tRRD_S = tFAW, so tRRD alone would
 *  space a fifth ACT correctly there. */
TimingParams
wideFaw()
{
    TimingParams tp;
    tp.tFAW = 48;
    return tp;
}

/**
 * Check a recorded command trace against every constraint RankDevice
 * enforces: per bank tRC, tRP, tRAS, tRCD and tRTP; per rank tRRD_S/L
 * against the previous ACT, tFAW over the last four ACTs, tCCD_S/L
 * between consecutive column commands, and no command inside a
 * refresh's tRFC window.
 */
void
verifyTrace(const std::vector<CommandRecord> &trace, const TimingParams &tp,
            const OrgParams &org)
{
    struct BankView
    {
        Tick lastAct{};
        Tick lastPre{};
        Tick lastCol{};
        bool open = false;
        bool sawAct = false, sawPre = false, sawCol = false;
    };
    std::vector<BankView> banks(org.banksPerRank());
    std::vector<Tick> refreshes;
    for (const auto &c : trace)
        if (c.cmd == Command::kRef)
            refreshes.push_back(c.tick);
    std::optional<CommandRecord> lastAct, lastCol;
    std::deque<Tick> actWindow; // the last four ACTs

    for (const auto &c : trace) {
        if (c.cmd == Command::kRef) {
            for (BankView &b : banks)
                b.open = false; // all-bank refresh closes every row
            continue;
        }
        for (const Tick r : refreshes)
            ASSERT_FALSE(c.tick >= r && c.tick < r + tp.cycles(tp.tRFC))
                << "command @" << c.tick << " inside the refresh @" << r;
        BankView &b = banks[c.bankGroup * org.banksPerGroup + c.bank];
        switch (c.cmd) {
          case Command::kAct:
            ASSERT_FALSE(b.open) << "ACT on open bank @" << c.tick;
            if (b.sawAct) {
                ASSERT_GE(c.tick, b.lastAct + tp.cycles(tp.tRC));
            }
            if (b.sawPre) {
                ASSERT_GE(c.tick, b.lastPre + tp.cycles(tp.tRP));
            }
            if (lastAct) {
                const unsigned rrd = c.bankGroup == lastAct->bankGroup
                                         ? tp.tRRD_L
                                         : tp.tRRD_S;
                ASSERT_GE(c.tick, lastAct->tick + tp.cycles(rrd))
                    << "tRRD @" << c.tick;
            }
            if (actWindow.size() == 4) {
                ASSERT_GE(c.tick, actWindow.front() + tp.cycles(tp.tFAW))
                    << "tFAW @" << c.tick;
                actWindow.pop_front();
            }
            actWindow.push_back(c.tick);
            lastAct = c;
            b.lastAct = c.tick;
            b.sawAct = true;
            b.open = true;
            break;
          case Command::kPre:
            ASSERT_TRUE(b.open);
            ASSERT_GE(c.tick, b.lastAct + tp.cycles(tp.tRAS));
            if (b.sawCol) {
                ASSERT_GE(c.tick, b.lastCol + tp.cycles(tp.tRTP));
            }
            b.lastPre = c.tick;
            b.sawPre = true;
            b.open = false;
            break;
          case Command::kRd:
            ASSERT_TRUE(b.open) << "column command to closed bank";
            ASSERT_GE(c.tick, b.lastAct + tp.cycles(tp.tRCD));
            if (lastCol) {
                const unsigned ccd = c.bankGroup == lastCol->bankGroup
                                         ? tp.tCCD_L
                                         : tp.tCCD_S;
                ASSERT_GE(c.tick, lastCol->tick + tp.cycles(ccd))
                    << "tCCD @" << c.tick;
            }
            lastCol = c;
            b.lastCol = c.tick;
            b.sawCol = true;
            break;
          case Command::kRef:
            break;
        }
    }
}

TEST(RankDevice, ClosedPageReadLatency)
{
    const auto tp = timing();
    RankDevice dev(tp, smallOrg());
    BankAddr a{0, 0, 5, 17};

    const Tick act = dev.earliestAct(a, Tick{});
    EXPECT_EQ(act, Tick{});
    dev.issueAct(a, act);
    const Tick col = dev.earliestCol(a, act);
    EXPECT_EQ(col, act + tp.cycles(tp.tRCD));
    const Tick done = dev.issueCol(a, col);
    EXPECT_EQ(done, col + tp.cycles(tp.tCL + tp.tBL));
}

TEST(RankDevice, RowConflictNeedsPrecharge)
{
    const auto tp = timing();
    RankDevice dev(tp, smallOrg());
    BankAddr a{0, 0, 5, 0};
    BankAddr b{0, 0, 9, 0};

    dev.issueAct(a, Tick{});
    EXPECT_TRUE(dev.openRow(b).has_value());
    EXPECT_EQ(*dev.openRow(b), 5u);

    const Tick pre = dev.earliestPre(b, Tick{});
    EXPECT_GE(pre, Tick{} + tp.cycles(tp.tRAS));
    dev.issuePre(b, pre);
    EXPECT_FALSE(dev.openRow(b).has_value());
    const Tick act = dev.earliestAct(b, pre);
    EXPECT_GE(act, pre + tp.cycles(tp.tRP));
}

TEST(RankDevice, FawLimitsActivates)
{
    const TimingParams tp = wideFaw();
    RankDevice dev(tp, smallOrg());
    Tick t{};
    // Four ACTs to different bank groups, spaced at tRRD_S.
    for (unsigned i = 0; i < 4; ++i) {
        BankAddr a{i, 0, 1, 0};
        t = dev.earliestAct(a, t);
        dev.issueAct(a, t);
    }
    EXPECT_EQ(t, Tick{} + tp.cycles(3 * tp.tRRD_S));
    // The fifth ACT waits for the window that the first one opened.
    BankAddr fifth{4, 0, 1, 0};
    EXPECT_EQ(dev.earliestAct(fifth, t), Tick{} + tp.cycles(tp.tFAW));
}

TEST(RankDevice, RefreshBlocksAndCloses)
{
    const auto tp = timing();
    RankDevice dev(tp, smallOrg());
    BankAddr a{0, 0, 1, 0};
    dev.issueAct(a, Tick{});
    const Tick after_refi = Tick{} + tp.cycles(tp.tREFI) + TickDelta{10};
    dev.catchUpRefresh(after_refi);
    EXPECT_EQ(dev.numRefreshes(), 1u);
    EXPECT_FALSE(dev.openRow(a).has_value());
    EXPECT_GE(dev.earliestAct(a, after_refi),
              Tick{} + tp.cycles(tp.tREFI) + tp.cycles(tp.tRFC));
}

TEST(MemController, SingleReadCompletes)
{
    sim::EventQueue eq;
    const auto tp = timing();
    MemController ctrl(eq, tp, smallOrg(), 1, "t");

    Tick done{};
    Request req;
    req.addr = BankAddr{0, 0, 1, 0};
    req.onComplete = [&](Tick t) { done = t; };
    ctrl.enqueue(0, std::move(req));
    eq.run();

    // Closed page: ACT + tRCD + CL + tBL.
    EXPECT_EQ(done, Tick{} + tp.cycles(tp.tRCD + tp.tCL + tp.tBL));
}

TEST(MemController, RowHitsAreFasterThanConflicts)
{
    sim::EventQueue eq;
    const auto tp = timing();
    MemController ctrl(eq, tp, smallOrg(), 1, "t");

    std::vector<Tick> hit_done(4), conf_done(2);
    for (unsigned i = 0; i < 4; ++i) {
        Request req;
        req.addr = BankAddr{0, 0, 1, i};
        req.onComplete = [&, i](Tick t) { hit_done[i] = t; };
        ctrl.enqueue(0, std::move(req));
    }
    eq.run();
    const TickDelta hits_span = hit_done[3] - hit_done[0];

    sim::EventQueue eq2;
    MemController ctrl2(eq2, tp, smallOrg(), 1, "t2");
    for (unsigned i = 0; i < 2; ++i) {
        Request req;
        req.addr = BankAddr{0, 0, i + 1, 0}; // different rows, same bank
        req.onComplete = [&, i](Tick t) { conf_done[i] = t; };
        ctrl2.enqueue(0, std::move(req));
    }
    eq2.run();
    EXPECT_LT(hits_span, conf_done[1] - conf_done[0]);
}

/** 3,000 pseudo-random reads across banks and rows on one rank, long
 *  enough to span several refreshes, and a check of their trace. */
void
checkRandomTrace(const TimingParams &tp)
{
    sim::EventQueue eq;
    const auto org = smallOrg();
    MemController ctrl(eq, tp, org, 1, "t");
    ctrl.rankDevice(0).enableTrace();
    constexpr unsigned kRequests = 3000;
    std::uint64_t state = 12345;
    unsigned completed = 0;
    for (unsigned i = 0; i < kRequests; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        Request req;
        req.addr.bankGroup = (state >> 10) % org.bankGroups;
        req.addr.bank = (state >> 20) % org.banksPerGroup;
        req.addr.row = (state >> 30) % 8;
        req.addr.column = (state >> 40) % org.columns;
        req.onComplete = [&](Tick) { ++completed; };
        ctrl.enqueue(0, std::move(req));
    }
    eq.run();
    EXPECT_EQ(completed, kRequests);
    EXPECT_GT(ctrl.rankDevice(0).numRefreshes(), 1u);
    verifyTrace(ctrl.rankDevice(0).trace(), tp, org);
}

TEST(MemController, TimingTraceIsClean)
{
    {
        SCOPED_TRACE("default DDR5-4800 timing");
        checkRandomTrace(timing());
    }
    {
        SCOPED_TRACE("tFAW = 48");
        checkRandomTrace(wideFaw());
    }
}

TEST(MemController, MultiRankParallelismBeatsSingleRank)
{
    const auto tp = timing();
    const auto org = smallOrg();
    const int n = 64;

    auto run_banked = [&](unsigned ranks) {
        sim::EventQueue eq;
        MemController ctrl(eq, tp, org, ranks, "t");
        for (int i = 0; i < n; ++i) {
            Request req;
            // Same bank+row conflict pattern within each rank.
            req.addr = BankAddr{0, 0, static_cast<unsigned>(i), 0};
            req.onComplete = nullptr;
            ctrl.enqueue(i % ranks, std::move(req));
        }
        eq.run();
        return eq.now();
    };

    // Spreading conflicting rows over ranks hides tRC.
    EXPECT_LT(run_banked(4), run_banked(1));
}

TEST(MemController, BusTransferLatency)
{
    sim::EventQueue eq;
    const auto tp = timing();
    MemController ctrl(eq, tp, smallOrg(), 1, "t");
    Tick done{};
    ctrl.enqueueBusTransfer(true, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(done, Tick{} + tp.cycles(tp.tCWL + tp.tBL));
}

TEST(MemController, BandwidthApproachesPeakOnStreams)
{
    sim::EventQueue eq;
    const auto tp = timing();
    const auto org = smallOrg();
    MemController ctrl(eq, tp, org, 1, "t");

    const int n = 512;
    for (int i = 0; i < n; ++i) {
        Request req;
        req.addr = mapLine(static_cast<std::uint64_t>(i), org);
        req.onComplete = nullptr;
        ctrl.enqueue(0, std::move(req));
    }
    eq.run();
    // Streaming row hits should keep the data bus > 70% utilized.
    const double util = static_cast<double>(ctrl.dataBusBusy().raw()) /
                        static_cast<double>(eq.now().raw());
    EXPECT_GT(util, 0.7);
}

TEST(AddrMap, BijectiveOverARange)
{
    const auto org = smallOrg();
    std::map<std::tuple<unsigned, unsigned, unsigned, unsigned>,
             std::uint64_t>
        seen;
    for (std::uint64_t line = 0; line < 100000; line += 37) {
        const BankAddr a = mapLine(line, org);
        const auto key =
            std::make_tuple(a.bankGroup, a.bank, a.row, a.column);
        EXPECT_EQ(seen.count(key), 0u) << "collision at line " << line;
        seen[key] = line;
        EXPECT_LT(a.bankGroup, org.bankGroups);
        EXPECT_LT(a.bank, org.banksPerGroup);
        EXPECT_LT(a.row, org.rows);
        EXPECT_LT(a.column, org.columns);
    }
}

TEST(Power, EnergyScalesWithActivity)
{
    const auto tp = timing();
    const auto org = smallOrg();
    RankDevice dev(tp, org);
    const EnergyParams ep;

    const auto idle = rankEnergy(dev, ep, TickDelta{1000000}, 0);
    EXPECT_DOUBLE_EQ(idle.actPreNj, 0.0);
    EXPECT_GT(idle.backgroundNj, 0.0);

    BankAddr a{0, 0, 1, 0};
    dev.issueAct(a, Tick{});
    dev.issueCol(a, dev.earliestCol(a, Tick{}));
    const auto active = rankEnergy(dev, ep, TickDelta{1000000}, 1);
    EXPECT_GT(active.actPreNj, 0.0);
    EXPECT_GT(active.rdWrCoreNj, 0.0);
    EXPECT_GT(active.ioNj, 0.0);
    EXPECT_GT(active.totalNj(), idle.totalNj());
}

TEST(DeviceInvariants, ColumnToClosedRowPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RankDevice dev(timing(), smallOrg());
    const BankAddr a{0, 0, 5, 0};
    EXPECT_DEATH(dev.issueCol(a, Tick{100}),
                 "column command to a closed/incorrect row");
}

TEST(DeviceInvariants, ColumnToWrongRowPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RankDevice dev(timing(), smallOrg());
    const BankAddr opened{0, 0, 5, 0};
    dev.issueAct(opened, dev.earliestAct(opened, Tick{}));
    const BankAddr wrong{0, 0, 6, 0};
    EXPECT_DEATH(
        dev.issueCol(wrong, dev.earliestCol(wrong, Tick{1000000})),
        "closed/incorrect row");
}

TEST(DeviceInvariants, ActOnOpenBankPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RankDevice dev(timing(), smallOrg());
    const BankAddr a{0, 0, 5, 0};
    dev.issueAct(a, dev.earliestAct(a, Tick{}));
    const BankAddr other_row{0, 0, 9, 0};
    EXPECT_DEATH(dev.issueAct(other_row, Tick{1000000}),
                 "ACT to a bank with an open row");
}

TEST(DeviceInvariants, ActTimingViolationPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const TimingParams tp = timing();
    RankDevice dev(tp, smallOrg());
    const BankAddr a{0, 0, 5, 0};
    dev.issueAct(a, dev.earliestAct(a, Tick{}));
    dev.issuePre(a, dev.earliestPre(a, Tick{} + tp.cycles(tp.tRAS)));
    // Re-activating before tRP after the precharge violates timing.
    EXPECT_DEATH(
        dev.issueAct(a, dev.earliestAct(a, Tick{}) - TickDelta{1}),
        "ACT timing violation");
}

} // namespace
} // namespace ansmet::dram
