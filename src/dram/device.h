/**
 * @file
 * Timing model of one DRAM rank: per-bank state machines plus
 * rank-level constraints (tRRD, tFAW, column-to-column spacing,
 * refresh).
 *
 * The device answers "when could command X issue?" and mutates state
 * when the controller commits to issuing it. It owns no queues and
 * makes no policy decisions; those live in MemController.
 */

#ifndef ANSMET_DRAM_DEVICE_H
#define ANSMET_DRAM_DEVICE_H

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "dram/params.h"
#include "dram/types.h"

namespace ansmet::dram {

/** Optional trace of issued commands, consumed by the timing checker. */
struct CommandRecord
{
    Command cmd;
    unsigned bankGroup;
    unsigned bank;
    unsigned row;
    Tick tick;
};

/** One rank's worth of banks and rank-wide timing state. */
class RankDevice
{
  public:
    RankDevice(const TimingParams &tp, const OrgParams &org);

    /** Earliest tick an ACT to @p a could issue, at or after @p now. */
    Tick earliestAct(const BankAddr &a, Tick now) const;

    /** Earliest tick a PRE to @p a could issue. */
    Tick earliestPre(const BankAddr &a, Tick now) const;

    /**
     * Earliest tick a RD to @p a could issue. Requires the row to be
     * open (checked by caller via openRow()).
     */
    Tick earliestCol(const BankAddr &a, Tick now) const;

    /** Commit an ACT at @p t (must satisfy earliestAct). */
    void issueAct(const BankAddr &a, Tick t);

    /** Commit a PRE at @p t. */
    void issuePre(const BankAddr &a, Tick t);

    /**
     * Commit a RD at @p t.
     * @return the tick at which the data burst completes.
     */
    Tick issueCol(const BankAddr &a, Tick t);

    /** Row currently open in the bank of @p a, if any. */
    std::optional<unsigned> openRow(const BankAddr &a) const;

    /**
     * Apply all refreshes whose deadline is <= @p now. All banks are
     * force-closed and the rank is blocked for tRFC per refresh. Called
     * by the controller before making scheduling decisions.
     */
    void catchUpRefresh(Tick now);

    /** Enable command tracing for timing verification in tests. */
    void enableTrace() { tracing_ = true; }
    const std::vector<CommandRecord> &trace() const { return trace_; }

    /** Counters for the power model. */
    std::uint64_t numActs() const { return num_acts_; }
    std::uint64_t numReads() const { return num_reads_; }
    std::uint64_t numRefreshes() const { return num_refreshes_; }

    const TimingParams &timing() const { return tp_; }
    const OrgParams &org() const { return org_; }

  private:
    struct Bank
    {
        std::optional<unsigned> openRow;
        Tick actAllowedAt{};
        Tick preAllowedAt{};
        Tick colAllowedAt{};    //!< from tRCD after ACT
    };

    Bank &bank(const BankAddr &a);
    const Bank &bank(const BankAddr &a) const;

    /** Rank-level earliest ACT considering tRRD and tFAW. */
    Tick rankActConstraint(unsigned bank_group, Tick now) const;

    /** Rank-level earliest column command (tCCD_S/L). */
    Tick rankColConstraint(unsigned bank_group, Tick now) const;

    void record(Command c, const BankAddr &a, Tick t);

    TimingParams tp_;
    OrgParams org_;
    std::vector<Bank> banks_;

    // Rank-level history.
    Tick lastActAt_{};
    unsigned lastActBg_ = ~0u;
    bool anyAct_ = false;
    std::deque<Tick> actWindow_;          //!< for tFAW (last 4 ACTs)
    Tick lastColAt_{};
    unsigned lastColBg_ = ~0u;
    bool anyCol_ = false;
    Tick refreshBlockedUntil_{};
    Tick nextRefreshAt_;

    bool tracing_ = false;
    std::vector<CommandRecord> trace_;

    std::uint64_t num_acts_ = 0;
    std::uint64_t num_reads_ = 0;
    std::uint64_t num_refreshes_ = 0;
};

} // namespace ansmet::dram

#endif // ANSMET_DRAM_DEVICE_H
