#include "dram/device.h"

#include <algorithm>

#include "common/check.h"

namespace ansmet::dram {

RankDevice::RankDevice(const TimingParams &tp, const OrgParams &org)
    : tp_(tp), org_(org), banks_(org.banksPerRank()),
      nextRefreshAt_(Tick{} + tp.cycles(tp.tREFI))
{
}

RankDevice::Bank &
RankDevice::bank(const BankAddr &a)
{
    ANSMET_DCHECK(a.flatBank(org_.banksPerGroup) < banks_.size(),
                  "bank address out of range: bg=", a.bankGroup,
                  " bank=", a.bank);
    return banks_[a.flatBank(org_.banksPerGroup)];
}

const RankDevice::Bank &
RankDevice::bank(const BankAddr &a) const
{
    ANSMET_DCHECK(a.flatBank(org_.banksPerGroup) < banks_.size(),
                  "bank address out of range: bg=", a.bankGroup,
                  " bank=", a.bank);
    return banks_[a.flatBank(org_.banksPerGroup)];
}

void
RankDevice::catchUpRefresh(Tick now)
{
    while (nextRefreshAt_ <= now) {
        // All-bank refresh: banks close, rank blocks for tRFC.
        const Tick start = std::max(nextRefreshAt_, refreshBlockedUntil_);
        const Tick end = start + tp_.cycles(tp_.tRFC);
        ANSMET_DCHECK(end > start, "refresh must advance the blocked window");
        for (auto &b : banks_) {
            b.openRow.reset();
            b.actAllowedAt = std::max(b.actAllowedAt, end);
        }
        refreshBlockedUntil_ = end;
        nextRefreshAt_ += tp_.cycles(tp_.tREFI);
        ++num_refreshes_;
        if (tracing_)
            trace_.push_back({Command::kRef, 0, 0, 0, start});
    }
}

Tick
RankDevice::rankActConstraint(unsigned bank_group, Tick now) const
{
    Tick t = now;
    if (anyAct_) {
        const unsigned rrd =
            bank_group == lastActBg_ ? tp_.tRRD_L : tp_.tRRD_S;
        t = std::max(t, lastActAt_ + tp_.cycles(rrd));
    }
    if (actWindow_.size() >= 4)
        t = std::max(t, actWindow_.front() + tp_.cycles(tp_.tFAW));
    return std::max(t, refreshBlockedUntil_);
}

Tick
RankDevice::rankColConstraint(unsigned bank_group, Tick now) const
{
    Tick t = std::max(now, refreshBlockedUntil_);
    if (anyCol_) {
        const unsigned ccd =
            bank_group == lastColBg_ ? tp_.tCCD_L : tp_.tCCD_S;
        t = std::max(t, lastColAt_ + tp_.cycles(ccd));
    }
    return t;
}

Tick
RankDevice::earliestAct(const BankAddr &a, Tick now) const
{
    const Bank &b = bank(a);
    ANSMET_CHECK(!b.openRow, "ACT to a bank with an open row");
    return std::max(b.actAllowedAt, rankActConstraint(a.bankGroup, now));
}

Tick
RankDevice::earliestPre(const BankAddr &a, Tick now) const
{
    const Bank &b = bank(a);
    return std::max({b.preAllowedAt, now, refreshBlockedUntil_});
}

Tick
RankDevice::earliestCol(const BankAddr &a, Tick now) const
{
    const Bank &b = bank(a);
    return std::max(b.colAllowedAt, rankColConstraint(a.bankGroup, now));
}

void
RankDevice::issueAct(const BankAddr &a, Tick t)
{
    Bank &b = bank(a);
    ANSMET_CHECK(t >= earliestAct(a, t), "ACT timing violation at ", t);
    b.openRow = a.row;
    b.colAllowedAt = t + tp_.cycles(tp_.tRCD);
    b.preAllowedAt = t + tp_.cycles(tp_.tRAS);
    b.actAllowedAt = t + tp_.cycles(tp_.tRC);

    lastActAt_ = t;
    lastActBg_ = a.bankGroup;
    anyAct_ = true;
    actWindow_.push_back(t);
    if (actWindow_.size() > 4)
        actWindow_.pop_front();

    ++num_acts_;
    record(Command::kAct, a, t);
}

void
RankDevice::issuePre(const BankAddr &a, Tick t)
{
    Bank &b = bank(a);
    ANSMET_DCHECK(t >= earliestPre(a, t), "PRE timing violation at ", t);
    b.openRow.reset();
    b.actAllowedAt = std::max(b.actAllowedAt, t + tp_.cycles(tp_.tRP));
    record(Command::kPre, a, t);
}

Tick
RankDevice::issueCol(const BankAddr &a, Tick t)
{
    Bank &b = bank(a);
    ANSMET_CHECK(b.openRow && *b.openRow == a.row,
                 "column command to a closed/incorrect row");
    ANSMET_DCHECK(t >= earliestCol(a, t), "column timing violation at ", t);

    const Tick data_end = t + tp_.cycles(tp_.tCL + tp_.tBL);
    b.preAllowedAt = std::max(b.preAllowedAt, t + tp_.cycles(tp_.tRTP));
    ++num_reads_;

    lastColAt_ = t;
    lastColBg_ = a.bankGroup;
    anyCol_ = true;

    record(Command::kRd, a, t);
    return data_end;
}

std::optional<unsigned>
RankDevice::openRow(const BankAddr &a) const
{
    return bank(a).openRow;
}

void
RankDevice::record(Command c, const BankAddr &a, Tick t)
{
    if (tracing_)
        trace_.push_back({c, a.bankGroup, a.bank, a.row, t});
}

} // namespace ansmet::dram
