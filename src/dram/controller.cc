#include "dram/controller.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ansmet::dram {

namespace {

struct DramMetrics
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter reads = reg.counter("dram.reads");
    obs::Counter writes = reg.counter("dram.writes");
    obs::Counter rowActivates = reg.counter("dram.row_activates");
    obs::Counter rowConflicts = reg.counter("dram.row_conflicts");
    obs::Counter busTransfers = reg.counter("dram.bus_transfers");
    obs::Histogram queueDepth = reg.histogram("dram.queue_depth", 16);
    obs::Histogram queueLatency =
        reg.histogram("dram.queue_latency_ps", 48);
};

DramMetrics &
dramMetrics()
{
    static DramMetrics m;
    return m;
}

/** Sample one queue-depth trace point per this many enqueues; the
 *  full-rate track would dominate the trace file. */
constexpr std::uint64_t kQueueSampleStride = 64;

} // namespace

MemController::MemController(sim::EventQueue &eq, const TimingParams &tp,
                             const OrgParams &org, unsigned num_ranks,
                             std::string name)
    : eq_(eq), tp_(tp),
      starvation_limit_(tp.cycles(2000)),
      bankq_track_(std::move(name) + ".bankq")
{
    ANSMET_CHECK(num_ranks >= 1, "controller needs at least one rank");
    for (unsigned r = 0; r < num_ranks; ++r)
        ranks_.push_back(std::make_unique<RankDevice>(tp_, org));
}

void
MemController::enqueue(unsigned rank, Request req)
{
    ANSMET_CHECK(rank < ranks_.size(), "bad rank ", rank);
    req.arrival = eq_.now();
    std::uint32_t idx;
    if (pend_free_.empty()) {
        pend_pool_.emplace_back();
        idx = static_cast<std::uint32_t>(pend_pool_.size() - 1);
    } else {
        idx = pend_free_.back();
        pend_free_.pop_back();
    }
    Pending &p = pend_pool_[idx];
    p.rank = rank;
    p.req = std::move(req);
    queue_.push_back(idx);
    ++transfers_;
    DramMetrics &m = dramMetrics();
    (p.req.isWrite ? m.writes : m.reads).inc();
    m.queueDepth.sample(queue_.size());
    if (obs_enq_++ % kQueueSampleStride == 0) {
        auto &tw = obs::TraceWriter::instance();
        if (tw.enabled()) {
            tw.counter(bankq_track_, obs::dramLaneTid(0), eq_.now(),
                       static_cast<std::int64_t>(queue_.size()));
        }
    }
    scheduleKick(eq_.now());
}

MemController::Candidate
MemController::nextCommand(const Pending &p, Tick now) const
{
    const RankDevice &dev = *ranks_[p.rank];
    const BankAddr &a = p.req.addr;
    const auto open = dev.openRow(a);

    if (open && *open == a.row) {
        // Row hit: column command, also gated by the shared data bus.
        Tick t = dev.earliestCol(a, p.req.isWrite, now);
        const TickDelta data_latency =
            tp_.cycles(p.req.isWrite ? tp_.tCWL : tp_.tCL);
        if (data_bus_free_at_ - Tick{} > data_latency &&
            t + data_latency < data_bus_free_at_) {
            t = data_bus_free_at_ - data_latency;
        }
        return {p.req.isWrite ? Command::kWr : Command::kRd, t, true};
    }
    if (open) {
        // Row conflict: precharge first.
        return {Command::kPre, dev.earliestPre(a, now), false};
    }
    // Bank closed: activate.
    return {Command::kAct, dev.earliestAct(a, now), false};
}

void
MemController::issueFor(Pending &p, const Candidate &c, Tick t)
{
    RankDevice &dev = *ranks_[p.rank];
    switch (c.cmd) {
      case Command::kAct:
        dev.issueAct(p.req.addr, t);
        dramMetrics().rowActivates.inc();
        break;
      case Command::kPre:
        // A precharge on this path always means an open-row conflict
        // (closed banks go straight to kAct).
        dev.issuePre(p.req.addr, t);
        dramMetrics().rowConflicts.inc();
        break;
      case Command::kRd:
      case Command::kWr: {
        const Tick data_end = dev.issueCol(p.req.addr, p.req.isWrite, t);
        const Tick data_start = data_end - tp_.cycles(tp_.tBL);
        ANSMET_CHECK(data_start >= data_bus_free_at_,
                     "data bus overlap at ", data_start);
        data_bus_free_at_ = data_end;
        data_bus_busy_ += tp_.cycles(tp_.tBL);
        dramMetrics().queueLatency.sample((t - p.req.arrival).raw());
        scheduleCompletion(data_end, std::move(p.req.onComplete));
        break;
      }
      case Command::kRef:
        ANSMET_PANIC("REF issued through issueFor");
    }
}

void
MemController::enqueueBusTransfer(bool is_write, Request::Callback cb)
{
    bus_queue_.push_back(BusTransfer{is_write, eq_.now(), std::move(cb)});
    ++transfers_;
    dramMetrics().busTransfers.inc();
    scheduleKick(eq_.now());
}

void
MemController::serveBusTransfers(Tick now, Tick before)
{
    while (!bus_queue_.empty() && bus_queue_.front().arrival <= before) {
        const Tick tc = std::max(now, cmd_bus_free_at_);
        const unsigned latency =
            bus_queue_.front().isWrite ? tp_.tCWL : tp_.tCL;
        const TickDelta data_latency = tp_.cycles(latency);
        Tick t = tc;
        if (data_bus_free_at_ - Tick{} > data_latency &&
            t + data_latency < data_bus_free_at_) {
            t = data_bus_free_at_ - data_latency;
        }
        if (t > now) {
            scheduleKick(t);
            return;
        }
        const Tick data_end = t + data_latency + tp_.cycles(tp_.tBL);
        ANSMET_DCHECK(t + data_latency >= data_bus_free_at_,
                      "buffer-chip transfer overlaps a data burst");
        data_bus_free_at_ = data_end;
        data_bus_busy_ += tp_.cycles(tp_.tBL);
        cmd_bus_free_at_ = t + tp_.tCK;
        Request::Callback cb = std::move(bus_queue_.front().cb);
        bus_queue_.pop_front();
        scheduleCompletion(data_end, std::move(cb));
    }
}

void
MemController::scheduleCompletion(Tick when, Request::Callback cb)
{
    if (!cb)
        return;
    std::uint32_t idx;
    if (done_free_.empty()) {
        done_pool_.emplace_back();
        idx = static_cast<std::uint32_t>(done_pool_.size() - 1);
    } else {
        idx = done_free_.back();
        done_free_.pop_back();
    }
    done_pool_[idx] = std::move(cb);
    eq_.schedule(when, [this, idx, when] {
        Request::Callback done = std::move(done_pool_[idx]);
        done_free_.push_back(idx);
        done(when);
    });
}

void
MemController::kick()
{
    const Tick now = eq_.now();

    for (auto &r : ranks_)
        r->catchUpRefresh(now);

    // Age-fair arbitration between buffer-chip transfers and bank
    // requests: a transfer goes first only if it is not younger than
    // the oldest queued bank request.
    const Tick oldest_bank =
        queue_.empty() ? kMaxTick : pend_pool_[queue_.front()].req.arrival;
    serveBusTransfers(now, oldest_bank);

    while (!queue_.empty()) {
        const Tick tc = std::max(now, cmd_bus_free_at_);
        if (tc > now) {
            scheduleKick(tc);
            return;
        }

        // FR-FCFS with an age cap: serve the oldest request's command
        // unconditionally if it has been starving; otherwise prefer the
        // oldest ready row hit, then the oldest request's prep command.
        Pending *chosen = nullptr;
        std::size_t chosen_qi = 0;
        Candidate chosen_cmd{};
        Tick soonest = kMaxTick;

        const bool starving =
            now - pend_pool_[queue_.front()].req.arrival >
            starvation_limit_;

        for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
            if (starving && qi != 0)
                continue;
            Pending &p = pend_pool_[queue_[qi]];
            const Candidate c = nextCommand(p, tc);
            soonest = std::min(soonest, std::max(c.earliest, tc));
            if (c.earliest <= tc) {
                if (c.isColumn) {
                    chosen = &p;
                    chosen_qi = qi;
                    chosen_cmd = c;
                    break; // oldest ready column command wins
                }
                if (!chosen) {
                    chosen = &p;
                    chosen_qi = qi;
                    chosen_cmd = c;
                }
            }
            if (starving)
                break;
        }

        if (!chosen) {
            // No eligible bank command can issue now: let waiting
            // transfers (even younger ones) use the idle bus, and make
            // sure the retry strictly advances time.
            serveBusTransfers(now, kMaxTick);
            if (soonest != kMaxTick)
                scheduleKick(std::max(soonest, now + tp_.tCK));
            return;
        }

        issueFor(*chosen, chosen_cmd, tc);
        cmd_bus_free_at_ = tc + tp_.tCK;

        if (chosen_cmd.isColumn) {
            // Retire the request: recycle its pool node and drop its
            // queue position (an index move, not a struct move).
            pend_free_.push_back(queue_[chosen_qi]);
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(chosen_qi));
        }
    }

    // Bank queue drained: flush any remaining buffer-chip transfers.
    serveBusTransfers(now, kMaxTick);
}

void
MemController::scheduleKick(Tick when)
{
    ANSMET_DCHECK(when >= eq_.now(), "scheduler kick in the past: ", when);
    if (kick_at_ <= when)
        return; // an earlier (or equal) kick is already pending
    kick_at_ = when;
    const std::uint64_t gen = ++kick_gen_;
    eq_.schedule(when, [this, gen] {
        if (gen != kick_gen_)
            return; // superseded by a more recent schedule
        kick_at_ = kMaxTick;
        kick();
    });
}

BankAddr
mapLine(std::uint64_t line, const OrgParams &org)
{
    // Bank-group interleave at line granularity: consecutive lines
    // rotate across bank groups (so streams pace at tCCD_S, not
    // tCCD_L), wrap back into the same open rows for long streams,
    // and only cross banks/rows at large strides.
    BankAddr a;
    a.bankGroup = static_cast<unsigned>(line % org.bankGroups);
    line /= org.bankGroups;
    a.column = static_cast<unsigned>(line % org.columns);
    line /= org.columns;
    a.bank = static_cast<unsigned>(line % org.banksPerGroup);
    line /= org.banksPerGroup;
    a.row = static_cast<unsigned>(line % org.rows);
    return a;
}

} // namespace ansmet::dram
