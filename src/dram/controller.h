/**
 * @file
 * FR-FCFS memory controller over one or more ranks sharing a command
 * bus and a data (DQ) bus.
 *
 * Used in two configurations:
 *  - channel mode: 8 ranks (2 DIMMs x 4) behind one channel bus — the
 *    host CPU path;
 *  - rank mode: 1 rank with its own internal bus — the per-rank NDP
 *    path, which is where DIMM-based NDP gets its bandwidth advantage.
 */

#ifndef ANSMET_DRAM_CONTROLLER_H
#define ANSMET_DRAM_CONTROLLER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ring_deque.h"
#include "dram/device.h"
#include "dram/params.h"
#include "dram/types.h"
#include "sim/event_queue.h"

namespace ansmet::dram {

/** FR-FCFS, open-page controller. */
class MemController
{
  public:
    MemController(sim::EventQueue &eq, const TimingParams &tp,
                  const OrgParams &org, unsigned num_ranks,
                  std::string name);

    /** Enqueue a 64 B bank read for @p rank. Completion via callback. */
    void enqueue(unsigned rank, Request req);

    /**
     * Enqueue a 64 B transfer that targets the DIMM buffer chip rather
     * than a DRAM bank (the NDP instruction path: set-query/set-search
     * writes and poll reads). It occupies the command slot and the DQ
     * bus for one burst but touches no bank state.
     */
    void enqueueBusTransfer(bool is_write, Request::Callback cb);

    RankDevice &rankDevice(unsigned r) { return *ranks_[r]; }
    const RankDevice &rankDevice(unsigned r) const { return *ranks_[r]; }
    unsigned numRanks() const { return static_cast<unsigned>(ranks_.size()); }

    /** Ticks during which the data bus carried a burst (utilization). */
    TickDelta dataBusBusy() const { return data_bus_busy_; }

    /** 64 B transfers enqueued so far: bank reads plus buffer-chip
     *  transfers (what channel I/O energy is charged for). */
    std::uint64_t transfers() const { return transfers_; }

  private:
    struct Pending
    {
        unsigned rank;
        Request req;
    };

    /** The next command a pending request needs, and when it could go. */
    struct Candidate
    {
        Command cmd;
        Tick earliest;
        bool isColumn;
    };

    Candidate nextCommand(const Pending &p, Tick now) const;
    void kick();
    void scheduleKick(Tick when);
    void issueFor(Pending &p, const Candidate &c, Tick t);

    struct BusTransfer
    {
        bool isWrite = false;
        Tick arrival{};
        Request::Callback cb;
    };

    /** Serve pending buffer-chip transfers not younger than @p before;
     *  schedules its own retry kick when the bus is busy. */
    void serveBusTransfers(Tick now, Tick before);

    /**
     * Fire @p cb at @p when through a pooled completion node: the
     * callback itself is too large for an inline event capture by
     * design, so it parks in done_pool_ and the event carries only the
     * pool index. The pool reaches steady state after warmup — no
     * per-completion allocation.
     */
    void scheduleCompletion(Tick when, Request::Callback cb);

    sim::EventQueue &eq_;
    TimingParams tp_;
    std::vector<std::unique_ptr<RankDevice>> ranks_;
    /** Pending-node pool; queue_ holds pool indices in arrival order. */
    std::vector<Pending> pend_pool_;
    std::vector<std::uint32_t> pend_free_;
    std::vector<std::uint32_t> queue_;
    RingDeque<BusTransfer> bus_queue_;
    std::vector<Request::Callback> done_pool_;
    std::vector<std::uint32_t> done_free_;

    Tick cmd_bus_free_at_{};
    Tick data_bus_free_at_{};
    TickDelta data_bus_busy_{};
    std::uint64_t transfers_ = 0;

    /**
     * Earliest pending kick and its generation. Superseded kick events
     * (older generations) are no-ops when they fire, so at most one
     * scheduler invocation is ever live per controller.
     */
    Tick kick_at_ = kMaxTick;
    std::uint64_t kick_gen_ = 0;

    /** Age (ticks) past which the oldest request preempts row hits. */
    TickDelta starvation_limit_;

    /** Trace counter track name ("<name>.bankq") and the enqueue count
     *  for stride-sampling it. */
    std::string bankq_track_;
    std::uint64_t obs_enq_ = 0;
};

/**
 * Map a linear 64 B line index within one rank onto (bank group, bank,
 * row, column). Consecutive lines fill one row before moving to the
 * next bank group, so streaming reads are row hits while independent
 * streams land in different bank groups.
 */
BankAddr mapLine(std::uint64_t line, const OrgParams &org);

} // namespace ansmet::dram

#endif // ANSMET_DRAM_CONTROLLER_H
