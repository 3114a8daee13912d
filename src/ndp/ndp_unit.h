/**
 * @file
 * Rank-level NDP unit (Section 5.1/5.2, Figure 5 of the paper).
 *
 * One NDP unit sits in the DIMM buffer chip next to each rank. It
 * holds 32 QSHRs (query status handling registers), each carrying one
 * query and up to 8 in-order comparison tasks, and a 16-wide distance
 * computing unit at 1.2 GHz. Tasks within a QSHR run sequentially;
 * different QSHRs overlap, so the rank's bank-level parallelism stays
 * busy. Each task fetches its (transformed-layout) lines one after
 * another — the next fetch depends on the bound check of the previous
 * one, which is the essence of early termination — computes the bound
 * increment on the compute unit, and stops early when the fetch
 * simulator determined termination.
 *
 * The *number* of lines a task fetches is decided functionally by
 * et::FetchSimulator; this class models the time and energy it takes.
 */

#ifndef ANSMET_NDP_NDP_UNIT_H
#define ANSMET_NDP_NDP_UNIT_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ring_deque.h"
#include "dram/controller.h"
#include "sim/event_queue.h"
#include "sim/inline_callback.h"

namespace ansmet::ndp {

/** NDP unit microarchitecture parameters (Table 1). */
struct NdpParams
{
    double freqGHz = 1.2;
    unsigned numQshrs = 32;
    unsigned tasksPerQshr = 8;
    unsigned computeLanes = 16; //!< 32-bit multipliers/adders
    unsigned qshrLookupCycles = 1;
    /**
     * Outstanding line fetches per task. The bound check gates
     * *future* fetches, but the QSHR keeps a small window of issued
     * lines in flight (they hit different banks of the local rank), so
     * a task is not one-full-DRAM-round-trip per line.
     */
    unsigned fetchPipelineDepth = 4;

    TickDelta period() const { return periodFromGHz(freqGHz); }
};

/** One offloaded comparison task (one vector against one query). */
struct NdpTask
{
    std::uint64_t startLine = 0; //!< rank-local line address
    unsigned lines = 0;          //!< lines to fetch (ET-resolved)
    /**
     * Distance-unit cycles to consume one 64 B line. The 16 x 32-bit
     * datapath digests 512 bits per couple of cycles for full-width
     * elements, and partial-bit planes are processed bit-serially at
     * the same rate (BitNN-style), so this is small and roughly layout
     * independent — matching the paper's note that shrinking the
     * compute unit is unnecessary.
     */
    unsigned computeCyclesPerLine = 2;
    /** Completion: the task's result is ready in the QSHR. Inline-only
     *  capture makes NdpTask move-only and allocation-free. */
    sim::InlineFunction<void(Tick), 40> onComplete;
};

/** A rank plus its buffer-chip NDP logic. */
class NdpUnit
{
  public:
    NdpUnit(sim::EventQueue &eq, const NdpParams &np,
            const dram::TimingParams &tp, const dram::OrgParams &org,
            unsigned unit_id);

    /**
     * Enqueue a task on @p qshr. Tasks on the same QSHR execute in
     * order; the caller is responsible for QSHR allocation (the host
     * program tracks QSHR ids explicitly, per the paper).
     *
     * Each QSHR holds at most tasksPerQshr (8) architectural task
     * slots. Submissions beyond that are backpressured into a staging
     * queue (modelling the host-side instruction buffer the paper's
     * runtime drains into free slots) and refill the QSHR in FIFO
     * order as slots free up. Because a QSHR executes its tasks
     * strictly serially either way, staging is timing-neutral; it only
     * bounds the architectural occupancy and surfaces backpressure in
     * the stats.
     */
    void submit(unsigned qshr, NdpTask task);

    /** Architectural occupancy of @p qshr: queued tasks in its slots
     *  (including the executing one). Never exceeds tasksPerQshr. */
    unsigned occupiedSlots(unsigned qshr) const;

    /** Tasks waiting in @p qshr's staging queue for a free slot. */
    unsigned stagedTasks(unsigned qshr) const;

    /** Submissions that found all task slots full and had to stage. */
    std::uint64_t backpressureEvents() const
    {
        return backpressure_events_;
    }

    unsigned id() const { return id_; }
    dram::MemController &rankController() { return *ctrl_; }
    const dram::MemController &rankController() const { return *ctrl_; }

    /** Total 64 B lines fetched by this unit. */
    std::uint64_t linesFetched() const { return lines_fetched_; }

    /** Ticks the compute unit spent busy (for energy). */
    TickDelta computeBusy() const { return compute_busy_; }

    std::uint64_t tasksCompleted() const { return tasks_completed_; }

  private:
    struct QshrState
    {
        RingDeque<NdpTask> fifo;      //!< architectural slots (<= 8)
        RingDeque<NdpTask> staged;    //!< backpressured submissions
        bool active = false;
        unsigned linesToIssue = 0;   //!< lines not yet sent to DRAM
        unsigned linesInFlight = 0;  //!< issued, data not yet consumed
        std::uint64_t nextLine = 0;
        Tick headStart{};            //!< when the head task began
    };

    void startNext(unsigned qshr);
    void issueWindow(unsigned qshr);
    void lineArrived(unsigned qshr, Tick when);

    sim::EventQueue &eq_;
    NdpParams np_;
    std::unique_ptr<dram::MemController> ctrl_;
    dram::OrgParams org_;
    std::vector<QshrState> qshrs_;
    unsigned id_;

    Tick compute_free_at_{};
    TickDelta compute_busy_{};
    std::uint64_t lines_fetched_ = 0;
    std::uint64_t tasks_completed_ = 0;
    std::uint64_t backpressure_events_ = 0;
};

} // namespace ansmet::ndp

#endif // ANSMET_NDP_NDP_UNIT_H
