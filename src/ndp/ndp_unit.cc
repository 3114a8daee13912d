#include "ndp/ndp_unit.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ansmet::ndp {

namespace {

struct NdpMetrics
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter tasks = reg.counter("ndp.tasks_completed");
    obs::Counter lines = reg.counter("ndp.lines_fetched");
    obs::Counter backpressure = reg.counter("ndp.backpressure_staged");
    obs::Histogram taskLines = reg.histogram("ndp.task_lines", 16);
    obs::Histogram taskLatency =
        reg.histogram("ndp.task_latency_ps", 48);
    obs::Histogram slotOccupancy =
        reg.histogram("ndp.qshr_slot_occupancy", 8);
};

NdpMetrics &
ndpMetrics()
{
    static NdpMetrics m;
    return m;
}

} // namespace

NdpUnit::NdpUnit(sim::EventQueue &eq, const NdpParams &np,
                 const dram::TimingParams &tp, const dram::OrgParams &org,
                 unsigned unit_id)
    : eq_(eq), np_(np),
      ctrl_(std::make_unique<dram::MemController>(
          eq, tp, org, 1, "ndp_rank" + std::to_string(unit_id))),
      org_(org),
      qshrs_(np.numQshrs),
      id_(unit_id)
{
}

void
NdpUnit::submit(unsigned qshr, NdpTask task)
{
    ANSMET_CHECK(qshr < qshrs_.size(), "bad QSHR id ", qshr, " (unit has ",
                 qshrs_.size(), ")");
    // A zero-line task would stall the QSHR forever waiting for a line
    // that was never issued; callers clamp with max(1, lines).
    ANSMET_DCHECK(task.lines >= 1, "zero-line task submitted to QSHR ",
                  qshr);
    QshrState &q = qshrs_[qshr];
    // An inactive QSHR must hold no half-executed task state; anything
    // else means a slot was recycled without completing (double free).
    ANSMET_DCHECK(q.active || (q.tasks.empty() && q.linesToIssue == 0 &&
                               q.linesInFlight == 0),
                  "idle QSHR ", qshr, " holds stale task state");
    ndpMetrics().slotOccupancy.sample(occupiedSlots(qshr));
    if (q.tasks.size() >= np_.tasksPerQshr) {
        // All architectural slots busy: the task stages host-side until
        // one frees. Execution order is unchanged (strict FIFO per QSHR).
        ++backpressure_events_;
        ndpMetrics().backpressure.inc();
    }
    q.tasks.push_back(std::move(task));
    if (!q.active)
        startNext(qshr);
}

unsigned
NdpUnit::occupiedSlots(unsigned qshr) const
{
    ANSMET_CHECK(qshr < qshrs_.size(), "bad QSHR id ", qshr);
    return static_cast<unsigned>(
        std::min<std::size_t>(qshrs_[qshr].tasks.size(), np_.tasksPerQshr));
}

unsigned
NdpUnit::stagedTasks(unsigned qshr) const
{
    const unsigned slots = occupiedSlots(qshr); // checks the id
    return static_cast<unsigned>(qshrs_[qshr].tasks.size()) - slots;
}

void
NdpUnit::startNext(unsigned qshr)
{
    QshrState &q = qshrs_[qshr];
    ANSMET_DCHECK(q.linesToIssue == 0 && q.linesInFlight == 0,
                  "QSHR ", qshr, " started a task with fetches in flight");
    if (q.tasks.empty()) {
        q.active = false;
        return;
    }
    q.active = true;
    q.headStart = eq_.now();
    const NdpTask &t = q.tasks.front();
    q.linesToIssue = std::max(1u, t.lines);
    q.linesInFlight = 0;
    q.nextLine = t.startLine;
    // QSHR lookup + command generation latency before the first fetch.
    eq_.scheduleIn(
        static_cast<std::uint64_t>(np_.qshrLookupCycles) * np_.period(),
        [this, qshr] { issueWindow(qshr); });
}

void
NdpUnit::issueWindow(unsigned qshr)
{
    QshrState &q = qshrs_[qshr];
    ANSMET_DCHECK(q.active, "fetch issue on inactive QSHR ", qshr);
    while (q.linesToIssue > 0 &&
           q.linesInFlight < np_.fetchPipelineDepth) {
        dram::Request req;
        req.addr = dram::mapLine(q.nextLine, org_);
        req.onComplete = [this, qshr](Tick when) {
            lineArrived(qshr, when);
        };
        ++q.nextLine;
        --q.linesToIssue;
        ++q.linesInFlight;
        ++lines_fetched_;
        ndpMetrics().lines.inc();
        ctrl_->enqueue(0, std::move(req));
    }
}

void
NdpUnit::lineArrived(unsigned qshr, Tick when)
{
    QshrState &q = qshrs_[qshr];
    ANSMET_CHECK(q.active && q.linesInFlight > 0,
                 "line arrival on QSHR ", qshr, " with no fetch outstanding");
    ANSMET_DCHECK(!q.tasks.empty(), "line arrival on QSHR ", qshr,
                  " with no task");
    ANSMET_DCHECK(q.linesInFlight <= np_.fetchPipelineDepth,
                  "fetch window overflow on QSHR ", qshr);
    --q.linesInFlight;

    // The distance computing unit consumes the line, plus one cycle
    // for the bound comparison; the comparison gates further issue.
    const NdpTask &t = q.tasks.front();
    const std::uint64_t cycles =
        std::max(1u, t.computeCyclesPerLine) + 1;
    const Tick start = std::max(when, compute_free_at_);
    const Tick end = start + cycles * np_.period();
    ANSMET_DCHECK(end > start, "compute occupancy must advance");
    compute_free_at_ = end;
    compute_busy_ += end - start;

    if (q.linesToIssue > 0) {
        eq_.schedule(end, [this, qshr] { issueWindow(qshr); });
        return;
    }
    if (q.linesInFlight > 0)
        return; // wait for the stragglers

    // Task complete at the end of the final bound/distance computation.
    eq_.schedule(end, [this, qshr, end] {
        QshrState &qs = qshrs_[qshr];
        ANSMET_CHECK(qs.active && !qs.tasks.empty(),
                     "task completion on empty QSHR ", qshr,
                     " (slot double free)");
        ANSMET_DCHECK(qs.linesToIssue == 0 && qs.linesInFlight == 0,
                      "task completed on QSHR ", qshr,
                      " with fetches outstanding");
        NdpTask done = std::move(qs.tasks.front());
        qs.tasks.pop_front();
        ++tasks_completed_;
        NdpMetrics &m = ndpMetrics();
        m.tasks.inc();
        m.taskLines.sample(std::max(1u, done.lines));
        m.taskLatency.sample((end - qs.headStart).raw());
        obs::TraceWriter::instance().span(
            "ndp_task", obs::ndpLaneTid(id_, qshr), qs.headStart, end);
        if (done.onComplete)
            done.onComplete(end);
        startNext(qshr);
    });
}

} // namespace ansmet::ndp
