#include "serve/engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace ansmet::serve {

namespace {

/**
 * Priority of arrival events: ahead of every other event of their
 * tick, all of which run at the default priority 0.
 *
 * serve() chains its arrivals (each one schedules the next) so that
 * one is pending at a time; a whole load point's arrivals (2,400 in
 * perfbench's serve_sift) queued at tick 0 would sit under every heap
 * operation of the run. A chained arrival is inserted late, so
 * insertion order alone would let it lose a same-tick tie it wins
 * when all arrivals are queued first; -1 keeps it first. Arrivals are
 * at least one tick apart (loadgen.cc), so two never tie.
 */
constexpr sim::Priority kArrivalPriority = -1;

/**
 * Per-serve driver. Lives on the stack of serve() for the duration of
 * the event loop; every callback it schedules has run before serve()
 * returns (the loop drains fully).
 */
class Driver
{
  public:
    Driver(core::SystemModel &sys,
           const std::vector<core::QueryTrace> &traces,
           std::vector<Arrival> arrivals, AdmissionScheduler &adm,
           ServeReport &report)
        : sys_(sys), adm_(adm), report_(report),
          arrivals_(std::move(arrivals))
    {
        sys_.beginSession(traces, adm.maxInFlight());
        scheduleArrival(0);
    }

    void
    run()
    {
        sys_.eventQueue().run();
        report_.run = sys_.endSession();
        report_.offered = adm_.offered();
        report_.admitted = adm_.admitted();
        report_.dropped = adm_.dropped();
        report_.maxOccupiedQshrs = adm_.maxOccupiedQshrs();
        report_.makespan = report_.run.makespan;
    }

  private:
    /** Open-loop: arrival @p i's tick is pre-generated, so the chain
     *  never lets service backlog delay an arrival. */
    void
    scheduleArrival(std::size_t i)
    {
        if (i < arrivals_.size()) {
            sys_.eventQueue().schedule(
                arrivals_[i].at, [this, i] { onArrival(i); },
                kArrivalPriority);
        }
    }

    void
    onArrival(std::size_t i)
    {
        scheduleArrival(i + 1);
        const Arrival &a = arrivals_[i];
        const Tick now = sys_.eventQueue().now();
        // A dropped arrival enqueues nothing, so there is nothing to
        // pump: every slot release already pumps for itself.
        if (adm_.tryOffer(a.queryId, a.traceIdx, now))
            pump();
    }

    /** Admit while a slot and a queued arrival are both available. */
    void
    pump()
    {
        while (auto adm = adm_.admitNext(sys_.eventQueue().now()))
            launch(*adm);
    }

    void
    launch(const AdmissionScheduler::Admitted &a)
    {
        const Tick now = sys_.eventQueue().now();
        const TickDelta wait = now - a.enqueuedAt;
        obs::TraceWriter::instance().span(
            "queue_wait", static_cast<std::uint32_t>(a.queryId),
            a.enqueuedAt, now);
        sys_.submit(a.slot, a.traceIdx,
                    [this, a, wait](const core::QueryStats &qs) {
                        onDone(a, wait, qs);
                    });
    }

    void
    onDone(const AdmissionScheduler::Admitted &a, TickDelta wait,
           const core::QueryStats &qs)
    {
        auto &lat = report_.latency;
        lat.record(Phase::kQueueWait, wait.raw());
        lat.record(Phase::kTraverse, qs.traversal.raw());
        lat.record(Phase::kOffload, qs.offload.raw());
        lat.record(Phase::kCompute, qs.distComp.raw());
        lat.record(Phase::kCollect, qs.collect.raw());
        lat.record(Phase::kTotal, (wait + qs.latency()).raw());
        ++report_.completed;

        ServedQuery sq;
        sq.queryId = a.queryId;
        sq.traceIdx = a.traceIdx;
        sq.queueWait = wait;
        sq.stats = qs;
        report_.queries.push_back(sq);

        adm_.release(a.slot, a.queryId);
        // The freed slot may immediately take the next queued arrival
        // at this same tick.
        pump();
    }

    core::SystemModel &sys_;
    AdmissionScheduler &adm_;
    ServeReport &report_;
    std::vector<Arrival> arrivals_;
};

} // namespace

ServeReport
serve(core::SystemModel &sys,
      const std::vector<core::QueryTrace> &traces, const ServeConfig &cfg)
{
    ANSMET_CHECK(!traces.empty(), "serve: empty trace set");

    LoadGenConfig load = cfg.load;
    load.numTraces = traces.size();

    const core::SystemConfig &sc = sys.config();
    AdmissionConfig ac;
    ac.queueCapacity = cfg.queueCapacity;
    ac.numQshrs = sc.ndpParams.numQshrs;
    ac.qshrsPerQuery = std::max(1u, sc.qshrsPerQuery);
    ac.maxInFlightCap = cfg.maxInFlight;
    // CPU designs have no QSHRs to pack; bound by host cores instead.
    if (!isNdp(sc.design)) {
        ac.numQshrs = sc.concurrentQueries;
        ac.qshrsPerQuery = 1;
    }

    ServeReport report;
    AdmissionScheduler adm(ac);
    Driver driver(sys, traces, generateArrivals(load), adm, report);
    driver.run();
    return report;
}

} // namespace ansmet::serve
