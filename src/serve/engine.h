/**
 * @file
 * The online query-serving engine: open-loop arrivals scheduled on the
 * simulator's event queue, a bounded admission queue packing in-flight
 * queries onto the SystemModel session slots (and through them the NDP
 * QSHRs), and per-phase tail-latency recording.
 *
 * Determinism contract: the whole serve runs inside the event-driven
 * simulation — arrivals at pre-generated ticks, admission and
 * completion inline in event callbacks — so the report is a pure
 * function of (system, traces, config). ANSMET_THREADS only
 * parallelizes the pure fetch precompute and must not change a single
 * sample; tests/test_serve.cc holds that line.
 */

#ifndef ANSMET_SERVE_ENGINE_H
#define ANSMET_SERVE_ENGINE_H

#include <cstdint>
#include <vector>

#include "core/system.h"
#include "serve/admission.h"
#include "serve/loadgen.h"
#include "serve/recorder.h"

namespace ansmet::serve {

struct ServeConfig
{
    LoadGenConfig load;
    std::size_t queueCapacity = 64;
};

/** One per-query serving outcome, in completion order. */
struct ServedQuery
{
    std::uint64_t queryId = 0;
    std::size_t traceIdx = 0;
    TickDelta queueWait{};
    core::QueryStats stats;
};

/** Whole-serve outcome. */
struct ServeReport
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t completed = 0;
    unsigned maxOccupiedQshrs = 0;

    /** Completed queries per second of simulated time, over the
     *  session's makespan (the first arrival is scheduled at tick 0). */
    double
    achievedQps() const
    {
        if (run.makespan == TickDelta{})
            return 0.0;
        return static_cast<double>(completed) /
               (static_cast<double>(run.makespan.raw()) * 1e-12);
    }

    std::vector<ServedQuery> queries; //!< completion order
    LatencyRecorder latency;
    core::RunStats run; //!< underlying session stats (energy etc.)
};

/**
 * Serve @p traces through @p sys under the offered load in @p cfg.
 * Consumes the model's single session; @p sys must be freshly
 * constructed.
 */
ServeReport serve(core::SystemModel &sys,
                  const std::vector<core::QueryTrace> &traces,
                  const ServeConfig &cfg);

} // namespace ansmet::serve

#endif // ANSMET_SERVE_ENGINE_H
