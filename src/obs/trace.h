/**
 * @file
 * Per-query trace spans exported in Chrome trace_event JSON format
 * (load the file in chrome://tracing or https://ui.perfetto.dev).
 *
 * Spans are recorded against simulated time (Tick = picoseconds) and
 * mapped onto trace rows as:
 *
 *   pid  — one simulated run (SystemModel::run for one design); set
 *          with TraceWriter::beginRun("NDP-ETOpt/sift") so the many
 *          runs of a figure binary don't overlap on one timeline;
 *   tid  — a lane inside the run: query index for query-stage spans,
 *          a derived (unit, qshr) id for NDP task spans, a controller
 *          id for DRAM counter tracks.
 *
 * Recording is active only when the process was started with
 * ANSMET_TRACE=<path>; otherwise every call is a cheap early-out.
 * Events buffer in memory (bounded by ANSMET_TRACE_LIMIT, default
 * 2'000'000; overflow is counted, never silent) and flush to the path
 * at process exit or on TraceWriter::flush(); a process whose exit-time
 * flush fails exits with EXIT_FAILURE. The flushed JSON also embeds the
 * full metrics Snapshot under "metrics".
 *
 * Like the metrics registry, the layer never feeds back into simulated
 * behaviour.
 */

#ifndef ANSMET_OBS_TRACE_H
#define ANSMET_OBS_TRACE_H

#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.h"

namespace ansmet::obs {

/** One "k":"v" argument attached to a trace event. */
struct TraceArg
{
    std::string_view key;
    std::int64_t value = 0;
};

class TraceWriter
{
  public:
    /** The singleton; reads ANSMET_TRACE / ANSMET_TRACE_LIMIT once. */
    static TraceWriter &instance();

    /** True when ANSMET_TRACE is set — callers may skip building
     *  event arguments entirely when tracing is off. */
    bool enabled() const { return enabled_; }

    /**
     * Start a new run scope: subsequent events carry a fresh pid
     * labelled @p name via process_name metadata.
     */
    void beginRun(std::string_view name);

    /** Complete ("X") span on (current pid, @p tid) covering
     *  [start, end] in simulated time. */
    void span(std::string_view name, std::uint32_t tid, Tick start,
              Tick end, const TraceArg *args = nullptr,
              std::size_t numArgs = 0);

    /** Counter ("C") track sample at @p when. */
    void counter(std::string_view name, std::uint32_t tid, Tick when,
                 std::int64_t value);

    /**
     * Write the trace file now (also runs automatically at exit).
     * Idempotent per accumulated state; later events re-flush. Returns
     * false, after a message on stderr, when the file cannot be
     * written; true when it was, or when tracing is off. A failed
     * flush at exit ends the process with EXIT_FAILURE.
     */
    [[nodiscard]] bool flush();

    /** Events dropped because the buffer hit ANSMET_TRACE_LIMIT. */
    std::uint64_t dropped() const;

    ~TraceWriter() = delete;

  private:
    TraceWriter();
    struct Impl;
    Impl &impl() const;
    bool enabled_ = false;
};

/** tid convention for NDP task rows: one lane per (unit, qshr). */
inline std::uint32_t
ndpLaneTid(unsigned unit, unsigned qshr)
{
    return 10000 + unit * 64 + qshr;
}

/** tid convention for DRAM controller counter tracks. */
inline std::uint32_t
dramLaneTid(unsigned controller)
{
    return 20000 + controller;
}

} // namespace ansmet::obs

#endif // ANSMET_OBS_TRACE_H
