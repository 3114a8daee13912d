/**
 * @file
 * The ANSMET system timing model: host CPU + (optionally) rank-level
 * NDP units over the event-driven DDR5 model, replaying functional
 * search traces under one of the nine evaluated designs.
 *
 * Concurrency model: `concurrentQueries` host cores each drain queries
 * from a shared queue, so the CPU designs become bandwidth-bound on
 * the 4 channels (the paper's Figure 1 observation) while the NDP
 * designs spread distance work over all ranks — that contrast is where
 * the ~5x NDP speedup comes from, with early termination cutting the
 * per-comparison line count on top.
 */

#ifndef ANSMET_CORE_SYSTEM_H
#define ANSMET_CORE_SYSTEM_H

#include <functional>
#include <memory>
#include <vector>

#include "core/design.h"
#include "core/trace.h"
#include "cpu/host.h"
#include "dram/power.h"
#include "et/fetchsim.h"
#include "layout/partition.h"
#include "ndp/ndp_unit.h"
#include "ndp/polling.h"

namespace ansmet::core {

/** Full configuration of one simulated design point. */
struct SystemConfig
{
    Design design = Design::kNdpEtOpt;
    unsigned ndpUnits = 32;
    unsigned subVectorBytes = 1024;   //!< hybrid partitioning S
    bool replicateHot = true;
    ndp::PollingParams polling{};
    unsigned concurrentQueries = 16;  //!< host cores driving queries
    /**
     * QSHRs each query spreads its same-unit tasks over. More QSHRs
     * buy intra-unit task parallelism at the cost of extra set-query
     * writes (the QSHR holds the query data).
     */
    unsigned qshrsPerQuery = 2;
    /**
     * Precompute all fetch-simulation results in parallel before the
     * event replay (identical outcome either way; see
     * precomputeFetch()). Off forces the on-the-fly reference path —
     * used by the determinism tests, not a tuning knob.
     */
    bool prefetchReplay = true;

    dram::TimingParams timing{};
    dram::OrgParams org{};
    cpu::HostParams host{};
    ndp::NdpParams ndpParams{};
    dram::EnergyParams energy{};
};

/** Per-query timing outcome. */
struct QueryStats
{
    Tick start{};
    Tick end{};
    TickDelta traversal{}; //!< index reads + step overhead + heap ops
    TickDelta offload{};   //!< NDP instruction transfer time
    TickDelta distComp{};  //!< distance comparison (CPU or NDP)
    TickDelta collect{};   //!< result polling / collection

    std::uint64_t comparisons = 0;
    std::uint64_t accepted = 0;
    std::uint64_t terminated = 0;
    std::uint64_t linesEffectual = 0;   //!< lines of accepted vectors
    std::uint64_t linesIneffectual = 0; //!< lines of rejected vectors
    std::uint64_t backupLines = 0;
    std::uint64_t polls = 0;

    TickDelta latency() const { return end - start; }
};

/** Whole-run outcome. */
struct RunStats
{
    std::vector<QueryStats> queries;
    TickDelta makespan{};
    dram::EnergyBreakdown energy;
    double loadImbalance = 1.0;

    double
    qps() const
    {
        if (makespan == TickDelta{})
            return 0.0;
        return static_cast<double>(queries.size()) /
               (static_cast<double>(makespan.raw()) * 1e-12);
    }

    TickDelta
    meanLatency() const
    {
        if (queries.empty())
            return TickDelta{};
        TickDelta sum{};
        for (const auto &q : queries)
            sum += q.latency();
        return sum / queries.size();
    }

    std::uint64_t
    totalLines() const
    {
        std::uint64_t n = 0;
        for (const auto &q : queries)
            n += q.linesEffectual + q.linesIneffectual + q.backupLines;
        return n;
    }

    QueryStats
    totals() const
    {
        QueryStats t;
        for (const auto &q : queries) {
            t.traversal += q.traversal;
            t.offload += q.offload;
            t.distComp += q.distComp;
            t.collect += q.collect;
            t.comparisons += q.comparisons;
            t.accepted += q.accepted;
            t.terminated += q.terminated;
            t.linesEffectual += q.linesEffectual;
            t.linesIneffectual += q.linesIneffectual;
            t.backupLines += q.backupLines;
            t.polls += q.polls;
        }
        return t;
    }
};

/**
 * Scale the host cache hierarchy to the (scaled-down) dataset so the
 * LLC:data ratio matches the paper's billion-scale setting, where
 * vector data exceeds the last-level cache by orders of magnitude. At
 * our dataset sizes the full-size 8 MB LLC would otherwise hold the
 * whole database and make CPU-Base artificially fast (see DESIGN.md,
 * substitutions). Latencies are unchanged; only capacities shrink.
 */
void scaleCachesToDataset(SystemConfig &cfg, std::uint64_t data_bytes);

/**
 * One design point bound to one dataset. Construct, then call run()
 * exactly once with the functional traces.
 */
class SystemModel
{
  public:
    /**
     * @param profile ET preprocessing output (may be null for kNone
     *        schemes)
     * @param hot vector ids replicated to all rank groups (HNSW upper
     *        layers / IVF centroids); ignored unless replicateHot
     */
    SystemModel(const SystemConfig &cfg, const anns::VectorSet &vs,
                anns::Metric metric, const et::EtProfile *profile,
                const std::vector<VectorId> &hot = {});

    ~SystemModel();

    /** Replay @p traces; single use. */
    RunStats run(const std::vector<QueryTrace> &traces);

    // ------------------------------------------------------------------
    // Session API: the multi-query entry point behind run() and the
    // online serving engine (src/serve). A session replaces the old
    // monolithic run(): the caller opens it once, starts queries on
    // numbered slots at any simulated time (e.g. from arrival events
    // scheduled on eventQueue()), drives eq_.run(), and closes it to
    // collect whole-run statistics. run() is the batch dispatcher built
    // on top, and replays the exact event sequence the pre-session code
    // produced (golden figures are bitwise unchanged).
    // ------------------------------------------------------------------

    /** Completion callback of one submitted query. Runs inline at the
     *  query's final simulated tick; it may submit() again (on this or
     *  any idle slot) at that same tick. */
    using QueryDone = std::function<void(const QueryStats &)>;

    /**
     * Open a session over @p traces with @p slots concurrent query
     * slots. A slot is one host core driving one in-flight query; its
     * index also selects the QSHR set NDP offloads use, so distinct
     * in-flight queries never contend for a QSHR as long as
     * slots * qshrsPerQuery <= numQshrs (the admission scheduler in
     * src/serve enforces exactly that packing). Single use per model.
     */
    void beginSession(const std::vector<QueryTrace> &traces,
                      unsigned slots);

    /**
     * Start replaying trace @p traceIdx on idle slot @p slot at the
     * current simulated time (fatal if the slot is busy). The same
     * trace may be submitted any number of times per session — the
     * serving engine replays popular queries repeatedly under Zipf
     * skew. @p done fires when the query completes.
     */
    void submit(unsigned slot, std::size_t traceIdx, QueryDone done);

    /** The session's event queue, for arrival scheduling and now(). */
    sim::EventQueue &eventQueue() { return eq_; }

    /**
     * Close the session and collect run statistics (queries in
     * completion order, makespan up to the last executed event,
     * energy). Fatal if events are still pending or a query is still
     * in flight.
     */
    RunStats endSession();

    const SystemConfig &config() const { return cfg_; }
    const et::FetchSimulator &fetchSimulator() const { return *fetchsim_; }
    const layout::Partitioner *partitioner() const { return part_.get(); }

  private:
    /** Precomputed outcome of one FetchSimulator call during replay. */
    struct PreFetch
    {
        unsigned lines;
        unsigned backup;
        bool terminated;
    };

    class QueryContext;
    friend class QueryContext;

    /** Batch dispatcher: feed @p slot the next undispatched trace. */
    void dispatchNext(unsigned slot);

    /**
     * Fetch-simulate every comparison of every trace in parallel over
     * the thread pool, in the exact (step, task, sub-vector) order the
     * replay consumes them. The simulator is a pure function of
     * (query, vector, threshold, dim range) — and the dimension split
     * is the same in every rank group — so the event-driven replay
     * stays serial and bit-identical while the expensive bound loops
     * run on all cores. No-op with a single-threaded pool (the
     * reference path computes on the fly).
     */
    void precomputeFetch(const std::vector<QueryTrace> &traces);

    /** Channel that carries NDP unit @p u's instructions. */
    unsigned
    channelOf(unsigned u) const
    {
        return (u / cfg_.org.ranksPerChannel()) % cfg_.org.channels;
    }

    dram::EnergyBreakdown collectEnergy(const RunStats &rs) const;

    SystemConfig cfg_;
    const anns::VectorSet &vs_;
    anns::Metric metric_;

    sim::EventQueue eq_;
    std::unique_ptr<et::FetchSimulator> fetchsim_;
    std::unique_ptr<cpu::HostCpu> hostCpu_;
    std::vector<std::unique_ptr<ndp::NdpUnit>> units_;
    std::unique_ptr<layout::Partitioner> part_;
    std::unique_ptr<layout::LoadTracker> loads_;
    std::unique_ptr<ndp::PollingEstimator> pollEst_;

    // Session state.
    // prefetch_[q] = PreFetch per simulator call of trace q, in
    // consumption order; empty when computing on the fly. Indexed by
    // trace, so repeated submissions of one trace replay one sequence.
    std::vector<std::vector<PreFetch>> prefetch_;
    const std::vector<QueryTrace> *traces_ = nullptr;
    std::size_t next_query_ = 0; //!< batch dispatcher cursor (run())
    std::vector<std::unique_ptr<QueryContext>> contexts_;
    RunStats session_stats_;
    RunStats *run_stats_ = nullptr; //!< &session_stats_ while open
    bool ran_ = false;
};

} // namespace ansmet::core

#endif // ANSMET_CORE_SYSTEM_H
