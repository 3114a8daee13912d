#include "core/system.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/runtime/runtime.h"
#include "ndp/instr.h"
#include "obs/trace.h"

namespace ansmet::core {

namespace {

/** Byte-address regions so vector and index data never alias. */
constexpr Addr kVectorRegion = 0;
constexpr Addr kIndexRegion = Addr{1} << 38;
constexpr Addr kCentroidRegion = Addr{1} << 39;
constexpr Addr kIndexStride = 4096;

} // namespace

// ---------------------------------------------------------------------
// Query context: one host core's in-flight query state machine.
// ---------------------------------------------------------------------

class SystemModel::QueryContext
{
  public:
    QueryContext(SystemModel &sys, unsigned id) : sys_(sys), id_(id)
    {
        // Per-unit scratch is sized once here and cleared (never
        // reallocated) across steps; see DESIGN.md, "Hot-path
        // allocation rules".
        if (isNdp(sys.cfg_.design)) {
            const unsigned n = sys.cfg_.ndpUnits;
            const unsigned k = std::max(1u, sys.cfg_.qshrsPerQuery);
            batch_scratch_.resize(n);
            unit_pending_.assign(n, 0);
            results_fetched_.assign(n, 0);
            query_loaded_bits_.assign(n + (k + 63) / 64, 0);
        }
    }

    /** True when no query is in flight on this slot. */
    bool idle() const { return idle_; }

    /**
     * Start replaying trace @p trace_idx at the current tick. @p done
     * fires inline at the query's final tick, after the slot went back
     * to idle — it may begin() this slot again at that same tick.
     */
    void
    begin(std::size_t trace_idx, QueryDone done)
    {
        ANSMET_CHECK(idle_, "slot already has a query in flight");
        idle_ = false;
        done_ = std::move(done);
        qidx_ = trace_idx;
        trace_ = &(*sys_.traces_)[qidx_];
        stats_ = QueryStats{};
        stats_.start = sys_.eq_.now();
        step_ = 0;
        fetch_cursor_ = 0;
        std::fill(query_loaded_bits_.begin(), query_loaded_bits_.end(),
                  std::uint64_t{0});
        startStep();
    }

  private:
    struct UnitBatch
    {
        std::vector<ndp::NdpTask> tasks;
        unsigned writes = 0;
    };

    /** Mark (unit, qshr slot) as query-loaded; true on first use. */
    bool
    loadQuerySlot(unsigned unit, unsigned slot)
    {
        const auto key = static_cast<std::uint64_t>(unit) * 64 + slot;
        std::uint64_t &word = query_loaded_bits_[key >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (key & 63);
        if ((word & bit) != 0)
            return false;
        word |= bit;
        return true;
    }

    /**
     * Fetch-simulation outcome for the next comparison, either popped
     * from the precomputed per-query sequence or simulated on the fly
     * (single-threaded reference path). Call sites consume results in
     * the same (step, task, sub-vector) order precomputeFetch()
     * produced them.
     */
    et::FetchResult
    nextFetch(const CompareTask &t, unsigned dim_begin, unsigned dim_end)
    {
        if (!sys_.prefetch_.empty()) {
            const auto &pre = sys_.prefetch_[qidx_];
            ANSMET_CHECK(fetch_cursor_ < pre.size(),
                         "replay consumed more fetches than precomputed");
            const SystemModel::PreFetch &p = pre[fetch_cursor_++];
            et::FetchResult fr;
            fr.lines = p.lines;
            fr.backupLines = p.backup;
            fr.terminatedEarly = p.terminated;
            return fr;
        }
        return sys_.fetchsim_->simulateRange(trace_->query.data(), t.vec,
                                             t.threshold, dim_begin,
                                             dim_end);
    }

    void
    startStep()
    {
        if (step_ >= trace_->steps.size()) {
            finishQuery();
            return;
        }
        step_start_ = sys_.eq_.now();
        const TraceStep &s = trace_->steps[step_];

        sys_.hostCpu_->compute(
            sys_.cfg_.host.stepOverheadCycles, [this, &s] {
                const unsigned lines = std::max<unsigned>(
                    1, static_cast<unsigned>(
                           divCeil(s.indexBytes, kLineBytes)));
                const Addr addr =
                    s.kind == anns::StepKind::kCentroidScan
                        ? kCentroidRegion
                        : kIndexRegion + s.ident * kIndexStride;
                sys_.hostCpu_->read(addr, lines, [this] { afterIndex(); });
            });
    }

    void
    afterIndex()
    {
        stats_.traversal += sys_.eq_.now() - step_start_;
        obs::TraceWriter::instance().span(
            "traverse", static_cast<std::uint32_t>(qidx_), step_start_,
            sys_.eq_.now());
        const TraceStep &s = trace_->steps[step_];
        if (s.tasks.empty()) {
            finishStep();
            return;
        }
        offload_start_ = sys_.eq_.now();
        if (isNdp(sys_.cfg_.design)) {
            ndpOffload();
        } else {
            task_ = 0;
            cpuNextTask();
        }
    }

    // ---------------- CPU path ----------------

    void
    cpuNextTask()
    {
        const TraceStep &s = trace_->steps[step_];
        if (task_ >= s.tasks.size()) {
            stats_.distComp += sys_.eq_.now() - offload_start_;
            obs::TraceWriter::instance().span(
                "compute", static_cast<std::uint32_t>(qidx_),
                offload_start_, sys_.eq_.now());
            finishStep();
            return;
        }
        const CompareTask &t = s.tasks[task_];
        const et::FetchResult fr = nextFetch(t, 0, sys_.vs_.dims());
        accountFetch(t, fr.totalLines(), fr.terminatedEarly,
                     fr.backupLines);

        const unsigned lines = std::max(1u, fr.totalLines());
        const Addr addr =
            kVectorRegion +
            (static_cast<Addr>(t.vec) * sys_.fetchsim_->fullLines()) *
                kLineBytes;
        sys_.hostCpu_->read(addr, lines, [this, lines] {
            // SIMD distance kernel + per-line bound checks.
            const unsigned dims = sys_.vs_.dims();
            const std::uint64_t per_line =
                divCeil(std::max(1u, dims / std::max(1u, lines)),
                        sys_.cfg_.host.simdLanes) +
                2 + sys_.cfg_.host.bitRecoverCycles;
            sys_.hostCpu_->compute(per_line * lines + 8, [this] {
                ++task_;
                cpuNextTask();
            });
        });
    }

    // ---------------- NDP path ----------------

    void
    ndpOffload()
    {
        const TraceStep &s = trace_->steps[step_];

        pending_sub_ = 0;
        max_tasks_per_unit_ = 0;
        results_fetched_count_ = 0;
        units_in_step_.clear();

        // Batches accumulate in per-context scratch indexed by unit;
        // units_in_step_ records first-touch order, which replaces the
        // old per-step unordered_map (and its per-step allocations)
        // while staying deterministic.
        const layout::Partitioner &part = *sys_.part_;
        for (const CompareTask &t : s.tasks) {
            const unsigned group = chooseGroup(t.vec);
            for (unsigned i = 0; i < part.subsPerVector(); ++i) {
                const layout::SubVector sv = part.sub(t.vec, group, i);
                const et::FetchResult fr =
                    nextFetch(t, sv.dimBegin, sv.dimEnd);
                accountFetch(t, fr.totalLines(), fr.terminatedEarly,
                             fr.backupLines);
                sys_.loads_->add(sv.rank, fr.totalLines());

                ndp::NdpTask task;
                task.startLine = part.baseLine(t.vec, group, i);
                task.lines = std::max(1u, fr.totalLines());
                const unsigned unit = sv.rank;
                task.onComplete = [this, unit](Tick when) {
                    ndpTaskDone(unit, when);
                };
                UnitBatch &batch = batch_scratch_[unit];
                if (batch.tasks.empty()) {
                    units_in_step_.push_back(unit);
                    unit_pending_[unit] = 0;
                    results_fetched_[unit] = 0;
                }
                batch.tasks.push_back(std::move(task));
                ++unit_pending_[unit];
                ++pending_sub_;
            }
        }

        // Instruction writes per unit: set-query per QSHR used (first
        // use only) plus one set-search per 8 tasks.
        const unsigned k = std::max(1u, sys_.cfg_.qshrsPerQuery);
        pending_writes_ = 0;
        for (const unsigned unit : units_in_step_) {
            UnitBatch &batch = batch_scratch_[unit];
            const unsigned qshrs_used = std::min<unsigned>(
                k, static_cast<unsigned>(batch.tasks.size()));
            unsigned writes = static_cast<unsigned>(
                divCeil(batch.tasks.size(), 8));
            const unsigned dims_per_sub = static_cast<unsigned>(divCeil(
                sys_.vs_.dims(),
                sys_.part_ ? sys_.part_->ranksPerGroup() : 1));
            const unsigned qbytes = std::min<unsigned>(
                ndp::kQshrQueryBytes,
                std::max(1u, dims_per_sub *
                                 anns::scalarBytes(sys_.vs_.type())));
            for (unsigned slot = 0; slot < qshrs_used; ++slot) {
                if (loadQuerySlot(unit, slot))
                    writes += ndp::setQueryWrites(qbytes);
            }
            batch.writes = writes;
            pending_writes_ += writes;
            max_tasks_per_unit_ = std::max(
                max_tasks_per_unit_,
                static_cast<unsigned>(divCeil(batch.tasks.size(), k)));
        }

        all_tasks_submitted_ = false;
        collected_ = false;
        poll_inflight_ = 0;

        // Issue the instruction stream. The final write of each unit's
        // batch hands its tasks to that unit, spread across this
        // query's QSHRs. The tasks stay parked in the scratch until
        // that write's completion event fires (safe: the next step
        // cannot start until every write completed), so the event
        // captures only the unit index.
        unsigned issued_units = 0;
        for (const unsigned unit : units_in_step_) {
            const UnitBatch &batch = batch_scratch_[unit];
            const unsigned ch = sys_.channelOf(unit);
            for (unsigned w = 0; w + 1 < batch.writes; ++w) {
                sys_.hostCpu_->channel(ch).enqueueBusTransfer(
                    true, [this](Tick) { writeDone(); });
            }
            sys_.hostCpu_->channel(ch).enqueueBusTransfer(
                true, [this, unit, k](Tick) {
                    UnitBatch &b = batch_scratch_[unit];
                    const unsigned nq = sys_.cfg_.ndpParams.numQshrs;
                    for (std::size_t i = 0; i < b.tasks.size(); ++i) {
                        const unsigned qshr =
                            (id_ * k + static_cast<unsigned>(i) % k) % nq;
                        sys_.units_[unit]->submit(qshr,
                                                  std::move(b.tasks[i]));
                    }
                    b.tasks.clear(); // keeps capacity for the next step
                    writeDone();
                });
            ++issued_units;
        }
        ANSMET_CHECK(issued_units > 0);
    }

    void
    writeDone()
    {
        ANSMET_CHECK(pending_writes_ > 0);
        if (--pending_writes_ != 0)
            return;
        offload_done_ = sys_.eq_.now();
        stats_.offload += offload_done_ - offload_start_;
        obs::TraceWriter::instance().span(
            "offload", static_cast<std::uint32_t>(qidx_), offload_start_,
            offload_done_);
        all_tasks_submitted_ = true;
        if (pending_sub_ == 0)
            tasksFinished(offload_done_);
        schedulePolling();
    }

    void
    ndpTaskDone(unsigned unit, Tick when)
    {
        ANSMET_CHECK(pending_sub_ > 0);
        --unit_pending_[unit];
        if (--pending_sub_ == 0 && all_tasks_submitted_)
            tasksFinished(when);
    }

    void
    tasksFinished(Tick when)
    {
        last_task_done_ = when;
        stats_.distComp += when - offload_done_;
        obs::TraceWriter::instance().span(
            "compute", static_cast<std::uint32_t>(qidx_), offload_done_,
            when);
        if (sys_.cfg_.polling.mode == ndp::PollingMode::kIdeal)
            collected();
    }

    void
    schedulePolling()
    {
        if (sys_.cfg_.polling.mode == ndp::PollingMode::kIdeal)
            return;
        TickDelta first;
        if (sys_.cfg_.polling.mode == ndp::PollingMode::kConventional) {
            first = sys_.cfg_.polling.conventionalInterval;
        } else {
            first = sys_.pollEst_
                        ? sys_.pollEst_->expectedLatency(
                              std::max(1u, max_tasks_per_unit_))
                        : sys_.cfg_.polling.conventionalInterval;
        }
        sys_.eq_.scheduleIn(std::max(first, TickDelta{1}),
                            [this] { poll(); });
    }

    void
    poll()
    {
        if (collected_)
            return;
        // Probe only the units whose results are still outstanding;
        // each successful probe also transfers that unit's results.
        poll_targets_.clear();
        for (const unsigned unit : units_in_step_) {
            if (!results_fetched_[unit])
                poll_targets_.push_back(unit);
        }
        ANSMET_CHECK(!poll_targets_.empty());
        poll_inflight_ = static_cast<unsigned>(poll_targets_.size());
        stats_.polls += poll_inflight_;
        for (const unsigned unit : poll_targets_) {
            sys_.hostCpu_->channel(sys_.channelOf(unit))
                .enqueueBusTransfer(false, [this, unit](Tick) {
                    if (unit_pending_[unit] == 0 &&
                        !results_fetched_[unit]) {
                        results_fetched_[unit] = 1;
                        ++results_fetched_count_;
                    }
                    if (--poll_inflight_ != 0)
                        return;
                    if (results_fetched_count_ ==
                        units_in_step_.size()) {
                        collected();
                    } else {
                        const TickDelta backoff =
                            sys_.cfg_.polling.mode ==
                                    ndp::PollingMode::kConventional
                                ? sys_.cfg_.polling.conventionalInterval
                                : sys_.cfg_.polling.adaptiveBackoff;
                        sys_.eq_.scheduleIn(backoff, [this] { poll(); });
                    }
                });
        }
    }

    void
    collected()
    {
        if (collected_)
            return;
        collected_ = true;
        stats_.collect += sys_.eq_.now() - last_task_done_;
        obs::TraceWriter::instance().span(
            "collect", static_cast<std::uint32_t>(qidx_), last_task_done_,
            sys_.eq_.now());
        finishStep();
    }

    // ---------------- common ----------------

    unsigned
    chooseGroup(VectorId v)
    {
        if (!sys_.part_)
            return 0;
        const auto &part = *sys_.part_;
        if (!part.isReplicated(v))
            return part.groupOf(v);
        // Replicated vector: steer to the currently least-loaded group.
        unsigned best = 0;
        std::uint64_t best_load = ~std::uint64_t{0};
        for (unsigned g = 0; g < part.numGroups(); ++g) {
            std::uint64_t load = 0;
            for (unsigned r = 0; r < part.ranksPerGroup(); ++r)
                load += sys_.loads_->load(g * part.ranksPerGroup() + r);
            if (load < best_load) {
                best_load = load;
                best = g;
            }
        }
        return best;
    }

    void
    accountFetch(const CompareTask &t, unsigned lines, bool terminated,
                 unsigned backup_lines)
    {
        if (t.accepted)
            stats_.linesEffectual += lines;
        else
            stats_.linesIneffectual += lines;
        stats_.backupLines += backup_lines;
        if (terminated)
            ++stats_.terminated;
    }

    void
    finishStep()
    {
        const TraceStep &s = trace_->steps[step_];
        stats_.comparisons += s.tasks.size();
        for (const auto &t : s.tasks)
            stats_.accepted += t.accepted ? 1 : 0;

        const Tick heap_start = sys_.eq_.now();
        const std::uint64_t cycles =
            static_cast<std::uint64_t>(s.heapOps) *
            sys_.cfg_.host.heapOpCycles;
        sys_.hostCpu_->compute(std::max<std::uint64_t>(cycles, 1),
                               [this, heap_start] {
                                   stats_.traversal +=
                                       sys_.eq_.now() - heap_start;
                                   ++step_;
                                   startStep();
                               });
    }

    void
    finishQuery()
    {
        stats_.end = sys_.eq_.now();
        auto &tw = obs::TraceWriter::instance();
        if (tw.enabled()) {
            const obs::TraceArg args[] = {
                {"comparisons",
                 static_cast<std::int64_t>(stats_.comparisons)},
                {"terminated",
                 static_cast<std::int64_t>(stats_.terminated)},
                {"lines_effectual",
                 static_cast<std::int64_t>(stats_.linesEffectual)},
                {"lines_ineffectual",
                 static_cast<std::int64_t>(stats_.linesIneffectual)},
                {"polls", static_cast<std::int64_t>(stats_.polls)},
            };
            tw.span("query", static_cast<std::uint32_t>(qidx_),
                    stats_.start, stats_.end, args, std::size(args));
        }
        sys_.run_stats_->queries.push_back(stats_);
        // Hand the slot back before notifying: the callback may begin()
        // the next query on this slot at this same tick.
        idle_ = true;
        QueryDone done = std::move(done_);
        done_ = nullptr;
        if (done)
            done(stats_);
    }

    SystemModel &sys_;
    unsigned id_;
    bool idle_ = true;
    QueryDone done_;
    const QueryTrace *trace_ = nullptr;
    std::size_t qidx_ = 0;
    std::size_t step_ = 0;
    std::size_t task_ = 0;
    std::size_t fetch_cursor_ = 0;
    QueryStats stats_;

    Tick step_start_{};
    Tick offload_start_{};
    Tick offload_done_{};
    Tick last_task_done_{};

    unsigned pending_sub_ = 0;
    unsigned pending_writes_ = 0;
    unsigned poll_inflight_ = 0;
    unsigned max_tasks_per_unit_ = 0;
    std::size_t results_fetched_count_ = 0;
    bool all_tasks_submitted_ = false;
    bool collected_ = false;

    // Reusable per-context scratch, indexed by NDP unit (sized in the
    // constructor, cleared per step, never reallocated).
    std::vector<UnitBatch> batch_scratch_;
    std::vector<unsigned> units_in_step_;
    std::vector<unsigned> unit_pending_;
    std::vector<std::uint8_t> results_fetched_;
    std::vector<unsigned> poll_targets_;
    std::vector<std::uint64_t> query_loaded_bits_;
};

void
scaleCachesToDataset(SystemConfig &cfg, std::uint64_t data_bytes)
{
    // Keep data at least ~16x the LLC, as at billion scale, while
    // never exceeding the paper's real capacities.
    auto pow2_capacity = [](std::uint64_t target, unsigned assoc) {
        std::uint64_t sets =
            std::max<std::uint64_t>(1, target / (assoc * kLineBytes));
        sets = std::bit_floor(sets);
        return sets * assoc * kLineBytes;
    };

    auto &cp = cfg.host.cacheParams;
    const std::uint64_t llc_target = std::clamp<std::uint64_t>(
        data_bytes / 16, 128 * 1024, 8 * 1024 * 1024);
    cp.llcBytes = pow2_capacity(llc_target, cp.llcAssoc);
    cp.l2Bytes = std::max<std::uint64_t>(
        32 * 1024, pow2_capacity(cp.llcBytes / 8, cp.l2Assoc));
    cp.l1Bytes = std::max<std::uint64_t>(
        8 * 1024, pow2_capacity(cp.l2Bytes / 8, cp.l1Assoc));
}

// ---------------------------------------------------------------------
// SystemModel
// ---------------------------------------------------------------------

SystemModel::SystemModel(const SystemConfig &cfg, const anns::VectorSet &vs,
                         anns::Metric metric, const et::EtProfile *profile,
                         const std::vector<VectorId> &hot)
    : cfg_(cfg), vs_(vs), metric_(metric)
{
    // NDP designs simulate every comparison over the rank-group split,
    // which is the same in every group (only the ranks rotate), so its
    // sizes are the only sub-vector plans the fetch simulator needs.
    std::vector<unsigned> sub_dims;
    if (isNdp(cfg.design)) {
        part_ = std::make_unique<layout::Partitioner>(
            layout::PartitionConfig{cfg.ndpUnits, cfg.subVectorBytes},
            vs.dims(), anns::scalarBytes(vs.type()), vs.size());
        for (const auto &s : part_->placement(0, 0))
            sub_dims.push_back(s.dimEnd - s.dimBegin);
    }
    fetchsim_ = std::make_unique<et::FetchSimulator>(
        vs, metric, schemeOf(cfg.design), profile, sub_dims);
    hostCpu_ = std::make_unique<cpu::HostCpu>(eq_, cfg.host, cfg.timing,
                                              cfg.org);

    if (isNdp(cfg.design)) {
        for (unsigned u = 0; u < cfg.ndpUnits; ++u) {
            units_.push_back(std::make_unique<ndp::NdpUnit>(
                eq_, cfg.ndpParams, cfg.timing, cfg.org, u));
        }
        loads_ = std::make_unique<layout::LoadTracker>(cfg.ndpUnits);
        if (cfg.replicateHot)
            part_->replicate(hot);
        std::vector<unsigned> sub_lines;
        for (const unsigned dims : sub_dims)
            sub_lines.push_back(fetchsim_->subPlan(dims).totalLines());
        part_->allocateBaseLines(sub_lines);

        // Adaptive polling prediction: with a fetch window of depth d,
        // the steady-state cost per line is roughly one DRAM round
        // trip divided by d, plus a pipeline-fill fixed cost.
        const unsigned rt =
            cfg.timing.tRCD + cfg.timing.tCL + cfg.timing.tBL;
        const TickDelta per_line = cfg.timing.cycles(
            std::max(cfg.timing.tBL,
                     rt / std::max(1u, cfg.ndpParams.fetchPipelineDepth)));
        const TickDelta fixed =
            cfg.timing.cycles(rt) + 4 * cfg.ndpParams.period();
        const et::EtScheme scheme = schemeOf(cfg.design);
        const bool uses_et = scheme != et::EtScheme::kNone &&
                             !(scheme == et::EtScheme::kDimOnly &&
                               metric != anns::Metric::kL2);
        if (uses_et && profile && !profile->fetchCountDist.empty()) {
            // Approximate every ET scheme's completion time with the
            // sampled ETOpt fetch distribution (Section 5.4).
            pollEst_ = std::make_unique<ndp::PollingEstimator>(
                profile->fetchCountDist, per_line, fixed);
        } else {
            // No early termination: every task fetches the full layout.
            std::vector<double> dist(fetchsim_->fullLines() + 1, 0.0);
            dist.back() = 1.0;
            pollEst_ = std::make_unique<ndp::PollingEstimator>(
                dist, per_line, fixed);
        }
    }
}

SystemModel::~SystemModel() = default;

void
SystemModel::precomputeFetch(const std::vector<QueryTrace> &traces)
{
    if (!cfg_.prefetchReplay || runtime::Runtime::global().lanes() == 1)
        return; // serial reference path simulates on the fly

    // The dimension ranges every comparison is simulated over: the
    // rank-group split for NDP designs (identical in every group, only
    // ranks rotate), or the full vector for CPU designs.
    std::vector<std::pair<unsigned, unsigned>> ranges;
    if (isNdp(cfg_.design) && part_) {
        for (const auto &s : part_->placement(0, 0))
            ranges.emplace_back(s.dimBegin, s.dimEnd);
    } else {
        ranges.emplace_back(0, vs_.dims());
    }

    prefetch_.assign(traces.size(), {});
    runtime::parallelFor(0, traces.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t q = lo; q < hi; ++q) {
            auto &out = prefetch_[q];
            const QueryTrace &tr = traces[q];
            out.reserve(tr.numComparisons() * ranges.size());
            for (const auto &s : tr.steps) {
                for (const auto &t : s.tasks) {
                    for (const auto &[b, e] : ranges) {
                        const et::FetchResult fr =
                            fetchsim_->simulateRange(tr.query.data(),
                                                     t.vec, t.threshold,
                                                     b, e);
                        out.push_back(PreFetch{fr.lines, fr.backupLines,
                                               fr.terminatedEarly});
                    }
                }
            }
        }
    });
}

void
SystemModel::beginSession(const std::vector<QueryTrace> &traces,
                          unsigned slots)
{
    ANSMET_CHECK(!ran_, "SystemModel session is single-use");
    ANSMET_CHECK(slots > 0, "session needs at least one slot");
    ran_ = true;
    // A figure binary replays many designs from tick 0 each; a fresh
    // pid per run keeps their timelines from overlapping in the trace.
    obs::TraceWriter::instance().beginRun(designName(cfg_.design));

    session_stats_ = RunStats{};
    run_stats_ = &session_stats_;
    traces_ = &traces;
    next_query_ = 0;
    precomputeFetch(traces);

    for (unsigned c = 0; c < slots; ++c)
        contexts_.push_back(std::make_unique<QueryContext>(*this, c));
}

void
SystemModel::submit(unsigned slot, std::size_t traceIdx, QueryDone done)
{
    ANSMET_CHECK(run_stats_ != nullptr, "no open session");
    ANSMET_CHECK(slot < contexts_.size(), "slot out of range");
    ANSMET_CHECK(traceIdx < traces_->size(), "trace index out of range");
    contexts_[slot]->begin(traceIdx, std::move(done));
}

RunStats
SystemModel::endSession()
{
    ANSMET_CHECK(run_stats_ != nullptr, "no open session");
    ANSMET_CHECK(eq_.pending() == 0,
                 "endSession with simulation events still pending");
    for (unsigned s = 0; s < contexts_.size(); ++s)
        ANSMET_CHECK(contexts_[s]->idle(),
                     "endSession with a query still in flight");

    RunStats rs = std::move(session_stats_);
    session_stats_ = RunStats{};
    rs.makespan = eq_.now() - Tick{};
    rs.loadImbalance = loads_ ? loads_->imbalanceRatio() : 1.0;
    rs.energy = collectEnergy(rs);
    run_stats_ = nullptr;
    traces_ = nullptr;
    return rs;
}

void
SystemModel::dispatchNext(unsigned slot)
{
    if (next_query_ >= traces_->size())
        return; // this slot is done
    submit(slot, next_query_++,
           [this, slot](const QueryStats &) { dispatchNext(slot); });
}

RunStats
SystemModel::run(const std::vector<QueryTrace> &traces)
{
    const unsigned ctxs = std::min<unsigned>(
        cfg_.concurrentQueries,
        static_cast<unsigned>(std::max<std::size_t>(1, traces.size())));
    beginSession(traces, ctxs);
    for (unsigned c = 0; c < ctxs; ++c)
        dispatchNext(c);

    eq_.run();
    return endSession();
}

dram::EnergyBreakdown
SystemModel::collectEnergy(const RunStats &rs) const
{
    dram::EnergyBreakdown total;
    const TickDelta elapsed = rs.makespan;

    // Host channel DRAM energy (index data; plus vector data for CPU
    // designs). I/O is charged for every channel transfer.
    for (unsigned c = 0; c < hostCpu_->numChannels(); ++c) {
        const auto &ctrl = hostCpu_->channel(c);
        for (unsigned r = 0; r < ctrl.numRanks(); ++r) {
            total += dram::rankEnergy(ctrl.rankDevice(r), cfg_.energy,
                                      elapsed,
                                      r == 0 ? ctrl.transfers() : 0);
        }
    }

    // NDP rank energy: no channel I/O for local fetches, plus the
    // compute units' active power.
    double ndp_compute_nj = 0.0;
    for (const auto &u : units_) {
        const auto &ctrl = u->rankController();
        total += dram::rankEnergy(ctrl.rankDevice(0), cfg_.energy, elapsed,
                                  0);
        ndp_compute_nj += cfg_.energy.ndpUnitActiveMw *
                          static_cast<double>(u->computeBusy().raw()) *
                          1e-6;
    }

    // Host cores: for CPU designs the core spins through the whole
    // query (compute + memory stall); for NDP designs it is busy only
    // during traversal, offload, and collection.
    double host_busy_ticks = 0.0;
    for (const auto &q : rs.queries) {
        host_busy_ticks += static_cast<double>(q.traversal.raw()) +
                           static_cast<double>(q.offload.raw()) +
                           static_cast<double>(q.collect.raw());
        if (!isNdp(cfg_.design))
            host_busy_ticks += static_cast<double>(q.distComp.raw());
    }
    // W * ps = 1e-12 J = 1e-3 nJ
    const double host_nj =
        cfg_.energy.cpuCoreActiveW * host_busy_ticks * 1e-3;

    total.backgroundNj += ndp_compute_nj + host_nj;
    return total;
}

} // namespace ansmet::core
