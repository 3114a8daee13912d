/**
 * @file
 * Host-time benchmark replayer. Re-enacts the fig06 batch replay and the
 * open-loop serving sweep through the libraries' public calls and times
 * each call from outside:
 *
 *   ExperimentContext ctor   -> setup (dataset, HNSW build, ET profile,
 *                               efSearch tuning, tracing)
 *   SystemModel ctor         -> core.model_setup (layout placement)
 *   beginSession             -> core.precompute (parallel fetch sim)
 *   submit + eventQueue.run  -> sim.replay
 *   endSession               -> core.energy
 *   serve::serve             -> serve.point
 *
 * The batch dispatcher below is SystemModel::run() restated: one
 * submit per slot at tick 0, then one re-submit from each QueryDone.
 * The output checks prove it replays what ctx.runDesign() replays.
 *
 * Prints one JSON object of raw measurements on stdout; perfbench/run.py
 * turns it into the benchmark's metrics. See perfbench/README.md.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/runtime/runtime.h"
#include "common/simd.h"
#include "core/experiment.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/loadgen.h"

namespace {

using namespace ansmet;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU seconds of every thread of this process. Unlike the wall clock,
 * it leaves out the time other tenants of a shared host hold the CPU.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

volatile std::uint64_t g_probeSink; //!< keeps the probe walk alive

/** A fixed dependent walk: loads feeding a multiply chain. */
std::uint64_t
probeWalk(const std::vector<std::uint32_t> &table, int steps)
{
    const auto mask = static_cast<std::uint32_t>(table.size() - 1);
    std::uint32_t x = 1;
    std::uint64_t acc = 0;
    for (int i = 0; i < steps; ++i) {
        x = table[(x ^ static_cast<std::uint32_t>(acc)) & mask];
        acc = acc * 6364136223846793005ull + x;
    }
    return acc;
}

/**
 * Host speed probe: CPU seconds of probeWalk over a 256 KiB table,
 * warmed first so that the previous design point's cache footprint
 * does not show. It is the benchmark's own code, so it runs the same
 * on every commit; its time changes only with how fast the host runs
 * this thread at the moment, which other tenants move by up to 2x in
 * CPU time as well as in wall time.
 */
double
calibrate()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(1u << 16);
        for (std::uint32_t i = 0; i < t.size(); ++i)
            t[i] = (i * 2654435761u) & (t.size() - 1);
        return t;
    }();
    g_probeSink = probeWalk(table, 1 << 16);
    const double c0 = cpuSeconds();
    g_probeSink = probeWalk(table, 1 << 18);
    return cpuSeconds() - c0;
}

/** Speed probes taken around the timed work of one setup or sweep. */
struct Calib
{
    std::vector<double> probes; //!< calibrate() results
    double cpu = 0.0;           //!< their sum
    double wall = 0.0;          //!< their wall, left out of every figure

    void
    sample()
    {
        const auto t0 = Clock::now();
        probes.push_back(calibrate());
        cpu += probes.back();
        wall += secondsSince(t0);
    }

    /** The median probe: a burst shorter than half the work is ignored. */
    double
    median() const
    {
        std::vector<double> v = probes;
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
    }
};

// ---------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t dataSeed = 1;
    std::uint64_t arrivalSeed = 1;
    unsigned sweeps = 1;
    bool trace = false;
    unsigned setupReps = 3;
    std::string cacheDir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_replay: %s\n"
                 "usage: perfbench_replay --workload fig06_quick|serve_sift"
                 " --data-seed N --arrival-seed N --sweeps N --trace 0|1"
                 " --setup-reps R --cache-dir DIR\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const char *s, const char *what)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || s[0] == '-')
        usage(what);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char *v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--data-seed")
            a.dataSeed = parseUint(v, "bad --data-seed");
        else if (k == "--arrival-seed")
            a.arrivalSeed = parseUint(v, "bad --arrival-seed");
        else if (k == "--sweeps")
            a.sweeps = static_cast<unsigned>(parseUint(v, "bad --sweeps"));
        else if (k == "--trace")
            a.trace = parseUint(v, "bad --trace") != 0;
        else if (k == "--setup-reps")
            a.setupReps = static_cast<unsigned>(
                parseUint(v, "bad --setup-reps"));
        else if (k == "--cache-dir")
            a.cacheDir = v;
        else
            usage("unknown argument");
    }
    if (a.workload != "fig06_quick" && a.workload != "serve_sift")
        usage("unknown workload");
    if (a.cacheDir.empty() || a.setupReps == 0 || a.sweeps == 0)
        usage("--cache-dir, --setup-reps >= 1 and --sweeps >= 1 needed");
    return a;
}

// ---------------------------------------------------------------------
// Minimal JSON writer (one object, written in order)
// ---------------------------------------------------------------------

class Json
{
  public:
    Json &
    key(const std::string &k)
    {
        comma();
        out_ += '"' + k + "\":";
        fresh_ = true;
        return *this;
    }
    Json &
    num(double v)
    {
        comma();
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        out_ += buf;
        return *this;
    }
    Json &
    num(std::uint64_t v)
    {
        comma();
        out_ += std::to_string(v);
        return *this;
    }
    Json &
    boolean(bool v)
    {
        comma();
        out_ += v ? "true" : "false";
        return *this;
    }
    Json &
    str(const std::string &s)
    {
        comma();
        out_ += '"';
        for (const char c : s) {
            if (c == '"' || c == '\\')
                out_ += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                out_ += c;
        }
        out_ += '"';
        return *this;
    }
    Json &
    open(char c)
    {
        comma();
        out_ += c;
        fresh_ = true;
        return *this;
    }
    Json &
    close(char c)
    {
        out_ += c;
        fresh_ = false;
        return *this;
    }
    const std::string &text() const { return out_; }

  private:
    void
    comma()
    {
        if (!fresh_ && !out_.empty())
            out_ += ',';
        fresh_ = false;
    }
    std::string out_;
    bool fresh_ = true;
};

// ---------------------------------------------------------------------
// Workload inputs. Fixed here, not borrowed from bench/, so that a
// change to the figure binaries' scale cannot silently move the
// benchmark.
// ---------------------------------------------------------------------

/** fig06 at ANSMET_SCALE=quick. */
core::ExperimentConfig
fig06Config(anns::DatasetId id, std::size_t k, std::uint64_t seed)
{
    core::ExperimentConfig cfg;
    cfg.dataset = id;
    cfg.k = k;
    cfg.seed = seed;
    cfg.numVectors = 2000;
    cfg.numQueries = 16;
    cfg.hnsw.efConstruction = 60;
    return cfg;
}

/** SIFT at the default bench scale (macro_serve's context). */
core::ExperimentConfig
serveConfig(std::uint64_t seed)
{
    core::ExperimentConfig cfg;
    cfg.dataset = anns::DatasetId::kSift;
    cfg.k = 10;
    cfg.seed = seed;
    cfg.numVectors = 6000;
    cfg.numQueries = 32;
    cfg.hnsw.efConstruction = 100;
    cfg.profile.maxPairs = 1500;
    return cfg;
}

constexpr double kLoadMultipliers[] = {0.5, 0.9, 1.5};
constexpr std::uint64_t kServeQueries = 2400; // p99 keeps 24 samples beyond
constexpr std::size_t kP99Point = 1;          // the 0.9x load point
// Speed probes around each setup and each ~1 s load point; a fig06
// point, 30-300 ms, takes one.
constexpr unsigned kProbes = 16;

// ---------------------------------------------------------------------
// Observability deltas
// ---------------------------------------------------------------------

const char *const kCounters[] = {
    "sim.events",          "dram.reads",           "dram.writes",
    "dram.row_activates",  "dram.row_conflicts",   "ndp.tasks_completed",
    "ndp.lines_fetched",   "ndp.backpressure_staged",
    "host.cache_hits",     "host.cache_misses",    "et.lines_fetched",
    "et.lines_skipped",
};

std::uint64_t
counterOf(const obs::Snapshot &s, const char *name)
{
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

using Counts = std::map<std::string, std::uint64_t>;

void
addDeltas(Counts &acc, const obs::Snapshot &before,
          const obs::Snapshot &after)
{
    for (const char *c : kCounters)
        acc[c] += counterOf(after, c) - counterOf(before, c);
}

/** Bucket-wise difference of one histogram between two snapshots. */
obs::HistogramData
histDelta(const obs::Snapshot &before, const obs::Snapshot &after,
          const char *name)
{
    obs::HistogramData d;
    const auto ia = after.histograms.find(name);
    if (ia == after.histograms.end())
        return d;
    d = ia->second;
    const auto ib = before.histograms.find(name);
    if (ib != before.histograms.end()) {
        for (std::size_t i = 0; i < d.buckets.size() &&
                                i < ib->second.buckets.size();
             ++i)
            d.buckets[i] -= ib->second.buckets[i];
        d.count -= ib->second.count;
        d.sum -= ib->second.sum;
    }
    return d;
}

void
mergeHist(obs::HistogramData &acc, const obs::HistogramData &d)
{
    if (acc.buckets.size() < d.buckets.size())
        acc.buckets.resize(d.buckets.size(), 0);
    for (std::size_t i = 0; i < d.buckets.size(); ++i)
        acc.buckets[i] += d.buckets[i];
    acc.count += d.count;
    acc.sum += d.sum;
}

// ---------------------------------------------------------------------
// Run-stat identity
// ---------------------------------------------------------------------

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/** Every field of a RunStats, in order, as raw 64-bit words. */
std::vector<std::uint64_t>
flatten(const core::RunStats &rs)
{
    std::vector<std::uint64_t> w;
    w.reserve(rs.queries.size() * 13 + 8);
    for (const auto &q : rs.queries) {
        w.insert(w.end(),
                 {q.start.raw(), q.end.raw(), q.traversal.raw(),
                  q.offload.raw(), q.distComp.raw(), q.collect.raw(),
                  q.comparisons, q.accepted, q.terminated, q.linesEffectual,
                  q.linesIneffectual, q.backupLines, q.polls});
    }
    w.insert(w.end(), {rs.makespan.raw(), bitsOf(rs.energy.actPreNj),
                       bitsOf(rs.energy.rdWrCoreNj), bitsOf(rs.energy.ioNj),
                       bitsOf(rs.energy.refreshNj),
                       bitsOf(rs.energy.backgroundNj),
                       bitsOf(rs.loadImbalance)});
    return w;
}

/** FNV-1a over words; chains through @p h. */
std::uint64_t
fnv(const std::vector<std::uint64_t> &words,
    std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (std::uint64_t v : words) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

std::string
hex(std::uint64_t h)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------------------
// Checks (each one an attempted op; a false one a failed op)
// ---------------------------------------------------------------------

struct Check
{
    std::string name;
    bool ok;
    std::string detail;
};

struct Checks
{
    std::vector<Check> list;
    std::uint64_t ops = 0; //!< replayed points and checks

    void
    add(std::string name, bool ok, std::string detail = "")
    {
        ++ops;
        list.push_back({std::move(name), ok, std::move(detail)});
    }

    /** One replayed point: listed only when it fails its check. */
    void
    op(bool ok, const char *check, std::string detail)
    {
        ++ops;
        if (!ok)
            list.push_back({check, false, std::move(detail)});
    }
};

// ---------------------------------------------------------------------
// Setup: every ExperimentContext, from an empty run-private cache
// ---------------------------------------------------------------------

struct Setup
{
    std::vector<std::unique_ptr<core::ExperimentContext>> ctxs;
    double seconds = 0.0;       //!< all ctors, wall
    double cpuSeconds = 0.0;    //!< all ctors, process CPU
    Calib calib;                //!< probes before, between and after
    double buildSeconds = 0.0;  //!< sum graphBuildSeconds()
    double profileSeconds = 0.0; //!< sum etPreprocSeconds()
    std::uint64_t hnswDistanceComps = 0;
};

Setup
setUp(const std::vector<core::ExperimentConfig> &cfgs,
      const std::filesystem::path &cache)
{
    // A fresh, empty graph cache for every repetition: the HNSW build
    // is always measured, never loaded from an earlier repetition.
    std::filesystem::remove_all(cache);
    std::filesystem::create_directories(cache);
    ::setenv("ANSMET_CACHE", cache.c_str(), 1);

    Setup s;
    const obs::Snapshot before = obs::Registry::instance().snapshot();
    for (unsigned i = 0; i < kProbes; ++i)
        s.calib.sample();
    for (const auto &cfg : cfgs) {
        s.calib.sample();
        const double c0 = cpuSeconds();
        const auto t0 = Clock::now();
        s.ctxs.push_back(std::make_unique<core::ExperimentContext>(cfg));
        s.seconds += secondsSince(t0);
        s.cpuSeconds += cpuSeconds() - c0;
    }
    for (unsigned i = 0; i < kProbes; ++i)
        s.calib.sample();
    const obs::Snapshot after = obs::Registry::instance().snapshot();
    for (const auto &c : s.ctxs) {
        s.buildSeconds += c->graphBuildSeconds();
        s.profileSeconds += c->etPreprocSeconds();
    }
    s.hnswDistanceComps = counterOf(after, "hnsw.distance_comps") -
                          counterOf(before, "hnsw.distance_comps");
    std::filesystem::remove_all(cache);
    return s;
}

// ---------------------------------------------------------------------
// One design point, re-enacting SystemModel::run()
// ---------------------------------------------------------------------

struct PointTimes
{
    double modelSetup = 0.0;
    double precompute = 0.0;
    double replay = 0.0;
    double energy = 0.0;
    double teardown = 0.0;

    double
    total() const
    {
        return modelSetup + precompute + replay + energy + teardown;
    }
};

/** Standalone single-thread fetch-simulation pass of one design point. */
struct FetchPass
{
    double seconds = 0.0;
    std::uint64_t calls = 0;
};

/**
 * Every simulateRange call the replay makes for @p traces, in the
 * order precomputeFetch() makes them, on this thread.
 */
FetchPass
fetchPass(const core::SystemModel &model,
          const std::vector<core::QueryTrace> &traces, unsigned dims)
{
    std::vector<std::pair<unsigned, unsigned>> ranges;
    if (isNdp(model.config().design) && model.partitioner()) {
        for (const auto &s : model.partitioner()->placement(0, 0))
            ranges.emplace_back(s.dimBegin, s.dimEnd);
    } else {
        ranges.emplace_back(0, dims);
    }
    const et::FetchSimulator &fs = model.fetchSimulator();
    FetchPass p;
    const auto t0 = Clock::now();
    for (const auto &tr : traces) {
        for (const auto &st : tr.steps) {
            for (const auto &t : st.tasks) {
                for (const auto &[b, e] : ranges) {
                    (void)fs.simulateRange(tr.query.data(), t.vec,
                                           t.threshold, b, e);
                    ++p.calls;
                }
            }
        }
    }
    p.seconds = secondsSince(t0);
    return p;
}

struct PointResult
{
    core::RunStats stats;
    PointTimes times;
    // Traced sweeps only: counters right after endSession, then the
    // standalone fetch pass, and the host time both took.
    obs::Snapshot afterReplay;
    FetchPass pass;
    double untimed = 0.0;
};

PointResult
replayPoint(const core::ExperimentContext &ctx, const core::SystemConfig &sc,
            bool with_pass)
{
    PointResult r;
    const auto &traces = ctx.traces();
    const auto &ds = ctx.dataset();

    auto t = Clock::now();
    auto owned = std::make_unique<core::SystemModel>(
        sc, *ds.base, ds.metric(), &ctx.profile(), ctx.hotVectors());
    core::SystemModel &model = *owned;
    r.times.modelSetup = secondsSince(t);

    const unsigned slots = std::min<unsigned>(
        sc.concurrentQueries,
        static_cast<unsigned>(std::max<std::size_t>(1, traces.size())));
    t = Clock::now();
    model.beginSession(traces, slots);
    r.times.precompute = secondsSince(t);

    std::size_t next = 0;
    std::function<void(unsigned)> dispatch = [&](unsigned slot) {
        if (next >= traces.size())
            return;
        model.submit(slot, next++,
                     [&dispatch, slot](const core::QueryStats &) {
                         dispatch(slot);
                     });
    };
    t = Clock::now();
    for (unsigned c = 0; c < slots; ++c)
        dispatch(c);
    model.eventQueue().run();
    r.times.replay = secondsSince(t);

    t = Clock::now();
    r.stats = model.endSession();
    r.times.energy = secondsSince(t);

    if (with_pass) {
        t = Clock::now();
        r.afterReplay = obs::Registry::instance().snapshot();
        r.pass = fetchPass(model, traces, ds.dims());
        r.untimed = secondsSince(t);
    }

    t = Clock::now();
    owned.reset();
    r.times.teardown = secondsSince(t);
    return r;
}

// ---------------------------------------------------------------------
// Traced-sweep accumulators
// ---------------------------------------------------------------------

struct Layers
{
    double modelSetup = 0, precompute = 0, replayCpu = 0, replayNdp = 0,
           energy = 0, teardown = 0, fetchPass = 0;
    std::uint64_t fetchCalls = 0;
    std::uint64_t eventsCpu = 0, eventsNdp = 0;
    Counts replay; //!< counter deltas of the timed calls
    Counts pass;   //!< counter deltas of the standalone fetch passes
    obs::HistogramData queueLatency;
};

void
writeCounts(Json &j, const Counts &c)
{
    j.open('{');
    for (const auto &[k, v] : c)
        j.key(k).num(v);
    j.close('}');
}

void
writeLayers(Json &j, const Layers &l)
{
    j.open('{');
    j.key("model_setup_s").num(l.modelSetup);
    j.key("precompute_s").num(l.precompute);
    j.key("replay_cpu_s").num(l.replayCpu);
    j.key("replay_ndp_s").num(l.replayNdp);
    j.key("energy_s").num(l.energy);
    j.key("teardown_s").num(l.teardown);
    j.key("fetch_pass_s").num(l.fetchPass);
    j.key("fetch_pass_calls").num(l.fetchCalls);
    j.key("events_cpu").num(l.eventsCpu);
    j.key("events_ndp").num(l.eventsNdp);
    j.key("replay_counts");
    writeCounts(j, l.replay);
    j.key("pass_counts");
    writeCounts(j, l.pass);
    j.key("queue_latency_ps_p99").num(l.queueLatency.quantile(0.99));
    j.key("queue_latency_ps_n").num(l.queueLatency.count);
    j.close('}');
}

// ---------------------------------------------------------------------
// fig06 workloads
// ---------------------------------------------------------------------

struct Fig06Point
{
    std::size_t ctx;
    core::Design design;
};

/** fig06's loop order: k, then dataset, then design. */
std::vector<Fig06Point>
fig06Points(std::size_t contexts)
{
    std::vector<Fig06Point> pts;
    const auto designs = core::allDesigns();
    for (std::size_t c = 0; c < contexts; ++c)
        for (const auto d : designs)
            pts.push_back({c, d});
    return pts;
}

std::vector<core::ExperimentConfig>
fig06Configs(std::uint64_t seed)
{
    std::vector<core::ExperimentConfig> cfgs;
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{10}})
        for (const auto id : anns::allDatasets())
            cfgs.push_back(fig06Config(id, k, seed));
    return cfgs;
}

struct Sweep
{
    double wall = 0.0;     //!< loop wall minus the traced-only extras
    double loopWall = 0.0; //!< the whole loop, one clock read
    double cpu = 0.0;      //!< process CPU seconds of the whole loop
    Calib calib;           //!< one probe before each point, one after
    std::uint64_t digest = 0;
    std::vector<double> pointSeconds;
    Layers layers;
};

Sweep
fig06Sweep(const Setup &su, bool traced, Checks &checks,
           std::vector<core::RunStats> *keep)
{
    auto &reg = obs::Registry::instance();
    const auto pts = fig06Points(su.ctxs.size());
    Sweep sw;
    sw.digest = 0xcbf29ce484222325ull;
    obs::Snapshot before;
    const double c0 = cpuSeconds();
    const auto t0 = Clock::now();
    double untimed = 0.0; // traced only: snapshots and standalone passes
    for (const auto &p : pts) {
        const auto &ctx = *su.ctxs[p.ctx];
        sw.calib.sample();
        if (traced) {
            const auto ts = Clock::now();
            before = reg.snapshot();
            untimed += secondsSince(ts);
        }
        PointResult r = replayPoint(ctx, ctx.systemConfig(p.design), traced);
        const auto tu = Clock::now();
        sw.pointSeconds.push_back(r.times.total());
        const auto flat = flatten(r.stats);
        sw.digest = fnv(flat, sw.digest);
        if (traced) {
            // The pass bumps et.* counters too; the snapshot between
            // replay and pass gives each delta to exactly one of them.
            Layers &l = sw.layers;
            const obs::Snapshot &mid = r.afterReplay;
            untimed += r.untimed;
            l.modelSetup += r.times.modelSetup;
            l.precompute += r.times.precompute;
            l.energy += r.times.energy;
            l.teardown += r.times.teardown;
            const std::uint64_t ev = counterOf(mid, "sim.events") -
                                     counterOf(before, "sim.events");
            if (isNdp(p.design)) {
                l.replayNdp += r.times.replay;
                l.eventsNdp += ev;
            } else {
                l.replayCpu += r.times.replay;
                l.eventsCpu += ev;
            }
            l.fetchPass += r.pass.seconds;
            l.fetchCalls += r.pass.calls;
            addDeltas(l.replay, before, mid);
            mergeHist(l.queueLatency,
                      histDelta(before, mid, "dram.queue_latency_ps"));
            addDeltas(l.pass, mid, reg.snapshot());
        }
        checks.op(r.stats.queries.size() == ctx.traces().size() &&
                      r.stats.makespan.raw() > 0,
                  "point_complete",
                  std::string(core::designName(p.design)) + " ctx " +
                      std::to_string(p.ctx));
        if (keep)
            keep->push_back(std::move(r.stats));
        if (traced)
            untimed += secondsSince(tu);
    }
    sw.calib.sample();
    sw.loopWall = secondsSince(t0) - sw.calib.wall;
    sw.cpu = cpuSeconds() - c0 - sw.calib.cpu;
    sw.wall = sw.loopWall - untimed;
    return sw;
}

// ---------------------------------------------------------------------
// serve_sift workload
// ---------------------------------------------------------------------

struct LoadPoint
{
    double mult = 0.0;
    double serveSeconds = 0.0;
    double modelSeconds = 0.0;
    double teardownSeconds = 0.0;
    std::uint64_t events = 0; // traced only
    serve::ServeReport report;
};

serve::ServeConfig
serveLoad(double capacity, double mult, std::uint64_t seed)
{
    serve::ServeConfig cfg;
    cfg.load.offeredQps = capacity * mult;
    cfg.load.numQueries = kServeQueries;
    cfg.load.process = serve::ArrivalProcess::kPoisson;
    cfg.load.zipfAlpha = 1.2;
    cfg.load.seed = seed;
    cfg.queueCapacity = 64;
    return cfg;
}

struct ServeSweep
{
    double wall = 0.0;     //!< as in Sweep
    double loopWall = 0.0;
    double cpu = 0.0;
    Calib calib;
    std::uint64_t digest = 0;
    std::vector<LoadPoint> points;
    Layers layers;
    double loadgenSeconds = 0.0;
};

ServeSweep
serveSweep(const core::ExperimentContext &ctx, double capacity,
           std::uint64_t seed, bool traced, Checks &checks)
{
    auto &reg = obs::Registry::instance();
    const auto sc = ctx.systemConfig(core::Design::kNdpEtOpt);
    const auto &ds = ctx.dataset();
    ServeSweep sw;
    sw.digest = 0xcbf29ce484222325ull;
    double untimed = 0.0;
    const double c0 = cpuSeconds();
    const auto t0 = Clock::now();
    for (const double m : kLoadMultipliers) {
        LoadPoint lp;
        lp.mult = m;
        const auto cfg = serveLoad(capacity, m, seed);
        for (unsigned i = 0; i < kProbes; ++i)
            sw.calib.sample();
        obs::Snapshot before;
        if (traced) {
            const auto ts = Clock::now();
            before = reg.snapshot();
            untimed += secondsSince(ts);
        }
        auto t = Clock::now();
        auto model = std::make_unique<core::SystemModel>(
            sc, *ds.base, ds.metric(), &ctx.profile(), ctx.hotVectors());
        lp.modelSeconds = secondsSince(t);
        t = Clock::now();
        lp.report = serve::serve(*model, ctx.traces(), cfg);
        lp.serveSeconds = secondsSince(t);
        t = Clock::now();
        model.reset();
        lp.teardownSeconds = secondsSince(t);
        const auto tu = Clock::now();
        const auto &r = lp.report;
        checks.op(r.completed + r.dropped == r.offered,
                  "serve_completed_plus_dropped_is_offered",
                  std::to_string(r.completed) + "+" +
                      std::to_string(r.dropped) + " vs " +
                      std::to_string(r.offered));
        checks.op(r.maxOccupiedQshrs <= sc.ndpParams.numQshrs,
                  "serve_qshrs_within_budget",
                  std::to_string(r.maxOccupiedQshrs));
        std::vector<std::uint64_t> words = flatten(lp.report.run);
        words.insert(words.end(),
                     {lp.report.offered, lp.report.admitted,
                      lp.report.dropped, lp.report.completed});
        for (const auto &q : lp.report.queries)
            words.insert(words.end(), {q.queryId, q.queueWait.raw()});
        sw.digest = fnv(words, sw.digest);
        if (traced) {
            const obs::Snapshot after = reg.snapshot();
            lp.events = counterOf(after, "sim.events") -
                        counterOf(before, "sim.events");
            addDeltas(sw.layers.replay, before, after);
            mergeHist(sw.layers.queueLatency,
                      histDelta(before, after, "dram.queue_latency_ps"));
            sw.layers.modelSetup += lp.modelSeconds;
            sw.layers.teardown += lp.teardownSeconds;
            sw.layers.eventsNdp += lp.events;
        }
        sw.points.push_back(std::move(lp));
        if (traced)
            untimed += secondsSince(tu);
    }
    for (unsigned i = 0; i < kProbes; ++i)
        sw.calib.sample();
    sw.loopWall = secondsSince(t0) - sw.calib.wall;
    sw.cpu = cpuSeconds() - c0 - sw.calib.cpu;
    sw.wall = sw.loopWall - untimed;

    if (traced) {
        // serve::serve is one boundary. The session calls inside it are
        // timed on one extra, query-less session of the same design,
        // and generateArrivals on the same three schedules.
        core::SystemModel model(sc, *ds.base, ds.metric(), &ctx.profile(),
                                ctx.hotVectors());
        auto t = Clock::now();
        model.beginSession(ctx.traces(), sc.concurrentQueries);
        sw.layers.precompute = secondsSince(t);
        t = Clock::now();
        (void)model.endSession();
        sw.layers.energy = secondsSince(t);
        const obs::Snapshot mid = reg.snapshot();
        const FetchPass p = fetchPass(model, ctx.traces(), ds.dims());
        addDeltas(sw.layers.pass, mid, reg.snapshot());
        sw.layers.fetchPass = p.seconds;
        sw.layers.fetchCalls = p.calls;
        t = Clock::now();
        for (const double m : kLoadMultipliers) {
            auto load = serveLoad(capacity, m, seed).load;
            load.numTraces = ctx.traces().size();
            (void)serve::generateArrivals(load);
        }
        sw.loadgenSeconds = secondsSince(t);
    }
    return sw;
}

// ---------------------------------------------------------------------
// Sampled identity check
// ---------------------------------------------------------------------

/**
 * @p got (the benchmark's replay) must equal ctx.runDesign() and the
 * on-the-fly (prefetchReplay=false) reference bitwise.
 */
void
checkIdentity(Checks &checks, const core::ExperimentContext &ctx,
              core::Design d, const core::RunStats &got,
              const std::string &label)
{
    const auto want = flatten(got);
    checks.add("identity_runDesign " + label,
               flatten(ctx.runDesign(d)) == want);
    auto sc = ctx.systemConfig(d);
    sc.prefetchReplay = false;
    checks.add("identity_onthefly " + label,
               flatten(ctx.runDesign(sc)) == want);
}

void
checkRecall(Checks &checks, const Setup &su)
{
    for (const auto &c : su.ctxs) {
        checks.add("recall " + anns::datasetSpec(c->config().dataset).name +
                       " k=" + std::to_string(c->config().k),
                   c->recall() >= 0.80,
                   "recall " + std::to_string(c->recall()));
    }
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s = brand;
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

long
peakRssKb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const bool fig06 = args.workload == "fig06_quick";
    const std::filesystem::path cache_root = args.cacheDir;

    Checks checks;
    Json j;
    j.open('{');
    j.key("workload").str(args.workload);
    j.key("lanes").num(std::uint64_t{runtime::Runtime::global().lanes()});
    j.key("simd").str(simdLevelName(bestSimdLevel()));
    j.key("cpu_model").str(cpuModel());
    j.key("build_type").str(PERFBENCH_BUILD_TYPE);
#ifdef ANSMET_OBS_DISABLED
    j.key("ansmet_obs").boolean(false);
#else
    j.key("ansmet_obs").boolean(true);
#endif
    j.key("data_seed").num(args.dataSeed);
    j.key("arrival_seed").num(args.arrivalSeed);

    // ---- setup, repeated; the last repetition's contexts are used ----
    const auto cfgs = fig06 ? fig06Configs(args.dataSeed)
                            : std::vector{serveConfig(args.dataSeed)};
    Setup su;
    j.key("setup").open('[');
    for (unsigned r = 0; r < args.setupReps; ++r) {
        su = Setup{}; // free the previous repetition first
        su = setUp(cfgs, cache_root / ("setup" + std::to_string(r)));
        j.open('{');
        j.key("seconds").num(su.seconds);
        j.key("cpu_s").num(su.cpuSeconds);
        j.key("probe_s").num(su.calib.median());
        j.key("hnsw_build_s").num(su.buildSeconds);
        j.key("profile_s").num(su.profileSeconds);
        j.key("hnsw_distance_comps").num(su.hnswDistanceComps);
        j.close('}');
    }
    j.close(']');
    j.key("contexts").open('[');
    for (const auto &c : su.ctxs) {
        std::uint64_t comparisons = 0;
        for (const auto &t : c->traces())
            comparisons += t.numComparisons();
        j.open('{');
        j.key("dataset").str(anns::datasetSpec(c->config().dataset).name);
        j.key("k").num(std::uint64_t{c->config().k});
        j.key("ef").num(std::uint64_t{c->efSearch()});
        j.key("recall").num(c->recall());
        j.key("comparisons").num(comparisons);
        j.close('}');
    }
    j.close(']');

    // ---- timed phase: a fixed number of whole sweeps ----
    std::vector<double> walls, cpus, probes;
    std::vector<std::string> digests;
    if (fig06) {
        std::vector<core::RunStats> first;
        for (unsigned s = 0; s < args.sweeps; ++s) {
            Sweep sw = fig06Sweep(su, false, checks, s == 0 ? &first : nullptr);
            walls.push_back(sw.wall);
            cpus.push_back(sw.cpu);
            probes.push_back(sw.calib.median());
            digests.push_back(hex(sw.digest));
        }

        // Simulated NDP-ETOpt / CPU-Base speedup at k = 10 (the last
        // seven contexts), geomean over the seven datasets.
        const auto pts = fig06Points(su.ctxs.size());
        const std::size_t k10 = su.ctxs.size() - anns::allDatasets().size();
        double log_sum = 0.0;
        unsigned n = 0;
        std::map<std::size_t, double> base_qps;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            if (pts[i].ctx < k10)
                continue;
            if (pts[i].design == core::Design::kCpuBase)
                base_qps[pts[i].ctx] = first[i].qps();
            if (pts[i].design == core::Design::kNdpEtOpt) {
                log_sum += std::log(first[i].qps() / base_qps[pts[i].ctx]);
                ++n;
            }
        }
        j.key("sim_etopt_speedup").num(std::exp(log_sum / n));

        if (args.trace) {
            Sweep tr = fig06Sweep(su, true, checks, nullptr);
            digests.push_back(hex(tr.digest));
            j.key("traced").open('{');
            j.key("wall_s").num(tr.wall);
            j.key("loop_wall_s").num(tr.loopWall);
            j.key("point_s").open('[');
            for (double v : tr.pointSeconds)
                j.num(v);
            j.close(']');
            j.key("layers");
            writeLayers(j, tr.layers);
            j.close('}');
        }

        // ---- output checks, outside the timing ----
        const auto designs = core::allDesigns();
        for (std::size_t d = 0; d < designs.size(); ++d) {
            // k = 10, a different dataset for each design
            const std::size_t c = k10 + d % (su.ctxs.size() - k10);
            const std::size_t i = c * designs.size() + d;
            checkIdentity(checks, *su.ctxs[c], designs[d], first[i],
                          std::string(core::designName(designs[d])) + "/" +
                              anns::datasetSpec(
                                  su.ctxs[c]->config().dataset)
                                  .name);
        }
    } else {
        const auto &ctx = *su.ctxs[0];
        // Simulated batch capacity: the benchmark's closed-loop replay of
        // NDP-ETOpt (checked below against runDesign()).
        const PointResult cap = replayPoint(
            ctx, ctx.systemConfig(core::Design::kNdpEtOpt), false);
        const PointResult base = replayPoint(
            ctx, ctx.systemConfig(core::Design::kCpuBase), false);
        const double capacity = cap.stats.qps();
        j.key("capacity_qps").num(capacity);
        j.key("sim_etopt_speedup").num(capacity / base.stats.qps());

        std::vector<LoadPoint> first;
        for (unsigned s = 0; s < args.sweeps; ++s) {
            ServeSweep sw = serveSweep(ctx, capacity, args.arrivalSeed,
                                       false, checks);
            walls.push_back(sw.wall);
            cpus.push_back(sw.cpu);
            probes.push_back(sw.calib.median());
            digests.push_back(hex(sw.digest));
            if (s == 0)
                first = std::move(sw.points);
        }

        j.key("load_points").open('[');
        for (const auto &lp : first) {
            const auto &r = lp.report;
            j.open('{');
            j.key("mult").num(lp.mult);
            j.key("offered").num(r.offered);
            j.key("admitted").num(r.admitted);
            j.key("dropped").num(r.dropped);
            j.key("completed").num(r.completed);
            j.key("max_occupied_qshrs").num(std::uint64_t{r.maxOccupiedQshrs});
            j.key("achieved_qps").num(r.achievedQps());
            j.close('}');
        }
        j.close(']');
        j.key("total_latency_ps").open('[');
        for (std::uint64_t v :
             first[kP99Point].report.latency.samples(serve::Phase::kTotal))
            j.num(v);
        j.close(']');

        if (args.trace) {
            ServeSweep tr = serveSweep(ctx, capacity, args.arrivalSeed, true,
                                       checks);
            digests.push_back(hex(tr.digest));
            j.key("traced").open('{');
            j.key("wall_s").num(tr.wall);
            j.key("loop_wall_s").num(tr.loopWall);
            j.key("loadgen_s").num(tr.loadgenSeconds);
            j.key("points").open('[');
            for (const auto &lp : tr.points) {
                j.open('{');
                j.key("mult").num(lp.mult);
                j.key("serve_s").num(lp.serveSeconds);
                j.key("events").num(lp.events);
                j.key("admitted").num(lp.report.admitted);
                j.key("dropped").num(lp.report.dropped);
                j.close('}');
            }
            j.close(']');
            j.key("layers");
            writeLayers(j, tr.layers);
            j.close('}');
        }

        checkIdentity(checks, ctx, core::Design::kNdpEtOpt, cap.stats,
                      "NDP-ETOpt/SIFT");
        checkIdentity(checks, ctx, core::Design::kCpuBase, base.stats,
                      "CPU-Base/SIFT");
    }
    checkRecall(checks, su);
    checks.add("sweeps_identical",
               std::all_of(digests.begin(), digests.end(),
                           [&](const std::string &d) {
                               return d == digests.front();
                           }),
               std::to_string(digests.size()) + " sweeps");

    j.key("sweep_wall_s").open('[');
    for (double w : walls)
        j.num(w);
    j.close(']');
    j.key("sweep_cpu_s").open('[');
    for (double c : cpus)
        j.num(c);
    j.close(']');
    j.key("sweep_probe_s").open('[');
    for (double p : probes)
        j.num(p);
    j.close(']');
    j.key("digest").str(digests.front());
    j.key("ops").num(checks.ops);
    j.key("checks").open('[');
    for (const auto &c : checks.list) {
        j.open('{');
        j.key("name").str(c.name);
        j.key("ok").boolean(c.ok);
        j.key("detail").str(c.detail);
        j.close('}');
    }
    j.close(']');
    j.key("peak_rss_kb").num(static_cast<std::uint64_t>(peakRssKb()));
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}
