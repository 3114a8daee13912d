/**
 * @file
 * Open-loop serving sweep: offered load vs achieved QPS and per-phase
 * tail latency (p50/p99/p999/max) for the NDP-ETOpt design.
 *
 * Unlike the figure binaries (closed-loop batch replay, makespan-
 * centric), this measures the repo as a serving system: Poisson or
 * bursty arrivals with Zipf-skewed popularity feed the bounded
 * admission queue, and the table reports where the tail goes as the
 * offered load crosses saturation.
 *
 * Every reported number is a simulated quantity — a pure function of
 * (dataset seed, ANSMET_SEED, scale) — so CI can gate on an absolute
 * tail bound with a margin instead of a noisy wall-clock measurement:
 *
 *     ./bench/macro_serve --out BENCH_serve.json
 *     tools/bench_diff.py --tail BENCH_serve.json \
 *         --gate 'total.max<=60us'
 *
 * A quantile too few samples support (serve::kMinBeyondRank) is
 * written as null in the JSON and printed as "n/a (n=...)": a p99
 * needs 1000 samples per load point, more than any scale runs.
 *
 * ANSMET_SEED selects the arrival schedule (default 1);
 * ANSMET_SERVE_PROCESS=bursty switches the arrival process.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/system.h"
#include "serve/engine.h"

namespace {

using namespace ansmet;

std::uint64_t
envSeed()
{
    const char *s = std::getenv("ANSMET_SEED");
    return s ? std::strtoull(s, nullptr, 10) : 1;
}

serve::ArrivalProcess
envProcess()
{
    const char *s = std::getenv("ANSMET_SERVE_PROCESS");
    return s && std::strcmp(s, "bursty") == 0
               ? serve::ArrivalProcess::kBursty
               : serve::ArrivalProcess::kPoisson;
}

struct SweepPoint
{
    double offeredQps;
    serve::ServeReport report;
};

/** JSON value of @p q: its picoseconds, or null when unavailable. */
std::string
quantileJson(const serve::Quantile &q)
{
    return q.ps ? std::to_string(*q.ps) : "null";
}

/** Table cell of @p q in microseconds, or "n/a (n=...)". */
std::string
quantileCell(const serve::Quantile &q)
{
    char buf[48];
    if (q.ps)
        std::snprintf(buf, sizeof buf, "%.1f",
                      static_cast<double>(*q.ps) * 1e-6);
    else
        std::snprintf(buf, sizeof buf, "n/a (n=%zu)", q.n);
    return buf;
}

void
appendPhaseJson(std::string &out, const serve::LatencyRecorder &lat,
                serve::Phase ph)
{
    const serve::PhaseSummary s = lat.summary(ph);
    out += "\"";
    out += serve::phaseName(ph);
    out += "\": {\"count\": " + std::to_string(s.count);
    out += ", \"p50_ps\": " + quantileJson(s.p50);
    out += ", \"p99_ps\": " + quantileJson(s.p99);
    out += ", \"p999_ps\": " + quantileJson(s.p999);
    out += ", \"max_ps\": " + std::to_string(s.max);
    char mean[32];
    std::snprintf(mean, sizeof mean, "%.1f", s.mean);
    out += ", \"mean_ps\": ";
    out += mean;
    out += "}";
}

std::string
sweepJson(const std::vector<SweepPoint> &sweep, std::uint64_t seed,
          serve::ArrivalProcess process)
{
    std::string out = "{\n  \"schema\": \"ansmet-serve-v1\",\n";
    out += "  \"design\": \"NDP-ETOpt\",\n  \"dataset\": \"sift\",\n";
    out += "  \"seed\": " + std::to_string(seed) + ",\n";
    out += std::string("  \"process\": \"") +
           serve::arrivalProcessName(process) + "\",\n";
    out += "  \"sweep\": [";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto &p = sweep[i];
        const auto &r = p.report;
        out += i ? ",\n    {" : "\n    {";
        char qps[64];
        std::snprintf(qps, sizeof qps,
                      "\"offered_qps\": %.1f, \"achieved_qps\": %.1f",
                      p.offeredQps, r.achievedQps());
        out += qps;
        out += ", \"offered\": " + std::to_string(r.offered);
        out += ", \"completed\": " + std::to_string(r.completed);
        out += ", \"dropped\": " + std::to_string(r.dropped);
        out += ", \"max_occupied_qshrs\": " +
               std::to_string(r.maxOccupiedQshrs);
        out += ", \"phases\": {";
        for (unsigned ph = 0; ph < serve::kNumPhases; ++ph) {
            if (ph)
                out += ", ";
            appendPhaseJson(out, r.latency,
                            static_cast<serve::Phase>(ph));
        }
        out += "}}";
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--out BENCH_serve.json]\n",
                         argv[0]);
            return 2;
        }
    }

    bench::banner("online serving: offered-load sweep, tail latency",
                  "serving extension (DRIM-ANN-style SLO evaluation; "
                  "not a paper figure)");

    const core::ExperimentContext &ctx =
        bench::context(anns::DatasetId::kSift);
    const std::uint64_t seed = envSeed();
    const serve::ArrivalProcess process = envProcess();

    // Offered loads as multiples of the closed-loop batch throughput,
    // so the sweep brackets saturation at every ANSMET_SCALE: below
    // the knee, near it, and past it (queue pressure + drops).
    const core::RunStats batch =
        ctx.runDesign(core::Design::kNdpEtOpt);
    const double capacity = batch.qps();
    const double multipliers[] = {0.25, 0.5, 1.0, 2.0};
    const std::uint64_t num_queries =
        bench::scale() == bench::Scale::kQuick ? 96
        : bench::scale() == bench::Scale::kLarge ? 512
                                                 : 192;

    std::vector<SweepPoint> sweep;
    for (const double m : multipliers) {
        serve::ServeConfig cfg;
        cfg.load.offeredQps = capacity * m;
        cfg.load.numQueries = num_queries;
        cfg.load.process = process;
        cfg.load.zipfAlpha = 1.2;
        cfg.load.seed = seed;
        cfg.queueCapacity = 64;

        core::SystemModel model(
            ctx.systemConfig(core::Design::kNdpEtOpt),
            *ctx.dataset().base, ctx.dataset().metric(), &ctx.profile(),
            ctx.hotVectors());
        sweep.push_back({cfg.load.offeredQps,
                         serve::serve(model, ctx.traces(), cfg)});
    }

    std::printf("arrivals: %s, zipf alpha 1.2, seed %llu, %llu queries "
                "per point\nbatch capacity reference: %.0f qps\n\n",
                serve::arrivalProcessName(process),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(num_queries), capacity);

    TextTable table({"offered qps", "achieved qps", "done", "drop",
                     "queue max (us)", "total p50 (us)", "total p99 (us)",
                     "total max (us)"});
    for (const auto &p : sweep) {
        const auto total = p.report.latency.summary(serve::Phase::kTotal);
        const auto qw =
            p.report.latency.summary(serve::Phase::kQueueWait);
        table.row()
            .cell(p.offeredQps, 0)
            .cell(p.report.achievedQps(), 0)
            .cell(p.report.completed)
            .cell(p.report.dropped)
            .cell(static_cast<double>(qw.max) * 1e-6, 1)
            .cell(quantileCell(total.p50))
            .cell(quantileCell(total.p99))
            .cell(static_cast<double>(total.max) * 1e-6, 1);
    }
    table.print();

    std::printf("\nper-phase tails at the highest load (us):\n");
    TextTable phases({"phase", "p50", "p99", "p999", "max", "mean"});
    for (unsigned ph = 0; ph < serve::kNumPhases; ++ph) {
        const auto s = sweep.back().report.latency.summary(
            static_cast<serve::Phase>(ph));
        phases.row()
            .cell(serve::phaseName(static_cast<serve::Phase>(ph)))
            .cell(quantileCell(s.p50))
            .cell(quantileCell(s.p99))
            .cell(quantileCell(s.p999))
            .cell(static_cast<double>(s.max) * 1e-6, 1)
            .cell(s.mean * 1e-6, 1);
    }
    phases.print();

    if (out_path != nullptr) {
        std::FILE *f = std::fopen(out_path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", out_path);
            return 2;
        }
        const std::string json = sweepJson(sweep, seed, process);
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        if (!bench::quiet())
            std::fprintf(stderr, "[bench] wrote %s\n", out_path);
    }
    return 0;
}
