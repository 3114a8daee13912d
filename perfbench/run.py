#!/usr/bin/env python3
"""ANSMET host-time benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload fig06_quick --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The first run builds
perfbench_replay (the libraries plus perfbench/replay.cc) under
.bench_build/perfbench. Each run then sets up its contexts from an
empty, run-private graph cache, replays a fixed number of whole sweeps,
checks the outputs, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The full per-layer report, with every ratio's base and the
reason for each metric that does not apply, goes to
.bench_build/perfbench/reports/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import quantiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
REPLAY = BUILD_DIR / "perfbench_replay"
REPORTS = BUILD_DIR / "reports"

DEFAULT_SEED = 1     # the seed the fig06/fig08 goldens use
HELD_OUT_SEED = 7    # reserved for confirming a claim, never for tuning

# Knobs that change what a timed run measures; refused, not cleared.
FORBIDDEN_ENV = ("ANSMET_TRACE", "ANSMET_AUDIT", "ANSMET_EQ_DEBUG",
                 "ANSMET_KERNEL", "ANSMET_CORES")

# name: (execution lanes, setup repetitions, nominal sweep seconds).
# A run replays round(--seconds / nominal) sweeps, at least one. The
# count depends only on the arguments, never on how fast the code runs,
# so a parent and a change are measured with the same estimator.
WORKLOADS = {
    "fig06_quick": (1, 3, 15.0),
    "serve_sift": (2, 7, 2.5),
}

REPLAY_TIMEOUT_S = 170

# Host CPU seconds are scaled to a host on which perfbench_replay's speed
# probe takes this long (about a quiet 2.1 GHz AVX-512 Xeon vCPU). Other
# tenants slow the probe and the measured work alike, so the scaled
# time moves far less with them than raw CPU or wall time.
REF_PROBE_S = 0.0015

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def die(msg, code=1):
    log(f"error: {msg}")
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--data-seed", type=int, default=None,
                   help="dataset seed (default: --seed)")
    p.add_argument("--arrival-seed", type=int, default=None,
                   help="serving arrival-schedule seed (default: --seed)")
    a = p.parse_args()
    if a.seconds < 1:
        p.error("--seconds must be >= 1")
    for name in ("seed", "data_seed", "arrival_seed"):
        v = getattr(a, name)
        if v is not None and v < 0:
            p.error(f"--{name.replace('_', '-')} must be >= 0")
    if a.data_seed is None:
        a.data_seed = a.seed
    if a.arrival_seed is None:
        a.arrival_seed = a.seed
    return a


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no ANSMET source tree at {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure every time: it is quick once cached, and it picks up a
    # changed build file in a reused build tree.
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD_DIR), "--target",
              "perfbench_replay", "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die(f"build step failed ({r.returncode}): {' '.join(cmd)}")


def git_commit():
    # The benchmark may run from an export that is not a repository.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                        "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_replay(args, lanes, setup_reps, sweeps):
    cache = BUILD_DIR / f"cache-{os.getpid()}"
    env = dict(os.environ)  # main() refused any FORBIDDEN_ENV knob
    env["ANSMET_THREADS"] = str(lanes)
    env["ANSMET_CACHE"] = str(cache)
    cmd = [str(REPLAY), "--workload", args.workload,
           "--data-seed", str(args.data_seed),
           "--arrival-seed", str(args.arrival_seed),
           "--sweeps", str(sweeps), "--trace", str(args.trace),
           "--setup-reps", str(setup_reps), "--cache-dir", str(cache)]
    try:
        r = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=REPLAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"perfbench_replay exceeded {REPLAY_TIMEOUT_S} s")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if r.stderr:
        sys.stderr.write(r.stderr)
    if r.returncode != 0:
        die(f"perfbench_replay exited with {r.returncode}")
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        die("perfbench_replay printed no result")


def digest_changes(fingerprint):
    """Earlier reports of the same inputs whose sim_digest differs.

    The simulated output must not change with a host-only change, so a
    differing digest means the change altered the model.
    """
    changed = []
    for path in sorted(REPORTS.glob(f"{fingerprint['workload']}-*.json")):
        try:
            old = json.loads(path.read_text())["fingerprint"]
        except (OSError, ValueError, KeyError, TypeError):
            continue
        same_inputs = (old.get("data_seed"), old.get("arrival_seed")) == \
            (fingerprint["data_seed"], fingerprint["arrival_seed"])
        if same_inputs and old.get("sim_digest") != fingerprint["sim_digest"]:
            changed.append(f"{path.name}: {old.get('sim_digest')} at "
                           f"commit {old.get('git_commit')}")
    return changed


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def scaled(cpu_s, probe_s):
    """CPU seconds at the speed of the reference host."""
    return cpu_s * REF_PROBE_S / probe_s


def end_to_end(raw):
    med = statistics.median
    m = {
        "setup_s": med(scaled(s["cpu_s"], s["probe_s"])
                       for s in raw["setup"]),
        "sweep_s": med(scaled(c, p) for c, p in
                       zip(raw["sweep_cpu_s"], raw["sweep_probe_s"])),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in m.items()}


class Layer:
    """Per-layer metrics with units, ratio bases and n/a reasons."""

    def __init__(self):
        self.metrics = {}
        self.notes = {}

    def put(self, name, value, unit, note=None):
        self.metrics[name] = {"value": value, "unit": unit}
        if note:
            self.notes[name] = note

    def ratio(self, name, num, den, base):
        self.put(name, num / den if den else 0.0, "ratio",
                 f"{num:.6g} / {den:.6g} ({base})")

    def na(self, name, unit, reason):
        self.put(name, 0, unit)
        self.notes[name] = f"not applicable: {reason}"


def per_layer(raw, workload, checks):
    tr = raw["traced"]
    ly = tr["layers"]
    rc, pc = ly["replay_counts"], ly["pass_counts"]
    lanes = raw["lanes"]
    fig06 = workload == "fig06_quick"
    out = Layer()
    med = statistics.median

    setup = raw["setup"]
    out.put("anns.hnsw_build_s", med(s["hnsw_build_s"] for s in setup), "s")
    out.put("anns.hnsw_distance_comps", setup[-1]["hnsw_distance_comps"],
            "count", "HNSW build + efSearch tuning + tracing")
    out.put("et.profile_s", med(s["profile_s"] for s in setup), "s")
    out.put("core.context_other_s",
            med(s["seconds"] - s["hnsw_build_s"] - s["profile_s"]
                for s in setup), "s",
            "context ctor wall minus HNSW build and ET profile")

    per_point = "" if fig06 else "; one session's worth (per load point)"
    out.put("et.fetchsim_s", ly["fetch_pass_s"], "s",
            "standalone single-thread simulateRange pass" + per_point)
    out.put("et.fetchsim_calls", ly["fetch_pass_calls"], "count")
    out.put("et.lines_fetched", pc["et.lines_fetched"], "count")
    out.put("et.lines_skipped", pc["et.lines_skipped"], "count")
    out.ratio("et.skip_ratio", pc["et.lines_skipped"],
              pc["et.lines_fetched"] + pc["et.lines_skipped"],
              "lines skipped / lines of full fetches")

    out.put("core.model_setup_s", ly["model_setup_s"], "s")
    if fig06:
        out.put("core.precompute_s", ly["precompute_s"], "s",
                "beginSession; precompute is skipped on one lane")
        out.put("core.energy_s", ly["energy_s"], "s")
        out.put("core.teardown_s", ly["teardown_s"], "s",
                "SystemModel destructor")
        out.na("runtime.precompute_efficiency", "ratio",
               "one lane: fetch simulation runs inline in replay")
    else:
        note = "query-less session of the same design (serve::serve " \
               "runs its session calls internally); per load point"
        out.put("core.precompute_s", ly["precompute_s"], "s", note)
        out.put("core.energy_s", ly["energy_s"], "s", note)
        out.put("core.teardown_s", ly["teardown_s"], "s",
                "SystemModel destructor, summed over the load points")
        out.ratio("runtime.precompute_efficiency", ly["fetch_pass_s"],
                  ly["precompute_s"] * lanes,
                  f"et.fetchsim_s / (core.precompute_s x {lanes} lanes)")

    out.put("sim.etopt_speedup", raw["sim_etopt_speedup"], "x",
            "simulated NDP-ETOpt / CPU-Base QPS, geomean over the seven "
            "datasets at k=10" if fig06 else
            "simulated NDP-ETOpt / CPU-Base batch QPS on the SIFT context")
    events = rc["sim.events"]
    if fig06:
        replay = ly["replay_cpu_s"] + ly["replay_ndp_s"]
        out.put("sim.replay_s", replay, "s")
        out.put("sim.replay_s.cpu_designs", ly["replay_cpu_s"], "s")
        out.put("sim.replay_s.ndp_designs", ly["replay_ndp_s"], "s")
        out.put("sim.replay_self_s", replay - ly["fetch_pass_s"], "s",
                "replay minus et.fetchsim_s (fetch sim runs inline)")
    else:
        serve_s = sum(p["serve_s"] for p in tr["points"])
        replay = serve_s - len(tr["points"]) * ly["precompute_s"]
        note = "serve::serve time minus the standalone precompute"
        out.put("sim.replay_s", replay, "s", note)
        out.na("sim.replay_s.cpu_designs", "s", "no CPU design is served")
        out.put("sim.replay_s.ndp_designs", replay, "s", note)
        out.put("sim.replay_self_s", replay, "s", note)
    out.put("sim.events", events, "count")
    out.put("sim.host_ns_per_event", replay / events * 1e9 if events else 0,
            "ns")

    reads = rc["dram.reads"]
    for c in ("dram.reads", "dram.row_activates", "dram.row_conflicts",
              "ndp.tasks_completed", "ndp.lines_fetched",
              "ndp.backpressure_staged", "host.cache_hits",
              "host.cache_misses"):
        out.put(c, rc[c], "count", "simulated; must equal the parent's")
    out.ratio("dram.row_hit_ratio", reads + rc["dram.writes"] -
              rc["dram.row_activates"], reads + rc["dram.writes"],
              "accesses without an activate / DRAM accesses")
    n = ly["queue_latency_ps_n"]
    if n - quantiles.rank(0.99, n) >= quantiles.MIN_BEYOND:
        out.put("dram.queue_latency_ps.p99", ly["queue_latency_ps_p99"],
                "ps", f"log2-bucket upper bound, n={n}")
    else:
        out.na("dram.queue_latency_ps.p99", "ps", f"n={n} is too few")

    if fig06:
        for name, unit in (("serve.point_s.0.5x", "s"),
                           ("serve.point_s.0.9x", "s"),
                           ("serve.point_s.1.5x", "s"),
                           ("serve.loadgen_s", "s"),
                           ("serve.host_ns_per_event", "ns"),
                           ("serve.admitted", "count"),
                           ("serve.dropped", "count"),
                           ("serve.sim_p99_us", "us")):
            out.na(name, unit, "batch workload: nothing is served")
        pm = [v * 1e3 for v in tr["point_s"]]
        for q, name in ((0.5, "point_ms.p50"), (0.9, "point_ms.p90")):
            v, text = quantiles.describe(name, pm, q, "ms")
            out.put(name, v, "ms", text)
        covered = ly["model_setup_s"] + ly["precompute_s"] + replay + \
            ly["energy_s"] + ly["teardown_s"] + ly["fetch_pass_s"]
    else:
        for p in tr["points"]:
            out.put(f"serve.point_s.{p['mult']:g}x", p["serve_s"], "s")
        serve_events = sum(p["events"] for p in tr["points"])
        out.put("serve.host_ns_per_event",
                serve_s / serve_events * 1e9 if serve_events else 0, "ns",
                "serve::serve time / simulated events")
        out.put("serve.loadgen_s", tr["loadgen_s"], "s",
                "generateArrivals for the three schedules")
        out.put("serve.admitted", sum(p["admitted"] for p in tr["points"]),
                "count")
        out.put("serve.dropped", sum(p["dropped"] for p in tr["points"]),
                "count")
        v, text = quantiles.describe("serve.sim_p99_us",
                                     raw["total_latency_ps"], 0.99, "us",
                                     1e-6)
        out.put("serve.sim_p99_us", v, "us", text + " at 0.9x capacity")
        out.na("point_ms.p50", "ms", "serving workload: 3 sessions a sweep")
        out.na("point_ms.p90", "ms", "serving workload: 3 sessions a sweep")
        covered = ly["model_setup_s"] + serve_s + ly["teardown_s"]

    # The loop wall is one clock read around the whole traced sweep, so
    # it also holds what no layer timer covers: the counter snapshots
    # and the dispatcher's own bookkeeping.
    out.ratio("layers.coverage", covered, tr["loop_wall_s"],
              "listed per-layer times / traced sweep's whole loop wall")
    if fig06:
        cov = covered / tr["loop_wall_s"]
        checks.append({"name": "layer_coverage>=0.90", "ok": cov >= 0.90,
                       "detail": f"{cov:.4f}"})
    walls = raw["sweep_wall_s"]
    untraced = med(walls)
    noise = (f"untraced sweep walls span "
             f"{(max(walls) - min(walls)) / untraced:.1%} over "
             f"n={len(walls)}" if len(walls) > 1 else
             "n=1 untraced sweep, so this run has no noise base")
    out.put("obs.trace_overhead", tr["wall_s"] / untraced - 1, "ratio",
            f"cost of the per-layer timers: traced sweep {tr['wall_s']:.4f} "
            f"s (snapshots and fetch pass left out) / untraced median "
            f"{untraced:.4f} s, minus 1; {noise}")
    return out


def main():
    args = parse_args()
    set_knobs = [k for k in FORBIDDEN_ENV if k in os.environ]
    if set_knobs:
        die(f"refusing a timed run with {', '.join(set_knobs)} set", 2)
    lanes, setup_reps, nominal = WORKLOADS[args.workload]
    sweeps = max(1, round(args.seconds / nominal))

    build()
    raw = run_replay(args, lanes, setup_reps, sweeps)
    if raw["lanes"] != lanes:
        die(f"perfbench_replay ran {raw['lanes']} lanes, expected {lanes}")

    checks = list(raw["checks"])
    attempted = raw["ops"]
    if args.trace:
        layer = per_layer(raw, args.workload, checks)
        metrics, notes = layer.metrics, layer.notes
        attempted += len(checks) - len(raw["checks"])
    else:
        metrics, notes = end_to_end(raw), {}
    failed = sum(1 for c in checks if not c["ok"])

    fingerprint = {
        "workload": args.workload, "nproc": os.cpu_count(),
        "cpu_model": raw["cpu_model"], "simd": raw["simd"],
        "build_type": raw["build_type"], "ansmet_obs": raw["ansmet_obs"],
        "lanes": raw["lanes"], "seed": args.seed,
        "data_seed": raw["data_seed"], "arrival_seed": raw["arrival_seed"],
        "git_commit": git_commit(), "sim_digest": raw["digest"],
        "sweeps": sweeps,
    }
    REPORTS.mkdir(parents=True, exist_ok=True)
    changed = digest_changes(fingerprint)
    report = {"fingerprint": fingerprint, "trace": args.trace,
              "metrics": metrics, "notes": notes,
              "sim_digest_differs_from": changed,
              "setup": raw["setup"], "contexts": raw["contexts"],
              "sweep_wall_s": raw["sweep_wall_s"],
              "sweep_cpu_s": raw["sweep_cpu_s"],
              "sweep_probe_s": raw["sweep_probe_s"], "checks": checks,
              "attempted": attempted, "failed": failed}
    path = REPORTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    for c in checks:
        if not c["ok"]:
            log(f"check failed: {c['name']} {c['detail']}")
    for c in changed:
        log(f"sim_digest {raw['digest']} differs from an earlier report of "
            f"the same inputs ({c}): the simulated output changed")
    print("fingerprint " + json.dumps(fingerprint))
    for name, m in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        print("sweep_wall_s = " + ", ".join(
            f"{w:.4f}" for w in raw["sweep_wall_s"]) + " s  [not gated]")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
