#!/usr/bin/env python3
"""Compare benchmark outputs, perfbench reports and reproduced figure text.

Five modes, stdlib only:

  Delta mode -- compare two runs benchmark-by-benchmark:

      tools/bench_diff.py old.json new.json [--threshold PCT]

    Prints per-benchmark time deltas (new vs old) and exits nonzero if
    any shared benchmark regressed by more than --threshold percent
    (default: report only, never fail).

  Speedup mode -- compare tiers against their baseline within one run:

      tools/bench_diff.py --speedup BENCH_kernels.json \
          [--min-ratio R --require NAME]...

    Tiered benchmarks are named  <family>/<tier>. Two tier groups:
    SIMD kernels use scalar | avx2 | avx512 (baseline: scalar, e.g.
    kernel_l2_batch/fp32/avx2), and simulator macro-benchmarks use
    ref | opt (baseline: ref, e.g. sim_queue/replay/opt). For every
    non-baseline entry whose baseline sibling exists, prints the ratio
    baseline_time / tier_time. Each --require NAME (full benchmark
    name) must be present and meet --min-ratio, otherwise exit 1 --
    this is the CI perf-smoke assertion.

  Figures mode -- assert two reproduced figure texts are identical:

      tools/bench_diff.py --figures old.txt new.txt

    Compares the bench binaries' stdout line by line, ignoring the
    wall-clock '[timing]' footer. Any other difference (a changed
    table cell, a missing row) prints a unified diff and exits 1 --
    this is the CI determinism/no-perturbation assertion.

  Tail mode -- gate serving tail latency from a macro_serve sweep:

      tools/bench_diff.py --tail BENCH_serve.json \
          [--gate 'total.max<=60us']... [--sweep-index N]

    Reads the 'ansmet-serve-v1' JSON emitted by bench/macro_serve
    --out. Each --gate is PHASE.QUANTILE<=BOUND where PHASE is one of
    the serving phases (queue_wait, traverse, offload, compute,
    collect, total), QUANTILE is p50 | p99 | p999 | max | mean, and
    BOUND takes a ps/ns/us/ms suffix (plain numbers are picoseconds).
    macro_serve writes a quantile as null when fewer than 10 samples
    lie beyond its rank (a p99 needs 1000); a gate on such a quantile
    fails and names the sample count.
    'dropped<=N' and 'completed>=N' gate the admission counters.
    Gates apply to one sweep point, --sweep-index (default 0, the
    lowest offered load); every number in the file is a deterministic
    simulated quantity, so the bounds can be tight without runner
    noise. Exit 1 if any gate fails -- this is the CI serving-tail
    assertion.

  Baseline mode -- compare a change's perfbench report with its parent's:

      tools/bench_diff.py --baseline PARENT.json CHANGE.json

    Reads two reports written by perfbench/run.py (under
    .bench_build/perfbench/reports/, or a committed BENCH_*.json).
    Reports whose fingerprints differ in workload, nproc, CPU model,
    SIMD tier, build type, lanes or seeds are refused (exit 2): their
    times are not comparable. setup_s and sweep_s are recomputed from
    the raw per-repetition arrays with run.py's statistic, the median of
    cpu_s scaled to the reference host by the speed probe, and printed
    as parent, change and relative change; peak_rss_mb too when a
    report carries it. Exit 1 if the two sim_digests differ: a
    host-only change must not move the simulated output.

Exit codes: 0 ok, 1 comparison failed, 2 unreadable/malformed input.
"""

import argparse
import difflib
import importlib.util
import json
import os
import statistics
import sys

TIERS = ("scalar", "avx2", "avx512", "ref", "opt")

SERVE_SCHEMA = "ansmet-serve-v1"

# Latency gate units, as picosecond multipliers (serve JSON is in ps).
TAIL_UNITS = {"ps": 1.0, "ns": 1e3, "us": 1e6, "ms": 1e9}

TAIL_QUANTILES = ("p50", "p99", "p999", "max", "mean")

# Per-point admission counters that can be gated alongside phase
# quantiles: name -> comparison direction.
TAIL_COUNTERS = {"dropped": "<=", "completed": ">="}

# Tiers that serve as the denominator of a speedup ratio; a measured
# entry's baseline sibling is looked up in this order.
BASELINE_TIERS = ("scalar", "ref")

# perfbench's runner, whose host-speed scaling baseline mode reuses.
PERFBENCH_RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "perfbench", "run.py")

# Fingerprint fields two perfbench reports must share to be compared.
BASELINE_FINGERPRINT = ("workload", "nproc", "cpu_model", "simd",
                        "build_type", "lanes", "seed", "data_seed",
                        "arrival_seed")


class InputError(Exception):
    """A file we were asked to compare cannot be used."""


def load_times(path):
    """Map benchmark name -> real_time (ns) from a benchmark JSON file."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise InputError(f"cannot read benchmark file {path!r}: "
                         f"{e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path!r} is not valid JSON (line {e.lineno}: "
                         f"{e.msg}); was the benchmark run interrupted?"
                         ) from e
    if not isinstance(data, dict):
        raise InputError(f"{path!r}: expected a google-benchmark JSON "
                         f"object, got {type(data).__name__}")
    times = {}
    for i, b in enumerate(data.get("benchmarks", [])):
        # Skip aggregate rows (mean/median/stddev) of repeated runs.
        if b.get("run_type") == "aggregate":
            continue
        try:
            times[b["name"]] = float(b["real_time"])
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"{path!r}: benchmark entry {i} is missing "
                             f"or has a malformed name/real_time field"
                             ) from e
    if not times:
        raise InputError(f"{path!r} contains no benchmark entries")
    return times


def load_figure_lines(path):
    """Figure-text lines with the wall-clock footer stripped."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise InputError(f"cannot read figure file {path!r}: "
                         f"{e.strerror or e}") from e
    kept = [l for l in lines if not l.startswith("[timing]")]
    if not any(l.strip() for l in kept):
        raise InputError(f"{path!r} contains no figure output")
    return kept


def load_serve_sweep(path):
    """Validated sweep-point list from a macro_serve --out JSON file."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise InputError(f"cannot read serve file {path!r}: "
                         f"{e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path!r} is not valid JSON (line {e.lineno}: "
                         f"{e.msg}); was macro_serve interrupted?") from e
    if not isinstance(data, dict) or data.get("schema") != SERVE_SCHEMA:
        raise InputError(f"{path!r}: expected a {SERVE_SCHEMA!r} object "
                         f"from 'macro_serve --out'")
    sweep = data.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        raise InputError(f"{path!r}: sweep is empty")
    for i, point in enumerate(sweep):
        if not isinstance(point, dict) or \
                not isinstance(point.get("phases"), dict):
            raise InputError(f"{path!r}: sweep point {i} is missing its "
                             f"phases object")
    return sweep


def parse_gate(spec):
    """('total', 'max_ps', 6e7, '<=') for 'total.max<=60us'.

    Counter gates parse to (name, None, bound, op), e.g.
    ('dropped', None, 0.0, '<=') for 'dropped<=0'.
    """
    for name, op in TAIL_COUNTERS.items():
        if spec.startswith(name + op):
            rhs = spec[len(name) + len(op):]
            try:
                return name, None, float(rhs), op
            except ValueError as e:
                raise InputError(f"gate {spec!r}: {rhs!r} is not a "
                                 f"number") from e
    lhs, sep, rhs = spec.partition("<=")
    if not sep:
        counters = ", ".join(n + o for n, o in TAIL_COUNTERS.items())
        raise InputError(f"gate {spec!r}: expected PHASE.QUANTILE<=BOUND "
                         f"(e.g. 'total.max<=60us') or a counter gate "
                         f"({counters})")
    phase, dot, quant = lhs.partition(".")
    if not dot or not phase or quant not in TAIL_QUANTILES:
        raise InputError(f"gate {spec!r}: left side must be "
                         f"PHASE.({'|'.join(TAIL_QUANTILES)})")
    unit = "ps"
    for suffix in TAIL_UNITS:
        if rhs.endswith(suffix):
            unit, rhs = suffix, rhs[:-len(suffix)]
            break
    try:
        bound = float(rhs) * TAIL_UNITS[unit]
    except ValueError as e:
        raise InputError(f"gate {spec!r}: bound {rhs!r} is not a "
                         f"number") from e
    return phase, quant + "_ps", bound, "<="


def format_ps(ps):
    """Human-readable time from picoseconds; n/a for a null quantile."""
    if ps is None:
        return "n/a"
    for unit in ("ms", "us", "ns"):
        if ps >= TAIL_UNITS[unit]:
            return f"{ps / TAIL_UNITS[unit]:.2f}{unit}"
    return f"{ps:.0f}ps"


def run_tail(args):
    sweep = load_serve_sweep(args.files[0])

    print(f"{'offered qps':>12}  {'achieved qps':>12}  {'done':>5}  "
          f"{'drop':>5}  {'total p50':>10}  {'total p99':>10}  "
          f"{'total p999':>10}  {'total max':>10}")
    for point in sweep:
        total = point.get("phases", {}).get("total", {})
        print(f"{point.get('offered_qps', 0.0):>12.0f}  "
              f"{point.get('achieved_qps', 0.0):>12.0f}  "
              f"{point.get('completed', 0):>5}  "
              f"{point.get('dropped', 0):>5}  "
              f"{format_ps(total.get('p50_ps', 0)):>10}  "
              f"{format_ps(total.get('p99_ps', 0)):>10}  "
              f"{format_ps(total.get('p999_ps', 0)):>10}  "
              f"{format_ps(total.get('max_ps', 0)):>10}")

    if not (0 <= args.sweep_index < len(sweep)):
        raise InputError(f"--sweep-index {args.sweep_index} out of range "
                         f"(sweep has {len(sweep)} points)")
    point = sweep[args.sweep_index]
    print(f"gating sweep point {args.sweep_index} "
          f"(offered {point.get('offered_qps', 0.0):.0f} qps)")

    failed = False
    for spec in args.gate:
        phase, key, bound, op = parse_gate(spec)
        if key is None:
            value = point.get(phase)
            if value is None:
                print(f"FAIL: counter '{phase}' missing from sweep "
                      f"point", file=sys.stderr)
                failed = True
                continue
            ok = value <= bound if op == "<=" else value >= bound
            if ok:
                print(f"ok: {phase} = {value:g} ({op} {bound:g})")
            else:
                print(f"FAIL: {phase} = {value:g}, gate {spec!r}",
                      file=sys.stderr)
                failed = True
            continue
        stats = point["phases"].get(phase)
        if stats is None or key not in stats:
            print(f"FAIL: gate {spec!r}: phase '{phase}' / '{key}' not "
                  f"in sweep point", file=sys.stderr)
            failed = True
            continue
        if stats[key] is None:
            print(f"FAIL: gate {spec!r}: {phase}.{key} is unavailable at "
                  f"n={stats.get('count', '?')} (fewer than 10 samples lie "
                  f"beyond its rank)", file=sys.stderr)
            failed = True
            continue
        value = float(stats[key])
        if value <= bound:
            print(f"ok: {phase}.{key} = {format_ps(value)} "
                  f"(<= {format_ps(bound)})")
        else:
            print(f"FAIL: {phase}.{key} = {format_ps(value)} exceeds "
                  f"{format_ps(bound)} (gate {spec!r})", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def load_report(path):
    """A perfbench report, with the fields baseline mode reads checked."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise InputError(f"cannot read perfbench report {path!r}: "
                         f"{e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path!r} is not valid JSON (line {e.lineno}: "
                         f"{e.msg})") from e
    if not isinstance(data, dict) or \
            not isinstance(data.get("fingerprint"), dict):
        raise InputError(f"{path!r}: expected a perfbench report with a "
                         f"fingerprint object")
    try:
        setup = [(float(s["cpu_s"]), float(s["probe_s"]))
                 for s in data["setup"]]
        sweep = list(zip(map(float, data["sweep_cpu_s"]),
                         map(float, data["sweep_probe_s"])))
        ok = len(data["sweep_cpu_s"]) == len(data["sweep_probe_s"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path!r}: missing or malformed setup / "
                         f"sweep_cpu_s / sweep_probe_s arrays") from e
    if not ok or not setup or not sweep or \
            any(p <= 0 for _, p in setup + sweep):
        raise InputError(f"{path!r}: setup and sweep arrays must be "
                         f"non-empty, paired, with positive probe times")
    return data, setup, sweep


def perfbench_scaled():
    """run.py's scaled(cpu_s, probe_s): CPU seconds on the reference host."""
    sys.dont_write_bytecode = True  # leave no cache file in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    except OSError as e:
        raise InputError(f"cannot load perfbench/run.py: "
                         f"{e.strerror or e}") from e
    return run.scaled


def run_baseline(args):
    (parent, p_setup, p_sweep), (change, c_setup, c_sweep) = \
        (load_report(f) for f in args.files)
    pf, cf = parent["fingerprint"], change["fingerprint"]
    differ = [k for k in BASELINE_FINGERPRINT if pf.get(k) != cf.get(k)]
    if differ:
        detail = "; ".join(f"{k}: {pf.get(k)!r} vs {cf.get(k)!r}"
                           for k in differ)
        raise InputError(f"fingerprints differ, so the reports are not "
                         f"comparable ({detail})")

    scaled = perfbench_scaled()
    med = statistics.median
    rows = [(name, med(scaled(c, p) for c, p in ps),
             med(scaled(c, p) for c, p in cs), len(ps), len(cs))
            for name, ps, cs in (("setup_s", p_setup, c_setup),
                                 ("sweep_s", p_sweep, c_sweep))]
    rss = [r.get("metrics", {}).get("peak_rss_mb", {}).get("value")
           for r in (parent, change)]
    print(f"{pf['workload']}: seed {pf['seed']}, {pf['nproc']} CPUs "
          f"({pf['cpu_model']}, {pf['simd']}), {pf['build_type']}, "
          f"{pf['lanes']} lane(s)")
    print(f"{'metric':<12}  {'parent':>10}  {'change':>10}  {'change %':>8}"
          f"  n")
    for name, old, new, n_old, n_new in rows:
        print(f"{name:<12}  {old:>10.4f}  {new:>10.4f}  "
              f"{(new - old) / old * 100.0:>+7.1f}%  {n_old} vs {n_new}")
    if any(v is not None for v in rss):
        old, new = (f"{v:.2f}" if v is not None else "n/a" for v in rss)
        delta = (f"{(rss[1] - rss[0]) / rss[0] * 100.0:>+7.1f}%"
                 if None not in rss else f"{'n/a':>8}")
        print(f"{'peak_rss_mb':<12}  {old:>10}  {new:>10}  {delta}")

    if pf.get("sim_digest") != cf.get("sim_digest"):
        print(f"FAIL: sim_digest {pf.get('sim_digest')} (parent) != "
              f"{cf.get('sim_digest')} (change): the simulated output "
              f"changed", file=sys.stderr)
        return 1
    print(f"sim_digest {pf.get('sim_digest')} unchanged")
    return 0


def split_tier(name):
    """('kernel_l2/fp32', 'avx2') for 'kernel_l2/fp32/avx2', else None."""
    head, sep, tier = name.rpartition("/")
    if sep and tier in TIERS:
        return head, tier
    return None


def run_delta(args):
    old = load_times(args.files[0])
    new = load_times(args.files[1])
    shared = sorted(set(old) & set(new))
    if not shared:
        print("no shared benchmarks between the two files", file=sys.stderr)
        return 1
    width = max(len(n) for n in shared)
    worst = 0.0
    print(f"{'benchmark':<{width}}  {'old ns':>12}  {'new ns':>12}  delta")
    for name in shared:
        delta = (new[name] - old[name]) / old[name] * 100.0
        worst = max(worst, delta)
        print(f"{name:<{width}}  {old[name]:>12.1f}  {new[name]:>12.1f}  "
              f"{delta:+7.1f}%")
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    if only_old:
        print(f"removed: {', '.join(only_old)}")
    if only_new:
        print(f"added: {', '.join(only_new)}")
    if args.threshold is not None and worst > args.threshold:
        print(f"FAIL: worst regression {worst:+.1f}% exceeds "
              f"threshold {args.threshold:.1f}%", file=sys.stderr)
        return 1
    return 0


def run_speedup(args):
    times = load_times(args.files[0])
    ratios = {}
    for name, t in sorted(times.items()):
        parts = split_tier(name)
        if parts is None or parts[1] in BASELINE_TIERS:
            continue
        family, tier = parts
        base_time = next((times[f"{family}/{b}"] for b in BASELINE_TIERS
                          if f"{family}/{b}" in times), None)
        if base_time is None or t <= 0.0:
            continue
        ratios[name] = base_time / t

    if not ratios:
        print("no tiered kernel benchmarks found", file=sys.stderr)
        return 1

    width = max(len(n) for n in ratios)
    print(f"{'benchmark':<{width}}  speedup vs baseline")
    for name, r in sorted(ratios.items()):
        print(f"{name:<{width}}  {r:6.2f}x")

    failed = False
    for req in args.require:
        if req not in ratios:
            print(f"FAIL: required benchmark '{req}' not found",
                  file=sys.stderr)
            failed = True
        elif args.min_ratio is not None and ratios[req] < args.min_ratio:
            print(f"FAIL: {req} speedup {ratios[req]:.2f}x below "
                  f"required {args.min_ratio:.2f}x", file=sys.stderr)
            failed = True
        else:
            print(f"ok: {req} speedup {ratios[req]:.2f}x")
    return 1 if failed else 0


def run_figures(args):
    old_path, new_path = args.files
    old = load_figure_lines(old_path)
    new = load_figure_lines(new_path)
    if old == new:
        print(f"figures identical: {old_path} == {new_path} "
              f"({len(old)} lines, [timing] footer ignored)")
        return 0
    diff = difflib.unified_diff(old, new, fromfile=old_path,
                                tofile=new_path, lineterm="")
    for line in diff:
        print(line)
    print(f"FAIL: figure output differs between {old_path!r} and "
          f"{new_path!r}", file=sys.stderr)
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+",
                    help="input file(s): two JSON for delta mode, one "
                         "JSON with --speedup, two texts with --figures, "
                         "two perfbench reports with --baseline")
    ap.add_argument("--speedup", action="store_true",
                    help="single-file tier-vs-scalar speedup mode")
    ap.add_argument("--figures", action="store_true",
                    help="two-file figure-text identity mode")
    ap.add_argument("--tail", action="store_true",
                    help="single-file serving tail-latency gate mode")
    ap.add_argument("--baseline", action="store_true",
                    help="two-file perfbench report mode: PARENT CHANGE")
    ap.add_argument("--gate", action="append", default=[],
                    help="tail mode: PHASE.QUANTILE<=BOUND with ps/ns/"
                         "us/ms suffix, or dropped<=N / completed>=N "
                         "(repeatable)")
    ap.add_argument("--sweep-index", type=int, default=0,
                    help="tail mode: sweep point the gates apply to "
                         "(default 0, the lowest offered load)")
    ap.add_argument("--min-ratio", type=float, default=None,
                    help="minimum speedup each --require must meet")
    ap.add_argument("--require", action="append", default=[],
                    help="benchmark name that must meet --min-ratio "
                         "(repeatable)")
    ap.add_argument("--threshold", type=float, default=None,
                    help="delta mode: fail if any benchmark regresses "
                         "by more than this percent")
    args = ap.parse_args()

    if sum((args.speedup, args.figures, args.tail, args.baseline)) > 1:
        ap.error("--speedup, --figures, --tail and --baseline are "
                 "mutually exclusive")
    if args.baseline:
        if len(args.files) != 2:
            ap.error("--baseline takes exactly two perfbench reports")
        return run_baseline(args)
    if args.tail:
        if len(args.files) != 1:
            ap.error("--tail takes exactly one serve JSON file")
        return run_tail(args)
    if args.speedup:
        if len(args.files) != 1:
            ap.error("--speedup takes exactly one JSON file")
        return run_speedup(args)
    if args.figures:
        if len(args.files) != 2:
            ap.error("--figures takes exactly two figure text files")
        return run_figures(args)
    if len(args.files) != 2:
        ap.error("delta mode takes exactly two JSON files")
    return run_delta(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:  # output piped into head etc.
        sys.exit(0)
