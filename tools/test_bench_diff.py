#!/usr/bin/env python3
"""Unit tests for bench_diff.py (stdlib only).

Run directly:  python3 tools/test_bench_diff.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_diff.py")


def run_tool(*argv):
    return subprocess.run([sys.executable, TOOL, *argv],
                          capture_output=True, text=True)


def bench_json(entries):
    return json.dumps({
        "benchmarks": [{"name": n, "real_time": t} for n, t in entries]
    })


def serve_json(points, count=96):
    """ansmet-serve-v1 text from [(offered_qps, dropped, max_ps)].

    Like macro_serve, it writes a quantile as null unless 10 samples
    lie beyond its rank: with the default 96 samples per point the p99
    and p999 are null, and with 1000 the p99 is reported.
    """
    sweep = []
    for qps, dropped, top in points:
        phases = {
            name: {"count": count, "p50_ps": top // 2,
                   "p99_ps": top if count >= 1000 else None,
                   "p999_ps": None, "max_ps": top, "mean_ps": top / 2.0}
            for name in ("queue_wait", "traverse", "offload", "compute",
                         "collect", "total")
        }
        sweep.append({"offered_qps": qps, "achieved_qps": qps * 0.9,
                      "offered": count, "completed": count - dropped,
                      "dropped": dropped, "max_occupied_qshrs": 16,
                      "phases": phases})
    return json.dumps({"schema": "ansmet-serve-v1", "design": "NDP-ETOpt",
                       "dataset": "sift", "seed": 1, "process": "poisson",
                       "sweep": sweep})


FINGERPRINT = {"workload": "fig06_quick", "nproc": 4,
               "cpu_model": "Xeon", "simd": "avx512",
               "build_type": "RelWithDebInfo", "ansmet_obs": True,
               "lanes": 1, "seed": 1, "data_seed": 1, "arrival_seed": 1,
               "git_commit": "abc", "sim_digest": "44f1dc4be6d9fc32",
               "sweeps": 1}


def report_json(setup, sweep, rss=None, **fingerprint):
    """A perfbench report from [(cpu_s, probe_s)] setup and sweep runs."""
    report = {"fingerprint": {**FINGERPRINT, **fingerprint}, "trace": 0,
              "metrics": {}, "setup": [{"cpu_s": c, "probe_s": p}
                                       for c, p in setup],
              "sweep_cpu_s": [c for c, _ in sweep],
              "sweep_probe_s": [p for _, p in sweep]}
    if rss is not None:
        report["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return json.dumps(report)


class TempFiles(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, content):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return path


class MalformedInput(TempFiles):
    def test_missing_file_exits_2(self):
        ok = self.write("ok.json", bench_json([("a", 1.0)]))
        r = run_tool(ok, os.path.join(self._dir.name, "nope.json"))
        self.assertEqual(r.returncode, 2)
        self.assertIn("cannot read benchmark file", r.stderr)
        self.assertIn("nope.json", r.stderr)

    def test_invalid_json_exits_2(self):
        bad = self.write("bad.json", '{"benchmarks": [')
        ok = self.write("ok.json", bench_json([("a", 1.0)]))
        r = run_tool(bad, ok)
        self.assertEqual(r.returncode, 2)
        self.assertIn("not valid JSON", r.stderr)

    def test_wrong_shape_exits_2(self):
        bad = self.write("list.json", "[1, 2, 3]")
        r = run_tool("--speedup", bad)
        self.assertEqual(r.returncode, 2)
        self.assertIn("expected a google-benchmark JSON object", r.stderr)

    def test_entry_missing_real_time_exits_2(self):
        bad = self.write("bad.json",
                         json.dumps({"benchmarks": [{"name": "x"}]}))
        r = run_tool("--speedup", bad)
        self.assertEqual(r.returncode, 2)
        self.assertIn("malformed name/real_time", r.stderr)

    def test_empty_benchmarks_exits_2(self):
        bad = self.write("empty.json", json.dumps({"benchmarks": []}))
        r = run_tool("--speedup", bad)
        self.assertEqual(r.returncode, 2)
        self.assertIn("no benchmark entries", r.stderr)


class DeltaMode(TempFiles):
    def test_reports_deltas_without_threshold(self):
        old = self.write("old.json", bench_json([("a", 100.0),
                                                 ("b", 50.0)]))
        new = self.write("new.json", bench_json([("a", 150.0),
                                                 ("b", 50.0)]))
        r = run_tool(old, new)
        self.assertEqual(r.returncode, 0)
        self.assertIn("+50.0%", r.stdout)

    def test_threshold_fails_on_regression(self):
        old = self.write("old.json", bench_json([("a", 100.0)]))
        new = self.write("new.json", bench_json([("a", 150.0)]))
        r = run_tool(old, new, "--threshold", "20")
        self.assertEqual(r.returncode, 1)
        self.assertIn("FAIL", r.stderr)

    def test_disjoint_benchmarks_fail(self):
        old = self.write("old.json", bench_json([("a", 1.0)]))
        new = self.write("new.json", bench_json([("b", 1.0)]))
        r = run_tool(old, new)
        self.assertEqual(r.returncode, 1)
        self.assertIn("no shared benchmarks", r.stderr)


class SpeedupMode(TempFiles):
    def test_ratio_and_require(self):
        f = self.write("k.json", bench_json([
            ("kernel_l2/fp32/scalar", 100.0),
            ("kernel_l2/fp32/avx2", 25.0),
        ]))
        r = run_tool("--speedup", f, "--min-ratio", "2.0",
                     "--require", "kernel_l2/fp32/avx2")
        self.assertEqual(r.returncode, 0)
        self.assertIn("4.00x", r.stdout)

    def test_ref_opt_tier_pairs_against_ref(self):
        f = self.write("s.json", bench_json([
            ("sim_queue/replay/ref", 300.0),
            ("sim_queue/replay/opt", 100.0),
            ("sim_replay/fig06_ndp/opt", 50.0),  # no ref sibling
        ]))
        r = run_tool("--speedup", f, "--min-ratio", "2.0",
                     "--require", "sim_queue/replay/opt")
        self.assertEqual(r.returncode, 0)
        self.assertIn("3.00x", r.stdout)
        self.assertNotIn("fig06_ndp", r.stdout)

    def test_scalar_baseline_wins_over_ref(self):
        # A family carrying both baselines pairs against scalar.
        f = self.write("m.json", bench_json([
            ("x/scalar", 400.0),
            ("x/ref", 200.0),
            ("x/opt", 100.0),
        ]))
        r = run_tool("--speedup", f)
        self.assertEqual(r.returncode, 0)
        self.assertIn("4.00x", r.stdout)

    def test_require_below_ratio_fails(self):
        f = self.write("k.json", bench_json([
            ("kernel_l2/fp32/scalar", 100.0),
            ("kernel_l2/fp32/avx2", 90.0),
        ]))
        r = run_tool("--speedup", f, "--min-ratio", "2.0",
                     "--require", "kernel_l2/fp32/avx2")
        self.assertEqual(r.returncode, 1)
        self.assertIn("below", r.stderr)


class FiguresMode(TempFiles):
    FIG = "header\nrow 1  2.00x\nrow 2  1.50x\n"

    def test_identical_modulo_timing(self):
        a = self.write("a.txt", self.FIG + "[timing] total: 3.21 s\n")
        b = self.write("b.txt", self.FIG + "[timing] total: 9.87 s\n")
        r = run_tool("--figures", a, b)
        self.assertEqual(r.returncode, 0)
        self.assertIn("figures identical", r.stdout)

    def test_changed_cell_fails_with_diff(self):
        a = self.write("a.txt", self.FIG)
        b = self.write("b.txt", self.FIG.replace("1.50x", "1.51x"))
        r = run_tool("--figures", a, b)
        self.assertEqual(r.returncode, 1)
        self.assertIn("-row 2  1.50x", r.stdout)
        self.assertIn("+row 2  1.51x", r.stdout)
        self.assertIn("FAIL", r.stderr)

    def test_empty_figure_exits_2(self):
        a = self.write("a.txt", "[timing] only a footer\n")
        b = self.write("b.txt", self.FIG)
        r = run_tool("--figures", a, b)
        self.assertEqual(r.returncode, 2)
        self.assertIn("no figure output", r.stderr)


class TailMode(TempFiles):
    def test_gate_passes_with_unit_suffix(self):
        # total max is 5us = 5e6 ps; a 60us bound passes.
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        r = run_tool("--tail", f, "--gate", "total.max<=60us",
                     "--gate", "dropped<=0")
        self.assertEqual(r.returncode, 0)
        self.assertIn("ok: total.max_ps", r.stdout)
        self.assertIn("ok: dropped", r.stdout)

    def test_gate_fails_above_bound(self):
        f = self.write("s.json", serve_json([(1e6, 0, 70_000_000)]))
        r = run_tool("--tail", f, "--gate", "total.max<=60us")
        self.assertEqual(r.returncode, 1)
        self.assertIn("exceeds", r.stderr)

    def test_gate_on_refused_quantile_fails(self):
        # 96 samples cannot support a p99: the file holds null, and
        # the gate fails naming n however loose its bound.
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        r = run_tool("--tail", f, "--gate", "total.p99<=60us")
        self.assertEqual(r.returncode, 1)
        self.assertIn("unavailable at n=96", r.stderr)
        self.assertIn("n/a", r.stdout)
        # 1000 samples support it.
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)],
                                            count=1000))
        r = run_tool("--tail", f, "--gate", "total.p99<=60us")
        self.assertEqual(r.returncode, 0)
        self.assertIn("ok: total.p99_ps", r.stdout)

    def test_units_are_converted(self):
        # 5e6 ps == 5000 ns == 5 us == 0.005 ms; all four spellings of
        # the same bound must agree.
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        for bound in ("5000000ps", "5000000", "5000ns", "5us", "0.005ms"):
            r = run_tool("--tail", f, "--gate", f"total.max<={bound}")
            self.assertEqual(r.returncode, 0, msg=bound)
        r = run_tool("--tail", f, "--gate", "total.max<=4999999ps")
        self.assertEqual(r.returncode, 1)

    def test_sweep_index_selects_point(self):
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000),
                                             (4e6, 10, 80_000_000)]))
        r = run_tool("--tail", f, "--gate", "total.max<=60us")
        self.assertEqual(r.returncode, 0)  # default: point 0
        r = run_tool("--tail", f, "--sweep-index", "1",
                     "--gate", "total.max<=60us")
        self.assertEqual(r.returncode, 1)
        r = run_tool("--tail", f, "--sweep-index", "2",
                     "--gate", "total.max<=60us")
        self.assertEqual(r.returncode, 2)
        self.assertIn("out of range", r.stderr)

    def test_counter_gates(self):
        f = self.write("s.json", serve_json([(4e6, 10, 5_000_000)]))
        r = run_tool("--tail", f, "--gate", "dropped<=0")
        self.assertEqual(r.returncode, 1)
        r = run_tool("--tail", f, "--gate", "dropped<=10",
                     "--gate", "completed>=86")
        self.assertEqual(r.returncode, 0)
        r = run_tool("--tail", f, "--gate", "completed>=96")
        self.assertEqual(r.returncode, 1)

    def test_malformed_gate_exits_2(self):
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        for bad in ("bogus", "total.p98<=1us", "total.p99<=fast",
                    "dropped<=many"):
            r = run_tool("--tail", f, "--gate", bad)
            self.assertEqual(r.returncode, 2, msg=bad)

    def test_unknown_phase_fails(self):
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        r = run_tool("--tail", f, "--gate", "warmup.p99<=1us")
        self.assertEqual(r.returncode, 1)
        self.assertIn("not", r.stderr)

    def test_wrong_schema_exits_2(self):
        f = self.write("s.json", bench_json([("a", 1.0)]))
        r = run_tool("--tail", f, "--gate", "total.p99<=60us")
        self.assertEqual(r.returncode, 2)
        self.assertIn("ansmet-serve-v1", r.stderr)

    def test_empty_sweep_exits_2(self):
        f = self.write("s.json",
                       json.dumps({"schema": "ansmet-serve-v1",
                                   "sweep": []}))
        r = run_tool("--tail", f)
        self.assertEqual(r.returncode, 2)
        self.assertIn("sweep is empty", r.stderr)

    def test_no_gates_reports_only(self):
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        r = run_tool("--tail", f)
        self.assertEqual(r.returncode, 0)
        self.assertIn("offered qps", r.stdout)

    def test_tail_excludes_other_modes(self):
        f = self.write("s.json", serve_json([(1e6, 0, 5_000_000)]))
        r = run_tool("--tail", "--speedup", f)
        self.assertEqual(r.returncode, 2)
        self.assertIn("mutually exclusive", r.stderr)


class BaselineMode(TempFiles):
    # Scaled to the 0.0015 s reference probe, the parent's setups read
    # 3.0, 1.0 and 4.0 s (median 3.0) and the change's 1.0, 1.5 and
    # 2.0 s (median 1.5).
    PARENT_SETUP = [(3.0, 0.0015), (2.0, 0.003), (4.0, 0.0015)]
    CHANGE_SETUP = [(1.0, 0.0015), (3.0, 0.003), (2.0, 0.0015)]

    def test_medians_of_probe_scaled_repetitions(self):
        parent = self.write("p.json", report_json(
            self.PARENT_SETUP, [(10.0, 0.0015), (12.0, 0.002)], rss=50.0))
        change = self.write("c.json", report_json(
            self.CHANGE_SETUP, [(9.0, 0.0015), (9.0, 0.0015)], rss=51.0))
        r = run_tool("--baseline", parent, change)
        self.assertEqual(r.returncode, 0, msg=r.stderr)
        lines = {l.split()[0]: l.split() for l in r.stdout.splitlines()
                 if l.split()}
        self.assertEqual(lines["setup_s"][1:4], ["3.0000", "1.5000",
                                                  "-50.0%"])
        # Sweeps 10.0 and 9.0 s: the median of two averages them.
        self.assertEqual(lines["sweep_s"][1:4], ["9.5000", "9.0000",
                                                  "-5.3%"])
        self.assertEqual(lines["peak_rss_mb"][1:4], ["50.00", "51.00",
                                                      "+2.0%"])
        self.assertIn("sim_digest 44f1dc4be6d9fc32 unchanged", r.stdout)

    def test_peak_rss_only_when_reported(self):
        parent = self.write("p.json", report_json(self.PARENT_SETUP,
                                                  [(1.0, 0.0015)]))
        change = self.write("c.json", report_json(self.CHANGE_SETUP,
                                                  [(1.0, 0.0015)]))
        r = run_tool("--baseline", parent, change)
        self.assertEqual(r.returncode, 0, msg=r.stderr)
        self.assertNotIn("peak_rss_mb", r.stdout)
        change = self.write("c.json", report_json(
            self.CHANGE_SETUP, [(1.0, 0.0015)], rss=15.0))
        r = run_tool("--baseline", parent, change)
        self.assertRegex(r.stdout, r"peak_rss_mb +n/a +15.00 +n/a")

    def test_differing_fingerprints_are_refused(self):
        parent = self.write("p.json", report_json(self.PARENT_SETUP,
                                                  [(1.0, 0.0015)]))
        for field, value in (("workload", "serve_sift"), ("nproc", 8),
                             ("cpu_model", "EPYC"), ("simd", "avx2"),
                             ("build_type", "Release"), ("lanes", 2),
                             ("seed", 7), ("data_seed", 7),
                             ("arrival_seed", 7)):
            change = self.write("c.json", report_json(
                self.CHANGE_SETUP, [(1.0, 0.0015)], **{field: value}))
            r = run_tool("--baseline", parent, change)
            self.assertEqual(r.returncode, 2, msg=field)
            self.assertIn("fingerprints differ", r.stderr)
            self.assertIn(field, r.stderr)
        # The commit and the sweep count may differ.
        change = self.write("c.json", report_json(
            self.CHANGE_SETUP, [(1.0, 0.0015)], git_commit="def",
            sweeps=2))
        self.assertEqual(run_tool("--baseline", parent, change).returncode,
                         0)

    def test_digest_mismatch_fails(self):
        parent = self.write("p.json", report_json(self.PARENT_SETUP,
                                                  [(1.0, 0.0015)]))
        change = self.write("c.json", report_json(
            self.CHANGE_SETUP, [(1.0, 0.0015)], sim_digest="f0eaa02aaa4633f9"))
        r = run_tool("--baseline", parent, change)
        self.assertEqual(r.returncode, 1)
        self.assertIn("sim_digest 44f1dc4be6d9fc32 (parent) != "
                      "f0eaa02aaa4633f9 (change)", r.stderr)
        self.assertIn("setup_s", r.stdout)  # the times still print

    def test_malformed_report_exits_2(self):
        ok = self.write("ok.json", report_json(self.PARENT_SETUP,
                                               [(1.0, 0.0015)]))
        for name, content in (
                ("bench.json", bench_json([("a", 1.0)])),
                ("nosetup.json", json.dumps({"fingerprint": FINGERPRINT})),
                ("empty.json", report_json([], [(1.0, 0.0015)])),
                ("zero.json", report_json([(1.0, 0.0)], [(1.0, 0.0015)])),
                ("cut.json", '{"fingerprint": {')):
            bad = self.write(name, content)
            r = run_tool("--baseline", ok, bad)
            self.assertEqual(r.returncode, 2, msg=name)
            self.assertIn(name, r.stderr)

    def test_takes_two_reports(self):
        ok = self.write("ok.json", report_json(self.PARENT_SETUP,
                                               [(1.0, 0.0015)]))
        r = run_tool("--baseline", ok)
        self.assertEqual(r.returncode, 2)
        self.assertIn("exactly two perfbench reports", r.stderr)
        r = run_tool("--baseline", "--figures", ok, ok)
        self.assertEqual(r.returncode, 2)
        self.assertIn("mutually exclusive", r.stderr)


if __name__ == "__main__":
    unittest.main()
