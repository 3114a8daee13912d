#!/usr/bin/env python3
"""Unit tests for tools/ansmet_lint.py (stdlib unittest only).

Run directly:  python3 tools/test_ansmet_lint.py
Each rule (R1-R5, R8-R10) gets a triggering fixture and a passing
fixture, plus waiver fixtures; R4's lock confinement and each R9
source (thread ids, pointer hashes and casts, unordered iteration)
get a fixture asserting the flagged line. Further tests cover the
NOLINT suppression mechanics, lexer regressions (spliced comments, raw
strings, digit separators), the directory walk, --list-rules, SARIF
output, and a clean run over the real tree.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ansmet_lint  # noqa: E402

REPO = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))


class LintRunMixin:
    """Writes fixture files into a fake repo tree and runs the linter
    over them."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        self.addCleanup(self._tmp.cleanup)

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def run_lint(self, *paths, extra=()):
        out, err = io.StringIO(), io.StringIO()
        argv = ["--repo", self.root, *extra, *paths]
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = ansmet_lint.main(argv)
        return code, out.getvalue(), err.getvalue()


class R1DeterminismTest(LintRunMixin, unittest.TestCase):
    def test_rand_in_sim_dir_flags(self):
        p = self.write("src/sim/model.cc",
                       "int f() { return rand(); }\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("ansmet-determinism", out)
        self.assertIn("'rand'", out)

    def test_std_random_engine_in_anns_flags(self):
        p = self.write("src/anns/build.cc",
                       "#include <random>\n"
                       "std::mt19937 g{42};\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("mt19937", out)

    def test_system_clock_in_et_flags(self):
        p = self.write("src/et/policy.cc",
                       "auto t = std::chrono::system_clock::now();\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("system_clock", out)

    def test_time_call_flags_but_time_field_passes(self):
        bad = self.write("src/dram/timing.cc",
                         "long now() { return time(nullptr); }\n")
        code, out, _ = self.run_lint(bad)
        self.assertEqual(code, 1)
        self.assertIn("'time'", out)

        good = self.write("src/dram/timing2.cc",
                          "struct Ev { long time; };\n"
                          "long g(Ev &e) { return e.time; }\n"
                          "long h(Ev *e) { return e->time; }\n")
        code, _, _ = self.run_lint(good)
        self.assertEqual(code, 0)

    def test_same_tokens_outside_deterministic_dirs_pass(self):
        p = self.write("src/common/prng.cc",
                       "// Prng implementation may mention rand() in "
                       "comments and use\n"
                       "// whatever it wants internally.\n"
                       "int seedFromEnv() { return 0; }\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_banned_name_in_string_or_comment_passes(self):
        p = self.write("src/sim/doc.cc",
                       '// rand() is banned here.\n'
                       'const char *kMsg = "do not call rand()";\n')
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)


class R2RawNewTest(LintRunMixin, unittest.TestCase):
    def test_raw_new_flags(self):
        p = self.write("src/common/pool.cc",
                       "int *leak() { return new int(7); }\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("ansmet-rawnew", out)

    def test_raw_delete_flags(self):
        p = self.write("src/common/pool.cc",
                       "void drop(int *p) { delete p; }\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("'delete'", out)

    def test_deleted_function_passes(self):
        p = self.write("src/common/nocopy.h",
                       "struct NoCopy {\n"
                       "    NoCopy(const NoCopy &) = delete;\n"
                       "    NoCopy &operator=(const NoCopy &) = delete;\n"
                       "};\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_placement_new_passes(self):
        p = self.write("src/common/arena.cc",
                       "#include <new>\n"
                       "int *at(void *mem) { return new (mem) int(0); }\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_suppressed_with_justification_passes(self):
        p = self.write(
            "src/common/singleton.cc",
            "// NOLINTNEXTLINE(ansmet-rawnew): leaked singleton; "
            "atexit-safe.\n"
            "int *g = new int(1);\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)


class R3NolintJustificationTest(LintRunMixin, unittest.TestCase):
    def test_bare_nolint_flags(self):
        p = self.write("src/common/x.cc",
                       "int v = 0; // NOLINT\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("ansmet-nolint", out)
        # Bare NOLINT is doubly wrong: no check name, no justification.
        self.assertIn("blanket", out)
        self.assertIn("justification", out)

    def test_named_but_unjustified_flags(self):
        p = self.write(
            "src/common/x.cc",
            "int v = 0; // NOLINT(concurrency-mt-unsafe)\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("justification", out)
        self.assertNotIn("blanket", out)

    def test_named_and_justified_passes(self):
        p = self.write(
            "src/common/x.cc",
            "// NOLINTNEXTLINE(concurrency-mt-unsafe): config knob read "
            "once at startup.\n"
            "const char *e = std::getenv(\"X\");\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_nolintend_needs_no_justification(self):
        p = self.write(
            "src/common/x.cc",
            "// NOLINTBEGIN(some-check): generated table below.\n"
            "int t[3] = {1, 2, 3};\n"
            "// NOLINTEND(some-check)\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)


class R4RawSyncTest(LintRunMixin, unittest.TestCase):
    def test_std_mutex_member_flags(self):
        p = self.write("src/et/cache.h",
                       "#include <mutex>\n"
                       "struct C { std::mutex mu; };\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("ansmet-rawsync", out)
        self.assertIn("common/sync.h", out)

    def test_std_lock_guard_flags(self):
        p = self.write("src/obs/sink.cc",
                       "#include <mutex>\n"
                       "void f(std::mutex &m) {"
                       " std::lock_guard<std::mutex> lk(m); }\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("lock_guard", out)

    def test_sync_header_itself_is_exempt(self):
        p = self.write("src/common/sync.h",
                       "#include <mutex>\n"
                       "class Mutex { std::mutex mu_; };\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_unqualified_identifier_passes(self):
        # A field named `mutex` (no std:: qualification) is fine.
        p = self.write("src/common/y.h",
                       "struct HwDesc { int mutex; };\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_std_thread_outside_runtime_flags(self):
        p = self.write("src/core/sampler.cc",
                       "#include <thread>\n"
                       "void f() { std::thread t([] {}); t.join(); }\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("ansmet-rawsync", out)
        self.assertIn("runtime::parallelFor", out)

    def test_std_async_outside_runtime_flags(self):
        p = self.write("src/anns/builder.cc",
                       "#include <future>\n"
                       "auto f() { return std::async([] { return 1; }); }\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("std::async", out)

    def test_std_thread_inside_runtime_is_exempt(self):
        p = self.write("src/common/runtime/runtime.h",
                       "#include <thread>\n"
                       "class Runtime { std::thread worker_; };\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_this_thread_passes_everywhere(self):
        p = self.write("src/obs/poll.cc",
                       "#include <thread>\n"
                       "void f() { std::this_thread::yield(); }\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_std_thread_waiver_with_justification_passes(self):
        p = self.write(
            "src/core/probe.cc",
            "#include <thread>\n"
            "// NOLINTNEXTLINE(ansmet-rawsync): OS probe outlives runtime.\n"
            "std::thread spawnProbe();\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_mutexlock_in_sim_callback_flags(self):
        p = self.write(
            "src/sim/pump.cc",
            "void f(Q &q, Tick t) {\n"
            "    q.schedule(t, [this] {\n"
            "        MutexLock lk(mu_);\n"
            "        drain();\n"
            "    });\n"
            "}\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("pump.cc:3: [R4/ansmet-rawsync] MutexLock", out)
        self.assertIn("src/common/runtime and src/obs", out)

    def test_mutex_in_anns_flags(self):
        p = self.write("src/anns/index.h",
                       "#include \"common/sync.h\"\n"
                       "struct Index { Mutex mu_; };\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("index.h:2: [R4/ansmet-rawsync] Mutex", out)

    def test_wrappers_in_obs_and_runtime_pass(self):
        obs = self.write(
            "src/obs/sink.cc",
            "struct Sink {\n"
            "    Mutex mu_;\n"
            "    void put() { MutexLock lk(mu_); }\n"
            "};\n")
        rt = self.write(
            "src/common/runtime/pool.h",
            "struct Pool {\n"
            "    Mutex mu_;\n"
            "    CondVar cv_;\n"
            "    void wait() { MutexLock lk(mu_); cv_.wait(mu_); }\n"
            "};\n")
        code, out, _ = self.run_lint(obs, rt)
        self.assertEqual(code, 0, out)


class R5EventCaptureTest(LintRunMixin, unittest.TestCase):
    def test_std_function_in_schedule_arg_flags(self):
        p = self.write(
            "src/dram/ctrl.cc",
            "#include <functional>\n"
            "void f(Q &q) {\n"
            "    std::function<void()> cb = [] {};\n"
            "    q.scheduleIn(10, std::function<void()>(cb));\n"
            "}\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("ansmet-eventcapture", out)
        self.assertIn("ctrl.cc:4:", out)
        # The declaration outside the call must not be flagged.
        self.assertNotIn("ctrl.cc:3:", out)

    def test_inline_callback_lambda_passes(self):
        p = self.write(
            "src/ndp/unit.cc",
            "void f(Q &q, int idx) {\n"
            "    q.scheduleIn(TickDelta{10}, [idx] { fire(idx); });\n"
            "    q.schedule(Tick{99}, [] {}, 1);\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_std_function_outside_schedule_call_passes(self):
        # A std::function member elsewhere in a hot dir is R5-clean
        # (the rule only polices schedule()/scheduleIn() arguments).
        p = self.write(
            "src/sim/hooks.h",
            "#include <functional>\n"
            "struct Hooks { std::function<void()> onDrain; };\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_non_hot_dir_is_exempt(self):
        p = self.write(
            "src/anns/replay.cc",
            "#include <functional>\n"
            "void f(Q &q, std::function<void()> cb) {\n"
            "    q.scheduleIn(10, std::function<void()>(cb));\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_waiver_with_justification_passes(self):
        p = self.write(
            "src/cpu/host.cc",
            "void f(Q &q, std::function<void()> cb) {\n"
            "    // NOLINTNEXTLINE(ansmet-eventcapture): cold "
            "init-time path.\n"
            "    q.schedule(Tick{0}, std::function<void()>(cb));\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)


class R8DangleCaptureTest(LintRunMixin, unittest.TestCase):
    def test_default_ref_capture_in_schedule_flags(self):
        p = self.write(
            "src/sim/defer.cc",
            "void f(Q &q, TickDelta d) {\n"
            "    int local = 0;\n"
            "    q.scheduleIn(d, [&] { use(local); });\n"
            "}\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("ansmet-danglecapture", out)
        self.assertIn("[&]", out)
        self.assertIn("scheduleIn()", out)

    def test_named_ref_capture_in_oncomplete_flags(self):
        p = self.write(
            "src/ndp/task.cc",
            "void f(NdpTask &t) {\n"
            "    int x = 0;\n"
            "    t.onComplete = [&x] { use(x); };\n"
            "}\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("&x", out)
        self.assertIn("onComplete", out)

    def test_value_and_this_captures_pass(self):
        p = self.write(
            "src/sim/defer.cc",
            "void f(Q &q, Tick t, int x) {\n"
            "    q.schedule(t, [this, x] { use(x); });\n"
            "    q.schedule(t, [v = make(x)] { use(v); });\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_ref_lambda_outside_sinks_passes(self):
        # An immediately-invoked or locally-consumed [&] lambda is
        # fine; only deferred-callback sinks are policed.
        p = self.write(
            "src/sim/defer.cc",
            "void f(std::vector<int> &v) {\n"
            "    auto sum = [&] { return v.size(); };\n"
            "    use(sum());\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_subscript_in_sink_is_not_a_lambda(self):
        p = self.write(
            "src/sim/defer.cc",
            "void f(Q &q, Tick t, Cb cbs[]) {\n"
            "    q.schedule(t, cbs[0]);\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_waiver_with_justification_passes(self):
        p = self.write(
            "src/ndp/task.cc",
            "void f(NdpTask &t, State &s) {\n"
            "    // NOLINTNEXTLINE(ansmet-danglecapture): s outlives "
            "the task by construction.\n"
            "    t.onComplete = [&s] { s.done = true; };\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)


class R9DetflowTest(LintRunMixin, unittest.TestCase):
    def test_unordered_decl_in_det_dir_flags(self):
        p = self.write(
            "src/et/cache.h",
            "#include <unordered_map>\n"
            "struct C { std::unordered_map<int, int> seen_; };\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("ansmet-detflow", out)
        self.assertIn("iteration order", out)
        # The #include line itself is exempt; only the use flags.
        self.assertIn("cache.h:2:", out)
        self.assertNotIn("cache.h:1:", out)

    def test_unordered_in_core_and_layout_flags(self):
        # Replay order (src/core) and data placement (src/layout) are
        # deterministic directories too.
        for rel in ("src/core/system.h", "src/layout/partition.h"):
            with self.subTest(rel=rel):
                p = self.write(
                    rel,
                    "#include <unordered_set>\n"
                    "struct P { std::unordered_set<unsigned> hot_; };\n")
                code, out, _ = self.run_lint(p)
                self.assertEqual(code, 1)
                self.assertIn("ansmet-detflow", out)
                self.assertIn(os.path.basename(rel) + ":2:", out)

    def test_unordered_outside_det_dirs_passes(self):
        p = self.write(
            "src/common/registry.h",
            "#include <unordered_map>\n"
            "struct R { std::unordered_map<int, int> by_id_; };\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_ordered_map_iteration_passes(self):
        p = self.write(
            "src/anns/graph.cc",
            "#include <map>\n"
            "void f(std::map<int, int> &m, std::vector<int> &out) {\n"
            "    for (const auto &kv : m) out.push_back(kv.first);\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_cross_function_chain_flags_at_the_cast(self):
        # The pointer bits feed a three-function chain into a schedule
        # call; the finding lands on the cast, where they first appear.
        p = self.write(
            "src/anns/sched.cc",
            "struct Sched {\n"
            "    uint64_t key(void *p) {\n"
            "        return reinterpret_cast<uint64_t>(p);\n"
            "    }\n"
            "    void submit(uint64_t t) {\n"
            "        eq_.scheduleIn(TickDelta{t}, [] {});\n"
            "    }\n"
            "    void go(void *p) { submit(key(p)); }\n"
            "    EventQueue eq_;\n"
            "};\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("sched.cc:3: [R9/ansmet-detflow] reinterpret_cast",
                      out)
        self.assertEqual(out.count("ansmet-detflow"), 1)

    def test_range_for_over_waived_unordered_member_flags(self):
        p = self.write(
            "src/anns/walk.cc",
            "struct G {\n"
            "    // NOLINTNEXTLINE(ansmet-detflow): fixture decl only.\n"
            "    std::unordered_map<int, int> links_;\n"
            "    std::vector<int> order_;\n"
            "    void walk() {\n"
            "        for (const auto &kv : links_)\n"
            "            order_.push_back(kv.first);\n"
            "    }\n"
            "};\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        # The declaration waiver does not cover iterating it.
        self.assertIn("walk.cc:6: [R9/ansmet-detflow] range-for over "
                      "unordered container 'links_'", out)
        self.assertEqual(out.count("ansmet-detflow"), 1)

    def test_begin_on_waived_unordered_member_flags(self):
        p = self.write(
            "src/et/lut.cc",
            "struct T {\n"
            "    // NOLINTNEXTLINE(ansmet-detflow): lookup-only table, "
            "never iterated.\n"
            "    std::unordered_map<int, int> lut_;\n"
            "    int first() const { return lut_.begin()->first; }\n"
            "};\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("lut.cc:4: [R9/ansmet-detflow] iterating unordered "
                      "container 'lut_' (.begin())", out)

    def test_get_id_flags(self):
        p = self.write(
            "src/sim/stats.cc",
            "void f(Histo &h) {\n"
            "    auto id = std::this_thread::get_id();\n"
            "    h.record(id);\n"
            "}\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("stats.cc:2: [R9/ansmet-detflow] get_id()", out)
        self.assertEqual(out.count("ansmet-detflow"), 1)

    def test_pthread_self_flags(self):
        p = self.write(
            "src/dram/owner.cc",
            "#include <pthread.h>\n"
            "unsigned long owner() { return pthread_self(); }\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("owner.cc:2: [R9/ansmet-detflow] pthread_self()",
                      out)

    def test_hash_of_pointer_flags(self):
        p = self.write(
            "src/ndp/route.cc",
            "#include <functional>\n"
            "unsigned slot(const Task *t, unsigned n) {\n"
            "    return std::hash<const Task *>{}(t) % n;\n"
            "}\n"
            "unsigned slot(int id, unsigned n) {\n"
            "    return std::hash<int>{}(id) % n;\n"
            "}\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("route.cc:3: [R9/ansmet-detflow] std::hash of a "
                      "pointer type", out)
        self.assertNotIn("route.cc:6:", out)

    def test_pointer_to_uintptr_cast_flags(self):
        p = self.write(
            "src/serve/key.cc",
            "#include <cstdint>\n"
            "std::uintptr_t key(const void *p) {\n"
            "    return reinterpret_cast<std::uintptr_t>(p);\n"
            "}\n"
            "const char *bytes(const float *p) {\n"
            "    return reinterpret_cast<const char *>(p);\n"
            "}\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("key.cc:3: [R9/ansmet-detflow] reinterpret_cast",
                      out)
        # A pointer-to-pointer cast exposes no address bits.
        self.assertNotIn("key.cc:6:", out)

    def test_lookup_only_use_does_not_taint(self):
        # find()/count() lookups are value-keyed, not order-dependent;
        # with the declaration waived the taint pass stays silent.
        p = self.write(
            "src/et/lut.cc",
            "struct T {\n"
            "    // NOLINTNEXTLINE(ansmet-detflow): lookup-only table, "
            "never iterated.\n"
            "    std::unordered_map<int, int> lut_;\n"
            "    void f(Q &q, int k) {\n"
            "        auto it = lut_.find(k);\n"
            "        q.scheduleIn(TickDelta{it->second}, [] {});\n"
            "    }\n"
            "};\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_waiver_with_justification_passes(self):
        p = self.write(
            "src/anns/sched.cc",
            "struct S {\n"
            "    void go(void *p) {\n"
            "        // NOLINTNEXTLINE(ansmet-detflow): dedup key only, "
            "never ordered.\n"
            "        id_ = reinterpret_cast<uint64_t>(p);\n"
            "    }\n"
            "    uint64_t id_;\n"
            "};\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)


class R10CheckPureTest(LintRunMixin, unittest.TestCase):
    def test_dcheck_with_pop_flags(self):
        # Regression: a DCHECK that pops the queue it is auditing
        # drains it only when audits are ON.
        p = self.write(
            "src/sim/queue.cc",
            "void f(Q &q) {\n"
            "    ANSMET_DCHECK(q.pop() > 0, \"drained in order\");\n"
            "}\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("ansmet-checkpure", out)
        self.assertIn(".pop()", out)
        self.assertIn("audit-off", out)

    def test_increment_flags(self):
        p = self.write(
            "src/common/count.cc",
            "void f(int n) { ANSMET_DCHECK(++n < 5, \"limit\"); }\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("'++'", out)

    def test_assignment_flags(self):
        p = self.write(
            "src/common/assign.cc",
            "void f(int n, int m) { ANSMET_DCHECK(n = m, \"typo\"); }\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("assignment", out)

    def test_pure_comparisons_pass(self):
        p = self.write(
            "src/sim/queue.cc",
            "void f(const Q &q, int lo, int hi) {\n"
            "    ANSMET_DCHECK(q.size() <= 64, \"bounded\");\n"
            "    ANSMET_DCHECK(lo == 0 || lo != hi, \"range\");\n"
            "    ANSMET_DCHECK(q.front() >= lo && q.back() < hi);\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_always_on_check_is_exempt(self):
        # ANSMET_CHECK evaluates in every build; side effects there
        # are a style question, not a silent-divergence bug.
        p = self.write(
            "src/serve/adm.cc",
            "void f(S &s, uint64_t id) {\n"
            "    ANSMET_CHECK(s.ids.insert(id).second, \"dup\");\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_waiver_with_justification_passes(self):
        p = self.write(
            "src/sim/queue.cc",
            "void f(Prng &r) {\n"
            "    // NOLINTNEXTLINE(ansmet-checkpure): audit builds only "
            "sample the stream.\n"
            "    ANSMET_DCHECK(r.next() != 0, \"stream alive\");\n"
            "}\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)


class LexerRegressionTest(LintRunMixin, unittest.TestCase):
    def test_line_spliced_comment_stays_a_comment(self):
        # A backslash-newline extends a // comment onto the next line;
        # the banned identifier there must not be lexed as code.
        p = self.write(
            "src/sim/doc.cc",
            "// this comment continues \\\n"
            "   rand() srand() random_device\n"
            "int ok = 1;\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_digit_separator_does_not_desync_lexer(self):
        # 5'000 once mis-lexed the ' as a char literal, swallowing the
        # rest of the line and re-lexing later strings as code.
        p = self.write(
            "src/sim/num.cc",
            "int x = 5'000;\n"
            "const char *s = \"do not call rand()\";\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)

    def test_raw_string_contents_are_not_code(self):
        p = self.write(
            "src/sim/raw.cc",
            "const char *kHelp = R\"(don't call rand())\";\n"
            "const char *kBig = R\"ansmet(\n"
            "rand();\n"
            "int *p = new int(3);\n"
            ")ansmet\";\n"
            "int ok = 1;\n")
        code, _, _ = self.run_lint(p)
        self.assertEqual(code, 0)


class SuppressionMechanicsTest(LintRunMixin, unittest.TestCase):
    def test_same_line_nolint_waives_only_that_line(self):
        p = self.write(
            "src/sim/r.cc",
            "int a = rand(); // NOLINT(ansmet-determinism): fixture.\n"
            "int b = rand();\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertEqual(out.count("ansmet-determinism"), 1)
        self.assertIn("r.cc:2:", out)

    def test_wrong_rule_name_does_not_waive(self):
        p = self.write(
            "src/sim/r.cc",
            "int a = rand(); // NOLINT(ansmet-rawnew): wrong rule.\n")
        code, out, _ = self.run_lint(p)
        self.assertEqual(code, 1)
        self.assertIn("ansmet-determinism", out)


class CommandLineTest(LintRunMixin, unittest.TestCase):
    def test_directory_walk_finds_nested_files(self):
        self.write("src/ndp/deep/unit.cc",
                   "int f() { return rand(); }\n")
        code, out, _ = self.run_lint(os.path.join(self.root, "src"))
        self.assertEqual(code, 1)
        self.assertIn("unit.cc", out)

    def test_list_rules(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ansmet_lint.main(["--list-rules"])
        self.assertEqual(code, 0)
        self.assertEqual(out.getvalue().splitlines(), [
            "R1  ansmet-determinism", "R2  ansmet-rawnew",
            "R3  ansmet-nolint", "R4  ansmet-rawsync",
            "R5  ansmet-eventcapture", "R8  ansmet-danglecapture",
            "R9  ansmet-detflow", "R10  ansmet-checkpure"])


class SarifOutputTest(LintRunMixin, unittest.TestCase):
    def test_sarif_findings_parse_and_carry_rule_ids(self):
        p = self.write(
            "src/sim/roll.cc",
            "#include <cstdlib>\n"
            "int f() { return rand(); }\n")
        code, out, _ = self.run_lint(p, extra=("--format", "sarif"))
        self.assertEqual(code, 1)
        doc = json.loads(out)
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "ansmet_lint")
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        self.assertEqual(len(rule_ids), 8)
        self.assertIn("R1/ansmet-determinism", rule_ids)
        res = run["results"][0]
        self.assertEqual(res["ruleId"], "R1/ansmet-determinism")
        self.assertEqual(rule_ids[res["ruleIndex"]], res["ruleId"])
        loc = res["locations"][0]["physicalLocation"]
        self.assertTrue(
            loc["artifactLocation"]["uri"].endswith("roll.cc"))
        self.assertEqual(loc["region"]["startLine"], 2)

    def test_sarif_clean_run_emits_valid_empty_log(self):
        p = self.write("src/common/ok.cc", "void f() {}\n")
        code, out, _ = self.run_lint(p, extra=("--format", "sarif"))
        self.assertEqual(code, 0)
        doc = json.loads(out)
        self.assertEqual(doc["runs"][0]["results"], [])

    def test_sarif_output_file(self):
        p = self.write("src/common/ok.cc", "void f() {}\n")
        dest = os.path.join(self.root, "lint.sarif")
        code, _, _ = self.run_lint(
            p, extra=("--format", "sarif", "--output", dest))
        self.assertEqual(code, 0)
        with open(dest, encoding="utf-8") as fh:
            self.assertEqual(json.load(fh)["version"], "2.1.0")


class RealTreeTest(unittest.TestCase):
    def test_repo_src_is_clean(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = ansmet_lint.main(["--repo", REPO])
        self.assertEqual(
            code, 0,
            f"linter found issues in the real tree:\n{out.getvalue()}")


if __name__ == "__main__":
    unittest.main()
