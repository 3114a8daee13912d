#!/usr/bin/env python3
"""ansmet_lint: project-specific determinism and style linter.

ANSMET's figures depend on bitwise-deterministic replay, and its
locking contracts are enforced at compile time through the annotated
wrappers in src/common/sync.h. This linter statically proves the
conventions that neither the compiler nor clang-tidy checks:

  R1  ansmet-determinism   No nondeterminism source in the simulator-
                           deterministic directories (src/sim, src/ndp,
                           src/dram, src/et, src/anns): std::rand and
                           friends, wall-clock time, and std random
                           engines are banned; common::Prng is the only
                           sanctioned randomness.
  R2  ansmet-rawnew        No raw `new` / `delete` in src/ (smart
                           pointers and containers own everything);
                           `= delete`d functions and placement forms
                           are exempt.
  R3  ansmet-nolint        Every NOLINT / NOLINTNEXTLINE / NOLINTBEGIN
                           must carry a written justification after the
                           check list (": why" — keeps suppressions
                           honest).
  R4  ansmet-rawsync       No direct std::mutex / std::shared_mutex /
                           std::condition_variable (or std lock RAII
                           over them) outside src/common/sync.h — the
                           annotated wrappers are mandatory so Clang's
                           thread-safety analysis sees every lock.
                           Likewise no direct std::thread / std::jthread
                           / std::async outside src/common/runtime/ —
                           threads are spawned only by the task runtime
                           so worker count, affinity, and shutdown stay
                           centralized (std::this_thread is fine).
  R5  ansmet-eventcapture  No std::function inside the arguments of a
                           schedule()/scheduleIn() call in the
                           simulator-hot directories (src/sim, src/ndp,
                           src/dram, src/cpu, src/core, src/cache):
                           event callbacks are sim::EventQueue::Callback
                           (an InlineFunction with a compile-enforced
                           capture budget); std::function would put its
                           capture back on the heap per event.
  R7  ansmet-lockorder     The static lock-acquisition graph must be
                           acyclic. Scoped acquisitions (MutexLock /
                           ReaderLock / WriterLock from common/sync.h,
                           plus ANSMET_REQUIRES preconditions) are
                           collected per function, propagated through
                           direct calls, and any cycle in the resulting
                           order graph is reported with its full path —
                           a cycle is a latent deadlock even if today's
                           schedules never interleave it.
  R8  ansmet-danglecapture A callback handed to schedule()/scheduleIn()
                           or stored in an onComplete field
                           (dram::Request, ndp::NdpTask) runs after the
                           enclosing frame is gone, so its lambda must
                           not capture by reference ([&], [&x],
                           [&x = ...]); capture by value or [this].
  R9  ansmet-detflow       No nondeterministic value may flow into
                           simulated state in the deterministic
                           directories. Two layers: any std::unordered_*
                           container mention is flagged at the
                           declaration (bucket order is the hazard), and
                           a conservative interprocedural taint pass
                           tracks values derived from unordered-
                           container iteration, pointer-to-integer
                           casts, std::hash over pointers, and thread
                           ids through assignments, returns, and
                           same-file calls into sinks: event-scheduling
                           arguments, simulator state writes (members
                           named `*_`), and obs-recorded values.
  R10 ansmet-checkpure     No side effect inside the arguments of
                           ANSMET_DCHECK* : audit-off builds skip the
                           whole expression (common/check.h gates it on
                           auditEnabled()), so `++`, assignments, and
                           mutating calls (pop(), erase(), next(), ...)
                           silently disappear in release runs.
  R12 ansmet-cbblock       Deferred callbacks (schedule()/scheduleIn()
                           arguments and onComplete fields) in the
                           sim-hot directories must not block: no
                           MutexLock/ReaderLock/WriterLock acquisition,
                           no .wait() parking, and no call to a
                           same-file function that (transitively,
                           file-locally) acquires a lock. Atomics and
                           seqlock reads are naturally exempt.

Suppression: a finding is waived by `// NOLINT(<rule>): reason` on the
same line or `// NOLINTNEXTLINE(<rule>): reason` on the line above,
using the rule names in the middle column (for R7, on the acquisition
or call line that contributes the unwanted edge). R3 itself validates
those comments, so a suppression can never be silent.

Tokens come from a built-in C++ lexer (lex_tokens); every rule runs
on that one token stream, over a full scan of src/ by default.

Output: `--format text` (default) prints one line per finding;
`--format sarif` emits a SARIF 2.1.0 log (for code-scanning upload).
`--output FILE` redirects either format to a file.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------

DETERMINISTIC_DIRS = ("src/sim", "src/ndp", "src/dram", "src/et",
                      "src/anns", "src/serve")

# Identifier tokens banned by R1 inside the deterministic directories.
BANNED_RANDOM = {
    "rand": "std::rand is seed-global and unordered under threading",
    "srand": "std::srand mutates global state",
    "rand_r": "use common::Prng streams instead",
    "random": "POSIX random() is seed-global",
    "drand48": "use common::Prng streams instead",
    "lrand48": "use common::Prng streams instead",
    "mrand48": "use common::Prng streams instead",
    "random_device": "std::random_device is nondeterministic by design",
    "mt19937": "std engines drift across stdlibs; use common::Prng",
    "mt19937_64": "std engines drift across stdlibs; use common::Prng",
    "minstd_rand": "std engines drift across stdlibs; use common::Prng",
    "default_random_engine": "implementation-defined; use common::Prng",
}
BANNED_CLOCK = {
    "system_clock": "wall-clock time must not feed simulated output",
    "high_resolution_clock": "wall-clock time must not feed simulated "
                             "output",
    "steady_clock": "host timing must not feed simulated output",
    "clock_gettime": "host timing must not feed simulated output",
    "gettimeofday": "host timing must not feed simulated output",
}

# R4: raw sync vocabulary banned outside the wrapper header.
BANNED_SYNC = {
    "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex", "shared_timed_mutex", "condition_variable",
    "condition_variable_any", "lock_guard", "unique_lock", "shared_lock",
    "scoped_lock",
}
SYNC_EXEMPT_SUFFIX = os.path.join("src", "common", "sync.h")

# R4 (thread-spawn half): raw std::thread / std::jthread / std::async
# outside the task runtime. Centralizing thread creation is what keeps
# worker count, core affinity, the nested-inline rules, and
# drain-then-join shutdown coherent.
# (`std::this_thread` lexes as the single identifier `this_thread` and
# is deliberately not banned — yield/sleep_for are fine anywhere.)
BANNED_THREAD_SPAWN = {"thread", "jthread", "async"}
THREAD_EXEMPT_DIRS = ("src/common/runtime",)

# R5/R8/R12: directories whose schedule()/scheduleIn() calls sit on the
# simulated hot path.
SIM_HOT_DIRS = ("src/sim", "src/ndp", "src/dram", "src/cpu", "src/core",
                "src/cache")
SCHEDULE_CALLS = ("schedule", "scheduleIn", "scheduleCancelable",
                  "scheduleInCancelable")

# R7: the scoped-capability RAII classes from src/common/sync.h.
LOCK_CLASSES = {"MutexLock", "ReaderLock", "WriterLock"}
REQUIRES_MACROS = {"ANSMET_REQUIRES", "ANSMET_REQUIRES_SHARED"}

# R8: struct fields holding completion callbacks that outlive the
# assigning frame (dram::Request::onComplete, ndp::NdpTask::onComplete).
CALLBACK_FIELDS = {"onComplete"}

# R9: unordered containers whose iteration order is the hazard.
UNORDERED_CONTAINERS = {"unordered_map", "unordered_set",
                        "unordered_multimap", "unordered_multiset"}
# Iterating is the leak; find()/count()/at() lookups stay deterministic.
_ITER_METHODS = {"begin", "end", "cbegin", "cend", "rbegin", "rend"}
_NONDET_CALLS = {"get_id", "pthread_self"}
# reinterpret_cast<T>(ptr) where T is integral = address bits escaping.
_INT_CAST_TARGETS = {"uintptr_t", "intptr_t", "size_t", "ptrdiff_t",
                     "uint64_t", "uint32_t", "int64_t", "int32_t",
                     "unsigned", "long", "int", "short"}
# Methods through which a tainted element taints its container.
_GROW_METHODS = {"push_back", "emplace_back", "push_front",
                 "emplace_front", "insert", "emplace", "push",
                 "assign", "append"}
# obs recording surfaces (Counter/Gauge/Histogram/TraceWriter).
_OBS_RECORD_METHODS = {"record", "inc", "add", "set", "observe"}
# Ids never worth tainting in a range-for declaration (type furniture).
_TYPEISH_IDS = {"auto", "const", "std", "size_t", "uint8_t", "uint16_t",
                "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t",
                "int64_t", "unsigned", "signed", "int", "long", "short",
                "char", "bool", "float", "double", "pair", "tuple",
                "string", "string_view"}

# R10: ANSMET_DCHECK* arguments vanish in audit-off builds; these
# member calls mutate their receiver, so calling them there loses the
# effect silently (Prng::next() included: it advances the stream).
_DCHECK_PREFIX = "ANSMET_DCHECK"
_MUTATING_METHODS = {"pop", "tryPop", "push", "tryPush", "tryOffer",
                     "pop_back", "pop_front", "push_back", "push_front",
                     "emplace", "emplace_back", "erase", "insert",
                     "clear", "reset", "release", "consume", "advance",
                     "store", "exchange", "fetch_add", "fetch_sub",
                     "next"}

# R12: parking calls banned inside deferred callbacks (TaskGroup::wait
# and friends); lock RAII comes from LOCK_CLASSES above.
_BLOCKING_WAITS = {"wait", "waitAll"}

RULES = {
    "R1": "ansmet-determinism",
    "R2": "ansmet-rawnew",
    "R3": "ansmet-nolint",
    "R4": "ansmet-rawsync",
    "R5": "ansmet-eventcapture",
    "R7": "ansmet-lockorder",
    "R8": "ansmet-danglecapture",
    "R9": "ansmet-detflow",
    "R10": "ansmet-checkpure",
    "R12": "ansmet-cbblock",
}

NOLINT_RE = re.compile(
    r"NOLINT(NEXTLINE|BEGIN|END)?(\(([^)]*)\))?(.*)", re.DOTALL)


class Token:
    __slots__ = ("kind", "spelling", "line")

    def __init__(self, kind, spelling, line):
        self.kind = kind  # 'id', 'punct', 'comment', 'literal', 'kw'
        self.spelling = spelling
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Token({self.kind},{self.spelling!r},{self.line})"


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return (f"{self.path}:{self.line}: [{self.rule}/"
                f"{RULES[self.rule]}] {self.message}")


# --------------------------------------------------------------------
# Lexer: a small C++ scanner producing the token stream every rule
# reads.
# --------------------------------------------------------------------

_ID_START = set("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
_KEYWORDS = {"new", "delete", "operator"}


def lex_tokens(text):
    """Tokenize C++ source: identifiers, punctuation, comments,
    literals. Strings/chars collapse to one literal token so banned
    names inside them never match; comments are kept for R3."""
    tokens = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r\f\v":
            i += 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            # A backslash immediately before the newline (phase-2 line
            # splice) continues the comment onto the next line.
            while j < n and (text[j - 1] == "\\" or
                             text[j - 2:j] == "\\\r"):
                j = text.find("\n", j + 1)
                j = n if j < 0 else j
            tokens.append(Token("comment", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            body = text[i:j + 2]
            tokens.append(Token("comment", body, line))
            line += body.count("\n")
            i = j + 2
        elif c == '"':
            # Defense in depth: if this quote opens a raw string whose
            # `R` prefix was consumed by an earlier token (possible
            # only after a lexing desync), honor the )delim" close
            # instead of stopping at the next bare quote.
            raw = (re.match(r'"([^()\\\s]{0,16})\(', text[i:])
                   if i >= 1 and text[i - 1] == "R" else None)
            if raw:
                close = f"){raw.group(1)}\""
                end = text.find(close, i)
                end = n if end < 0 else end + len(close)
                tokens.append(Token("literal", text[i:end], line))
                line += text.count("\n", i, end)
                i = end
                continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("literal", text[i:j + 1], line))
            line += text.count("\n", i, j + 1)
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("literal", text[i:j + 1], line))
            i = j + 1
        elif c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            spelling = text[i:j]
            # Raw string literal: R"delim( ... )delim"
            if spelling.endswith("R") and j < n and text[j] == '"':
                m = re.match(r'R"([^()\\ ]*)\(', text[j - 1:])
                if m:
                    end = text.find(f"){m.group(1)}\"", j)
                    end = n if end < 0 else end + len(m.group(1)) + 2
                    tokens.append(Token("literal", text[i:end], line))
                    line += text.count("\n", i, end)
                    i = end
                    continue
            kind = "kw" if spelling in _KEYWORDS else "id"
            tokens.append(Token(kind, spelling, line))
            i = j
        elif c.isdigit():
            j = i + 1
            while j < n:
                ch = text[j]
                if ch in _ID_CONT or ch == ".":
                    j += 1
                elif ch == "'" and j + 1 < n and text[j + 1] in _ID_CONT:
                    j += 2  # digit separator, e.g. 5'000
                elif ch in "+-" and text[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            tokens.append(Token("literal", text[i:j], line))
            i = j
        else:
            tokens.append(Token("punct", c, line))
            i += 1
    return tokens


# --------------------------------------------------------------------
# Suppression handling
# --------------------------------------------------------------------

def suppressed_lines(tokens):
    """Map rule-name -> set of line numbers waived by NOLINT comments."""
    waived = {}
    for tok in tokens:
        if tok.kind != "comment" or "NOLINT" not in tok.spelling:
            continue
        m = NOLINT_RE.search(tok.spelling)
        if not m:
            continue
        variant = m.group(1) or ""
        names = [s.strip() for s in (m.group(3) or "").split(",")
                 if s.strip()]
        last_line = tok.line + tok.spelling.count("\n")
        target = last_line + 1 if variant == "NEXTLINE" else tok.line
        for name in names or ["*"]:
            waived.setdefault(name, set()).add(target)
    return waived


def is_waived(waived, rule_name, line):
    for name in (rule_name, "*"):
        if line in waived.get(name, set()):
            return True
    return False


# --------------------------------------------------------------------
# Structural helpers shared by the R7-R12 analyses
# --------------------------------------------------------------------

def code_tokens(tokens):
    return [t for t in tokens if t.kind in ("id", "kw", "punct",
                                            "literal")]


def skip_balanced(code, i, open_s, close_s):
    """code[i] must be open_s; return the index just past its matching
    close_s, or None when unbalanced."""
    depth = 0
    n = len(code)
    while i < n:
        s = code[i].spelling
        if s == open_s:
            depth += 1
        elif s == close_s:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return None


def _tok_at(code, k):
    """Spelling of code[k], or '' when out of range."""
    return code[k].spelling if 0 <= k < len(code) else ""


def _match_backward(code, j, open_s, close_s):
    """code[j] must be close_s; return the index of its matching
    open_s, or None when unbalanced."""
    depth = 0
    while j >= 0:
        s = code[j].spelling
        if s == close_s:
            depth += 1
        elif s == open_s:
            depth -= 1
            if depth == 0:
                return j
        j -= 1
    return None


def _skip_angles(code, i, hi):
    """code[i] must be '<'; return the index just past the matching
    '>' (template argument list), or None. Bails at ';' or '{' so a
    stray less-than comparison cannot swallow the file."""
    depth = 0
    while i < hi:
        s = code[i].spelling
        if s == "<":
            depth += 1
        elif s == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif s in (";", "{"):
            return None
        i += 1
    return None


def split_top_commas(arg_tokens):
    """Split an argument token slice at depth-zero commas."""
    args = []
    cur = []
    depth = 0
    for t in arg_tokens:
        s = t.spelling
        if s in "([{":
            depth += 1
        elif s in ")]}":
            depth -= 1
        if s == "," and depth == 0:
            args.append(cur)
            cur = []
        else:
            cur.append(t)
    args.append(cur)
    return args


def render_expr(expr_tokens):
    return "".join(t.spelling for t in expr_tokens)


# --------------------------------------------------------------------
# Rule implementations R1-R5 (token-level)
# --------------------------------------------------------------------

def path_in(path, prefixes):
    rel = path.replace(os.sep, "/")
    return any(f"/{p}/" in f"/{rel}/" or rel.startswith(p + "/")
               for p in prefixes)


def check_determinism(path, tokens, waived, findings):
    if not path_in(path, DETERMINISTIC_DIRS):
        return
    code = [t for t in tokens if t.kind in ("id", "kw", "punct")]
    for idx, tok in enumerate(code):
        if tok.kind != "id":
            continue
        reason = None
        name = tok.spelling
        if name in BANNED_RANDOM:
            reason = BANNED_RANDOM[name]
        elif name in BANNED_CLOCK:
            reason = BANNED_CLOCK[name]
        elif name == "time":
            # Only the call `time(...)` is banned; `time` as a field or
            # parameter name stays legal.
            nxt = code[idx + 1] if idx + 1 < len(code) else None
            prv = code[idx - 1] if idx > 0 else None
            called = nxt is not None and nxt.spelling == "("
            member = prv is not None and prv.spelling in (".", ">")
            if called and not member:
                reason = "wall-clock time() must not feed simulated " \
                         "output"
        if reason and not is_waived(waived, RULES["R1"], tok.line):
            findings.append(Finding(
                path, tok.line, "R1",
                f"'{name}' in a deterministic directory: {reason}; "
                f"common::Prng is the only sanctioned randomness"))


def check_raw_new_delete(path, tokens, waived, findings):
    code = code_tokens(tokens)
    for idx, tok in enumerate(code):
        if tok.kind != "kw" or tok.spelling not in ("new", "delete"):
            continue
        prv = code[idx - 1] if idx > 0 else None
        nxt = code[idx + 1] if idx + 1 < len(code) else None
        # `#include <new>` lexes the header name as the keyword.
        if (prv is not None and prv.spelling == "<" and
                nxt is not None and nxt.spelling == ">"):
            continue
        if tok.spelling == "delete":
            # `= delete` (deleted functions) and `operator delete`.
            if prv is not None and prv.spelling in ("=", "operator"):
                continue
        else:
            # Placement new `new (addr) T` is allowed: it constructs
            # into storage owned elsewhere. `operator new` decls too.
            if prv is not None and prv.spelling == "operator":
                continue
            if nxt is not None and nxt.spelling == "(":
                continue
        if is_waived(waived, RULES["R2"], tok.line):
            continue
        findings.append(Finding(
            path, tok.line, "R2",
            f"raw '{tok.spelling}': ownership must go through smart "
            f"pointers or containers"))


def check_nolint_justified(path, tokens, findings):
    for tok in tokens:
        if tok.kind != "comment":
            continue
        for m in re.finditer(r"NOLINT\w*", tok.spelling):
            sub = tok.spelling[m.start():]
            mm = NOLINT_RE.match(sub)
            variant = mm.group(1) or ""
            if variant == "END":
                continue  # the BEGIN marker carries the justification
            trailing = (mm.group(4) or "").strip()
            # Strip comment furniture, then require real words.
            trailing = re.sub(r"[*/\s:;,-]+", " ", trailing).strip()
            line = tok.line + tok.spelling.count("\n", 0, m.start())
            if len(trailing) < 8:
                findings.append(Finding(
                    path, line, "R3",
                    "NOLINT without a written justification; append "
                    "': <why this suppression is sound>'"))
            if not mm.group(3):
                findings.append(Finding(
                    path, line, "R3",
                    "blanket NOLINT; name the suppressed check(s), "
                    "e.g. NOLINT(concurrency-mt-unsafe)"))


def check_raw_sync(path, tokens, waived, findings):
    norm = path.replace(os.sep, "/")
    if norm.endswith("common/sync.h"):
        return
    spawn_exempt = any(f"/{d}/" in norm or norm.startswith(f"{d}/")
                       for d in THREAD_EXEMPT_DIRS)
    code = [t for t in tokens if t.kind in ("id", "kw", "punct")]
    for idx, tok in enumerate(code):
        if tok.kind != "id":
            continue
        is_sync = tok.spelling in BANNED_SYNC
        is_spawn = tok.spelling in BANNED_THREAD_SPAWN and not spawn_exempt
        if not (is_sync or is_spawn):
            continue
        # Require the std:: qualification: `std` `:` `:` `mutex`.
        if idx < 3:
            continue
        if not (code[idx - 1].spelling == ":" and
                code[idx - 2].spelling == ":" and
                code[idx - 3].spelling == "std"):
            continue
        if is_waived(waived, RULES["R4"], tok.line):
            continue
        if is_sync:
            findings.append(Finding(
                path, tok.line, "R4",
                f"raw std::{tok.spelling}: use the annotated wrappers in "
                f"common/sync.h (Mutex/SharedMutex/CondVar + MutexLock/"
                f"ReaderLock/WriterLock) so thread-safety analysis sees "
                f"the contract"))
        else:
            findings.append(Finding(
                path, tok.line, "R4",
                f"raw std::{tok.spelling}: spawn through the task runtime "
                f"(common/runtime/Runtime, TaskGroup, parallelFor) so "
                f"worker count, core affinity, and drain-then-join "
                f"shutdown stay centralized"))


def check_event_capture(path, tokens, waived, findings):
    if not path_in(path, SIM_HOT_DIRS):
        return
    code = [t for t in tokens if t.kind in ("id", "kw", "punct")]
    n = len(code)
    for idx, tok in enumerate(code):
        if tok.kind != "id" or tok.spelling not in SCHEDULE_CALLS:
            continue
        if idx + 1 >= n or code[idx + 1].spelling != "(":
            continue
        # Walk the balanced argument list of the call; any qualified
        # `std :: function` token run inside it is a finding.
        depth = 0
        j = idx + 1
        while j < n:
            s = code[j].spelling
            if s == "(":
                depth += 1
            elif s == ")":
                depth -= 1
                if depth == 0:
                    break
            elif (s == "function" and code[j].kind == "id" and j >= 3 and
                  code[j - 1].spelling == ":" and
                  code[j - 2].spelling == ":" and
                  code[j - 3].spelling == "std"):
                if not is_waived(waived, RULES["R5"], code[j].line):
                    findings.append(Finding(
                        path, code[j].line, "R5",
                        "std::function inside a schedule()/scheduleIn() "
                        "argument: event callbacks are inline "
                        "(sim::EventQueue::Callback); a std::function "
                        "capture heap-allocates on the hot path"))
            j += 1


# --------------------------------------------------------------------
# R7 ansmet-lockorder: static lock-acquisition cycle detection
# --------------------------------------------------------------------

# Keywords that look like `name (` but never head a definition or call
# worth tracking.
_CONTROL = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "catch", "throw", "assert", "else",
    "do", "case", "default", "co_await", "co_return", "co_yield",
    "alignas", "noexcept", "typeid", "requires",
}


class FuncInfo:
    __slots__ = ("name", "owner", "path", "acquisitions", "calls",
                 "requires", "params", "body", "t_returns",
                 "t_param_sink")

    def __init__(self, name, owner, path):
        self.name = name  # "Class::method" or bare function name
        self.owner = owner  # enclosing/qualifying class, or None
        self.path = path
        # (lock_id, line, frozenset(locks held at the acquisition))
        self.acquisitions = []
        # (callee name, explicit qualifier or None, line,
        #  frozenset(locks held))
        self.calls = []
        self.requires = set()  # ANSMET_REQUIRES locks, held body-wide
        self.params = []  # parameter names, in declaration order
        self.body = (0, 0)  # [start, end) into the file's code tokens
        # R9 taint summary: labels a return value may carry ("src" or
        # a parameter index), and param index -> sink description for
        # parameters that reach a sink inside this function.
        self.t_returns = set()
        self.t_param_sink = {}


def _qualify(owner, expr):
    return f"{owner}::{expr}" if owner else expr


def _scan_function_body(code, body_start, owner, func):
    """Walk one function body collecting scoped-lock acquisitions and
    every call site with the set of locks held at it. Returns the index
    just past the closing brace."""
    n = len(code)
    i = body_start  # at '{'
    depth = 0
    active = []  # (depth at acquisition, lock_id)
    base = frozenset(func.requires)
    while i < n:
        t = code[i]
        s = t.spelling
        if s == "{":
            depth += 1
            i += 1
            continue
        if s == "}":
            depth -= 1
            while active and active[-1][0] > depth:
                active.pop()
            i += 1
            if depth == 0:
                return i
            continue
        if (t.kind == "id" and s in LOCK_CLASSES and i + 2 < n and
                code[i + 1].kind == "id" and
                code[i + 2].spelling in ("(", "{")):
            open_s = code[i + 2].spelling
            close_s = ")" if open_s == "(" else "}"
            end = skip_balanced(code, i + 2, open_s, close_s)
            if end is not None:
                lock_id = _qualify(owner,
                                   render_expr(code[i + 3:end - 1]))
                held = base | {lk for _, lk in active}
                func.acquisitions.append((lock_id, t.line,
                                          frozenset(held)))
                active.append((depth, lock_id))
                i = end
                continue
        if (t.kind == "id" and s not in _CONTROL and
                s not in LOCK_CLASSES and i + 1 < n and
                code[i + 1].spelling == "("):
            qual = None
            keep = True
            if i >= 1 and code[i - 1].spelling in (".", "->"):
                # Member call on some object. Only `this->f()` is
                # resolvable by name; a call through another object
                # (`obj.load()`, `ptr->find()`) routinely collides
                # with unrelated project functions, so skip it rather
                # than poison the graph with false edges.
                keep = (code[i - 1].spelling == "->" and i >= 2 and
                        code[i - 2].spelling == "this")
            elif (i >= 3 and code[i - 1].spelling == ":" and
                    code[i - 2].spelling == ":" and
                    code[i - 3].kind == "id" and
                    code[i - 3].spelling not in ("std",)):
                qual = code[i - 3].spelling
            if keep:
                held = base | {lk for _, lk in active}
                func.calls.append((s, qual, t.line, frozenset(held)))
        i += 1
    return n


def parse_lock_functions(path, tokens, code=None):
    """Structural parse of one file: function definitions with their
    scoped-lock acquisitions, ANSMET_REQUIRES preconditions, the calls
    made under held locks, parameter names, and body token ranges (the
    R9/R12 passes index into the same code-token list). Tolerant by
    construction — anything it cannot prove to be a function definition
    is skipped."""
    if code is None:
        code = code_tokens(tokens)
    n = len(code)
    funcs = []
    class_stack = []  # (name, depth inside the class body)
    depth = 0
    i = 0
    while i < n:
        t = code[i]
        s = t.spelling
        if s == "{":
            depth += 1
            i += 1
            continue
        if s == "}":
            depth -= 1
            while class_stack and depth < class_stack[-1][1]:
                class_stack.pop()
            i += 1
            continue
        if t.kind == "id" and s in ("class", "struct"):
            name = None
            j = i + 1
            while j < n and code[j].spelling not in ("{", ";", ":"):
                if code[j].spelling == "(":  # attribute macro args
                    j = skip_balanced(code, j, "(", ")") or n
                    continue
                if code[j].kind == "id":
                    name = code[j].spelling
                j += 1
            while j < n and code[j].spelling not in ("{", ";"):
                j += 1
            if j < n and code[j].spelling == "{" and name:
                class_stack.append((name, depth + 1))
            i += 1
            continue
        if (t.kind == "id" and s not in _CONTROL and i + 1 < n and
                code[i + 1].spelling == "("):
            parsed = _try_parse_function(path, code, i, class_stack)
            if parsed is not None:
                func, next_i = parsed
                funcs.append(func)
                i = next_i
                continue
        i += 1
    return funcs


def _try_parse_function(path, code, i, class_stack):
    """Attempt to parse a function definition headed at code[i]
    (an identifier followed by '('). Returns (FuncInfo, index past the
    body) or None when this is not a definition."""
    n = len(code)
    name = code[i].spelling
    owner = None
    if (i >= 3 and code[i - 1].spelling == ":" and
            code[i - 2].spelling == ":" and code[i - 3].kind == "id"):
        owner = code[i - 3].spelling
    elif class_stack:
        owner = class_stack[-1][0]
    params_end = skip_balanced(code, i + 1, "(", ")")
    if params_end is None:
        return None
    requires = set()
    seen_init_colon = False
    k = params_end
    while k < n:
        s = code[k].spelling
        if s in (";", "}", "="):
            return None  # declaration, `= default/delete`, initializer
        if (code[k].kind == "id" and s in REQUIRES_MACROS and
                k + 1 < n and code[k + 1].spelling == "("):
            end = skip_balanced(code, k + 1, "(", ")")
            if end is None:
                return None
            for arg in split_top_commas(code[k + 2:end - 1]):
                if arg:
                    requires.add(_qualify(owner, render_expr(arg)))
            k = end
            continue
        if s == "(":  # noexcept(...), other annotation macros
            k = skip_balanced(code, k, "(", ")") or n
            continue
        if s == ":":
            seen_init_colon = True
            k += 1
            continue
        if s == "{":
            if seen_init_colon and code[k - 1].kind == "id":
                # Brace member-init inside a ctor init list: b_{2}
                k = skip_balanced(code, k, "{", "}") or n
                continue
            break  # the function body
        k += 1
    else:
        return None
    func = FuncInfo(f"{owner}::{name}" if owner else name, owner, path)
    func.requires = requires
    for slice_ in split_top_commas(code[i + 2:params_end - 1]):
        ids = []
        for tk in slice_:
            if tk.spelling == "=":
                break  # default argument: the name precedes it
            if tk.kind == "id":
                ids.append(tk.spelling)
        # The parameter name is the last identifier of the declarator
        # (`const std::vector<int> &xs` -> xs); unnamed params keep "".
        func.params.append(ids[-1] if ids else "")
    body_end = _scan_function_body(code, k, owner, func)
    func.body = (k, body_end)
    return func, body_end


def check_lock_order(lock_facts, findings):
    """Global pass: build the lock-order graph across every scanned
    file and report each cycle once, with its full path.

    lock_facts: list of (path, [FuncInfo], waived-map) triples.
    """
    funcs_by_last = {}
    for _, funcs, _ in lock_facts:
        for f in funcs:
            funcs_by_last.setdefault(f.name.split("::")[-1],
                                     []).append(f)

    def resolve(callee, qual, caller):
        """Candidate definitions for a call site. An explicit `Foo::`
        qualifier pins the owner; an unqualified call resolves only to
        methods of the caller's own class or to free functions —
        cross-class resolution by bare name is how unrelated functions
        that happen to share a method name (e.g. `load`) would
        otherwise pollute the graph."""
        out = []
        for g in funcs_by_last.get(callee, ()):
            if qual is not None:
                if g.owner == qual:
                    out.append(g)
            elif g.owner is None or g.owner == caller.owner:
                out.append(g)
        return out

    # Transitive may-acquire sets, propagated through direct calls.
    every = [f for _, funcs, _ in lock_facts for f in funcs]
    trans = {id(f): {a[0] for a in f.acquisitions} for f in every}
    changed = True
    rounds = 0
    while changed and rounds < 64:
        changed = False
        rounds += 1
        for f in every:
            for callee, qual, _, _ in f.calls:
                for g in resolve(callee, qual, f):
                    add = trans[id(g)] - trans[id(f)]
                    if add:
                        trans[id(f)] |= add
                        changed = True

    # Edges A -> B: lock B acquired (directly or via a call) while A is
    # held. Witness: where the edge is introduced.
    edges = {}  # (A, B) -> (path, line, description)
    for path, funcs, waived in lock_facts:
        for f in funcs:
            for lock, line, held in f.acquisitions:
                if is_waived(waived, RULES["R7"], line):
                    continue
                for a in sorted(held):
                    if a != lock:
                        edges.setdefault(
                            (a, lock),
                            (path, line, f"{f.name} acquires {lock}"))
            for callee, qual, line, held in f.calls:
                if not held or is_waived(waived, RULES["R7"], line):
                    continue
                for g in resolve(callee, qual, f):
                    for lock in sorted(trans[id(g)]):
                        for a in sorted(held):
                            if a != lock:
                                edges.setdefault(
                                    (a, lock),
                                    (path, line,
                                     f"{f.name} calls {g.name} which "
                                     f"acquires {lock}"))

    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, []).append(b)
    for nbrs in adj.values():
        nbrs.sort()

    # Iterative coloring DFS; every cycle is reported once, normalized
    # by rotating its smallest lock to the front.
    color = {}
    reported = set()

    def emit(cycle):
        pivot = cycle.index(min(cycle))
        norm = tuple(cycle[pivot:] + cycle[:pivot])
        if norm in reported:
            return
        reported.add(norm)
        ring = list(norm) + [norm[0]]
        hops = []
        for a, b in zip(ring, ring[1:]):
            epath, eline, edesc = edges[(a, b)]
            hops.append(f"{a} -> {b} [{edesc} at {epath}:{eline}]")
        first = edges[(ring[0], ring[1])]
        findings.append(Finding(
            first[0], first[1], "R7",
            "lock-order cycle (latent deadlock): "
            + " -> ".join(ring) + "; " + "; ".join(hops)))

    def dfs(root):
        stack = [(root, iter(adj.get(root, ())))]
        path = [root]
        color[root] = "gray"
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == "gray":
                    emit(path[path.index(nxt):])
                elif color.get(nxt) is None:
                    color[nxt] = "gray"
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = "black"
                stack.pop()
                path.pop()

    for node in sorted(adj):
        if color.get(node) is None:
            dfs(node)


# --------------------------------------------------------------------
# R8 ansmet-danglecapture: by-reference captures escaping into
# deferred callbacks
# --------------------------------------------------------------------

def _callback_sink_ranges(code):
    """Yield (lo, hi, description) index ranges of code token slices
    whose lambdas become deferred callbacks: schedule()/scheduleIn()
    argument lists and the right-hand side of `onComplete = ...`."""
    n = len(code)
    for idx, t in enumerate(code):
        if t.kind != "id":
            continue
        if (t.spelling in SCHEDULE_CALLS and idx + 1 < n and
                code[idx + 1].spelling == "("):
            end = skip_balanced(code, idx + 1, "(", ")")
            if end is not None:
                yield idx + 2, end - 1, f"{t.spelling}()"
        elif (t.spelling in CALLBACK_FIELDS and idx + 1 < n and
              code[idx + 1].spelling == "=" and
              (idx + 2 >= n or code[idx + 2].spelling != "=")):
            j = idx + 2
            depth = 0
            while j < n:
                s = code[j].spelling
                if s in "([{":
                    depth += 1
                elif s in ")]}":
                    depth -= 1
                    if depth < 0:
                        break
                elif s == ";" and depth == 0:
                    break
                j += 1
            yield idx + 2, j, f"{t.spelling} assignment"


def check_dangle_capture(path, tokens, waived, findings):
    if not path_in(path, SIM_HOT_DIRS):
        return
    code = code_tokens(tokens)
    for lo, hi, what in _callback_sink_ranges(code):
        j = lo
        while j < hi:
            t = code[j]
            if t.spelling != "[":
                j += 1
                continue
            prev = code[j - 1] if j > 0 else None
            # `[` after a value expression is a subscript, not a
            # lambda introducer.
            if prev is not None and (prev.kind in ("id", "literal") or
                                     prev.spelling in (")", "]")):
                j += 1
                continue
            end = skip_balanced(code, j, "[", "]")
            if end is None:
                j += 1
                continue
            for cap in split_top_commas(code[j + 1:end - 1]):
                if not cap:
                    continue
                bad = None
                if cap[0].spelling == "&":
                    if len(cap) == 1:
                        bad = "the enclosing frame by reference ([&])"
                    else:
                        bad = (f"'{cap[1].spelling}' by reference "
                               f"(&{cap[1].spelling})")
                if bad and not is_waived(waived, RULES["R8"], t.line):
                    findings.append(Finding(
                        path, t.line, "R8",
                        f"deferred callback in {what} captures {bad}: "
                        f"the callback runs after the enclosing frame "
                        f"is gone; capture by value or [this]"))
            j = end


# --------------------------------------------------------------------
# R9 ansmet-detflow: nondeterministic values flowing into simulated
# state (conservative interprocedural taint over the token stream)
# --------------------------------------------------------------------
#
# Conservatism contract (see DESIGN.md): any expression CONTAINING a
# tainted subexpression is tainted (no sanitization, no kill); taint
# propagates through assignments (incl. compound and container-grow
# calls), returns, and calls resolvable inside the same file (bare
# names, this->, and Class:: qualified — member calls on other objects
# are deliberately NOT resolved). Labels are "src" (a concrete
# nondeterminism source) or an integer parameter index; a finding is
# reported where a "src"-labelled value meets a sink, either directly
# or through a callee whose parameter summary reaches one.


def _source_at(code, j, hi, unordered):
    """True when code[j] heads a nondeterminism source expression."""
    t = code[j]
    s = t.spelling

    def at(k):
        return code[k].spelling if k < hi else ""

    if s in unordered:
        if at(j + 1) == "." and at(j + 2) in _ITER_METHODS:
            return True
        if (at(j + 1) == "-" and at(j + 2) == ">" and
                at(j + 3) in _ITER_METHODS):
            return True
        return False
    if s in _NONDET_CALLS and at(j + 1) == "(":
        return True
    if s == "hash" and at(j + 1) == "<":
        end = _skip_angles(code, j + 1, hi)
        return end is not None and any(
            code[k].spelling == "*" for k in range(j + 2, end - 1))
    if s == "reinterpret_cast" and at(j + 1) == "<":
        end = _skip_angles(code, j + 1, hi)
        if end is None:
            return False
        tgt = code[j + 2:end - 1]
        has_int = any(tk.spelling in _INT_CAST_TARGETS for tk in tgt)
        has_ind = any(tk.spelling in ("*", "&") for tk in tgt)
        return has_int and not has_ind
    return False


def collect_unordered_names(code):
    """Names declared with an unordered container type anywhere in the
    file (members, locals, parameters). Name-based, not scope-aware —
    conservative by design."""
    names = set()
    n = len(code)
    for idx, tok in enumerate(code):
        if tok.kind != "id" or tok.spelling not in UNORDERED_CONTAINERS:
            continue
        j = idx + 1
        if _tok_at(code, j) == "<":
            e = _skip_angles(code, j, min(n, j + 256))
            if e is None:
                continue
            j = e
        while j < n and code[j].spelling in ("&", "*", "const"):
            j += 1
        if j < n and code[j].kind == "id":
            names.add(code[j].spelling)
    return names


class _TaintPass:
    """One file's interprocedural taint analysis (R9)."""

    def __init__(self, path, code, funcs, unordered, waived):
        self.path = path
        self.code = code
        self.funcs = funcs
        self.unordered = unordered
        self.waived = waived
        self.found = {}  # (line, message) -> None; insertion-ordered
        self.by_last = {}
        for f in funcs:
            self.by_last.setdefault(f.name.split("::")[-1],
                                    []).append(f)

    def resolve(self, callee, qual, owner):
        """Same resolution discipline as the lock-order pass: an
        explicit qualifier pins the owner; a bare call resolves to the
        caller's own class or to free functions."""
        out = []
        for g in self.by_last.get(callee, ()):
            if qual is not None:
                if g.owner == qual:
                    out.append(g)
            elif g.owner is None or g.owner == owner:
                out.append(g)
        return out

    def run(self, findings):
        for f in self.funcs:
            f.t_returns = set()
            f.t_param_sink = {}
        for _ in range(8):  # cross-function fixpoint over summaries
            before = [(frozenset(f.t_returns),
                       tuple(sorted(f.t_param_sink)))
                      for f in self.funcs]
            for f in self.funcs:
                self._analyze(f)
            after = [(frozenset(f.t_returns),
                      tuple(sorted(f.t_param_sink)))
                     for f in self.funcs]
            if after == before:
                break
        for (line, message) in self.found:
            if not is_waived(self.waived, RULES["R9"], line):
                findings.append(Finding(self.path, line, "R9", message))

    # -- per-function ------------------------------------------------

    def _analyze(self, f):
        env = {p: {k} for k, p in enumerate(f.params) if p}
        for _ in range(8):  # intra-function fixpoint
            snap = {k: set(v) for k, v in env.items()}
            rsnap = set(f.t_returns)
            psnap = dict(f.t_param_sink)
            self._walk(f, env)
            if (env == snap and f.t_returns == rsnap and
                    f.t_param_sink == psnap):
                break

    def _walk(self, f, env):
        code = self.code
        lo, hi = f.body
        j = lo
        while j < hi:
            t = code[j]
            s = t.spelling
            if t.kind == "id" and s == "for" and \
                    _tok_at(code, j + 1) == "(":
                j = self._range_for(f, env, j, hi)
                continue
            if t.kind == "id" and s == "return":
                end = self._stmt_end(j + 1, hi)
                f.t_returns |= self._labels(f, env, code[j + 1:end])
                j = end
                continue
            if s == "=" and self._is_assign(j):
                self._assign(f, env, j, hi)
                j += 1
                continue
            if t.kind == "id" and _tok_at(code, j + 1) == "(":
                self._call_site(f, env, j, hi)
            j += 1

    def _is_assign(self, j):
        code = self.code
        nxt = _tok_at(code, j + 1)
        prv = _tok_at(code, j - 1)
        if nxt == "=" or prv in ("=", "<", ">", "!"):
            return False  # ==, <=, >=, !=
        if prv in ("[", "operator") or nxt == "]":
            return False  # [=] capture, operator=
        return True

    def _stmt_end(self, j, hi):
        code = self.code
        depth = 0
        while j < hi:
            s = code[j].spelling
            if s in "([{":
                depth += 1
            elif s in ")]}":
                if depth == 0:
                    return j
                depth -= 1
            elif s in (";", ",") and depth == 0:
                return j
            j += 1
        return hi

    def _sink(self, f, labels, line, what):
        if "src" in labels:
            self.found[(line,
                        f"nondeterministic value (derived from "
                        f"unordered-container iteration order, pointer "
                        f"bits, or a thread id) flows into {what}; "
                        f"simulated outcomes must not depend on "
                        f"it")] = None
        for lbl in labels:
            if isinstance(lbl, int):
                f.t_param_sink.setdefault(lbl, what)

    def _range_for(self, f, env, j, hi):
        code = self.code
        pe = skip_balanced(code, j + 1, "(", ")")
        if pe is None or pe > hi:
            return j + 1
        inner = code[j + 2:pe - 1]
        ci = None
        for k, t in enumerate(inner):
            if (t.spelling == ":" and
                    _tok_at(inner, k - 1) != ":" and
                    _tok_at(inner, k + 1) != ":"):
                ci = k
                break
        if ci is None:
            return j + 1  # classic for; the main walk scans its parts
        decl, rng = inner[:ci], inner[ci + 1:]
        labels = set(self._labels(f, env, rng))
        if any(t.kind == "id" and t.spelling in self.unordered
               for t in rng):
            labels.add("src")
        if labels:
            for t in decl:
                if t.kind == "id" and t.spelling not in _TYPEISH_IDS:
                    env.setdefault(t.spelling, set()).update(labels)
        return pe

    def _assign(self, f, env, j, hi):
        code = self.code
        k = j - 1
        if code[k].spelling in "+-*/%&|^":
            k -= 1  # compound assignment: +=, |=, ...
        while k >= 0 and code[k].spelling == "]":
            op = _match_backward(code, k, "[", "]")
            if op is None:
                return
            k = op - 1
        if k < 0 or code[k].kind != "id":
            return
        target = code[k].spelling
        end = self._stmt_end(j + 1, hi)
        labels = self._labels(f, env, code[j + 1:end])
        if not labels:
            return
        env.setdefault(target, set()).update(labels)
        if target.endswith("_"):
            self._sink(f, labels, code[j].line,
                       f"the simulator state member '{target}'")

    def _call_shape(self, j):
        """Classify the call headed at code[j]: (member, this_call,
        qual) — member call on another object, explicit this-> call,
        or Class:: qualifier."""
        code = self.code
        prv = _tok_at(code, j - 1)
        member = prv == "." or (prv == ">" and
                                _tok_at(code, j - 2) == "-")
        this_call = (prv == ">" and _tok_at(code, j - 2) == "-" and
                     _tok_at(code, j - 3) == "this")
        qual = None
        if (prv == ":" and _tok_at(code, j - 2) == ":" and
                j >= 3 and code[j - 3].kind == "id" and
                code[j - 3].spelling != "std"):
            qual = code[j - 3].spelling
        return member, this_call, qual

    def _call_site(self, f, env, j, hi):
        code = self.code
        s = code[j].spelling
        if s in _CONTROL or s in LOCK_CLASSES:
            return
        end = skip_balanced(code, j + 1, "(", ")")
        if end is None:
            return
        args = (split_top_commas(code[j + 2:end - 1])
                if end - 1 > j + 2 else [])
        member, this_call, qual = self._call_shape(j)
        if s in SCHEDULE_CALLS:
            for a_i, a in enumerate(args):
                self._sink(f, self._labels(f, env, a), code[j].line,
                           f"argument {a_i + 1} of {s}() "
                           f"(event scheduling)")
            return
        if member and not this_call and s in _OBS_RECORD_METHODS:
            for a in args:
                self._sink(f, self._labels(f, env, a), code[j].line,
                           f"the obs-recorded value of .{s}()")
            return
        if member and not this_call and s in _GROW_METHODS:
            # recv.push_back(tainted) taints recv; growing a member
            # container is also a state write (the insertion ORDER is
            # what replay depends on).
            k = j - 2 if _tok_at(code, j - 1) == "." else j - 3
            if k >= 0 and code[k].kind == "id":
                recv = code[k].spelling
                labels = set()
                for a in args:
                    labels |= self._labels(f, env, a)
                if labels:
                    env.setdefault(recv, set()).update(labels)
                    if recv.endswith("_"):
                        self._sink(f, labels, code[j].line,
                                   f"the simulator state member "
                                   f"'{recv}' (via .{s}())")
            return
        if member and not this_call:
            return  # unresolvable: a method of some other object
        for g in self.resolve(s, qual, f.owner):
            for k_idx, what in sorted(g.t_param_sink.items()):
                if k_idx >= len(args):
                    continue
                labels = self._labels(f, env, args[k_idx])
                if "src" in labels:
                    self.found[(code[j].line,
                                f"nondeterministic value passed as "
                                f"argument {k_idx + 1} of {g.name}(), "
                                f"which forwards it into "
                                f"{what}")] = None
                for lbl in labels:
                    if isinstance(lbl, int):
                        f.t_param_sink.setdefault(
                            lbl, f"{g.name}() -> {what}")

    def _labels(self, f, env, toks, depth=0):
        """Taint labels of an expression token list: union over every
        tainted name it contains, every source pattern, and the mapped
        return summaries of resolvable calls."""
        out = set()
        if depth > 6:
            return out
        n = len(toks)
        j = 0
        while j < n:
            t = toks[j]
            if t.kind == "id":
                if _source_at(toks, j, n, self.unordered):
                    out.add("src")
                prv = _tok_at(toks, j - 1)
                is_field = prv == "." or (prv == ">" and
                                          _tok_at(toks, j - 2) == "-")
                if t.spelling in env and not is_field:
                    out |= env[t.spelling]
                if _tok_at(toks, j + 1) == "(" and \
                        t.spelling not in _CONTROL:
                    member = is_field
                    this_call = (prv == ">" and
                                 _tok_at(toks, j - 2) == "-" and
                                 _tok_at(toks, j - 3) == "this")
                    qual = None
                    if (prv == ":" and _tok_at(toks, j - 2) == ":" and
                            j >= 3 and toks[j - 3].kind == "id" and
                            toks[j - 3].spelling != "std"):
                        qual = toks[j - 3].spelling
                    if not member or this_call:
                        end = skip_balanced(toks, j + 1, "(", ")")
                        if end is not None:
                            args = (split_top_commas(
                                toks[j + 2:end - 1])
                                if end - 1 > j + 2 else [])
                            for g in self.resolve(t.spelling, qual,
                                                  f.owner):
                                for r in g.t_returns:
                                    if r == "src":
                                        out.add("src")
                                    elif (isinstance(r, int) and
                                          r < len(args)):
                                        out |= self._labels(
                                            f, env, args[r],
                                            depth + 1)
            j += 1
        return out


def check_detflow(path, code, funcs, waived, findings):
    if not path_in(path, DETERMINISTIC_DIRS):
        return
    for idx, tok in enumerate(code):
        if tok.kind != "id" or tok.spelling not in UNORDERED_CONTAINERS:
            continue
        # `#include <unordered_map>` lexes as include '<' name '>'.
        if (idx >= 2 and code[idx - 1].spelling == "<" and
                code[idx - 2].spelling == "include"):
            continue
        if is_waived(waived, RULES["R9"], tok.line):
            continue
        findings.append(Finding(
            path, tok.line, "R9",
            f"std::{tok.spelling} in a deterministic directory: bucket "
            f"iteration order depends on the hash function, insertion "
            f"history, and stdlib version; use std::map/std::set, a "
            f"sorted vector, or a dense index (waivable only for "
            f"provably non-iterated lookup tables)"))
    _TaintPass(path, code, funcs, collect_unordered_names(code),
               waived).run(findings)


# --------------------------------------------------------------------
# R10 ansmet-checkpure: side effects inside ANSMET_DCHECK arguments
# --------------------------------------------------------------------

def check_dcheck_pure(path, code, waived, findings):
    for idx, tok in enumerate(code):
        if (tok.kind != "id" or
                not tok.spelling.startswith(_DCHECK_PREFIX) or
                _tok_at(code, idx + 1) != "("):
            continue
        end = skip_balanced(code, idx + 1, "(", ")")
        if end is None:
            continue
        macro = tok.spelling
        j = idx + 2
        while j < end - 1:
            t = code[j]
            s = t.spelling
            what = None
            step = 1
            if s in ("+", "-") and _tok_at(code, j + 1) == s:
                what = f"'{s}{s}'"
                step = 2
            elif (s == "=" and _tok_at(code, j + 1) not in ("=", "]") and
                  _tok_at(code, j - 1) not in ("=", "<", ">", "!", "[",
                                               "operator")):
                what = ("compound assignment"
                        if _tok_at(code, j - 1) in "+-*/%&|^"
                        else "assignment")
            elif (t.kind == "id" and s in _MUTATING_METHODS and
                  _tok_at(code, j + 1) == "(" and
                  (_tok_at(code, j - 1) == "." or
                   (_tok_at(code, j - 1) == ">" and
                    _tok_at(code, j - 2) == "-"))):
                what = f"mutating call .{s}()"
            if what is not None and \
                    not is_waived(waived, RULES["R10"], t.line):
                findings.append(Finding(
                    path, t.line, "R10",
                    f"side effect ({what}) inside {macro}(): audit-off "
                    f"builds skip the check's arguments entirely "
                    f"(common/check.h), so the effect silently "
                    f"disappears in release runs; hoist it out of the "
                    f"check"))
            j += step


# --------------------------------------------------------------------
# R12 ansmet-cbblock: blocking inside deferred callbacks
# --------------------------------------------------------------------

def _local_lock_trans(funcs):
    """File-local transitive may-acquire sets, propagated with the same
    call-resolution discipline as the global lock-order pass but
    restricted to this file's definitions (cross-file blocking is
    deliberately unresolved)."""
    by_last = {}
    for f in funcs:
        by_last.setdefault(f.name.split("::")[-1], []).append(f)

    def resolve(callee, qual, caller_owner):
        out = []
        for g in by_last.get(callee, ()):
            if qual is not None:
                if g.owner == qual:
                    out.append(g)
            elif g.owner is None or g.owner == caller_owner:
                out.append(g)
        return out

    trans = {id(f): {a[0] for a in f.acquisitions} for f in funcs}
    for _ in range(16):
        changed = False
        for f in funcs:
            for callee, qual, _, _ in f.calls:
                for g in resolve(callee, qual, f.owner):
                    add = trans[id(g)] - trans[id(f)]
                    if add:
                        trans[id(f)] |= add
                        changed = True
        if not changed:
            break
    return trans, resolve


def _scan_callback_body(path, code, lo, hi, what, owner, trans, resolve,
                        waived, findings):
    j = lo
    while j < hi:
        t = code[j]
        s = t.spelling
        if (t.kind == "id" and s in LOCK_CLASSES and j + 2 < hi and
                code[j + 1].kind == "id" and
                _tok_at(code, j + 2) in ("(", "{")):
            if not is_waived(waived, RULES["R12"], t.line):
                findings.append(Finding(
                    path, t.line, "R12",
                    f"{s} acquired inside a deferred {what} callback: "
                    f"the simulation thread must never block in an "
                    f"event; read through atomics or the seqlock "
                    f"pattern instead"))
            j += 3
            continue
        if (t.kind == "id" and s in _BLOCKING_WAITS and
                _tok_at(code, j + 1) == "(" and
                (_tok_at(code, j - 1) == "." or
                 (_tok_at(code, j - 1) == ">" and
                  _tok_at(code, j - 2) == "-"))):
            if not is_waived(waived, RULES["R12"], t.line):
                findings.append(Finding(
                    path, t.line, "R12",
                    f".{s}() parks the simulation thread inside a "
                    f"deferred {what} callback; events must complete "
                    f"without blocking"))
            j += 1
            continue
        if (t.kind == "id" and s not in _CONTROL and
                _tok_at(code, j + 1) == "("):
            prv = _tok_at(code, j - 1)
            member = prv == "." or (prv == ">" and
                                    _tok_at(code, j - 2) == "-")
            this_call = (member and prv == ">" and
                         _tok_at(code, j - 3) == "this")
            qual = None
            if (prv == ":" and _tok_at(code, j - 2) == ":" and
                    j >= 3 and code[j - 3].kind == "id" and
                    code[j - 3].spelling != "std"):
                qual = code[j - 3].spelling
            if not member or this_call:
                for g in resolve(s, qual, owner):
                    locks = trans.get(id(g), set())
                    if locks and not is_waived(waived, RULES["R12"],
                                               t.line):
                        findings.append(Finding(
                            path, t.line, "R12",
                            f"call to {g.name}() inside a deferred "
                            f"{what} callback acquires "
                            f"{sorted(locks)[0]} (file-local "
                            f"analysis): events must complete without "
                            f"blocking"))
                        break
        j += 1


def check_cb_block(path, code, funcs, waived, findings):
    if not path_in(path, SIM_HOT_DIRS):
        return
    trans, resolve = _local_lock_trans(funcs)

    def owner_at(k):
        for f in funcs:
            lo, hi = f.body
            if lo <= k < hi:
                return f.owner
        return None

    for lo, hi, what in _callback_sink_ranges(code):
        j = lo
        while j < hi:
            t = code[j]
            if t.spelling != "[":
                j += 1
                continue
            prev = code[j - 1] if j > 0 else None
            if prev is not None and (prev.kind in ("id", "literal") or
                                     prev.spelling in (")", "]")):
                j += 1  # subscript, not a lambda introducer
                continue
            cap_end = skip_balanced(code, j, "[", "]")
            if cap_end is None:
                j += 1
                continue
            k = cap_end
            if _tok_at(code, k) == "(":
                k = skip_balanced(code, k, "(", ")") or hi
            while k < hi and code[k].spelling not in ("{", ",", ";"):
                k += 1  # mutable / noexcept / -> Ret before the body
            if k >= hi or code[k].spelling != "{":
                j = cap_end
                continue
            body_end = skip_balanced(code, k, "{", "}")
            if body_end is None or body_end > hi + 1:
                body_end = hi
            _scan_callback_body(path, code, k + 1, body_end - 1, what,
                                owner_at(j), trans, resolve, waived,
                                findings)
            j = body_end


# --------------------------------------------------------------------
# Per-file rule driver
# --------------------------------------------------------------------

def lint_file(path, repo_root, tokens):
    """Run every per-file rule; returns (findings, FuncInfos, waived)
    so the driver can finish with the cross-file lock-order pass."""
    rel = os.path.relpath(path, repo_root)
    findings = []
    waived = suppressed_lines(tokens)
    code = code_tokens(tokens)
    funcs = parse_lock_functions(rel, tokens, code)
    check_determinism(rel, tokens, waived, findings)
    check_raw_new_delete(rel, tokens, waived, findings)
    check_nolint_justified(rel, tokens, findings)
    check_raw_sync(rel, tokens, waived, findings)
    check_event_capture(rel, tokens, waived, findings)
    check_dangle_capture(rel, tokens, waived, findings)
    check_detflow(rel, code, funcs, waived, findings)
    check_dcheck_pure(rel, code, waived, findings)
    check_cb_block(rel, code, funcs, waived, findings)
    return findings, funcs, waived


# --------------------------------------------------------------------
# SARIF output
# --------------------------------------------------------------------

def sarif_report(findings):
    """SARIF 2.1.0 log for code-scanning upload; same findings, same
    order as the text report."""
    rules = [{
        "id": f"{rid}/{name}",
        "name": name,
        "shortDescription": {"text": name},
        "defaultConfiguration": {"level": "error"},
    } for rid, name in RULES.items()]
    results = [{
        "ruleId": f"{f.rule}/{RULES[f.rule]}",
        "ruleIndex": list(RULES).index(f.rule),
        "level": "error",
        "message": {"text": f.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": f.path.replace(os.sep, "/"),
                },
                "region": {"startLine": max(1, f.line)},
            },
        }],
    } for f in findings]
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "ansmet_lint",
                "informationUri":
                    "https://github.com/ansmet/ansmet"
                    "/blob/main/tools/ansmet_lint.py",
                "version": "1.0.0",
                "rules": rules,
            }},
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def collect_files(repo_root, paths):
    if paths:
        out = []
        for p in paths:
            if os.path.isdir(p):
                for dirpath, _, names in os.walk(p):
                    out.extend(os.path.join(dirpath, n) for n in names
                               if n.endswith((".h", ".cc")))
            else:
                out.append(p)
        return sorted(out)
    src = os.path.join(repo_root, "src")
    out = []
    for dirpath, _, names in os.walk(src):
        out.extend(os.path.join(dirpath, n) for n in names
                   if n.endswith((".h", ".cc")))
    return sorted(out)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="ANSMET determinism/style linter (rules R1-R5, "
                    "R7-R10, R12)")
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: <repo>/src)")
    ap.add_argument("--repo", default=None,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--format", choices=("text", "sarif"),
                    default="text",
                    help="report format (sarif = SARIF 2.1.0 for "
                         "code-scanning upload)")
    ap.add_argument("--output", default=None,
                    help="write the report to FILE instead of stdout")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, name in RULES.items():
            print(f"{rule}  {name}")
        return 0

    repo_root = os.path.abspath(
        args.repo or
        os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    files = collect_files(repo_root, args.paths)
    if not files:
        print("ansmet_lint: no input files", file=sys.stderr)
        return 2

    findings = []
    lock_facts = []
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"ansmet_lint: cannot read {path}: {e}",
                  file=sys.stderr)
            return 2
        file_findings, funcs, waived = lint_file(path, repo_root,
                                                 lex_tokens(text))
        findings.extend(file_findings)
        lock_facts.append((os.path.relpath(path, repo_root), funcs,
                           waived))
    check_lock_order(lock_facts, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    out = open(args.output, "w", encoding="utf-8") \
        if args.output else sys.stdout
    try:
        if args.format == "sarif":
            json.dump(sarif_report(findings), out, indent=2)
            out.write("\n")
        else:
            for finding in findings:
                print(finding.render(), file=out)
            if not findings:
                print(f"ansmet_lint: clean ({len(files)} files)",
                      file=out)
    finally:
        if args.output:
            out.close()
    if findings:
        print(f"ansmet_lint: {len(findings)} finding(s) over "
              f"{len(files)} files", file=sys.stderr)
        return 1
    if args.format == "sarif":
        print(f"ansmet_lint: clean ({len(files)} files)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
