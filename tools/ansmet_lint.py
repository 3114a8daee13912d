#!/usr/bin/env python3
"""ansmet_lint: project-specific determinism and style linter.

ANSMET's figures depend on bitwise-deterministic replay, and its
locking contracts are enforced at compile time through the annotated
wrappers in src/common/sync.h. This linter checks the conventions that
neither the compiler nor clang-tidy checks:

  R1  ansmet-determinism   No nondeterminism source in the simulator-
                           deterministic directories (src/sim, src/ndp,
                           src/dram, src/et, src/anns, src/serve,
                           src/core, src/layout): std::rand and
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
                           thread-safety analysis sees every lock. The
                           wrappers themselves (Mutex, MutexLock,
                           CondVar) appear only in src/common/runtime/
                           and src/obs/, so no simulator path takes a
                           lock, inside an event callback or anywhere
                           else.
                           Likewise no direct std::thread / std::jthread
                           / std::async outside src/common/runtime/ —
                           parallel work goes through
                           runtime::parallelFor, so the worker count
                           stays centralized (std::this_thread is
                           fine).
  R5  ansmet-eventcapture  No std::function inside the arguments of a
                           schedule()/scheduleIn() call in the
                           simulator-hot directories (src/sim, src/ndp,
                           src/dram, src/cpu, src/core, src/cache):
                           event callbacks are sim::EventQueue::Callback
                           (an InlineFunction with a compile-enforced
                           capture budget); std::function would put its
                           capture back on the heap per event.
  R8  ansmet-danglecapture A callback handed to schedule()/scheduleIn()
                           or stored in an onComplete field
                           (dram::Request, ndp::NdpTask) runs after the
                           enclosing frame is gone, so its lambda must
                           not capture by reference ([&], [&x],
                           [&x = ...]); capture by value or [this].
  R9  ansmet-detflow       No nondeterminism source in the deterministic
                           directories, flagged where it appears: any
                           std::unordered_* container mention (bucket
                           order is the hazard), iteration over a name
                           the file declares unordered (.begin()-family
                           calls and range-for, so a lookup-only waiver
                           on the declaration still forbids iterating),
                           thread ids (get_id, pthread_self), std::hash
                           of a pointer type, and reinterpret_cast to
                           an integer type.
  R10 ansmet-checkpure     No side effect inside the arguments of
                           ANSMET_DCHECK* : audit-off builds skip the
                           whole expression (common/check.h gates it on
                           auditEnabled()), so `++`, assignments, and
                           mutating calls (pop(), erase(), next(), ...)
                           silently disappear in release runs.

R6, R7, R11 and R12 are retired; the remaining rules keep their ids.

Suppression: a finding is waived by `// NOLINT(<rule>): reason` on the
same line or `// NOLINTNEXTLINE(<rule>): reason` on the line above,
using the rule names in the middle column. R3 itself validates those
comments, so a suppression can never be silent.

Every rule is a token rule: it reads one file's token stream from a
built-in C++ lexer (lex_tokens), and a run scans all of src/ by
default.

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
                      "src/anns", "src/serve", "src/core", "src/layout")

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

# R4 (lock-confinement half): the sync.h wrappers are confined to the
# runtime and the observability layer. Simulator code shares only
# immutable state across parallel stages, so it never takes a lock —
# in particular never inside an event — and with the obs and runtime
# locks never nested, no code path holds two locks.
SYNC_WRAPPERS = {"Mutex", "MutexLock", "CondVar"}
LOCK_DIRS = ("src/common/runtime", "src/obs")

# R4 (thread-spawn half): raw std::thread / std::jthread / std::async
# outside the runtime. Centralizing thread creation in
# runtime::parallelFor is what keeps the worker count and the
# nested-inline rule coherent.
# (`std::this_thread` lexes as the single identifier `this_thread` and
# is deliberately not banned — yield/sleep_for are fine anywhere.)
BANNED_THREAD_SPAWN = {"thread", "jthread", "async"}
THREAD_EXEMPT_DIRS = ("src/common/runtime",)

# R5/R8: directories whose schedule()/scheduleIn() calls sit on the
# simulated hot path.
SIM_HOT_DIRS = ("src/sim", "src/ndp", "src/dram", "src/cpu", "src/core",
                "src/cache")
SCHEDULE_CALLS = ("schedule", "scheduleIn")

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

RULES = {
    "R1": "ansmet-determinism",
    "R2": "ansmet-rawnew",
    "R3": "ansmet-nolint",
    "R4": "ansmet-rawsync",
    "R5": "ansmet-eventcapture",
    "R8": "ansmet-danglecapture",
    "R9": "ansmet-detflow",
    "R10": "ansmet-checkpure",
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
# Token-slice helpers shared by the rules
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


# --------------------------------------------------------------------
# Rule implementations R1-R5
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
    spawn_exempt = path_in(norm, THREAD_EXEMPT_DIRS)
    lock_exempt = path_in(norm, LOCK_DIRS)
    code = [t for t in tokens if t.kind in ("id", "kw", "punct")]
    for idx, tok in enumerate(code):
        if tok.kind != "id":
            continue
        name = tok.spelling
        if name in SYNC_WRAPPERS:
            if lock_exempt:
                continue
            message = (f"{name} outside src/common/runtime and src/obs: "
                       f"locks live only there, so simulator code never "
                       f"blocks inside an event; share immutable state "
                       f"instead")
        elif name in BANNED_SYNC or (name in BANNED_THREAD_SPAWN and
                                     not spawn_exempt):
            # Require the std:: qualification: `std` `:` `:` `mutex`.
            if not (_tok_at(code, idx - 1) == ":" and
                    _tok_at(code, idx - 2) == ":" and
                    _tok_at(code, idx - 3) == "std"):
                continue
            if name in BANNED_SYNC:
                message = (f"raw std::{name}: use the annotated wrappers "
                           f"in common/sync.h (Mutex/CondVar + MutexLock) "
                           f"so thread-safety analysis sees the contract")
            else:
                message = (f"raw std::{name}: run parallel work through "
                           f"runtime::parallelFor (common/runtime/"
                           f"runtime.h) so the worker count stays "
                           f"centralized")
        else:
            continue
        if not is_waived(waived, RULES["R4"], tok.line):
            findings.append(Finding(path, tok.line, "R4", message))


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
# R9 ansmet-detflow: nondeterminism sources, flagged where they appear
# --------------------------------------------------------------------

_BUCKET_ORDER = ("bucket iteration order depends on the hash function, "
                 "insertion history, and stdlib version")


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


def _range_for_range(code, j):
    """Tokens of the range expression of the range-for headed at
    code[j] (`for`); [] for a classic for loop."""
    end = skip_balanced(code, j + 1, "(", ")")
    if end is None:
        return []
    head = code[j + 2:end - 1]
    depth = 0
    colon = None
    for k, t in enumerate(head):
        s = t.spelling
        if s in "([{":
            depth += 1
        elif s in ")]}":
            depth -= 1
        elif depth == 0 and s == ";":
            colon = None  # classic for, or a C++20 init-statement
        elif (depth == 0 and s == ":" and colon is None and
              _tok_at(head, k - 1) != ":" and _tok_at(head, k + 1) != ":"):
            colon = k
    return head[colon + 1:] if colon is not None else []


def _source_at(code, j, unordered):
    """Why the expression headed at code[j] is nondeterministic, or
    None."""
    s = code[j].spelling
    nxt = _tok_at(code, j + 1)
    if s in unordered:
        k = j + 2 if nxt == "." else None
        if nxt == "-" and _tok_at(code, j + 2) == ">":
            k = j + 3
        if k is not None and _tok_at(code, k) in _ITER_METHODS:
            return (f"iterating unordered container '{s}' "
                    f"(.{_tok_at(code, k)}()): {_BUCKET_ORDER}")
        return None
    if s in _NONDET_CALLS and nxt == "(":
        return f"{s}() is a thread id, which differs from run to run"
    if s in ("hash", "reinterpret_cast") and nxt == "<":
        end = _skip_angles(code, j + 1, len(code))
        if end is None:
            return None
        args = {t.spelling for t in code[j + 2:end - 1]}
        if s == "hash" and "*" in args:
            return ("std::hash of a pointer type hashes address bits, "
                    "which differ from run to run")
        if (s == "reinterpret_cast" and args & _INT_CAST_TARGETS and
                not args & {"*", "&"}):
            return ("reinterpret_cast to an integer type exposes address "
                    "bits, which differ from run to run")
    return None


def check_detflow(path, code, waived, findings):
    if not path_in(path, DETERMINISTIC_DIRS):
        return
    unordered = collect_unordered_names(code)

    def flag(tok, why):
        if not is_waived(waived, RULES["R9"], tok.line):
            findings.append(Finding(path, tok.line, "R9", why))

    for idx, tok in enumerate(code):
        if tok.kind != "id":
            continue
        s = tok.spelling
        if s in UNORDERED_CONTAINERS:
            # `#include <unordered_map>` lexes as include '<' name '>'.
            if (_tok_at(code, idx - 1) == "<" and
                    _tok_at(code, idx - 2) == "include"):
                continue
            flag(tok, f"std::{s} in a deterministic directory: "
                      f"{_BUCKET_ORDER}; use std::map/std::set, a sorted "
                      f"vector, or a dense index (waivable only for "
                      f"provably non-iterated lookup tables)")
        elif s == "for" and _tok_at(code, idx + 1) == "(":
            for t in _range_for_range(code, idx):
                if t.kind == "id" and t.spelling in unordered:
                    flag(t, f"range-for over unordered container "
                            f"'{t.spelling}': {_BUCKET_ORDER}; simulated "
                            f"outcomes must not depend on it")
        else:
            why = _source_at(code, idx, unordered)
            if why:
                flag(tok, f"{why}; simulated outcomes must not depend "
                          f"on it")


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
# Per-file rule driver
# --------------------------------------------------------------------

def lint_file(path, repo_root, tokens):
    """Run every rule over one file's tokens; returns its findings."""
    rel = os.path.relpath(path, repo_root)
    findings = []
    waived = suppressed_lines(tokens)
    code = code_tokens(tokens)
    check_determinism(rel, tokens, waived, findings)
    check_raw_new_delete(rel, tokens, waived, findings)
    check_nolint_justified(rel, tokens, findings)
    check_raw_sync(rel, tokens, waived, findings)
    check_event_capture(rel, tokens, waived, findings)
    check_dangle_capture(rel, tokens, waived, findings)
    check_detflow(rel, code, waived, findings)
    check_dcheck_pure(rel, code, waived, findings)
    return findings


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
                    "R8-R10)")
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
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"ansmet_lint: cannot read {path}: {e}",
                  file=sys.stderr)
            return 2
        findings.extend(lint_file(path, repo_root, lex_tokens(text)))

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
