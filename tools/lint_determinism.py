#!/usr/bin/env python3
"""Repo-specific determinism lint for WaterWise.

The repo's standing invariant (ROADMAP.md) is that campaign aggregates are
byte-identical across thread counts and ablation switches.  clang-tidy and
the sanitizers catch races and UB, but not the *sources* of run-to-run
divergence this codebase has actually been bitten by.  This lint enforces
five repo-specific bans, each escapable only by an explicit justification
comment on the offending line (or, when the 80-column limit forces it, a
comment-only line immediately above):

    // det-ok: <why this cannot reach outputs nondeterministically>

Rules
-----
unordered-in-solver-path
    `std::unordered_map` / `std::unordered_set` (and multi variants) may not
    appear in the solver/commit/aggregate paths (src/milp, src/core, src/dc)
    without a det-ok justification.  Hash-container iteration order is
    unspecified and changes across libstdc++ versions and ASLR; one range-for
    over one of these is enough to reorder decisions.  Lookup-only use is
    fine — say so in the annotation.

wall-clock-or-adhoc-rng
    `rand()` / `srand()` / `time(...)` / `clock()` / `gettimeofday` /
    `std::random_device` / `std::chrono` are banned outside util/rng.* and
    util/timer.*.  Every stochastic input must flow from util::Rng's named
    seed streams and every duration from util::Stopwatch, so experiments
    re-run bit-for-bit; a chrono-seeded RNG or wall-clock branch anywhere
    else silently breaks that.

pointer-keyed-container
    `std::map` / `std::set` (and multi variants) keyed on a pointer type are
    banned everywhere.  Pointer order is allocation order, so iterating one
    is as nondeterministic as a hash map while looking innocently sorted.

raw-thread-or-async
    `std::thread` / `std::jthread` / `std::async` are banned outside
    util/work_steal.*.  All fan-out goes through the process-global
    work-stealing pool (`util::WorkStealingPool::global()` /
    `util::global_parallel_for` / `util::TaskGroup`), so the plan/solve/commit
    pipeline stays the single place where concurrency is reasoned about and
    campaign scenario tasks share one set of workers with the chunk subtasks
    their schedulers spawn; ad-hoc threads are where completion-order commits
    and nested-pool oversubscription sneak in.

direct-output-in-lib-paths
    `std::cout` / `std::cerr` / `printf` / `fprintf` are banned in the
    library paths (src/core, src/milp, src/dc, src/sched) without a det-ok
    justification.  Library code reports through return values, counters,
    and the obs registry/trace layer; a stray stream write interleaves
    nondeterministically under the campaign thread pool and corrupts the
    drivers' parseable stdout.  Drivers (bench/, tools/, tests/, examples/)
    own the terminal and may print freely.

A bare `// det-ok` with no justification text is itself an error: the
annotation is a reviewed claim, not a mute button.

The lint is regex/context based on purpose — no libclang dependency, so it
runs anywhere python3 exists (ctest registers it; CI runs it as a job).
`--self-test` checks the lint against the fixture corpus in
tools/lint_fixtures/, asserting every banned pattern is caught and every
annotated/allowlisted pattern is not, so the lint itself cannot rot.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Directories scanned relative to the repo root.
SCAN_DIRS = ("src", "bench", "tools", "tests", "examples")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}
# The fixture corpus intentionally violates every rule.
EXCLUDED_PARTS = {"lint_fixtures", "build"}

# Rule 1 applies only to the solver/commit/aggregate paths.
SOLVER_PATHS = ("src/milp", "src/core", "src/dc")

# Per-rule allowlists: files whose *job* is the banned construct.
WALLCLOCK_ALLOWED = ("src/util/rng.", "src/util/timer.")
THREAD_ALLOWED = ("src/util/work_steal.",)

DET_OK_RE = re.compile(r"//\s*det-ok\b(?P<rest>[^\n]*)")

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")
WALLCLOCK_RE = re.compile(
    r"(?:\b(?:rand|srand|time|clock|gettimeofday|clock_gettime)\s*\()"
    r"|(?:std::random_device)"
    r"|(?:std::chrono\b)"
)
# std::map</std::set< with a first template argument containing a '*' before
# the separating comma (or closing '>' for sets): pointer-keyed ordering.
PTR_KEYED_RE = re.compile(
    r"std::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?"
    r"\s*\*"
)
RAW_THREAD_RE = re.compile(r"std::(?:jthread\b|thread\b(?!_)|async\b)")

# Rule 5 applies to the library paths, which report through counters and
# the obs layer; drivers own stdout/stderr.
LIB_OUTPUT_PATHS = ("src/core", "src/milp", "src/dc", "src/sched")
DIRECT_OUTPUT_RE = re.compile(
    r"\bstd::(?:cout|cerr)\b|\b(?:printf|fprintf)\s*\(")

# Lines that merely name a header or appear in comments/strings are not
# findings; this lint keys on code, so strip comments and string literals
# before matching (det-ok detection happens on the raw line first).
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]')

RULES = (
    "unordered-in-solver-path",
    "wall-clock-or-adhoc-rng",
    "pointer-keyed-container",
    "raw-thread-or-async",
    "direct-output-in-lib-paths",
)


def strip_comments_and_strings(line: str, in_block_comment: bool):
    """Removes // and /* */ comment text and string-literal contents.

    Keeps the lint keyed on code: `// no std::thread here, see util` must
    not fire.  Tracks block-comment state across lines; returns the
    stripped line and the new block-comment state.
    """
    out = []
    i = 0
    n = len(line)
    quote = None
    while i < n:
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if in_block_comment:
            if ch == "*" and nxt == "/":
                in_block_comment = False
                i += 2
                continue
            i += 1
            continue
        if quote:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch == "/" and nxt == "/":
            break
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if ch in "\"'":
            quote = ch
            out.append(ch)
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


class Finding:
    def __init__(self, path: str, line_no: int, rule: str, message: str):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def in_any(rel: str, prefixes) -> bool:
    return any(rel.startswith(p) for p in prefixes)


def lint_file(rel: str, text: str) -> list[Finding]:
    findings: list[Finding] = []
    in_solver_path = in_any(rel, SOLVER_PATHS)
    in_lib_output_path = in_any(rel, LIB_OUTPUT_PATHS)
    wallclock_allowed = in_any(rel, WALLCLOCK_ALLOWED)
    thread_allowed = in_any(rel, THREAD_ALLOWED)

    in_block = False
    prev_comment_det_ok = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        m = DET_OK_RE.search(raw)
        justified = m is not None
        if m and not m.group("rest").lstrip(": ").strip():
            findings.append(Finding(
                rel, line_no, "bare-det-ok",
                "det-ok annotation without a justification; write "
                "'// det-ok: <why this cannot reach outputs "
                "nondeterministically>'"))
            justified = False

        code, in_block = strip_comments_and_strings(raw, in_block)
        if not code.strip() or INCLUDE_RE.match(raw):
            # A comment-only det-ok line covers the next code line (the
            # 80-column escape hatch).
            prev_comment_det_ok = justified
            continue
        det_ok = justified or prev_comment_det_ok
        prev_comment_det_ok = False

        def report(rule: str, message: str):
            if det_ok:
                return  # justified on this line
            findings.append(Finding(rel, line_no, rule, message))

        if in_solver_path and UNORDERED_RE.search(code):
            report(
                "unordered-in-solver-path",
                "unordered container in a solver/commit/aggregate path; "
                "iteration order is unspecified — use a sorted/indexed "
                "container, or justify with '// det-ok: ...' (e.g. "
                "lookup-only, or output re-sorted deterministically)")
        if not wallclock_allowed and WALLCLOCK_RE.search(code):
            report(
                "wall-clock-or-adhoc-rng",
                "wall-clock or ad-hoc randomness outside util/rng.* and "
                "util/timer.*; derive randomness from util::Rng seed "
                "streams and durations from util::Stopwatch, or justify "
                "with '// det-ok: ...'")
        if PTR_KEYED_RE.search(code):
            report(
                "pointer-keyed-container",
                "ordered container keyed on a pointer; iteration order is "
                "allocation order — key on a stable id/index instead, or "
                "justify with '// det-ok: ...'")
        if not thread_allowed and RAW_THREAD_RE.search(code):
            report(
                "raw-thread-or-async",
                "raw std::thread/std::async outside util/work_steal.*; "
                "fan out through the work-stealing pool so commit order "
                "stays deterministic, or justify with '// det-ok: ...'")
        if in_lib_output_path and DIRECT_OUTPUT_RE.search(code):
            report(
                "direct-output-in-lib-paths",
                "direct stream output in a library path; report through "
                "return values or the obs metrics registry/trace layer so "
                "driver stdout stays parseable and thread-pool runs do not "
                "interleave, or justify with '// det-ok: ...'")
    return findings


def iter_source_files(root: Path):
    for scan_dir in SCAN_DIRS:
        base = root / scan_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            if EXCLUDED_PARTS.intersection(path.parts):
                continue
            yield path


def run_lint(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in iter_source_files(root):
        rel = path.relative_to(root).as_posix()
        findings.extend(lint_file(rel, path.read_text(encoding="utf-8")))
    findings.sort(key=lambda f: (f.path, f.line_no, f.rule))
    return findings


# --- self-test -------------------------------------------------------------

# Every fixture file declares its expected findings in leading "// EXPECT:"
# lines: `// EXPECT: <line>:<rule>` (line numbers count the whole file,
# EXPECT header included).  A fixture with no EXPECT lines must lint clean.
EXPECT_RE = re.compile(r"^//\s*EXPECT:\s*(\d+):([\w-]+)\s*$")


def self_test(root: Path) -> int:
    fixture_dir = root / "tools" / "lint_fixtures"
    fixtures = sorted(fixture_dir.glob("*.cpp")) + sorted(
        fixture_dir.glob("*.hpp"))
    if not fixtures:
        print(f"self-test: no fixtures found under {fixture_dir}",
              file=sys.stderr)
        return 1

    failures = 0
    rules_proven = set()
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        expected = set()
        for line in text.splitlines():
            m = EXPECT_RE.match(line)
            if m:
                expected.add((int(m.group(1)), m.group(2)))

        # Fixtures are linted as if they lived at the path their name
        # declares (first comment line `// PATH: <rel>`), so path-scoped
        # rules (solver dirs, allowlists) are exercised too.
        path_m = re.search(r"^//\s*PATH:\s*(\S+)\s*$", text, re.MULTILINE)
        rel = path_m.group(1) if path_m else f"src/core/{path.name}"

        actual = {(f.line_no, f.rule) for f in lint_file(rel, text)}
        rules_proven.update(rule for _, rule in actual)
        if actual != expected:
            failures += 1
            print(f"self-test FAIL: {path.name} (as {rel})", file=sys.stderr)
            for miss in sorted(expected - actual):
                print(f"  expected but not reported: line {miss[0]} "
                      f"[{miss[1]}]", file=sys.stderr)
            for extra in sorted(actual - expected):
                print(f"  reported but not expected: line {extra[0]} "
                      f"[{extra[1]}]", file=sys.stderr)

    missing_rules = set(RULES) - rules_proven
    if missing_rules:
        failures += 1
        print("self-test FAIL: no fixture triggers "
              f"{sorted(missing_rules)}", file=sys.stderr)

    if failures:
        return 1
    print(f"self-test OK: {len(fixtures)} fixtures, "
          f"{len(rules_proven)} rules proven")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repository root to scan (default: the repo this script is in)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="lint the fixture corpus and verify expected findings")
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if args.self_test:
        return self_test(Path(__file__).resolve().parent.parent)

    findings = run_lint(args.root.resolve())
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint_determinism: {len(findings)} finding(s). "
              "Fix, or annotate the line with '// det-ok: <justification>'.",
              file=sys.stderr)
        return 1
    print("lint_determinism: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
