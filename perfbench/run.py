#!/usr/bin/env python3
"""Build and run the WaterWise campaign benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
library and the benchmark (Release, no ccache) into .bench_build/perfbench
and runs the benchmark's self-test; later calls only re-check the build.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# Environment switches that change the measured program.  They are removed
# from the benchmark's environment; the binary also refuses to run with any
# of them set.
PINNED_SWITCHES = ("WW_SCHED_THREADS", "WW_PRESOLVE", "WW_REFACTOR_EVERY_PIVOT",
                   "WW_FAULT_SOLVES", "WW_TRACE", "WW_BENCH_SCALE")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, env, stdout=None):
    """Runs cmd to completion; a signal to this script stops the child too."""
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=stdout)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()


def build(env):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no WaterWise sources (CMakeLists.txt, src/) under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DCCACHE_PROGRAM=CCACHE_PROGRAM-NOTFOUND"]
        if run_child(configure, env, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_child(["cmake", "--build", str(BUILD), "-j", jobs], env,
                 stdout=sys.stderr) != 0:
        fail("build failed")


def self_test(env, force):
    """Runs the self-test once per build of it (or always when forced)."""
    binary = BUILD / "perfbench_selftest"
    stamp = BUILD / "selftest.passed"
    if (not force and stamp.is_file()
            and stamp.stat().st_mtime >= binary.stat().st_mtime):
        return
    if run_child([str(binary)], env, stdout=sys.stderr) != 0:
        fail("self-test failed")
    stamp.touch()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run only the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    # SIGTERM unwinds like Ctrl-C, so run_child stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ)
    env["CCACHE_DISABLE"] = "1"
    for name in PINNED_SWITCHES:
        if env.pop(name, None) is not None:
            print(f"perfbench: ignoring {name} (the benchmark pins it)",
                  file=sys.stderr)

    build(env)
    self_test(env, force=args.self_test)
    if args.self_test:
        return 0
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--digests", str(HERE / "digests.txt"),
           "--trace-dir", str(BUILD / "traces")]
    return run_child(cmd, env)


if __name__ == "__main__":
    sys.exit(main())
