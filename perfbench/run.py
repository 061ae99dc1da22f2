#!/usr/bin/env python3
"""End-to-end benchmark of the khop library.

Builds the benchmark (perfbench/CMakeLists.txt compiles the library from
src/ into the build directory), runs its self-test once per build, then runs
one workload and prints its report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Usage (from the repository root):
    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S
                             --trace {0,1}

WORKLOAD is pipeline_2k, churn_2k or paper_sweep (the workloads
BENCHMARK.json lists), pipeline_1m or churn_100k (their large-n forms, not
listed: see README.md), or `all`, which runs the five one after another,
each printing its report and its JSON line.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
plus a span summary of the traced passes (trace_summary.py). The build goes
to $CARGO_TARGET_DIR (default .bench_build) under the current directory.
The exit code is 0 only when every operation and every check succeeded.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline_2k", "churn_2k", "paper_sweep", "pipeline_1m",
             "churn_100k")
DEADLINE_S = 175.0
FIRST_RUN_DEADLINE_S = 890.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; fails the run if it fails."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, timeout), check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build(build_dir, deadline):
    """Configures and builds into build_dir, then runs the checks' self-test
    once per build. A lock serializes runs sharing one build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "khop", "graph", "graph.hpp")):
        fail(f"khop sources not found under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], deadline - time.time())
        run_logged(["cmake", "--build", build_dir, "-j", jobs],
                   deadline - time.time())
        binary = os.path.join(build_dir, "khop_perfbench")
        stamp = os.path.join(build_dir, "checks.passed")
        built = os.path.getmtime(binary)
        if not os.path.isfile(stamp) or os.path.getmtime(stamp) < built:
            work = os.path.join(build_dir, "checks-work")
            os.makedirs(work, exist_ok=True)
            run_logged([os.path.join(build_dir, "perfbench_checks"), work],
                       deadline - time.time())
            with open(stamp, "w") as f:
                f.write("ok\n")


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return ""
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else ""


def run_workload(build_dir, workload, args, deadline):
    """Runs one workload, prints its report and JSON line; returns its exit
    code."""
    work = os.path.join(build_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_REV=git_revision())
    cmd = [os.path.join(build_dir, "khop_perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.time()),
                              check=False)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{workload} did not finish in time")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("\n".join(lines), file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{workload} printed no result (exit code {done.returncode})")
    print("\n".join(lines[:-1]))

    if args.trace:
        trace = os.path.join(work, f"{workload}.trace.json")
        if os.path.isfile(trace):
            sys.path.insert(0, HERE)
            import trace_summary  # noqa: E402  (lives beside this script)
            print(trace_summary.format_summary(
                trace_summary.summarize(trace_summary.load_spans(trace))))
            kept = os.path.join(build_dir, f"{workload}.trace.json")
            os.replace(trace, kept)
            print(f"trace kept at {kept}")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return done.returncode


def main():
    start = time.time()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    first_build = not os.path.isfile(os.path.join(build_dir, "khop_perfbench"))
    limit = FIRST_RUN_DEADLINE_S if first_build else DEADLINE_S
    build(build_dir, start + limit)

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    exit_code = 0
    for i, workload in enumerate(chosen):
        deadline = start + limit if i == 0 else time.time() + DEADLINE_S
        exit_code = max(exit_code,
                        run_workload(build_dir, workload, args, deadline))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
