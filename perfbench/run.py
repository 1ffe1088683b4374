#!/usr/bin/env python3
"""Builds and runs the HyMM benchmark.

    python3 perfbench/run.py --workload infer-cs|observed-ap|sweep-ac|all \
        [--seed N] [--seconds S] [--trace 0|1]

The harness (perfbench/main.cpp) is built from perfbench/CMakeLists.txt
against the repository's libraries in src/, into .bench_build/perfbench.
Each workload runs in its own process, so its peak resident set and
set-up time are its own. The metrics are printed as a table, then, as
the last line of standard output, as one JSON object:

    {"correct": true, "attempted": 9, "failed": 0,
     "metrics": {"wall_s": {"value": 4.1, "unit": "s"}, ...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the separate
traced run and reports the per-layer metrics, and writes its spans to
.bench_build/spans/. The exit code is nonzero when the build fails,
a run fails or any correctness check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
# Compiler temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("infer-cs", "observed-ap", "sweep-ac")
BUILD_TIMEOUT_S = 840
# A run's own budget plus set-up, the traced iteration and slack.
RUN_SLACK_S = 120


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: src/CMakeLists.txt not found next to perfbench/;"
            " the benchmark builds the repository's libraries from source")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build step failed:", e)
            return False
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name, seed, seconds, trace):
    """Runs one workload in its own process; returns its parsed result."""
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS_DIR, f"{name}-seed{seed}.json")]
    # HYMM_* variables (HYMM_THREADS, HYMM_NO_FASTFWD, ...) would change
    # what is measured; the workloads set everything they need.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYMM_")}
    env["TMPDIR"] = TMP_DIR
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, text=True,
                              timeout=seconds + RUN_SLACK_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {name} did not finish:", e)
        return None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: {name} printed no result (exit {done.returncode})")
        return None
    if done.returncode != 0:
        result["correct"] = False
    return result


def print_table(result):
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'}): "
          f"{result['attempted'] - result['failed']}/{result['attempted']}"
          f" runs verified")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")
    width = max(len(name) for name in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"   {name:<{width}}  {m['value']:>16.6g} {m['unit']:<10}"
              f" {m['better']:<7} n={m['samples']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print_table(result)
        results.append(result)

    expected = expected_metrics(args.trace)
    correct = all(r["correct"] for r in results)
    for r in results:
        if expected is not None and list(r["metrics"]) != expected:
            log(f"perfbench: {r['workload']} metrics differ from"
                " BENCHMARK.json")
            correct = False
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
