#!/usr/bin/env python3
"""Runs workloads of the dyncode benchmark and prints their result lines.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` cargo package (release, offline) against the
repository's crates, runs the workload in a child process under a
wall-clock limit, checks that the printed metrics are exactly the ones
BENCHMARK.json declares for the trace mode, and prints as its last
stdout line one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Without --workload it runs every workload in
BENCHMARK.json order and prints one such line per workload. Build output
and the child's diagnostics (layer tables, digests, check failures) go to
stderr.

Run it from the root of the repository. CARGO_TARGET_DIR, if set, is
honoured; otherwise the build lands in perfbench/target.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# A child still running this long after its measuring time is a runaway:
# it is stopped, and every run of its unfinished pass counts as failed.
LIMIT_SLACK_S = 60
# The whole invocation must end within 180 s once built.
LIMIT_MAX_S = 165


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary; returns its path or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def supervise(binary, args):
    """Runs the workload child; returns (result dict or None, attempted, failed).

    The child prints `{"plan": runs}` before its first pass and
    `{"pass": {...}}` after each, so a stopped child's unfinished pass is
    counted as attempted and failed.
    """
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join(HERE, "out"),
    ]
    limit = min(args.seconds + LIMIT_SLACK_S, LIMIT_MAX_S)
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=limit)
        stopped = False
    except subprocess.TimeoutExpired:
        child.kill()
        out, _ = child.communicate()
        stopped = True
        print(f"run.py: {args.workload} passed its {limit} s limit; stopped",
              file=sys.stderr)
    plan, attempted, failed, result = 0, 0, 0, None
    for line in out.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if "plan" in msg:
            plan = msg["plan"]
        elif "pass" in msg:
            attempted += msg["pass"]["attempted"]
            failed += msg["pass"]["failed"]
        elif "correct" in msg:
            result = msg
    if result is None or stopped or child.returncode != 0:
        pending = max(plan, 1)
        return None, attempted + pending, failed + pending
    return result, result["attempted"], result["failed"]


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    for workload in [args.workload] if args.workload else names:
        args.workload = workload
        result, attempted, failed = supervise(binary, args)
        if result is None:
            result = {"correct": False, "metrics": {}}
        if sorted(result["metrics"]) != sorted(declared):
            print("run.py: printed metrics differ from BENCHMARK.json", file=sys.stderr)
            result["correct"] = False
        if any(m["value"] is None for m in result["metrics"].values()):
            result["correct"] = False
        print(json.dumps({
            "correct": bool(result["correct"]) and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": result["metrics"],
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
