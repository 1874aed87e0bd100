#!/usr/bin/env python3
"""End-to-end simulator benchmark runner.

    python3 perfbench/run.py --workload lookup-analytic --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench/ (and the simulator
libraries under src/) into .bench_build/perfbench, runs the workload,
then serves the digest prefix again in a second process with tracing
flipped: both processes must report the same simulated-statistics
digest. The last line of standard output is the result JSON; the exit
code is 0 only when every output checked out.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "simbench"
WORKLOADS = ("lookup-analytic", "serve-sharded", "baselines")
# Per-process limit; a run must end well inside the caller's 180 s.
TIMEOUT_S = 150


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no simulator sources at", ROOT / "src")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "simbench",
                  "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def simbench(args):
    """Run the binary; returns (exit code, digest, result dict or None)."""
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, cwd=ROOT,
                          timeout=TIMEOUT_S)
    digest, result = None, None
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("digest "):
            digest = line.split()[1]
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, digest, result


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace):
    common = ["--workload", workload, "--seed", str(seed)]
    spans = BUILD / "spans"
    spans.mkdir(exist_ok=True)
    main_args = common + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        main_args += ["--spans-out",
                      str(spans / f"{workload}-seed{seed}.json")]
    code, digest, result = simbench(main_args)
    if result is None:
        log(f"{workload}: no result (exit {code})")
        return 1
    ok = code == 0 and result.get("correct") is True

    # Same seed, tracing flipped, another process: same digest.
    check_code, check_digest, _ = simbench(
        common + ["--trace", str(1 - trace), "--digest-only", "1"])
    if check_code != 0 or digest is None or check_digest != digest:
        log(f"{workload}: digest {digest} (trace {trace}) vs "
            f"{check_digest} (trace {1 - trace}, exit {check_code})")
        ok = False

    missing = declared_metrics(trace) - set(result["metrics"])
    if missing:
        log(f"{workload}: metrics missing from the result: "
            f"{sorted(missing)}")
        ok = False
    result["correct"] = ok
    print(json.dumps(result))
    return 0 if ok else 1


def self_test():
    """Corrupt one value, then one count: each run must fail."""
    failures = 0
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", "0"]
        code, _, clean = simbench(base)
        if code != 0 or clean is None or clean["failed"] != 0:
            log(f"self-test {workload}: clean run failed (exit {code})")
            failures += 1
        for what in ("value", "count"):
            code, _, bad = simbench(base + ["--inject", what])
            ratio = (bad["failed"] / bad["attempted"]) if bad else 0.0
            caught = (code != 0 and bad is not None
                      and bad["correct"] is False and ratio > 0
                      and bad["metrics"]["ok_query_ratio"]["value"] < 1)
            log(f"self-test {workload} {what}: exit {code}, "
                f"failed_query_ratio {ratio:.6f}",
                "ok" if caught else "NOT CAUGHT")
            failures += not caught
    print(json.dumps({"self_test": "ok" if failures == 0 else "failed",
                      "failures": failures}))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
