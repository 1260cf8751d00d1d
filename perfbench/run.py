#!/usr/bin/env python3
"""Builds and runs the CPI2 end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <fleet_steady|antagonist_storm|net_ingest> \
        --seed <n> --seconds <s> --trace <0|1> [--size full|smoke] [--inject-us <us>]

The first run configures and builds perfbench/ (and with it the program's
libraries from src/) into .bench_build/; later runs rebuild incrementally.
Build output goes to stderr. The benchmark's last stdout line is its JSON
result. Exits nonzero, without a result, when the build fails or an output
check fails.

    python3 perfbench/run.py --self-test

runs every workload at its smoke size, untraced and traced, and checks that
each prints a well-formed result with every metric BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cpi2_perfbench")
WORKLOADS = ("fleet_steady", "antagonist_storm", "net_ingest")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "cpi2_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def run(args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    if args.inject_us:
        command += ["--inject-us", str(args.inject_us)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        out = expired.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, out
    return done.returncode, done.stdout


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def self_test():
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1.0, trace=trace,
                                      size="smoke", inject_us=0.0)
            code, out = run(args)
            lines = out.strip().splitlines()
            problem = None
            if code != 0 or not lines:
                problem = f"exit code {code}"
            else:
                result = json.loads(lines[-1])
                want = expected_metrics(trace)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    problem = "output checks failed"
                elif got != want:
                    problem = f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
            print(f"{workload:18s} trace={trace}: {problem or 'ok'}")
            failures += problem is not None
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--inject-us", type=float, default=0.0,
                        help="sensitivity check: busy-wait per machine-minute in the timed loop")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    code, out = run(args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
