#!/usr/bin/env python3
"""Sets of benchmark runs: collect, summarize, compare.

    python3 perfbench/sets.py collect --out A.json [--workloads w1,w2] \
        [--seeds 1-10] [--seconds 10] [--inject-us 0]
        Runs perfbench/run.py once per workload and seed (untraced) and
        stores every result.

    python3 perfbench/sets.py summary A.json
        Per workload and end-to-end metric: median, quartiles, and the
        spread (q3 - q1) / median next to the metric's bound.

    python3 perfbench/sets.py compare A.json B.json
        Flags every (workload, metric) whose median in B is worse than in A
        by more than the metric's bound in BENCHMARK.json (BOUND), and any
        change in the share of failed operations. Also marks NOISE where the
        median is worse by more than NOISE_SPREADS times the larger of the
        two sets' spreads (q3 - q1) / median and at least 9 of B's 10 runs
        are worse than A's median: a regression smaller than the bound that
        the runs still resolve. Exits 1 when anything is flagged either way.

The NOISE threshold is calibrated on unchanged code: between sets made
apart in time on one host, medians drifted by up to about one spread
(6.1% against a 6.1% spread), so one spread is not enough; 1.5 spreads
leaves that drift unflagged and still resolves a 15% slowdown.

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NOISE_SPREADS = 1.5


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in
                                                                  spec["workloads"]]
    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            if args.inject_us:
                command += ["--inject-us", str(args.inject_us)]
            done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            runs.append({"workload": workload, "seed": seed, "exit": done.returncode,
                         "result": result})
            values = ({k: round(v["value"], 4) for k, v in result["metrics"].items()}
                      if result else f"exit {done.returncode}")
            print(f"{workload} seed={seed}: {values}", flush=True)
    with open(args.out, "w") as f:
        json.dump({"inject_us": args.inject_us, "seconds": args.seconds, "runs": runs}, f,
                  indent=1)
    return 0 if all(r["result"] and r["result"]["correct"] for r in runs) else 1


def by_workload(data):
    out = {}
    for run in data["runs"]:
        out.setdefault(run["workload"], []).append(run)
    return out


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def summary(args):
    spec = load_spec()
    with open(args.set) as f:
        data = json.load(f)
    for workload, runs in by_workload(data).items():
        ok = [r["result"] for r in runs if r["result"]]
        print(f"== {workload}: {len(ok)}/{len(runs)} runs with a result, "
              f"all correct: {all(r['correct'] for r in ok)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in ok]
            if len(values) < 2:
                continue
            median, q1, q3, spread = stats(values)
            print(f"   {metric['name']:28s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {100 * spread:6.2f}%  (bound {100 * metric['bound']:.0f}%)")
    return 0


def failed_shares(results):
    return {r["failed"] / r["attempted"] for r in results}


def compare(args):
    spec = load_spec()
    with open(args.base) as f:
        base = by_workload(json.load(f))
    with open(args.new) as f:
        new = by_workload(json.load(f))
    flagged = 0
    for workload in sorted(set(base) & set(new)):
        a_runs = [r["result"] for r in base[workload] if r["result"]]
        b_runs = [r["result"] for r in new[workload] if r["result"]]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_values = [r["metrics"][name]["value"] for r in a_runs]
            b_values = [r["metrics"][name]["value"] for r in b_runs]
            a = statistics.median(a_values)
            b = statistics.median(b_values)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b - a) / a
            spread = max(stats(a_values)[3], stats(b_values)[3])
            worse_runs = sum(1 for v in b_values if sign * (v - a) > 0)
            verdict = ""
            if worse > metric["bound"]:
                verdict = "  BOUND"
            elif worse > NOISE_SPREADS * spread and worse_runs * 10 >= 9 * len(b_values):
                verdict = "  NOISE"
            flagged += bool(verdict)
            print(f"{workload:18s} {name:28s} {a:12.6g} -> {b:12.6g}  worse by "
                  f"{100 * worse:7.2f}% (bound {100 * metric['bound']:.0f}%, spread "
                  f"{100 * spread:.1f}%, {worse_runs}/{len(b_values)} runs worse){verdict}")
        a_fail = failed_shares(a_runs)
        b_fail = failed_shares(b_runs)
        if a_fail != b_fail:
            flagged += 1
            print(f"{workload:18s} failed share changed: {sorted(a_fail)} -> {sorted(b_fail)}"
                  "  FLAGGED")
    print(f"{flagged} flagged")
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=float, default=None)
    c.add_argument("--inject-us", type=float, default=0.0)
    s = sub.add_parser("summary")
    s.add_argument("set")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()
    if args.command == "collect":
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return collect(args)
    if args.command == "summary":
        return summary(args)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
