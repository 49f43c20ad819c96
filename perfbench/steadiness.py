#!/usr/bin/env python3
"""Steadiness report for the wfc serve benchmark.

    python3 perfbench/steadiness.py [--workloads warm,cold,mixed] [--runs 10]
                                    [--sets 1] [--seed0 1]

Runs perfbench/run.py --runs times per workload, each with another seed, and
prints for every end-to-end metric the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) / median,
against the metric's bound in BENCHMARK.json. A spread above a tenth is
flagged. setup_s and cold/qps are always listed in a closing summary. With
--sets 2 the whole series runs twice (seeds differ between sets) and the
second median is compared with the first: the two sets must agree within
the bound in either direction. Each run's line also shows the steal and
iowait ticks /proc/stat counted over it, so an outlying run can be told
apart from a slow host.
Exits 1 if any run fails, any spread exceeds its metric's bound, or the two
sets' medians differ by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host_ticks():
    """(steal, iowait) ticks of all CPUs so far, or (0, 0) without /proc."""
    try:
        with open("/proc/stat") as f:
            cpu = f.readline().split()
        return int(cpu[8]), int(cpu[5])
    except (OSError, IndexError, ValueError):
        return 0, 0


def one_run(workload, seed, seconds, expected):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: %s seed %d" % (workload, seed))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        raise SystemExit("metrics of %s seed %d differ from BENCHMARK.json: %s" % (workload, seed, got))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(allow_abbrev=False)
    p.add_argument("--workloads", default=None)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1, choices=[1, 2])
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    ok = True
    medians = {}
    watched = []
    for s in range(args.sets):
        for w in workloads:
            runs = []
            for i in range(args.runs):
                seed = args.seed0 + 1000 * s + i
                steal0, iowait0 = host_ticks()
                runs.append(one_run(w, seed, bench["run_seconds"], units))
                steal1, iowait1 = host_ticks()
                print("  %s set %d seed %d (steal %d, iowait %d ticks): %s"
                      % (w, s + 1, seed, steal1 - steal0, iowait1 - iowait0,
                         json.dumps(runs[-1])), flush=True)
            print("%s, set %d, %d runs" % (w, s + 1, len(runs)))
            print("  %-20s %12s %12s %12s %8s %6s" % ("metric", "Q1", "median", "Q3", "spread", "bound"))
            for name, bound in bounds.items():
                q1, med, q3, spread = summary([r[name] for r in runs])
                flag = ""
                if spread > 0.1:
                    flag += "  SPREAD>0.1"
                if spread > bound:
                    flag += "  OVER BOUND"
                    ok = False
                first = medians.setdefault((w, name), med)
                if s > 0:
                    change = (med - first) / first
                    flag += "  vs set 1: %+.3f" % change
                    if abs(change) > bound:
                        flag += " DISAGREES"
                        ok = False
                print("  %-20s %12.4f %12.4f %12.4f %8.4f %6.2f%s"
                      % (name, q1, med, q3, spread, bound, flag))
                if name == "setup_s" or (w == "cold" and name == "qps"):
                    watched.append("%s/%s set %d: median %.6g, spread %.4f (bound %.2f)"
                                   % (w, name, s + 1, med, spread, bound))
    print("watched metrics:")
    for line in watched:
        print("  " + line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
