#!/usr/bin/env python3
"""Entry point of the wfc serve benchmark.

    python3 perfbench/run.py --workload warm|cold|mixed --seed N --seconds S --trace 0|1

Builds the wfc CLI and the load generator from source with dune, then runs
perfbench/wfcbench.exe, which spawns `wfc serve` daemons, drives them over
their Unix sockets and prints one JSON result as its last line (see the
header of wfcbench.ml). Scratch files live under .perfbench-run/ in the
checkout and are removed afterwards; a traced run leaves its spans in
.perfbench-run/trace-<workload>.json.

Exit codes: 0 correct run; 1 a verdict differed or a request failed;
2 bad arguments or not a wfc source tree; 3 build failure; 4 timeout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run measures --seconds, twice with --trace 1, plus set-ups and (traced)
# the replay. Units run until a deadline, so a slower program runs fewer
# units rather than a longer run. The limit allows 170 s for up to 50
# measured seconds and grows in proportion beyond that, so a run of
# BENCHMARK.json's 25 s, traced or not, still ends within 180 s.
RUN_TIMEOUT_PER_50_S = 170
BUILD_TIMEOUT_S = 850


def parse_args():
    p = argparse.ArgumentParser(prog="run.py", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=["warm", "cold", "mixed"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()  # unknown flags exit 2
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; on timeout kills the whole group
    (the load generator's daemons included) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    args = parse_args()
    needed = ["dune-project", "bin/wfc_cli.ml", "lib/serve/daemon.ml", "perfbench/dune"]
    missing = [f for f in needed if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        print("run.py: not a wfc source tree, missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 3
    code = run_group(
        ["dune", "build", "--root", ROOT, "bin/wfc_cli.exe", "perfbench/wfcbench.exe"],
        BUILD_TIMEOUT_S,
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3
    build = os.path.join(ROOT, "_build", "default")
    scratch = os.path.join(ROOT, ".perfbench-run")
    work = os.path.join(scratch, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [
        os.path.join(build, "perfbench", "wfcbench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--wfc", os.path.join(build, "bin", "wfc_cli.exe"),
        "--catalogue", os.path.join(ROOT, "perfbench", "catalogue.json"),
        "--workdir", work,
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(scratch, "trace-%s.json" % args.workload)]
    try:
        measured = args.seconds * (1 + args.trace)
        code = run_group(cmd, RUN_TIMEOUT_PER_50_S * max(1.0, measured / 50))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
