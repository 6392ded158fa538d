#!/usr/bin/env python3
"""Build and run bench_e2e, the end-to-end trace-to-report benchmark.

One workload in one process; the last stdout line is its JSON result:
    python3 bench_e2e/run.py --workload offline-deep --seed 1 --seconds 20 --trace 0

Every workload, each in its own process, several runs, saved for --compare:
    python3 bench_e2e/run.py --all --runs 5 --out base.json

Compare two saved sets against the bounds in BENCHMARK.json (exit 1 on a
regression):
    python3 bench_e2e/run.py --compare base.json new.json

Quick self-check of the harness (all workloads briefly plus a traced pass):
    python3 bench_e2e/run.py --smoke

The program is built from the repository's sources into .bench_build/ at
the repository root; the last line a single run prints is its JSON result.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "bench_e2e"
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "bench_e2e"
# Relative to ROOT, so the daemon's Unix socket path stays short.
WORKDIR = ".bench_build/run"
# The workloads of BENCHMARK.json. The program also has offline-parallel
# (offline-deep's corpus at jobs 4), too noisy on a shared host to be one of
# them; --smoke still runs it, so its reports stay checked.
WORKLOADS = ["offline-deep", "offline-wide", "daemon-mix"]
SMOKE_WORKLOADS = WORKLOADS + ["offline-parallel"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the bench_e2e target; returns its path."""
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_ROOT / "bench_e2e.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed")
        step = ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return BUILD / "bench_e2e"


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload in its own process; returns (result, stdout, exit code)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--workdir", WORKDIR, *extra]
    if trace:
        command.append("--traced")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: exited {proc.returncode} without a result line")
    return result, proc.stdout, proc.returncode


def check_metrics(result, spec, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {wrong}")


def cmd_single(args):
    spec = load_spec()
    binary = build()
    result, stdout, code = run_one(binary, args.workload, args.seed, args.seconds,
                                   args.trace)
    check_metrics(result, spec, args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def cmd_all(args):
    spec = load_spec()
    binary = build()
    runs = {w: [] for w in WORKLOADS}
    for i in range(args.runs):
        for workload in WORKLOADS:
            seed = args.seed + i
            started = time.monotonic()
            result, _, _ = run_one(binary, workload, seed, args.seconds, args.trace)
            check_metrics(result, spec, args.trace)
            result["seed"] = seed
            result["elapsed_s"] = time.monotonic() - started
            runs[workload].append(result)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"({result['elapsed_s']:.1f} s)", file=sys.stderr)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    print(f"{'workload':18} {'metric':24} {'median':>14} {'iqr/median':>11}  unit")
    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        ok = ok and failed == 0 and all(r["correct"] for r in results)
        for metric in declared:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            print(f"{workload:18} {metric['name']:24} {statistics.median(values):14.6g} "
                  f"{spread(values):11.4f}  {metric['unit']}")
        print(f"{workload:18} {'fail_ratio':24} {failed / max(1, attempted):14.6g}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


def cmd_compare(args):
    spec = load_spec()
    base = json.loads(Path(args.compare[0]).read_text())["runs"]
    new = json.loads(Path(args.compare[1]).read_text())["runs"]
    regressed = False
    print(f"{'workload':18} {'metric':16} {'base':>12} {'new':>12} {'delta':>8} "
          f"{'bound':>6}  verdict")
    for workload in [w for w in base if w in new]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = statistics.median(r["metrics"][name]["value"] for r in base[workload])
            n = statistics.median(r["metrics"][name]["value"] for r in new[workload])
            delta = (n - b) / b if b else 0.0
            worse = delta > metric["bound"] if metric["better"] == "lower" \
                else -delta > metric["bound"]
            regressed = regressed or worse
            print(f"{workload:18} {name:16} {b:12.6g} {n:12.6g} {delta:+8.2%} "
                  f"{metric['bound']:6.0%}  {'WORSE' if worse else 'ok'}")

        def ratio(results):
            return sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))
        rose = ratio(new[workload]) > ratio(base[workload])
        regressed = regressed or rose
        print(f"{workload:18} {'fail_ratio':16} {ratio(base[workload]):12.6g} "
              f"{ratio(new[workload]):12.6g} {'':>8} {'0':>6}  {'WORSE' if rose else 'ok'}")
    return 1 if regressed else 0


def cmd_smoke(args):
    """Every workload for a fraction of a second, then one traced pass."""
    spec = load_spec() if (ROOT / "BENCHMARK.json").exists() else None
    binary = Path(args.binary) if args.binary else build()
    started = time.monotonic()
    for workload, trace in [(w, False) for w in SMOKE_WORKLOADS] + [("offline-deep", True)]:
        result, _, code = run_one(binary, workload, 1, 0.2, trace, extra=("--setups", "1"))
        if spec is not None:
            check_metrics(result, spec, trace)
        if code != 0 or not result["correct"] or result["failed"] != 0:
            fail(f"smoke: {workload}{' (traced)' if trace else ''} failed: {result}")
        print(f"smoke: {workload}{' traced' if trace else ''}: "
              f"{result['attempted']} checked ops ok")
    print(f"smoke: ok in {time.monotonic() - started:.1f} s")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=SMOKE_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--runs", type=int, default=1, help="with --all: runs per workload")
    parser.add_argument("--out", help="with --all: write every result to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="with --smoke: an already built bench_e2e")
    args = parser.parse_args()
    if args.compare:
        return cmd_compare(args)
    if args.smoke:
        return cmd_smoke(args)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.all:
        return cmd_all(args)
    if args.workload is None:
        parser.error("one of --workload, --all, --compare or --smoke is required")
    return cmd_single(args)


if __name__ == "__main__":
    sys.exit(main())
