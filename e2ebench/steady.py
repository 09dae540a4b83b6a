#!/usr/bin/env python3
"""Steadiness tool for e2ebench: runs one workload N times and compares sets.

Run a set (each run with its own seed) and save it:

    python3 e2ebench/steady.py run --workload curation --runs 10 \\
        --seconds 10 --first-seed 1 --out set-a.json

For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median. It also prints
the spread of the plain whole-run figures the benchmark prints beside the
scaled ones, and the share of failed operations.

Compare two saved sets of the same workload against the bounds of
BENCHMARK.json:

    python3 e2ebench/steady.py compare set-a.json set-b.json

A metric passes when its spread in each set is within its bound and the
second median is not worse than the first by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def load_bounds():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                         text=True)
    if out.returncode != 0:
        sys.exit(f"run with seed {seed} failed (exit {out.returncode})")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    reference = {}
    for line in lines[:-1]:
        if line.startswith("# reference"):
            reference = json.loads(line.split(": ", 1)[1])
    return result, reference


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def print_table(title, table, bounds=None):
    print(title)
    for name, s in sorted(table.items()):
        bound = ""
        if bounds and name in bounds:
            bound = f"  bound {bounds[name]['bound']:.2f}"
        print(f"  {name:16s} median {s['median']:14.6g}  q1 {s['q1']:14.6g}"
              f"  q3 {s['q3']:14.6g}  spread {s['spread']:7.2%}{bound}")


def cmd_run(args):
    spec, bounds = load_bounds()
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, reference = one_run(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, "result": result, "reference": reference})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in
            sorted(result["metrics"].items())), flush=True)
    if args.runs < 2:
        return
    names = runs[0]["result"]["metrics"].keys()
    table = {n: summary([r["result"]["metrics"][n]["value"] for r in runs])
             for n in names}
    plain = {n: summary([r["reference"][n]["value"] for r in runs])
             for n in runs[0]["reference"]}
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print_table(f"{args.workload}: {args.runs} runs of {seconds} s",
                table, bounds)
    print_table("plain whole-run figures (not reported)", plain)
    print(f"  failed share per run: {sorted(shares)}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": runs, "summary": table, "plain": plain}, f,
                      indent=1)


def cmd_compare(args):
    _, bounds = load_bounds()
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    print(f"{a['workload']}: {args.first} -> {args.second}")
    for name, m in sorted(bounds.items()):
        if name not in a["summary"]:
            continue
        sa, sb = a["summary"][name], b["summary"][name]
        change = (sb["median"] - sa["median"]) / sa["median"]
        worse = -change if m["better"] == "higher" else change
        fine = (worse <= m["bound"] and sa["spread"] <= m["bound"]
                and sb["spread"] <= m["bound"])
        ok &= fine
        print(f"  {name:16s} {sa['median']:12.6g} -> {sb['median']:12.6g}"
              f"  change {change:+7.2%}  spreads {sa['spread']:6.2%}"
              f" {sb['spread']:6.2%}  bound {m['bound']:.2f}"
              f"  {'ok' if fine else 'OUT OF BOUND'}")
    share = lambda s: sorted({r["result"]["failed"] / r["result"]["attempted"]
                              for r in s["runs"]})
    if share(a) != share(b):
        ok = False
        print(f"  failed share differs: {share(a)} vs {share(b)}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seconds", type=float, default=0,
                     help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
