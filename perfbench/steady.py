#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs each workload repeatedly, one seed per run, and prints every
end-to-end metric's median and quartiles across the runs, with the spread
(Q3 - Q1) / median next to the metric's bound. A spread above the bound
is flagged FAIL; above a third of the bound, WARN.

With --sets 2 it makes two independent sets of runs (the second on fresh
seeds) and also checks that the second set's median is not worse than the
first's by more than the bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workload glauber-exact --runs 5

Results are also written as JSON to perfbench/out/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace=0):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    return result, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed-base", type=int, default=1000,
                        help="run i of set s uses seed base + 100*s + i")
    parser.add_argument("--seconds", type=int,
                        help="override run_seconds from BENCHMARK.json")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    seconds = opts.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    report = {"seconds": seconds, "runs": opts.runs, "workloads": {}}
    ok = True
    for workload in workloads:
        sets = []
        for s in range(opts.sets):
            values = {m["name"]: [] for m in metrics}
            walls = []
            for i in range(opts.runs):
                seed = opts.seed_base + 100 * s + i
                result, wall = run_once(bench["command"], workload, seed, seconds)
                walls.append(wall)
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"  {workload} set {s + 1} run {i + 1}/{opts.runs} seed {seed}: "
                      f"{wall:.1f} s, {result['attempted']} queries", flush=True)
            sets.append({"values": values, "walls": walls})

        print(f"\n{workload}: {opts.runs} runs x {seconds} s per set")
        print(f"  {'metric':<16} {'set':>3} {'median':>12} {'Q1':>12} {'Q3':>12}"
              f" {'spread':>8} {'bound':>6}  flag")
        rows = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, data in enumerate(sets):
                median, q1, q3, spread = summarize(data["values"][name])
                medians.append(median)
                flag = ""
                if spread > bound:
                    flag = "FAIL" if name != "setup_s" else "wide"
                    ok &= name == "setup_s"
                elif spread > bound / 3:
                    flag = "WARN"
                print(f"  {name:<16} {s + 1:>3} {median:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                      f" {spread:>8.3f} {bound:>6}  {flag}")
                rows.setdefault(name, []).append(
                    {"median": median, "q1": q1, "q3": q3, "spread": spread})
            if len(medians) == 2:
                first, second = medians
                worse = (second / first - 1) if m["better"] == "lower" else (first / second - 1)
                verdict = "ok" if worse <= bound else "FAIL"
                ok &= worse <= bound
                print(f"  {name:<16} set 2 vs set 1: {worse:+.3f} worse (bound {bound}) {verdict}")
        report["workloads"][workload] = {
            "metrics": rows,
            "max_run_wall_s": max(w for d in sets for w in d["walls"]),
            "values": [d["values"] for d in sets],
        }

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steady-%Y%m%dT%H%M%S.json"))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\n{'steady' if ok else 'NOT steady'}; results in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
