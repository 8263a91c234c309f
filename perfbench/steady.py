#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark command from BENCHMARK.json on each workload with
several seeds and prints, per metric, the median, the quartiles, the
spread (interquartile distance over the median) and the sample count,
next to the bound BENCHMARK.json sets. It also checks that every run
was correct and reported exactly the metric names BENCHMARK.json lists.

    python3 perfbench/steady.py [--runs 10] [--workload NAME]
                                [--first-seed N] [--json OUT]
                                [--compare EARLIER.json]

Each run measures for BENCHMARK.json's `run_seconds` with tracing off;
every end-to-end metric is reported, and a spread above a third of its
bound is flagged.

`--compare` reads the `--json` output of an earlier set of runs and
prints how far each median moved, flagging a move in the worse
direction by more than the metric's bound. Run it from the repository
root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "samples": len(values), "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    table = bench["end_to_end"]
    names = [m["name"] for m in table]
    bounds = {m["name"]: m["bound"] for m in table}
    better = {m["name"]: m["better"] for m in table}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]

    report = {"runs": args.runs, "seconds": seconds,
              "first_seed": args.first_seed, "workloads": {}}
    lines = []
    ok = True
    for workload in workloads:
        values = {name: [] for name in names}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(bench["command"], workload, seed, seconds)
            if sorted(result["metrics"]) != sorted(names) or not result["correct"] \
                    or result["failed"]:
                print(f"{workload} seed {seed}: bad result {result}", file=sys.stderr)
                ok = False
            for name in names:
                values[name].append(result["metrics"][name]["value"])
        rows = {name: summarize(values[name], bounds[name]) for name in names}
        report["workloads"][workload] = rows

        lines.append(f"\n### {workload}: {args.runs} runs of {seconds} s, "
                     f"seeds {args.first_seed}..{args.first_seed + args.runs - 1}\n")
        lines.append("| metric | median | q1 | q3 | spread | bound | runs |"
                     + (" moved |" if earlier else ""))
        lines.append("|---|---|---|---|---|---|---|" + ("---|" if earlier else ""))
        for name in names:
            row = rows[name]
            bound = row["bound"]
            flag = ""
            if not row["spread"] <= bound / 3:
                flag = " (above bound/3)"
            moved = ""
            if earlier:
                before = earlier[workload][name]["median"]
                change = (row["median"] - before) / before if before else 0.0
                worse = change if better[name] == "lower" else -change
                moved = f" {change:+.4f}{' (WORSE THAN BOUND)' if worse > bound else ''} |"
                if worse > bound:
                    ok = False
            lines.append(f"| {name} | {row['median']:.6g} | {row['q1']:.6g} | {row['q3']:.6g} "
                         f"| {row['spread']:.4f}{flag} | {bound} "
                         f"| {row['samples']} |{moved}")
    print("\n".join(lines))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
