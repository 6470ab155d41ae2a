#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same build.

Runs the command in BENCHMARK.json on every workload `--runs` times per set,
each run with its own seed, for two sets. For each end-to-end metric it
prints each set's median and quartiles and the quartile spread as a share
of the median, then whether the sets agree: every spread but that of
setup_s within the metric's bound, the two medians apart by no more than
the bound (in either direction, as a share of the first; setup_s
included), and the same share of failed operations in every run.

setup_s is timed on three cold set-ups of about a second each, short
enough that the machine's throughput drift alone spreads it past its
bound across runs; its spread is printed and marked, not gated.

Run from the repository root:

    python3 crates/bench/perfbench/steady.py --runs 10
    python3 crates/bench/perfbench/steady.py --runs 5 --workloads hetero_autotune

Exits 1 when the sets disagree.
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    metrics = bench["end_to_end"]

    agree = True
    seed = opts.first_seed
    for workload in workloads:
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(opts.runs):
                result = run_once(command, workload, seed, bench["run_seconds"])
                seed += 1
                if not result["correct"]:
                    print(f"{workload}: seed {seed - 1} reported correct=false")
                    agree = False
                runs.append(result)
            sets.append(runs)
        print(f"== {workload}: {SETS} sets of {opts.runs} runs")
        failed_share = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"   failed share per run: {sorted(failed_share)}")
        if len(failed_share) != 1:
            agree = False
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            if any(r["metrics"][name]["value"] is None for runs in sets for r in runs):
                print(f"   {name:18} | not measured in some run")
                agree = False
                continue
            medians = []
            line = f"   {name:18}"
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                line += f" | median {q2:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f}"
                if spread > bound:
                    if name == "setup_s":
                        line += " SPREAD>BOUND (not gated)"
                    else:
                        line += " SPREAD>BOUND"
                        agree = False
            apart = abs(medians[1] - medians[0]) / medians[0]
            line += f" | medians apart {apart:.3f}"
            if apart > bound:
                line += " APART>BOUND"
                agree = False
            print(line + f" | bound {bound}")
    print("AGREE" if agree else "DISAGREE")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
