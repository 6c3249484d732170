#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 e2ebench/steadiness.py [--runs 10] [--first-seed 1] \
        [--workload NAME ...]

Runs BENCHMARK.json's command once per seed (first-seed, first-seed+1,
...) for each workload, untraced, with the file's run_seconds, and
prints for every end-to-end metric its median, quartiles and spread:
(q3 - q1) / median over the runs, from statistics.quantiles(n=4). The
spread should stay below a third of the metric's bound (setup_s is
exempt from the spread rule). Exits nonzero when a run fails or is
incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", choices=names,
                        default=names)
    args = parser.parse_args()

    status = 0
    for workload in args.workload:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for run in range(args.runs):
            seed = args.first_seed + run
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print("%s seed %d: exit %d, correct=%s"
                      % (workload, seed, done.returncode,
                         result.get("correct")))
                status = 1
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            first = bench["end_to_end"][0]["name"]
            print("  %s seed %d: %s %.6g" % (workload, seed, first,
                                             values[first][-1]))
            sys.stdout.flush()
        print("%s: %d runs, seeds %d..%d" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1))
        for metric in bench["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            verdict = ("ok" if spread < metric["bound"] / 3
                       else "WIDE" if spread <= metric["bound"]
                       else "OVER")
            if metric["name"] == "setup_s":
                verdict += " (spread exempt)"
            print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %6.2f%% bound %4.0f%% %s"
                  % (metric["name"], q2, q1, q3, 100 * spread,
                     100 * metric["bound"], verdict))
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
