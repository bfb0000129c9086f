"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 100] [--workload W ...]

Runs each workload --runs times, each with its own seed, one run after
another, and prints per metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) /
median against the metric's bound in BENCHMARK.json, and the share of
failed operations, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        results = []
        for k in range(args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(args.first_seed + k), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in results})
        ratios = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print("%s: %d runs, correct %s, failed/attempted %s%s" % (
            workload, len(results), correct, ", ".join(shares),
            "" if len(ratios) == 1 else "  (SHARE DIFFERS)"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print("  %-14s median %12.5g  Q1 %12.5g  Q3 %12.5g  spread %.3f  bound %.2f" % (
                name, med, q1, q3, spread, metric["bound"]))
    print("largest spread / bound, setup_s aside: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
