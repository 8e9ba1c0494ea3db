"""Regenerate the benchmark figures: run each workload over several seeds.

    python3 perfbench/figures.py --seeds 1-10 --seconds 25
    python3 perfbench/figures.py --seeds 1 --seconds 25 --trace 1

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
for each metric the median, the quartiles and the spread (the distance
between the quartiles as a share of the median), plus the share of failed
suites and whether every run was correct.  The full record of each run is
in ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = {}
    for workload in WORKLOAD_NAMES:
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if not k.startswith("harness.")), file=sys.stderr)

    for workload, results in runs.items():
        if not results:
            continue
        correct = all(r["correct"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, correct={correct}, "
              f"failed share {shares}")
        for metric in sorted(results[0]["metrics"]):
            values = [r["metrics"][metric]["value"] for r in results]
            med, q1, q3, spread = summarise(values)
            unit = results[0]["metrics"][metric]["unit"]
            print(f"  {metric:48s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
