"""Time-to-verdict benchmark of the bqspin verification engine.

    python3 perfbench/run.py --workload algebra_exact --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout, in a worker process (``worker.py``); processes run one at a
time.  With ``--trace 0`` the benchmark first starts the worker twice only
to time the import (``setup_s`` is the median of those two and the
worker's own import), then once to run the workload, and reports the
end-to-end metrics.  With ``--trace 1`` it runs the workload untraced and
then one traced round, and reports the per-layer metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (suites that raised) and ``metrics``, each metric in the unit
``BENCHMARK.json`` gives it; a run whose metrics are not exactly those the
manifest lists for its mode prints no result and exits 1.  A full record
of the run, stamped with its environment, is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 3
# a run must end within 180 s; every process this benchmark starts has ended
# by this time, which leaves 10 s to kill, reap and report
DEADLINE_S = 170.0


def manifest_units(trace):
    """Metric name -> unit of the metrics a run prints, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def start_worker(args, deadline):
    """Run the worker to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the worker")
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=remaining)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bqspin", "__init__.py")):
        print(f"no bqspin sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--deadline", repr(deadline)]
    try:
        units = manifest_units(args.trace)
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(start_worker(["--setup-only"], deadline))
        out = start_worker(run_args, deadline)
    except (OSError, RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError, IndexError, KeyError) as exc:
        print(f"benchmark run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    setup.append({k: out[k] for k in ("setup_s", "setup_wall_s")})

    metrics = dict(out["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    problems = out["problems"]
    for failure in out["failures"]:
        print(f"suite failed: {failure['suite_id']} (seed {failure['seed']}): "
              f"{failure['error']}: {failure['message']}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    record = {"args": vars(args), "setup_samples": setup, "metrics": metrics,
              "correct": not problems, **{k: v for k, v in out.items() if k != "metrics"}}
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh)

    for rnd in out["rounds"]:
        print(f"verdict {args.workload} seed={rnd['seed']} sha256={rnd['verdict_sha256']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
