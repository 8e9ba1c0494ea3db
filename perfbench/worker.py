"""Worker process of the benchmark: import the library, run a workload, check it.

Run by ``run.py``, one process at a time.  With ``--setup-only`` it only
times the import of ``bqspin.harness`` and ``bqspin.cli`` and exits.
Otherwise it runs whole rounds of the workload (every suite of the
workload once, for one seed, then the JSON report) until ``--seconds``
have passed, or until one more round would not end before ``--deadline``
(a ``time.monotonic()`` value; Linux shares that clock between processes).
It checks every verdict against the known-answer table and the 2x2 matrix
oracle, and, with ``--trace 1``, runs one more
round with the layer tracer installed.  The last line on stdout is one JSON
object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

import hostspeed
import layertrace
import oracle
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ORACLE_PAIRS = 100
# a traced round takes at most this many untraced rounds of wall time
TRACED_ROUND_COST = 1.5
# wall time kept after the last round for the checks and the output
END_MARGIN_S = 5.0

# per-layer counters: metric name -> the wrapped names whose calls it sums
_GR = "scalars.GaussianRational."
COUNTERS = {
    "scalars.mul_calls": (_GR + "__mul__", _GR + "__rmul__"),
    "scalars.addsub_calls": tuple(_GR + op for op in
                                  ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    "scalars.div_calls": (_GR + "__truediv__", _GR + "__rtruediv__"),
    "biquaternion.mul_calls": ("biquaternion.Biquaternion.__mul__",),
    "biquaternion.involution_calls": tuple(f"biquaternion.Biquaternion.{name}"
                                           for name in ("bar", "star", "plus", "reverse")),
    "fields.poly_mul_calls": ("fields.Poly.__mul__",),
    "fields.field_mul_calls": ("fields.Field.__mul__", "fields.Field.__rmul__"),
    "fields.derivative_calls": ("fields.Field.derivative",),
    "fields.gradient_calls": ("fields.nabla", "fields.nabla_bar",
                              "fields.nabla_from_right", "fields.nabla_bar_from_right"),
    "fields.map_coeffs_calls": ("fields.Field.map_coeffs",),
    "rs.operator_calls": ("rs.RSContext.pi_lower", "rs.RSContext.pi_upper",
                          "rs.RSContext.pibar", "rs.RSContext.pibar_star",
                          "rs.CoupledSystem.rows"),
    "exactlinalg.rref_calls": ("exactlinalg.rref",),
    "linops.compose_calls": ("linops.RealLinearOp.__matmul__",),
    "linops.from_function_calls": ("linops.RealLinearOp.from_function",),
    "linops.exp_calls": ("linops.op_exp",),
    "lorentz.fit_calls": ("lorentz.least_squares",),
}
# counters that sum every wrapped call of their layer
LAYER_COUNTERS = {"bilinears.calls": "bilinears", "spin.calls": "spin"}
SELF_TIMES = ("scalars", "biquaternion", "fields", "rs", "bilinears",
              "exactlinalg", "linops", "spin", "lorentz")

# counters that must be nonzero on the workload meant to exercise them
EXERCISED = {
    workloads.ALGEBRA_EXACT: (
        "scalars.mul_calls", "scalars.addsub_calls", "scalars.div_calls",
        "biquaternion.mul_calls", "biquaternion.involution_calls"),
    workloads.FIELD_IDENTITIES: (
        "scalars.mul_calls", "scalars.addsub_calls", "biquaternion.mul_calls",
        "biquaternion.involution_calls", "fields.poly_mul_calls",
        "fields.field_mul_calls", "fields.derivative_calls", "fields.gradient_calls",
        "fields.map_coeffs_calls", "fields.peak_terms", "rs.operator_calls",
        "bilinears.calls", "exactlinalg.rref_calls"),
    workloads.FLOAT_SWEEPS: (
        "biquaternion.mul_calls", "linops.compose_calls", "linops.from_function_calls",
        "linops.exp_calls", "spin.calls", "lorentz.fit_calls"),
}


def import_library():
    """Import the harness and the CLI from this checkout.

    Returns them and the import time, in reference seconds and in wall time.
    """
    sys.path.insert(0, SRC)
    with hostspeed.HostSpeed() as speed:
        start = time.perf_counter()
        from bqspin import cli, harness
        end = time.perf_counter()
    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bqspin was imported from {harness.__file__}, not from {SRC}")
    return harness, cli, {"setup_s": speed.scaled(start, end), "setup_wall_s": end - start}


def round_seed(seed, index):
    return seed * 1000 + index


def verdict_digest(report):
    """sha256 of the report as emitted; it holds no timing."""
    return hashlib.sha256(report.encode()).hexdigest()


def run_round(harness, cli, suites, seed, tracer=None):
    """One round: each suite through harness.run, then the JSON report.

    Records the wall-clock interval of the round, of each suite and of the
    report; ``scale_round`` turns them into times.
    """
    def call(fn, key, layer):
        return fn() if tracer is None else tracer.span(fn, key, layer, seed)

    results, failures, spans = [], [], {}
    start = time.perf_counter()
    for sid in suites:
        t = time.perf_counter()
        try:
            results += call(lambda: harness.run(sid, seed=seed), f"harness.{sid}", "harness")
        except Exception as exc:  # a suite that raises fails; the run goes on
            failures.append({"suite_id": sid, "seed": seed, "error": type(exc).__name__,
                             "message": str(exc)})
        spans[sid] = (t, time.perf_counter())
    t = time.perf_counter()
    report = call(lambda: cli.emit(results, fmt="json", seed=seed), "cli.emit", "cli")
    end = time.perf_counter()
    spans["cli.emit"] = (t, end)
    return {"seed": seed, "start": start, "end": end, "spans": spans,
            "failures": failures, "report": report}


def scale_round(rnd, speed):
    """Add the round's wall time, host speed and times in reference seconds."""
    rnd["verdict_wall_s"] = rnd["end"] - rnd["start"]
    rnd["speed"] = speed.speed(rnd["start"], rnd["end"])
    rnd["verdict_s"] = rnd["verdict_wall_s"] * rnd["speed"]
    rnd["span_s"] = {key: speed.scaled(a, b) for key, (a, b) in rnd["spans"].items()}


def check_report(rnd, suites):
    """Problems with one round's report against the known-answer table."""
    doc = json.loads(rnd["report"])
    failed = {f["suite_id"] for f in rnd["failures"]}
    expected = [sid for sid in suites if sid not in failed]
    # every suite must report pass or witness; one that raised reports neither
    problems = []
    for f in rnd["failures"]:
        want = workloads.expected_status(workloads.KNOWN_ANSWERS[f["suite_id"]])
        problems.append(f"seed {f['seed']}: {f['suite_id']}: raised {f['error']}, "
                        f"expected {want}")
    if doc["seed"] != rnd["seed"]:
        problems.append(f"report seed {doc['seed']} != {rnd['seed']}")
    got = [row["suite_id"] for row in doc["results"]]
    if got != expected:
        problems.append(f"report rows {got} != suites run {expected}")
    for row in doc["results"]:
        expect = workloads.KNOWN_ANSWERS.get(row["suite_id"])
        if expect is not None:
            problems += [f"seed {rnd['seed']}: {p}" for p in workloads.check_row(row, expect)]
    return problems


def check_library(workload, seed):
    """Checks made once per run, outside the timed rounds."""
    from bqspin import biquaternion, rs
    from bqspin.fields import Momentum
    elements, pairs = oracle.fixtures(biquaternion, random.Random(f"oracle:{seed}"),
                                      ORACLE_PAIRS)
    checks, problems = oracle.check(elements, pairs)
    if workload == workloads.FIELD_IDENTITIES:
        p0, p, m = workloads.COUNTING_MOMENTUM
        out = rs.constraint_counting(Momentum(p0, p, m), m, biquaternion.DEFAULT_FRAME)
        problems += workloads.check_counting(out)
        checks += 1
    return checks, problems


def traced_round(harness, cli, suites, seed):
    """One round with every layer wrapped.

    Returns the round, the tracer, the peak ``fields`` term count and the
    counter names that were not found in the library.
    """
    from bqspin import (bilinears, biquaternion, exactlinalg, fields, linops, lorentz,
                        rs, scalars, spin)
    layers = {"scalars": scalars, "biquaternion": biquaternion, "fields": fields,
              "rs": rs, "bilinears": bilinears, "exactlinalg": exactlinalg,
              "linops": linops, "spin": spin, "lorentz": lorentz}
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "bqspin" or name.startswith("bqspin.")]
    peak = [0]

    def note_terms(result):
        if isinstance(result, fields.Field):
            n = sum(len(pc.terms) + len(ps.terms) for pc, ps in result.modes.values())
        elif isinstance(result, fields.Poly):
            n = len(result.terms)
        else:
            return
        if n > peak[0]:
            peak[0] = n

    tracer = layertrace.LayerTracer()
    wrapped = set(tracer.install(layers, namespaces,
                                 extra=[("lorentz", lorentz, "least_squares")],
                                 on_result={"fields": note_terms}))
    missing = sorted(name for names in COUNTERS.values() for name in names
                     if name not in wrapped)
    rnd = run_round(harness, cli, suites, seed, tracer)
    return rnd, tracer, peak[0], missing


def layer_metrics(tracer, peak_terms, speed):
    totals = tracer.totals()
    calls = {name: c for name, (_, c, _) in totals.items()}
    out = {metric: sum(calls.get(name, 0) for name in names)
           for metric, names in COUNTERS.items()}
    for metric, layer in LAYER_COUNTERS.items():
        out[metric] = sum(c for lay, c, _ in totals.values() if lay == layer)
    out["fields.peak_terms"] = peak_terms
    self_s = tracer.layer_self_time()
    for layer in SELF_TIMES:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) * speed
    return out


def environment():
    import numpy
    import scipy
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().strip()
    except OSError:
        loadavg = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_revision": git_revision(),
            "sched_getaffinity": sorted(os.sched_getaffinity(0)), "loadavg": loadavg}


def git_revision():
    """The checked-out commit, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args, harness, cli, setup):
    suites = workloads.suites_of(args.workload)
    env_before = environment()
    rounds = []
    traced = None
    with hostspeed.HostSpeed() as speed:
        start = time.perf_counter()
        while True:
            rounds.append(run_round(harness, cli, suites, round_seed(args.seed, len(rounds))))
            if time.perf_counter() - start >= args.seconds:
                break
            # near the deadline, start no round that would leave no time for
            # the traced round and the checks
            last = rounds[-1]["end"] - rounds[-1]["start"]
            need = last * (1 + (TRACED_ROUND_COST if args.trace else 0)) + END_MARGIN_S
            if args.deadline is not None and time.monotonic() + need > args.deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = []
        for rnd in rounds:
            problems += check_report(rnd, suites)
        oracle_checks, oracle_problems = check_library(args.workload, args.seed)
        problems += oracle_problems
        if args.trace:
            traced, tracer, peak_terms, missing = traced_round(harness, cli, suites,
                                                               rounds[0]["seed"])
    for rnd in rounds + ([traced] if traced else []):
        scale_round(rnd, speed)

    if args.trace:
        metrics = {f"harness.suite_s.{sid}": 0.0 for sid in workloads.KNOWN_ANSWERS}
        for sid in suites:
            metrics[f"harness.suite_s.{sid}"] = statistics.median(
                r["span_s"][sid] for r in rounds)
        metrics["cli.emit_s"] = statistics.median(r["span_s"]["cli.emit"] for r in rounds)
        problems += [f"layer tracer: {name} not found in the library" for name in missing]
        if traced["failures"] != rounds[0]["failures"]:
            problems.append("traced round failed differently from the untraced one")
        elif verdict_digest(traced["report"]) != verdict_digest(rounds[0]["report"]):
            problems.append("traced round gave a different verdict")
        metrics.update(layer_metrics(tracer, peak_terms, traced["speed"]))
        metrics["trace.overhead_s"] = traced["verdict_s"] - rounds[0]["verdict_s"]
        problems += [f"{args.workload}: {name} is 0 on the workload that exercises it"
                     for name in EXERCISED[args.workload] if not metrics[name]]
        trace_doc = {"verdict_s": traced["verdict_s"], "speed": traced["speed"],
                     "tree": tracer.tree(), "timeline": tracer.timeline}
    else:
        metrics = {"verdict_s": statistics.median(r["verdict_s"] for r in rounds),
                   "peak_rss_mb": peak_rss_mb}
        trace_doc = None

    failures = [f for r in rounds for f in r["failures"]]
    return {
        **setup,
        "attempted": len(rounds) * len(suites),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "oracle_checks": oracle_checks,
        "metrics": metrics,
        "rounds": [{"seed": r["seed"], "verdict_s": r["verdict_s"],
                    "verdict_wall_s": r["verdict_wall_s"], "speed": r["speed"],
                    "span_s": r["span_s"], "verdict_sha256": verdict_digest(r["report"])}
                   for r in rounds],
        "suites": suites,
        "env": {"before": env_before, "after": environment()},
        "trace": trace_doc,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, default=None,
                        help="time.monotonic() by which the worker must have ended")
    args = parser.parse_args(argv)
    if not args.setup_only and args.workload is None:
        parser.error("--workload is required")

    harness, cli, setup = import_library()
    if args.setup_only:
        out = setup
    else:
        workloads.check_split(harness.list_suites())
        out = run_workload(args, harness, cli, setup)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
