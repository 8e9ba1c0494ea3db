"""The benchmark's known-answer table agrees with the suite registry and
with the reports.

``perfbench/workloads.py`` assigns every suite to one workload with the
anchor, backend, kind and tolerance its verdict must have; the benchmark
worker refuses to start when the table and the registry disagree, and
counts a round whose report rows break the table as incorrect.  It is
loaded by path, so these tests read the same file the benchmark reads.
"""

import importlib.util
import json
import os
import sys

from bqspin import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_suite_matches_its_known_answer():
    workloads = _load_workloads()
    workloads.check_split(harness.list_suites())
    for sid in harness.list_suites():
        spec = harness._REGISTRY[sid]
        expect = workloads.KNOWN_ANSWERS[sid]
        assert (spec.anchor, spec.backend, spec.kind) == (
            expect.anchor, expect.backend, expect.kind), sid
        if spec.kind == "identity":
            assert spec.tol == expect.tol, sid


def test_every_report_row_passes_the_benchmark_check():
    # the benchmark judges each row of a round's JSON report by check_row,
    # and the library once per run by check_counting; a change that fails
    # either is refused there, so it fails here first
    from bqspin.biquaternion import DEFAULT_FRAME
    from bqspin.cli import emit
    from bqspin.fields import Momentum
    from bqspin.rs import constraint_counting

    workloads = _load_workloads()
    problems = []
    for seed, backend in ((1, None), (7000, "float")):
        report = emit(harness.run("*", seed=seed, backend=backend), fmt="json", seed=seed,
                      backend=backend)
        for row in json.loads(report)["results"]:
            problems += [f"seed {seed}: {p}"
                         for p in workloads.check_row(row, workloads.KNOWN_ANSWERS[row["suite_id"]])]
    p0, p, m = workloads.COUNTING_MOMENTUM
    problems += workloads.check_counting(constraint_counting(Momentum(p0, p, m), m, DEFAULT_FRAME))
    assert problems == []
