"""The benchmark's known-answer table agrees with the suite registry.

``perfbench/workloads.py`` assigns every suite to one workload with the
anchor, backend, kind and tolerance its verdict must have; the benchmark
worker refuses to start when the table and the registry disagree.  It is
loaded by path, so this test reads the same file the benchmark reads.
"""

import importlib.util
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
