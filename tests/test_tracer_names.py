"""The benchmark's layer tracer must find every library name it counts.

The tracer wraps callables by name, so a refactor that renames or removes
one would only show up as a failed check in a traced benchmark run.  The
tracer is installed in a subprocess, so its wrappers never reach the
modules this test process shares with the other tests.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import worker
from bqspin import cli, harness
missing = worker.traced_round(harness, cli, [], 0)[-1]
print(json.dumps({{"counted": sum(len(v) for v in worker.COUNTERS.values()),
                  "missing": missing}}))
"""


def test_every_counted_name_is_wrapped():
    script = _SCRIPT.format(perfbench=os.path.join(ROOT, "perfbench"),
                            src=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["counted"] > 0
    assert out["missing"] == []


_EXERCISED_SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import worker, workloads
from bqspin import cli, harness
workload = {workload!r}
rnd, tracer, peak, missing = worker.traced_round(harness, cli, workloads.suites_of(workload), 1)
metrics = worker.layer_metrics(tracer, peak, 1.0)
print(json.dumps({{"failures": rnd["failures"], "missing": missing,
                  "exercised": {{name: metrics[name] for name in worker.EXERCISED[workload]}}}}))
"""


@pytest.mark.parametrize("workload", ["algebra_exact", "field_identities", "float_sweeps"])
def test_a_traced_round_exercises_every_counter(workload):
    # a counter that reads zero on the workload meant to exercise it makes
    # every traced benchmark run of that workload read correct: false; each
    # workload runs in its own process, since tracers installed twice in one
    # process would wrap each other
    script = _EXERCISED_SCRIPT.format(perfbench=os.path.join(ROOT, "perfbench"),
                                      src=os.path.join(ROOT, "src"), workload=workload)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failures"] == [] and out["missing"] == []
    assert out["exercised"]
    assert {name: n for name, n in out["exercised"].items() if not n} == {}
