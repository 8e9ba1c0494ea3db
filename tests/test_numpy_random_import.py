"""The exact suites, and the bare imports, never load numpy.random.

``random_rational_batch`` draws from ``random.Random.getrandbits`` words,
and the float suites reach for ``numpy.random`` only when they run; loading it would add about 5 MB to the peak memory of
an exact run.  Each check runs in a subprocess, because this test process
may have loaded numpy.random already through other tests.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
{body}
print(sorted(m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random.")))
"""

_RUN = """
from bqspin import harness
rows = harness.run({suites!r}, backend="exact")
assert rows and all(row.status in ("pass", "witness") for row in rows), rows
"""


def _numpy_random_modules(body):
    script = _SCRIPT.format(src=os.path.join(ROOT, "src"), body=body)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_exact_algebra_sweeps_never_load_numpy_random():
    assert _numpy_random_modules(_RUN.format(suites="algebra.*")) == "[]"


@pytest.mark.parametrize("body", [
    _RUN.format(suites="*"),
    "import bqspin.harness",
    "import bqspin.cli",
], ids=["every_exact_suite", "import_harness", "import_cli"])
def test_exact_suites_and_bare_imports_never_load_numpy_random(body):
    assert _numpy_random_modules(body) == "[]"
