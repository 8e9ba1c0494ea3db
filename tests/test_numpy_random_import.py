"""The batched exact sweeps never load numpy.random.

``random_rational_batch`` replays ``random.Random.randint`` on raw
Mersenne Twister words; importing ``numpy.random`` for its own generator
would add about 5 MB to the peak memory of a run.  The check runs in a
subprocess, because this test process may have loaded numpy.random already
through other tests.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from bqspin import harness
rows = harness.run("algebra.*", backend="exact")
assert rows and all(row.status == "pass" for row in rows), rows
print(sorted(m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random.")))
"""


def test_exact_algebra_sweeps_never_load_numpy_random():
    script = _SCRIPT.format(src=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
