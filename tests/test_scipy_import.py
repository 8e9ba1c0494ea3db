"""Only the float suites that call scipy may load it, and no suite loads
``scipy.optimize``.

The exact suites never call scipy, so importing the package, listing the
suites and running every exact suite must leave it unloaded.  The rotation
exponential loads ``scipy.linalg``; the eq. (48) fit is numpy only, so
running every float suite after them must still leave ``scipy.optimize``
unloaded.  The check runs in a
subprocess, because this test process may have loaded scipy already through
other tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})

def loaded():
    return {{"scipy": sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy.")),
            "linalg": "scipy.linalg" in sys.modules,
            "optimize": "scipy.optimize" in sys.modules}}

import bqspin
from bqspin import cli, harness
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["--list"])
harness.run("*", backend="exact")
out = {{"exact": loaded()}}
harness.run("operators.exponential")
out["exponential"] = loaded()
harness.run("*", backend="float")
out["float"] = loaded()
print(json.dumps(out))
"""


def test_exact_runs_never_load_scipy():
    script = _SCRIPT.format(src=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["exact"]["scipy"] == []
    assert out["exponential"]["linalg"] and not out["exponential"]["optimize"]
    assert not out["float"]["optimize"]
