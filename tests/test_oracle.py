"""The biquaternion algebra agrees with an independent 2x2 matrix model.

``perfbench/oracle.py`` maps the algebra onto exact 2x2 Gaussian-rational
matrices (e_n -> -i sigma_n) with its own fraction arithmetic, and checks
the Hamilton product, ``norm`` and ``bar`` against the matrix product, the
determinant and the adjugate.  It is loaded by path, so this test runs the
same file the benchmark runs.
"""

import importlib.util
import os
import random

from bqspin import biquaternion

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", os.path.join(ROOT, "perfbench", "oracle.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_algebra_matches_the_matrix_oracle():
    oracle = _load_oracle()
    checks, problems = oracle.check(*oracle.fixtures(biquaternion, random.Random(0), 200))
    assert checks > 0
    assert problems == []
