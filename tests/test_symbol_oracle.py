"""The free spinor symbol of the field layer agrees with the 2x2 matrix oracle.

``perfbench/oracle.py`` maps q = w + x e1 + y e2 + z e3 to an exact 2x2
matrix M(q) (e_n -> -i sigma_n) with its own Fraction arithmetic; ``bar``
is the adjugate.  In that model ``star`` (conjugate every component) is
X -> sigma2 conj(X) sigma2, so the free spinor equation P.bar() X = m X*
on the plane wave X exp(-nu phi) at momentum p reads

    adj(M(P)) M(X) - m sigma2 conj(M(X)) sigma2 = 0,   P = p0 - i pvec.

For each of the 8 real units u that matrix is computed here, and it must
equal ``to_matrix`` of column u of ``fields._plane_wave_symbol`` for
``dirac_lanczos_residual``, which the library builds from exact ``Field``
arithmetic: derivatives of plane waves, products by constants and ``star``.
The oracle is loaded by path, as ``tests/test_oracle.py`` loads it.
"""

import importlib.util
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from bqspin import fields
from bqspin.biquaternion import DEFAULT_FRAME, Biquaternion, random_rational_frame
from bqspin.fields import ExternalField, dirac_lanczos_residual

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", os.path.join(ROOT, "perfbench", "oracle.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


@dataclass(frozen=True)
class _Complex:
    real: Fraction
    imag: Fraction


@dataclass(frozen=True)
class _Quaternion:
    """Four complex components, read by the oracle's ``to_matrix``."""

    comps: tuple

    def components(self):
        return self.comps


def _matrix(coords):
    """M(q) of the real coordinates in the basis (1, e1, e2, e3, i, ie1, ie2, ie3)."""
    c = [Fraction(v) for v in coords]
    return oracle.to_matrix(_Quaternion(tuple(_Complex(c[k], c[k + 4]) for k in range(4))))


_SIGMA2 = ((oracle._c(0), oracle._c(-1j)), (oracle._c(1j), oracle._c(0)))


def _star(m):
    conj = tuple(tuple((v[0], -v[1]) for v in row) for row in m)
    return oracle._matmul(oracle._matmul(_SIGMA2, conj), _SIGMA2)


def _scaled(m, s):
    return tuple(tuple(oracle._mul(v, (Fraction(s), Fraction(0))) for v in row) for row in m)


def _oracle_column(p0, p, m, unit):
    """adj(M(P)) M(X) - m star(M(X)) for the real unit X with coordinate unit."""
    mp = oracle.to_matrix(_Quaternion((_Complex(Fraction(p0), Fraction(0)),)
                                      + tuple(_Complex(Fraction(0), -Fraction(c)) for c in p)))
    mx = _matrix([int(n == unit) for n in range(8)])
    lhs = oracle._matmul(oracle._adjugate(mp), mx)
    rhs = _scaled(_star(mx), m)
    return tuple(tuple(oracle._sub(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(lhs, rhs))


def test_star_is_conjugation_by_sigma2_in_the_matrix_model():
    rng = random.Random(61)
    for _ in range(20):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)]
        q = Biquaternion.from_real_coords(coords)
        assert oracle.to_matrix(q.star()) == _star(_matrix(coords))


_CASES = [
    ("default frame", (5, (3, 0, 0), 4), lambda: DEFAULT_FRAME),
    ("random frame", (5, (3, 0, 0), 4), lambda: random_rational_frame(random.Random(62))),
    ("rest frame, another random frame", (3, (0, 0, 0), 3),
     lambda: random_rational_frame(random.Random(63))),
]


@pytest.mark.parametrize("name, momentum, frame", _CASES, ids=[c[0] for c in _CASES])
def test_free_spinor_symbol_matches_the_matrix_oracle(name, momentum, frame):
    p0, p, m = momentum
    frame = frame()
    k = (p0,) + p
    symbol = fields._plane_wave_symbol(
        lambda x: dirac_lanczos_residual(x, ExternalField.zero(), m, frame), k,
        fields._unit_waves(k, frame))
    assert len(symbol) == 8 and all(len(row) == 8 for row in symbol)
    for unit in range(8):
        column = [row[unit] for row in symbol]
        assert _matrix(column) == _oracle_column(p0, p, m, unit), (name, unit)
