"""Spin generator triples, their eigenstates, and rotation/boost exponentials.

The four generator columns act on the algebra by slot monomials built from a
frame (nu, tau): two spin one-half columns projecting onto the sigma and
sigma-bar ideals, the spin-1 commutator column, and the spin three-half
column that mixes both sides.  Rotations are exponentials of -i theta times
the axis-projected generator combination; boosts substitute the angle by
i times the rapidity, which cancels the i in front of the generators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .biquaternion import Biquaternion, Frame
from .errors import InvalidAxis
from .linops import MUL_I, RealLinearOp, monomial, op_exp


class SpinLabel(Enum):
    HALF_PLUS = "half_plus"
    HALF_MINUS = "half_minus"
    ONE = "one"
    THREE_HALF = "three_half"


@dataclass(frozen=True)
class GeneratorTriple:
    j1: RealLinearOp
    j2: RealLinearOp
    j3: RealLinearOp

    def combination(self, a1, a2, a3):
        return self.j1.scale(a1) + self.j2.scale(a2) + self.j3.scale(a3)

    def casimir(self):
        return self.j1 @ self.j1 + self.j2 @ self.j2 + self.j3 @ self.j3


def generators(s: SpinLabel, f: Frame) -> GeneratorTriple:
    """The generator triple of one column, as 8x8 real operators.

    The three-half column contains sqrt(3) factors, so all triples are
    produced in the float backend.  Each triple is built once per column and
    float frame and then shared, so its matrices are read-only.
    """
    return _generators(s, f.to_float())


# (column, float frame) pairs whose triples are kept
_GENERATOR_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_GENERATOR_CACHE_SIZE)
def _generators(s: SpinLabel, f: Frame) -> GeneratorTriple:
    triple = _build_generators(s, f)
    for op in (triple.j1, triple.j2, triple.j3):
        op.matrix.flags.writeable = False
    return triple


def _build_generators(s: SpinLabel, f: Frame) -> GeneratorTriple:
    """The generator triple of one column on a float frame, built anew."""
    nu, tau = f.nu, f.tau
    one = Biquaternion.scalar(1.0)
    half_i = 0.5j

    if s in (SpinLabel.HALF_PLUS, SpinLabel.HALF_MINUS):
        proj = f.sigma if s is SpinLabel.HALF_PLUS else f.sigma_bar
        return GeneratorTriple(
            monomial(tau * nu * half_i, proj),
            monomial(tau * half_i, proj),
            monomial(nu * half_i, proj),
        )
    if s is SpinLabel.ONE:
        def comm(g):
            return monomial(g * half_i, one) - monomial(one, g * half_i)
        return GeneratorTriple(comm(tau * nu), comm(tau), comm(nu))

    # three-half column
    r3 = math.sqrt(3.0)
    mh = -0.5 + 0j
    j1 = (monomial(tau * mh, tau)
          + monomial(tau * nu * (mh * r3), nu)
          + monomial(tau * nu * mh, nu * tau))
    j2 = (monomial(tau * nu * mh, tau)
          + monomial(tau * (mh * r3), nu)
          - monomial(tau * mh, nu * tau))
    j3 = monomial(nu * half_i, one) + monomial(one * 1j, nu)
    return GeneratorTriple(j1, j2, j3)


def eigenstates(s: SpinLabel, f: Frame):
    """The labelled J3-eigenstates of one column, unit unitary norm."""
    f = f.to_float()
    r2 = math.sqrt(2.0)
    sg, sb, t = f.sigma, f.sigma_bar, f.tau
    if s is SpinLabel.HALF_PLUS:
        return [(0.5, sg * r2), (-0.5, sb * t * r2)]
    if s is SpinLabel.HALF_MINUS:
        return [(0.5, sg * t * r2), (-0.5, sb * r2)]
    if s is SpinLabel.ONE:
        return [(1.0, sg * t * r2), (0.0, f.nu), (-1.0, sb * t * r2)]
    return [(1.5, sg * r2), (0.5, sb * t * r2), (-0.5, sg * t * r2), (-1.5, sb * r2)]


def spin_of(s: SpinLabel) -> float:
    return {SpinLabel.HALF_PLUS: 0.5, SpinLabel.HALF_MINUS: 0.5,
            SpinLabel.ONE: 1.0, SpinLabel.THREE_HALF: 1.5}[s]


def subspace_basis(s: SpinLabel, f: Frame):
    """Real basis of the invariant subspace carrying the column.

    The half columns live on the right ideals B*sigma / B*sigma_bar, the
    spin-1 column on the complex vectors, and the three-half column on the
    whole algebra.
    """
    f = f.to_float()
    i_unit = 1j
    if s is SpinLabel.HALF_PLUS:
        base = [f.sigma, f.tau_sigma]
    elif s is SpinLabel.HALF_MINUS:
        base = [f.sigma_bar, f.tau_sigma_bar]
    elif s is SpinLabel.ONE:
        base = [f.nu, f.tau, f.tau * f.nu]
    else:
        base = [f.sigma, f.tau_sigma, f.sigma_bar, f.tau_sigma_bar]
    out = []
    for b in base:
        out.append(b)
        out.append(b * i_unit)
    return out


def _unit_axis(axis):
    v = [float(c) for c in axis]
    n = math.sqrt(sum(c * c for c in v))
    if abs(n - 1.0) > 1e-9:
        raise InvalidAxis("axis must be a unit 3-vector")
    return v


def rotation_factor(axis, angle) -> Biquaternion:
    """exp(angle a / 2): a real unit quaternion."""
    v = _unit_axis(axis)
    half = float(angle) / 2.0
    return (Biquaternion.scalar(complex(math.cos(half)))
            + Biquaternion.vector(*v) * math.sin(half))


def boost_factor(axis, rapidity) -> Biquaternion:
    """exp(i rho b / 2): a bireal unit-norm factor."""
    v = _unit_axis(axis)
    half = float(rapidity) / 2.0
    return (Biquaternion.scalar(complex(math.cosh(half)))
            + Biquaternion.vector(*v) * (1j * math.sinh(half)))


def axis_projections(axis, f: Frame):
    """Projections of a unit axis on the ordered triad (tau nu, tau, nu)."""
    ax = _unit_axis(axis)
    f = f.to_float()
    tn = f.tau * f.nu
    triad = [tn, f.tau, f.nu]
    out = []
    for g in triad:
        vec = [g.x.real, g.y.real, g.z.real]
        out.append(sum(a * v for a, v in zip(ax, vec)))
    return out


def rotate(s: SpinLabel, axis, theta, f: Frame) -> RealLinearOp:
    """Rotation exponential exp(-i theta sum_n a_n J_n)."""
    a1, a2, a3 = axis_projections(axis, f)
    gen = generators(s, f).combination(a1, a2, a3)
    arg = (MUL_I @ gen).scale(-float(theta))
    return op_exp(arg)


def boost(s: SpinLabel, axis, rapidity, f: Frame) -> RealLinearOp:
    """Boost exponential: the angle goes to i times the rapidity, which
    turns -i*theta*J into +rho*J."""
    a1, a2, a3 = axis_projections(axis, f)
    gen = generators(s, f).combination(a1, a2, a3)
    return op_exp(gen.scale(float(rapidity)))


def closed_form_half_rotation(axis, theta) -> RealLinearOp:
    """Left multiplication by exp(theta a / 2): the closed form the spin
    one-half exponential reduces to on its invariant subspace."""
    return monomial(rotation_factor(axis, theta), Biquaternion.scalar(1.0))


def closed_form_one_rotation(axis, theta) -> RealLinearOp:
    """Two-sided Olinde-Rodrigues form exp(theta a/2) [.] exp(-theta a/2)."""
    return monomial(rotation_factor(axis, theta), rotation_factor(axis, -theta))


def closed_form_half_boost(axis, rapidity) -> RealLinearOp:
    """Left multiplication by the bireal factor exp(i rho a / 2)."""
    return monomial(boost_factor(axis, rapidity), Biquaternion.scalar(1.0))
