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

import numpy as np

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
    """axis as a float array whose last axis holds the 3-vector(s);
    InvalidAxis unless every one has unit length (a NaN has none)."""
    v = np.asarray(axis, dtype=float)
    if v.shape[-1:] != (3,) or not (abs(np.sqrt((v * v).sum(axis=-1)) - 1.0) <= 1e-9).all():
        raise InvalidAxis("axis must be a unit 3-vector")
    return v


def rotation_factor(axis, angle) -> Biquaternion:
    """exp(angle a / 2): a real unit quaternion.  n axes, an (n, 3) array,
    and n angles give the n factors as one element with array components."""
    v = _unit_axis(axis)
    half = np.asarray(angle, dtype=float) / 2.0
    vs = v * np.sin(half)[..., None]
    zero = np.zeros(half.shape)
    return Biquaternion.from_real_coords([np.cos(half), vs[..., 0], vs[..., 1], vs[..., 2],
                                          zero, zero, zero, zero])


def boost_factor(axis, rapidity) -> Biquaternion:
    """exp(i rho b / 2): a bireal unit-norm factor; n axes and n rapidities
    give n factors, as ``rotation_factor`` does."""
    v = _unit_axis(axis)
    half = np.asarray(rapidity, dtype=float) / 2.0
    vs = v * np.sinh(half)[..., None]
    zero = np.zeros(half.shape)
    return Biquaternion.from_real_coords([np.cosh(half), zero, zero, zero,
                                          zero, vs[..., 0], vs[..., 1], vs[..., 2]])


def axis_projections(axis, f: Frame):
    """Projections of a unit axis on the ordered triad (tau nu, tau, nu);
    for n axes, three arrays of n projections."""
    ax = _unit_axis(axis)
    f = f.to_float()
    triad = np.array([[g.x.real, g.y.real, g.z.real] for g in (f.tau * f.nu, f.tau, f.nu)])
    p = (ax[..., None, :] * triad).sum(axis=-1)
    return p[..., 0], p[..., 1], p[..., 2]


def rotate(s: SpinLabel, axis, theta, f: Frame) -> RealLinearOp:
    """Rotation exponential exp(-i theta sum_n a_n J_n).  n axes, an (n, 3)
    array, and n angles give the stack of the n rotations from one
    ``op_exp`` call."""
    gen = generators(s, f).combination(*axis_projections(axis, f))
    return op_exp((MUL_I @ gen).scale(-np.asarray(theta, dtype=float)))


def boost(s: SpinLabel, axis, rapidity, f: Frame) -> RealLinearOp:
    """Boost exponential: the angle goes to i times the rapidity, which
    turns -i*theta*J into +rho*J.  Stacks as ``rotate`` does."""
    gen = generators(s, f).combination(*axis_projections(axis, f))
    return op_exp(gen.scale(np.asarray(rapidity, dtype=float)))


def closed_form_half_rotation(axis, theta) -> RealLinearOp:
    """Left multiplication by exp(theta a / 2): the closed form the spin
    one-half exponential reduces to on its invariant subspace."""
    return monomial(rotation_factor(axis, theta), Biquaternion.scalar(1.0))


def closed_form_one_rotation(axis, theta) -> RealLinearOp:
    """Two-sided Olinde-Rodrigues form exp(theta a/2) [.] exp(-theta a/2)."""
    return monomial(rotation_factor(axis, theta),
                    rotation_factor(axis, -np.asarray(theta, dtype=float)))


def closed_form_half_boost(axis, rapidity) -> RealLinearOp:
    """Left multiplication by the bireal factor exp(i rho a / 2)."""
    return monomial(boost_factor(axis, rapidity), Biquaternion.scalar(1.0))
