"""SL(2,C) elements, their actions on the field types, and scalar-product
invariance reports.

An element L = B R factors into a bireal boost factor and a real rotation
factor.  The action table assigns to every spin row a left factor (L or its
imaginary conjugate) and a right factor (a projector, L.plus(), or the
squared rotation part), covering the scalar, the two spinor ideals, the
four-/six-vector pair, and the whole-algebra action used for the
four-component solutions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .biquaternion import (
    DEFAULT_FRAME,
    Biquaternion,
    Frame,
    minkowski_product,
    unitary_product,
)
from .linops import RealLinearOp, monomial
from .spin import (
    SpinLabel,
    boost as spin_boost,
    boost_factor,
    rotate as spin_rotate,
    rotation_factor,
    subspace_basis,
)

_ONE = Biquaternion.scalar(1.0)


@dataclass(frozen=True)
class LorentzElement:
    """Unit-norm biquaternion with its boost/rotation polar factors."""

    l: Biquaternion
    boost_part: Biquaternion
    rotation_part: Biquaternion


def make_lorentz(rot_axis, rot_angle, boost_axis, rapidity) -> LorentzElement:
    r = rotation_factor(rot_axis, rot_angle)
    b = boost_factor(boost_axis, rapidity)
    return LorentzElement(l=b * r, boost_part=b, rotation_part=r)


def polar_split(l: Biquaternion) -> LorentzElement:
    """Factor a unit-norm element as L = B R.

    B is the principal square root of L L.plus() (bireal, positive scalar
    part); R = B.bar() L is then real with unit norm.  The leftover overall
    sign sits in R, which only ever enters the actions through R*R.
    """
    ll = l * l.plus()
    # ll = cosh(rho) + i b sinh(rho): scalar part >= 1
    ch = ll.scalar_part().real
    vec = [ll.x / 1j, ll.y / 1j, ll.z / 1j]
    sh = math.sqrt(max(ch * ch - 1.0, 0.0))
    if sh > 1e-15:
        axis = [complex(c).real / sh for c in vec]
        rho = math.asinh(sh)
        b = boost_factor(axis, rho)
    else:
        b = _ONE
    r = b.bar() * l
    return LorentzElement(l=l, boost_part=b, rotation_part=r)


def random_lorentz(rng) -> LorentzElement:
    axis = _random_axis(rng)
    axis2 = _random_axis(rng)
    return make_lorentz(axis, rng.uniform(-math.pi, math.pi),
                        axis2, rng.uniform(-1.5, 1.5))


def _random_axis(rng):
    v = [rng.gauss(0, 1) for _ in range(3)]
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


# -- the action table -------------------------------------------------------------

ROWS = ("zero", "half_plus", "half_minus", "one", "three_half_L")


def action_op(row: str, field_role: str, L: LorentzElement, f: Frame) -> RealLinearOp:
    """The table action of L on one field type, as a real-linear operator."""
    if field_role not in ("A", "B"):
        raise ValueError("field_role must be 'A' or 'B'")
    one = _ONE
    lf = L.l
    ls = L.l.star()
    fp = f.sigma.to_float()
    fm = f.sigma_bar.to_float()
    r2 = L.rotation_part * L.rotation_part
    table = {
        ("zero", "A"): (lf, lf.plus()),
        ("zero", "B"): (one, one),
        ("half_plus", "A"): (lf, fp),
        ("half_plus", "B"): (ls, fp),
        ("half_minus", "A"): (lf, fm),
        ("half_minus", "B"): (ls, fm),
        ("one", "A"): (lf, lf.plus()),
        ("one", "B"): (ls, lf.plus()),
        ("three_half_L", "A"): (lf, r2),
        ("three_half_L", "B"): (ls, r2),
    }
    left, right = table[(row, field_role)]
    return monomial(left, right)


def act(row: str, field_role: str, L: LorentzElement, x: Biquaternion, f: Frame):
    return action_op(row, field_role, L, f).apply(x.to_float())


def l32_action(L: LorentzElement, field_role="A") -> RealLinearOp:
    """x -> L x R^2 (or with the starred left factor for the B role)."""
    left = L.l if field_role == "A" else L.l.star()
    return monomial(left, L.rotation_part * L.rotation_part)


# -- designated subspaces and closures ----------------------------------------------


def row_subspaces(row: str, f: Frame):
    """Real bases of the A- and B-field value subspaces of one table row."""
    sigma = f.sigma.to_float()
    sigma_bar = f.sigma_bar.to_float()
    tau = f.tau.to_float()
    nu = f.nu.to_float()
    i = 1j
    e_basis = [nu, tau, tau * nu]
    bireal = [_ONE] + [v * i for v in e_basis]
    scalars = [_ONE, _ONE * i]
    vectors = e_basis + [v * i for v in e_basis]
    spinor_p = [sigma, sigma * i, tau * sigma, tau * sigma * i]
    spinor_m = [sigma_bar, sigma_bar * i, tau * sigma_bar, tau * sigma_bar * i]
    full = bireal + [v * i for v in bireal]
    if row == "zero":
        return bireal, scalars
    if row == "half_plus":
        return spinor_p, spinor_p
    if row == "half_minus":
        return spinor_m, spinor_m
    if row == "one":
        return bireal, vectors
    if row == "three_half_L":
        return full, full
    raise ValueError(f"unknown row {row!r}")


def _span_residual(vec, basis):
    """Norm of the least-squares residual of vec against the span of basis."""
    m = np.array([b.real_coords() for b in basis], dtype=float).T
    v = np.array(vec.real_coords(), dtype=float)
    sol, *_ = np.linalg.lstsq(m, v, rcond=None)
    return float(np.linalg.norm(m @ sol - v))


def subspace_closure(row: str, f: Frame, seed=0, samples=10):
    """The real dimensions of the designated value subspaces and the largest
    distance from them of an image under sampled actions."""
    rng = random.Random(seed)
    basis_a, basis_b = row_subspaces(row, f)
    worst = 0.0
    for _ in range(samples):
        L = random_lorentz(rng)
        for role, basis in (("A", basis_a), ("B", basis_b)):
            op = action_op(row, role, L, f)
            for b in basis:
                worst = max(worst, _span_residual(op.apply(b), basis))
    return {"max_residual": worst, "real_dim_A": len(basis_a), "real_dim_B": len(basis_b)}


# -- invariance reports ---------------------------------------------------------------


def _rep_operator(s, kind, rng, f: Frame):
    axis = _random_axis(rng)
    if kind == "rotation":
        return spin_rotate(s, axis, rng.uniform(0.3, math.pi), f)
    return spin_boost(s, axis, rng.uniform(0.4, 1.4), f)


def _sample_domain(s, f: Frame, rng):
    basis = subspace_basis(s, f)
    def draw():
        out = Biquaternion.scalar(0.0)
        for b in basis:
            out = out + b * complex(rng.gauss(0, 1), rng.gauss(0, 1))
        return out
    return draw


def _product_report(sample, samples, tol):
    """Largest change of both scalar products over sampled (op, x, y)."""
    viol_m = 0.0
    viol_u = 0.0
    for _ in range(samples):
        op, x, y = sample()
        tx, ty = op.apply(x), op.apply(y)
        viol_m = max(viol_m, abs(complex(
            minkowski_product(tx, ty) - minkowski_product(x, y))))
        viol_u = max(viol_u, abs(complex(
            unitary_product(tx, ty) - unitary_product(x, y))))
    return {
        "minkowski_invariant": viol_m <= tol,
        "unitary_invariant": viol_u <= tol,
        "max_violation": max(viol_m, viol_u),
        "minkowski_violation": viol_m,
        "unitary_violation": viol_u,
    }


def invariance_report(s: SpinLabel, transform_kind: str, f: Frame = None,
                      seed=0, samples=40, tol=1e-10):
    """Sample transformed pairs from the representation's invariant domain
    and report which scalar product survives."""
    f = f or DEFAULT_FRAME
    rng = random.Random(seed)
    draw = _sample_domain(s, f, rng)

    def sample():
        op = _rep_operator(s, transform_kind, rng, f)
        return op, draw(), draw()

    return _product_report(sample, samples, tol)


def l32_invariance_report(transform_kind: str, seed=0, samples=40, tol=1e-10):
    """Same report for the whole-algebra action x -> L x R^2."""
    rng = random.Random(seed)

    def sample():
        axis = _random_axis(rng)
        if transform_kind == "rotation":
            L = make_lorentz(axis, rng.uniform(0.3, math.pi), axis, 0.0)
        else:
            L = make_lorentz(axis, 0.0, axis, rng.uniform(0.4, 1.4))
        return l32_action(L), _random_float_bq(rng), _random_float_bq(rng)

    return _product_report(sample, samples, tol)


def _random_float_bq(rng):
    return Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))


# -- group structure of the whole-algebra action ----------------------------------------


def _l32_from_params(params) -> RealLinearOp:
    th = params[0]
    ax = _normalized(params[1:4])
    rho = params[4]
    bx = _normalized(params[5:8])
    L = make_lorentz(ax, th, bx, rho)
    return l32_action(L)


def _normalized(v):
    n = math.sqrt(sum(float(c) ** 2 for c in v))
    if n < 1e-12:
        return [0.0, 0.0, 1.0]
    return [float(c) / n for c in v]


def best_fit_defect(target: RealLinearOp, seed=0, restarts=12):
    """Least-squares distance from the target operator to the family
    L [.] R(L)^2 over the 7-parameter group chart."""
    rng = random.Random(seed)
    tgt = target.to_numpy()

    def resid(params):
        return (_l32_from_params(params).to_numpy() - tgt).ravel()

    best = math.inf
    for _ in range(restarts):
        x0 = ([rng.uniform(-math.pi, math.pi)]
              + [rng.gauss(0, 1) for _ in range(3)]
              + [rng.uniform(-1.5, 1.5)]
              + [rng.gauss(0, 1) for _ in range(3)])
        sol = least_squares(resid, x0, method="lm", max_nfev=4000)
        best = min(best, math.sqrt(2.0 * sol.cost))
    return best


def rotation_closure(seed=0) -> float:
    """Distance of two composed rotations about the quantization axis from
    the family member of the summed angle; zero up to rounding."""
    rng = random.Random(seed)
    nu_axis = (0.0, 0.0, 1.0)
    t1, t2 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
    r1 = make_lorentz(nu_axis, t1, nu_axis, 0.0)
    r2 = make_lorentz(nu_axis, t2, nu_axis, 0.0)
    r12 = make_lorentz(nu_axis, t1 + t2, nu_axis, 0.0)
    composed = l32_action(r1) @ l32_action(r2)
    return composed.max_abs_diff(l32_action(r12))


def boost_counterexample(seed=0):
    """Two generic boosts compose outside the family; the defect is the
    least-squares distance of their composition from it."""
    ax1 = (1.0, 0.0, 0.0)
    ax2 = (0.0, 1.0, 0.0)
    b1 = make_lorentz(ax1, 0.0, ax1, 0.9)
    b2 = make_lorentz(ax2, 0.0, ax2, 0.7)
    boosts_composed = l32_action(b1) @ l32_action(b2)
    return {
        "boost_1": {"axis": ax1, "rapidity": 0.9},
        "boost_2": {"axis": ax2, "rapidity": 0.7},
        "defect": best_fit_defect(boosts_composed, seed=seed),
    }

