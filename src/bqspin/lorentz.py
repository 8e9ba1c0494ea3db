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

from .biquaternion import (
    DEFAULT_FRAME,
    Biquaternion,
    Frame,
    basis_elements,
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


def action_factors(row: str, field_role: str, L: LorentzElement, f: Frame):
    """The (left, right) factors of the table action x -> left x right of L
    on one field type; the single copy of the action table."""
    if field_role not in ("A", "B"):
        raise ValueError("field_role must be 'A' or 'B'")
    left = L.l if field_role == "A" else L.l.star()
    if row == "zero":
        return (left, L.l.plus()) if field_role == "A" else (_ONE, _ONE)
    if row in ("half_plus", "half_minus"):
        ff = f.to_float()
        return left, ff.sigma if row == "half_plus" else ff.sigma_bar
    if row == "one":
        return left, L.l.plus()
    if row == "three_half_L":
        return left, L.rotation_part * L.rotation_part
    raise ValueError(f"unknown row {row!r}")


def action_op(row: str, field_role: str, L: LorentzElement, f: Frame) -> RealLinearOp:
    """The table action of L on one field type, as a real-linear operator."""
    return monomial(*action_factors(row, field_role, L, f))


def act(row: str, field_role: str, L: LorentzElement, x: Biquaternion, f: Frame):
    """The table action of L on one field value."""
    left, right = action_factors(row, field_role, L, f)
    return left * x * right


# -- designated subspaces and closures ----------------------------------------------


def row_subspaces(row: str, f: Frame):
    """Real bases of the A- and B-field value subspaces of one table row."""
    f = f.to_float()
    sigma, sigma_bar, tau, nu = f.sigma, f.sigma_bar, f.tau, f.nu
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


# sampled Lorentz elements per closure check
_CLOSURE_SAMPLES = 10


def subspace_closure(row: str, f: Frame, seed=0):
    """The real dimensions of the designated value subspaces and the largest
    distance from them of an image under sampled actions."""
    rng = random.Random(seed)
    basis_a, basis_b = row_subspaces(row, f)
    worst = 0.0
    for _ in range(_CLOSURE_SAMPLES):
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


# sampled (op, x, y) triples per invariance report
_REPORT_SAMPLES = 40


def _product_report(sample):
    """Largest change of both scalar products over sampled (op, x, y)."""
    viol_m = 0.0
    viol_u = 0.0
    for _ in range(_REPORT_SAMPLES):
        op, x, y = sample()
        tx, ty = op.apply(x), op.apply(y)
        viol_m = max(viol_m, abs(complex(
            minkowski_product(tx, ty) - minkowski_product(x, y))))
        viol_u = max(viol_u, abs(complex(
            unitary_product(tx, ty) - unitary_product(x, y))))
    return {"minkowski_violation": viol_m, "unitary_violation": viol_u}


def invariance_report(s: SpinLabel, transform_kind: str, seed=0):
    """Sample transformed pairs from the representation's invariant domain
    and report how far each scalar product moves."""
    rng = random.Random(seed)
    draw = _sample_domain(s, DEFAULT_FRAME, rng)

    def sample():
        op = _rep_operator(s, transform_kind, rng, DEFAULT_FRAME)
        return op, draw(), draw()

    return _product_report(sample)


def l32_invariance_report(transform_kind: str, seed=0):
    """Same report for the whole-algebra action x -> L x R^2."""
    rng = random.Random(seed)

    def sample():
        axis = _random_axis(rng)
        if transform_kind == "rotation":
            L = make_lorentz(axis, rng.uniform(0.3, math.pi), axis, 0.0)
        else:
            L = make_lorentz(axis, 0.0, axis, rng.uniform(0.4, 1.4))
        op = action_op("three_half_L", "A", L, DEFAULT_FRAME)
        return op, _random_float_bq(rng), _random_float_bq(rng)

    return _product_report(sample)


def _random_float_bq(rng):
    return Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))


# -- group structure of the whole-algebra action ----------------------------------------


def _regular_tables():
    """The real matrices of x -> e_k x and of x -> x e_k for the eight real
    basis elements e_k, as two (8, 8, 8) arrays indexed by k."""
    one = Biquaternion.scalar(1.0)
    basis = basis_elements(exact=False)
    return (np.stack([monomial(e, one).matrix for e in basis]),
            np.stack([monomial(one, e).matrix for e in basis]))


def _unit_axes(v):
    """v divided by its length along the last axis; a 3-vector shorter than
    1e-12 is replaced by the quantization axis (0, 0, 1)."""
    n = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    short = n < 1e-12
    return np.where(short, (0.0, 0.0, 1.0), v / np.where(short, 1.0, n))


def _family_matrices(params, tables):
    """The whole-algebra action x -> L x R(L)^2 at each row of an (n, 8)
    array of chart points (angle, rotation axis, rapidity, boost axis), as an
    (n, 8, 8) array of real matrices.

    The factors are biquaternions with numpy-array components, one point per
    entry, and go through the action table; ``tables`` (``_regular_tables``)
    turns the left and right factors into matrices."""
    p = np.asarray(params, dtype=float)
    half_th, half_rho = p[:, 0] / 2.0, p[:, 4] / 2.0
    axes = _unit_axes(p[:, [1, 2, 3, 5, 6, 7]].reshape(-1, 2, 3))
    sin_th, sinh_rho = np.sin(half_th) + 0j, 1j * np.sinh(half_rho)
    r = Biquaternion(np.cos(half_th) + 0j, *(c * sin_th for c in axes[:, 0].T))
    b = Biquaternion(np.cosh(half_rho) + 0j, *(c * sinh_rho for c in axes[:, 1].T))
    L = LorentzElement(l=b * r, boost_part=b, rotation_part=r)
    left, right = action_factors("three_half_L", "A", L, DEFAULT_FRAME)
    left_tab, right_tab = tables
    return (np.einsum("nk,kij->nij", np.stack(left.real_coords(), axis=1), left_tab)
            @ np.einsum("nk,kij->nij", np.stack(right.real_coords(), axis=1), right_tab))


# scipy's relative step for a 2-point forward difference
_FD_STEP = np.finfo(float).eps ** 0.5


def _family_jacobian(x, tables):
    """Forward-difference Jacobian of the flattened family matrix at the
    chart point x, with scipy's 2-point step; the centre and the 8 shifted
    points are evaluated in one batch."""
    h = _FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = (x + h) - x
    m = _family_matrices(np.vstack([x, x + np.diag(h)]), tables).reshape(9, 64)
    return ((m[1:] - m[0]) / h[:, None]).T


def least_squares(fun, x0, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first call.

    Only the float eq. (48) fit needs scipy, so the exact suites never load
    it.  The fit calls this module-level name, not a function-local import,
    so that one binding counts or replaces every fit call."""
    from scipy.optimize import least_squares as scipy_least_squares
    return scipy_least_squares(fun, x0, **kwargs)


def best_fit_defect(target: RealLinearOp, seed=0, restarts=12):
    """Least-squares distance from the target operator to the family
    L [.] R(L)^2 of the 6-dimensional group.

    The fit runs over an 8-parameter chart (angle, rotation axis, rapidity,
    boost axis; each axis enters normalized) from ``restarts`` random
    starts.  Its Jacobian is a forward difference whose 9-point stencil is
    evaluated in one batch (``_family_jacobian``)."""
    rng = random.Random(seed)
    tgt = target.to_numpy()
    tables = _regular_tables()

    def resid(params):
        return (_family_matrices(params[None, :], tables)[0] - tgt).ravel()

    def jac(params):
        return _family_jacobian(params, tables)

    best = math.inf
    for _ in range(restarts):
        x0 = ([rng.uniform(-math.pi, math.pi)]
              + [rng.gauss(0, 1) for _ in range(3)]
              + [rng.uniform(-1.5, 1.5)]
              + [rng.gauss(0, 1) for _ in range(3)])
        sol = least_squares(resid, x0, jac=jac, method="lm", max_nfev=4000)
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
    op1, op2, op12 = (action_op("three_half_L", "A", L, DEFAULT_FRAME)
                      for L in (r1, r2, r12))
    return (op1 @ op2).max_abs_diff(op12)


def boost_counterexample(seed=0):
    """Two generic boosts compose outside the family; the defect is the
    least-squares distance of their composition from it."""
    ax1 = (1.0, 0.0, 0.0)
    ax2 = (0.0, 1.0, 0.0)
    b1 = make_lorentz(ax1, 0.0, ax1, 0.9)
    b2 = make_lorentz(ax2, 0.0, ax2, 0.7)
    op1, op2 = (action_op("three_half_L", "A", b, DEFAULT_FRAME) for b in (b1, b2))
    return {
        "boost_1": {"axis": ax1, "rapidity": 0.9},
        "boost_2": {"axis": ax2, "rapidity": 0.7},
        "defect": best_fit_defect(op1 @ op2, seed=seed),
    }

