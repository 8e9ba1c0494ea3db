"""SL(2,C) elements, their actions on the field types, and scalar-product
invariance reports.

An element is a unit-norm biquaternion L = B R, a bireal boost factor times
a real rotation factor.  The action table assigns to every spin row a left
factor (L or its imaginary conjugate) and a right factor (a projector,
L.plus(), or the squared rotation factor R(L)^2), covering the scalar, the
two spinor ideals, the four-/six-vector pair, and the whole-algebra action
used for the four-component solutions.
"""

from __future__ import annotations

import math
import random

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


def make_lorentz(rot_axis, rot_angle, boost_axis, rapidity) -> Biquaternion:
    return boost_factor(boost_axis, rapidity) * rotation_factor(rot_axis, rot_angle)


def rotation_square(l: Biquaternion) -> Biquaternion:
    """R(L)^2 for L = B R, rational in L.

    With B = cosh(rho/2) + i b sinh(rho/2), L + L.star() = 2 cosh(rho/2) R,
    a real multiple of R, so its square divided by its norm is R^2.  No
    square root is taken: the result is exact for an exact L and runs
    unchanged on numpy-array components.
    """
    twice_re = l + l.star()
    return twice_re * twice_re / twice_re.norm()


def random_lorentz(rng) -> Biquaternion:
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


def action_factors(row: str, field_role: str, L: Biquaternion, f: Frame):
    """The (left, right) factors of the table action x -> left x right of L
    on one field type; the single copy of the action table.  The factors of
    an exact L stay exact, except the projectors of the half rows and the
    scalar B field's unit factors, which are float."""
    if field_role not in ("A", "B"):
        raise ValueError("field_role must be 'A' or 'B'")
    left = L if field_role == "A" else L.star()
    if row == "zero":
        return (left, L.plus()) if field_role == "A" else (_ONE, _ONE)
    if row in ("half_plus", "half_minus"):
        ff = f.to_float()
        return left, ff.sigma if row == "half_plus" else ff.sigma_bar
    if row == "one":
        return left, L.plus()
    if row == "three_half_L":
        return left, rotation_square(L)
    raise ValueError(f"unknown row {row!r}")


def action_op(row: str, field_role: str, L: Biquaternion, f: Frame) -> RealLinearOp:
    """The table action of L on one field type, as a real-linear operator."""
    return monomial(*action_factors(row, field_role, L, f))


def act(row: str, field_role: str, L: Biquaternion, x: Biquaternion, f: Frame):
    """The table action of L on one field value."""
    left, right = action_factors(row, field_role, L, f)
    return left * x * right


# -- designated subspaces and closures ----------------------------------------------


def row_subspaces(row: str, f: Frame):
    """Real bases of the A- and B-field value subspaces of one table row."""
    f = f.to_float()
    bireal = [_ONE] + [v * 1j for v in (f.nu, f.tau, f.tau * f.nu)]
    if row == "zero":
        return bireal, [_ONE, _ONE * 1j]
    if row in ("half_plus", "half_minus"):
        spinors = subspace_basis(SpinLabel(row), f)
        return spinors, spinors
    if row == "one":
        return bireal, subspace_basis(SpinLabel.ONE, f)
    if row == "three_half_L":
        full = subspace_basis(SpinLabel.THREE_HALF, f)
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
    left, right = action_factors("three_half_L", "A", b * r, DEFAULT_FRAME)
    left_tab, right_tab = tables
    return (np.einsum("nk,kij->nij", np.stack(left.real_coords(), axis=1), left_tab)
            @ np.einsum("nk,kij->nij", np.stack(right.real_coords(), axis=1), right_tab))


# scipy's relative step for a 2-point forward difference
_FD_STEP = np.finfo(float).eps ** 0.5


def _family_jacobian(x, tables, target):
    """Residuals and forward-difference Jacobians of the flattened family
    matrix minus ``target`` at each row of an (n, 8) array of chart points,
    as (n, 64) and (n, 64, 8) arrays.

    Each point takes scipy's 2-point step, and all 9n stencil points (each
    centre and its 8 shifted copies) go through one ``_family_matrices``
    call; the centre rows give the residuals."""
    h = _FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = (x + h) - x
    points = np.concatenate([x[:, None], x[:, None] + h[:, :, None] * np.eye(8)], axis=1)
    m = _family_matrices(points.reshape(-1, 8), tables).reshape(len(x), 9, 64)
    jac = (m[:, 1:] - m[:, :1]) / h[:, :, None]
    return m[:, 0] - np.ravel(target), jac.transpose(0, 2, 1)


# Levenberg-Marquardt constants: the first damping, its factors on an
# accepted and a rejected step, the stopping thresholds and the iteration
# cap (for seeds 0-999 of ``boost_counterexample`` the best of the 12
# restarts reaches its minimum within 24 iterations)
_LM_LAMBDA0 = 1e-3
_LM_DOWN = 10.0
_LM_UP = 10.0
_LM_LAMBDA_MAX = 1e16
_LM_FTOL = 1e-15
_LM_XTOL = 1e-15
_LM_MAX_ITER = 50


def least_squares(stencil, x0):
    """Levenberg-Marquardt from every row of x0 at once; returns each row's
    final cost, half its squared residual norm.

    ``stencil`` maps an (n, p) array of points to their residuals (n, m)
    and Jacobians (n, m, p).  Each active row takes the damped step
    (J^T J + lambda D) delta = -J^T r, all rows in one batched solve, and
    keeps it if the cost falls.  D is the largest diagonal of J^T J the row
    has had so far, as in MINPACK: the current diagonal shrinks as an axis
    of the eq. (48) chart drifts along its null direction, and would weaken
    the damping just where the chart degenerates.  A row's lambda is
    divided on an accepted step and multiplied on a rejected one.  A row
    stops when an accepted step lowers its cost by a relative amount of at
    most ``_LM_FTOL``, when its step is tiny or when its lambda exceeds
    ``_LM_LAMBDA_MAX``; every row stops after ``_LM_MAX_ITER`` iterations.
    The solver is numpy only, so the same starts give the same costs in
    every process."""
    x = np.array(x0, dtype=float)
    r, jac = (np.array(a, dtype=float) for a in stencil(x))
    cost = 0.5 * (r * r).sum(axis=1)
    lam = np.full(len(x), _LM_LAMBDA0)
    scale = np.zeros_like(x)
    active = np.arange(len(x))
    for _ in range(_LM_MAX_ITER):
        if not active.size:
            break
        jt = jac[active].transpose(0, 2, 1)
        jtj = jt @ jac[active]
        grad = (jt @ r[active, :, None])[:, :, 0]
        diag = np.diagonal(jtj, axis1=1, axis2=2)
        scale[active] = np.maximum(scale[active], np.where(diag > 0, diag, 1.0))
        damping = lam[active, None] * scale[active]
        step = np.linalg.solve(jtj + damping[:, :, None] * np.eye(x.shape[1]),
                               -grad[:, :, None])[:, :, 0]
        trial = x[active] + step
        r_t, jac_t = stencil(trial)
        cost_t = 0.5 * (r_t * r_t).sum(axis=1)
        old = cost[active]
        ok = cost_t < old
        keep = active[ok]
        x[keep], r[keep], jac[keep], cost[keep] = trial[ok], r_t[ok], jac_t[ok], cost_t[ok]
        lam[active] = np.where(ok, lam[active] / _LM_DOWN, lam[active] * _LM_UP)
        tiny = (np.linalg.norm(step, axis=1)
                <= _LM_XTOL * (_LM_XTOL + np.linalg.norm(trial, axis=1)))
        done = (ok & (old - cost_t <= _LM_FTOL * old)) | tiny | (lam[active] > _LM_LAMBDA_MAX)
        active = active[~done]
    return cost


def best_fit_defect(target: RealLinearOp, seed=0, restarts=12):
    """Least-squares distance from the target operator to the family
    L [.] R(L)^2 of the 6-dimensional group.

    The fit runs over an 8-parameter chart (angle, rotation axis, rapidity,
    boost axis; each axis enters normalized) from ``restarts`` random
    starts, all advanced together by one ``least_squares`` call.  Its
    Jacobians are forward differences whose stencils are evaluated in one
    batch (``_family_jacobian``)."""
    rng = random.Random(seed)
    tgt = target.to_numpy()
    tables = _regular_tables()
    x0 = [[rng.uniform(-math.pi, math.pi)]
          + [rng.gauss(0, 1) for _ in range(3)]
          + [rng.uniform(-1.5, 1.5)]
          + [rng.gauss(0, 1) for _ in range(3)]
          for _ in range(restarts)]
    cost = least_squares(lambda x: _family_jacobian(x, tables, tgt), x0)
    return math.sqrt(2.0 * float(cost.min()))


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

