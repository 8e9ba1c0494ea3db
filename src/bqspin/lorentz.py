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
    minkowski_product,
    unitary_product,
)
from .linops import RealLinearOp, monomial
from .scalars import largest
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


def random_axes(gen, n):
    """n random unit 3-vectors, as an (n, 3) array: standard normal
    triples from the numpy Generator gen, each divided by its length."""
    v = gen.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_lorentz(gen, n) -> Biquaternion:
    """n random elements as one stack: rotation axes, angles in [-pi, pi),
    boost axes and rapidities in [-1.5, 1.5), each drawn for all n at once
    from the numpy Generator gen."""
    return make_lorentz(random_axes(gen, n), gen.uniform(-math.pi, math.pi, n),
                        random_axes(gen, n), gen.uniform(-1.5, 1.5, n))


def complex_normals(gen, shape):
    """Complex numbers of the given shape whose real and imaginary parts are
    standard normal, drawn from gen as one array of pairs."""
    pairs = gen.standard_normal((*shape, 2))
    return pairs[..., 0] + 1j * pairs[..., 1]


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


def _orthonormal_columns(m):
    """Orthonormal columns spanning the column space of m, with the rank
    cutoff of numpy's lstsq."""
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, sv > sv[0] * max(m.shape) * np.finfo(float).eps]


# sampled Lorentz elements per closure check
_CLOSURE_SAMPLES = 10


def subspace_closure(row: str, f: Frame, gen):
    """The real dimensions of the designated value subspaces and the largest
    distance from them of an image under actions sampled from the numpy
    Generator gen.

    All sampled actions of one field type form one stack, and the images of
    every basis vector are projected at once onto the subspace."""
    basis_a, basis_b = row_subspaces(row, f)
    L = random_lorentz(gen, _CLOSURE_SAMPLES)
    residuals = []
    for role, basis in (("A", basis_a), ("B", basis_b)):
        m = np.array([b.real_coords() for b in basis], dtype=float).T
        q = _orthonormal_columns(m)
        images = action_op(row, role, L, f).matrix @ m
        residuals.append(np.linalg.norm(images - q @ (q.T @ images), axis=-2))
    return {"max_residual": largest(residuals), "real_dim_A": len(basis_a),
            "real_dim_B": len(basis_b)}


# -- invariance reports ---------------------------------------------------------------


def _combination(basis, coeffs):
    """sum_k basis[k] * coeffs[..., k]: one element per row of coeffs."""
    out = Biquaternion.scalar(0.0)
    for k, b in enumerate(basis):
        out = out + b * coeffs[..., k]
    return out


# sampled (op, x, y) triples per invariance report
_REPORT_SAMPLES = 40
# the range of the sampled angle or rapidity, by transform kind
_PARAMETER_RANGE = {"rotation": (0.3, math.pi), "boost": (0.4, 1.4)}


def _report_samples(gen, transform_kind, dim):
    """The axes, angles or rapidities, and x and y coefficients of the
    sampled triples, each drawn for all samples at once from the numpy
    Generator gen."""
    low, high = _PARAMETER_RANGE[transform_kind]
    return (random_axes(gen, _REPORT_SAMPLES), gen.uniform(low, high, _REPORT_SAMPLES),
            complex_normals(gen, (_REPORT_SAMPLES, dim)),
            complex_normals(gen, (_REPORT_SAMPLES, dim)))


def _product_report(op, x, y):
    """Largest change of both scalar products over the sampled (op, x, y):
    a stack of operators and two elements with array components."""
    tx, ty = op.apply(x), op.apply(y)
    return {"minkowski_violation": largest([abs(minkowski_product(tx, ty)
                                                - minkowski_product(x, y))]),
            "unitary_violation": largest([abs(unitary_product(tx, ty)
                                              - unitary_product(x, y))])}


def invariance_report(s: SpinLabel, transform_kind: str, gen):
    """Sample transformed pairs from the representation's invariant domain
    with the numpy Generator gen and report how far each scalar product
    moves."""
    basis = subspace_basis(s, DEFAULT_FRAME)
    axes, params, xs, ys = _report_samples(gen, transform_kind, len(basis))
    transform = spin_rotate if transform_kind == "rotation" else spin_boost
    return _product_report(transform(s, axes, params, DEFAULT_FRAME),
                           _combination(basis, xs), _combination(basis, ys))


def l32_invariance_report(transform_kind: str, gen):
    """Same report for the whole-algebra action x -> L x R^2."""
    axes, params, xs, ys = _report_samples(gen, transform_kind, 4)
    zero = np.zeros_like(params)
    if transform_kind == "rotation":
        L = make_lorentz(axes, params, axes, zero)
    else:
        L = make_lorentz(axes, zero, axes, params)
    return _product_report(action_op("three_half_L", "A", L, DEFAULT_FRAME),
                           Biquaternion(*xs.T), Biquaternion(*ys.T))


# -- group structure of the whole-algebra action ----------------------------------------


def _unit_axes(v):
    """v divided by its length along the last axis; a 3-vector shorter than
    1e-12 is replaced by the quantization axis (0, 0, 1)."""
    n = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    short = n < 1e-12
    return np.where(short, (0.0, 0.0, 1.0), v / np.where(short, 1.0, n))


def _family_matrices(params):
    """The whole-algebra action x -> L x R(L)^2 at each row of an (n, 8)
    array of chart points (angle, rotation axis, rapidity, boost axis), as an
    (n, 8, 8) array of real matrices: the stack that ``action_op`` makes of
    L with array components, one point per entry."""
    p = np.asarray(params, dtype=float)
    axes = _unit_axes(p[:, [1, 2, 3, 5, 6, 7]].reshape(-1, 2, 3))
    L = make_lorentz(axes[:, 0], p[:, 0], axes[:, 1], p[:, 4])
    return action_op("three_half_L", "A", L, DEFAULT_FRAME).matrix


# scipy's relative step for a 2-point forward difference
_FD_STEP = np.finfo(float).eps ** 0.5


def _family_jacobian(x, target):
    """Residuals and forward-difference Jacobians of the flattened family
    matrix minus ``target`` at each row of an (n, 8) array of chart points,
    as (n, 64) and (n, 64, 8) arrays.

    Each point takes scipy's 2-point step, and all 9n stencil points (each
    centre and its 8 shifted copies) go through one ``_family_matrices``
    call; the centre rows give the residuals."""
    h = _FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = (x + h) - x
    points = np.concatenate([x[:, None], x[:, None] + h[:, :, None] * np.eye(8)], axis=1)
    m = _family_matrices(points.reshape(-1, 8)).reshape(len(x), 9, 64)
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
    x0 = [[rng.uniform(-math.pi, math.pi)]
          + [rng.gauss(0, 1) for _ in range(3)]
          + [rng.uniform(-1.5, 1.5)]
          + [rng.gauss(0, 1) for _ in range(3)]
          for _ in range(restarts)]
    cost = least_squares(lambda x: _family_jacobian(x, tgt), x0)
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

