import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bqspin import harness, lorentz
from bqspin.biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    minkowski_product,
    unitary_product,
)
from bqspin.errors import InvalidAxis
from bqspin.linops import RealLinearOp
from bqspin.lorentz import (
    ROWS,
    act,
    action_factors,
    action_op,
    best_fit_defect,
    boost_counterexample,
    complex_normals,
    invariance_report,
    l32_invariance_report,
    make_lorentz,
    random_lorentz,
    rotation_closure,
    rotation_square,
    subspace_closure,
)
from bqspin.scalars import gr
from bqspin.spin import SpinLabel, eigenstates, rotate, rotation_factor


def _rand_axis(rng):
    v = [rng.gauss(0, 1) for _ in range(3)]
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def test_make_lorentz_invariants():
    one = Biquaternion.scalar(1.0)
    L = random_lorentz(np.random.default_rng(60), 25)
    r2 = rotation_square(L)
    # unit norm, and a real unit-norm squared rotation factor
    assert (L * L.bar() - one).max_abs() < 1e-12
    assert (r2.star() - r2).max_abs() < 1e-12
    assert (r2 * r2.bar() - one).max_abs() < 1e-12


def test_make_lorentz_pure_cases():
    rng = random.Random(61)
    axis = _rand_axis(rng)
    ident = make_lorentz(axis, 0.0, axis, 0.0)
    assert (ident - Biquaternion.scalar(1.0)).max_abs() < 1e-15
    rot = make_lorentz(axis, 1.1, axis, 0.0)
    assert (rot.star() - rot).max_abs() < 1e-13
    boo = make_lorentz(axis, 0.0, axis, 0.8)
    assert (boo.plus() - boo).max_abs() < 1e-13


def test_rotation_square_matches_the_rotation_factor():
    rng = random.Random(62)
    for _ in range(25):
        axis, boost_axis = _rand_axis(rng), _rand_axis(rng)
        theta, rho = rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5)
        r = rotation_factor(axis, theta)
        L = make_lorentz(axis, theta, boost_axis, rho)
        assert (rotation_square(L) - r * r).max_abs() <= 1e-14


# exact boosts with Pythagorean factors: cosh(rho/2) = 5/4 and 13/12
_B1 = Biquaternion(gr(Fraction(5, 4)), gr(0, Fraction(3, 4)), gr(0), gr(0))
_B2 = Biquaternion(gr(Fraction(13, 12)), gr(0), gr(0, Fraction(5, 12)), gr(0))
# an exact rotation factor, and two Pythagorean rotations about e3
_R = Biquaternion(*(gr(Fraction(c, 5)) for c in (1, 2, 2, 4)))
_R3 = Biquaternion(gr(Fraction(3, 5)), gr(0), gr(0), gr(Fraction(4, 5)))
_R13 = Biquaternion(gr(Fraction(5, 13)), gr(0), gr(0), gr(Fraction(12, 13)))


def test_rotation_square_is_exact():
    # scal R(B1 B2)^2 is the cosine of the Thomas-Wigner angle,
    # (g1 + g2) / (1 + g1 g2) for the Lorentz factors 17/8 and 97/72
    assert rotation_square(_B1 * _B2).scalar_part() == gr(Fraction(80, 89))
    assert rotation_square(_B1) == Biquaternion.one()
    assert rotation_square(_R) == _R * _R
    assert rotation_square(_B1 * _R) == _R * _R


def _composes_exactly(row, role, L1, L2):
    ops = [action_op(row, role, L, DEFAULT_FRAME) for L in (L1, L2, L1 * L2)]
    assert all(op.matrix.dtype == object for op in ops)
    return (ops[0] @ ops[1]).equal(ops[2], tol=0.0)


@pytest.mark.parametrize("row,role", [("one", "A"), ("one", "B"), ("zero", "A")])
def test_exact_rows_compose_exactly(row, role):
    assert _composes_exactly(row, role, _B1 * _R, _B2 * _R3)
    assert _composes_exactly(row, role, _B2, _B1 * _R13)


def test_three_half_row_composes_exactly_only_for_rotations_about_e3():
    assert _composes_exactly("three_half_L", "A", _R3, _R13)
    assert _composes_exactly("three_half_L", "A", _R13 * _R3, _R3)
    assert not _composes_exactly("three_half_L", "A", _B1, _B2)


def test_invalid_axis():
    with pytest.raises(InvalidAxis):
        make_lorentz((0, 0, 2), 0.1, (0, 0, 1), 0.0)


@pytest.mark.parametrize("row", ROWS)
def test_identity_action_fixes_field_values(row):
    from bqspin.lorentz import row_subspaces
    rng = random.Random(63)
    ident = make_lorentz((0, 0, 1), 0.0, (0, 0, 1), 0.0)
    basis_a, basis_b = row_subspaces(row, DEFAULT_FRAME)
    for role, basis in (("A", basis_a), ("B", basis_b)):
        op = action_op(row, role, ident, DEFAULT_FRAME)
        for _ in range(5):
            x = Biquaternion.scalar(0.0)
            for b in basis:
                x = x + b * complex(rng.gauss(0, 1), rng.gauss(0, 1))
            assert (op.apply(x) - x).max_abs() < 1e-13


@pytest.mark.parametrize("row", ["zero", "half_plus", "half_minus", "one"])
def test_actions_are_group_actions(row):
    gen = np.random.default_rng(64)
    f = DEFAULT_FRAME
    L1, L2 = random_lorentz(gen, 10), random_lorentz(gen, 10)
    L12 = L1 * L2
    for role in ("A", "B"):
        lhs = action_op(row, role, L1, f) @ action_op(row, role, L2, f)
        rhs = action_op(row, role, L12, f)
        assert lhs.equal(rhs, tol=1e-11), (row, role)


def test_spinor_action_agrees_with_rotation_rep_on_subspace():
    rng = random.Random(65)
    f = DEFAULT_FRAME
    from bqspin.spin import subspace_basis
    for _ in range(10):
        axis = _rand_axis(rng)
        theta = rng.uniform(-math.pi, math.pi)
        L = make_lorentz(axis, theta, axis, 0.0)
        a_op = action_op("half_plus", "A", L, f)
        rep = rotate(SpinLabel.HALF_PLUS, axis, theta, f)
        for b in subspace_basis(SpinLabel.HALF_PLUS, f):
            assert (a_op.apply(b) - rep.apply(b)).max_abs() < 1e-11


def test_four_vector_and_six_vector_laws():
    # the spin-one row implements the four-vector law L [.] L.plus() and the
    # six-vector law L.star() [.] L.plus()
    gen = np.random.default_rng(66)
    f = DEFAULT_FRAME
    L = random_lorentz(gen, 10)
    x = Biquaternion(*complex_normals(gen, (4, 10)))
    assert (act("one", "A", L, x, f) - L * x * L.plus()).max_abs() < 1e-12
    assert (act("one", "B", L, x, f) - L.star() * x * L.plus()).max_abs() < 1e-12


def test_act_is_the_table_operator_applied():
    gen = np.random.default_rng(70)
    f = DEFAULT_FRAME
    L = random_lorentz(gen, 10)
    x = Biquaternion(*complex_normals(gen, (4, 10)))
    for row in ROWS:
        for role in ("A", "B"):
            expect = action_op(row, role, L, f).apply(x)
            assert (act(row, role, L, x, f) - expect).max_abs() < 1e-12, (row, role)
    with pytest.raises(ValueError):
        action_factors("two", "A", L, f)
    with pytest.raises(ValueError):
        action_factors("one", "C", L, f)


@pytest.mark.parametrize("row,dims", [
    ("zero", (4, 2)),
    ("half_plus", (4, 4)),
    ("half_minus", (4, 4)),
    ("one", (4, 6)),
    ("three_half_L", (8, 8)),
])
def test_subspace_closure_and_dimensions(row, dims):
    out = subspace_closure(row, DEFAULT_FRAME, np.random.default_rng(5))
    assert out["max_residual"] <= 1e-9
    assert (out["real_dim_A"], out["real_dim_B"]) == dims


def test_minkowski_unitary_product_values():
    f = DEFAULT_FRAME
    one = Biquaternion.one()
    assert minkowski_product(one, one) == 1
    assert minkowski_product(f.sigma, f.sigma).__bool__() is False
    s2 = f.sigma * 2  # sqrt(2)*sigma twice over: 2<sigma+ sigma> = 1
    assert complex(unitary_product(f.sigma, f.sigma) * 2) == 1 + 0j


@pytest.mark.parametrize("s", [SpinLabel.HALF_PLUS, SpinLabel.HALF_MINUS, SpinLabel.ONE])
def test_low_spin_invariance_matrix(s):
    rot = invariance_report(s, "rotation", np.random.default_rng(7))
    assert rot["minkowski_violation"] <= 1e-10 and rot["unitary_violation"] <= 1e-10
    boo = invariance_report(s, "boost", np.random.default_rng(8))
    assert boo["minkowski_violation"] <= 1e-10
    assert boo["unitary_violation"] > 1e-10
    assert boo["unitary_violation"] > 0.1


def test_three_half_rep_invariance_matrix():
    rot = invariance_report(SpinLabel.THREE_HALF, "rotation", np.random.default_rng(9))
    assert rot["unitary_violation"] <= 1e-10
    assert rot["minkowski_violation"] > 1e-10
    assert rot["minkowski_violation"] > 1e-3


def test_l32_invariance_matrix():
    rot = l32_invariance_report("rotation", np.random.default_rng(10))
    assert rot["minkowski_violation"] <= 1e-10 and rot["unitary_violation"] <= 1e-10
    boo = l32_invariance_report("boost", np.random.default_rng(11))
    assert boo["minkowski_violation"] <= 1e-10
    assert boo["unitary_violation"] > 1e-10
    assert boo["unitary_violation"] > 0.1


def test_l32_identity():
    ident = make_lorentz((0, 0, 1), 0.0, (0, 0, 1), 0.0)
    from bqspin.linops import RealLinearOp
    op = action_op("three_half_L", "A", ident, DEFAULT_FRAME)
    assert op.equal(RealLinearOp.identity(), tol=1e-14)


def test_l32_matches_rep_for_nu_rotations():
    # for rotations about the quantization axis the whole-algebra action and
    # the exponential representation are the same operator
    rng = random.Random(67)
    f = DEFAULT_FRAME
    for _ in range(10):
        theta = rng.uniform(-math.pi, math.pi)
        L = make_lorentz((0, 0, 1), theta, (0, 0, 1), 0.0)
        rep = rotate(SpinLabel.THREE_HALF, (0, 0, 1), theta, f)
        assert action_op("three_half_L", "A", L, DEFAULT_FRAME).equal(rep, tol=1e-11)
    # eigenstates pick up the phases exp(-i m theta)
    theta = 0.9
    L = make_lorentz((0, 0, 1), theta, (0, 0, 1), 0.0)
    op = action_op("three_half_L", "A", L, DEFAULT_FRAME)
    for m, state in eigenstates(SpinLabel.THREE_HALF, f):
        phase = complex(math.cos(m * theta), -math.sin(m * theta))
        assert (op.apply(state) - state * phase).max_abs() < 1e-12


def test_closure():
    assert rotation_closure(seed=3) <= 1e-12
    assert boost_counterexample(seed=3)["defect"] > 1e-3


def test_best_fit_defect_zero_for_family_member(monkeypatch):
    # one call of the module-level ``lorentz.least_squares``, the binding
    # that the benchmark's tracer counts, fits every restart
    calls = []
    fit = lorentz.least_squares

    def counting(stencil, x0):
        calls.append(np.shape(x0))
        return fit(stencil, x0)

    monkeypatch.setattr(lorentz, "least_squares", counting)
    L = make_lorentz((0, 1, 0), 0.7, (1, 0, 0), 0.5)
    op = action_op("three_half_L", "A", L, DEFAULT_FRAME)
    assert best_fit_defect(op, seed=4, restarts=6) < 1e-7
    assert calls == [(6, 8)]


def test_least_squares_reaches_the_linear_minimum():
    # on an affine residual A x - b every start must end at the minimum
    # that np.linalg.lstsq gives; every start costs at least 90 times more
    for seed in range(4):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(40, 6))
        b = rng.normal(size=40)
        x0 = 10.0 * rng.normal(size=(5, 6))

        def stencil(x):
            return x @ a.T - b, np.broadcast_to(a, (len(x),) + a.shape)

        sol = np.linalg.lstsq(a, b, rcond=None)[0]
        best = 0.5 * np.sum((a @ sol - b) ** 2)
        cost = lorentz.least_squares(stencil, x0)
        assert cost.shape == (5,)
        assert np.abs(cost / best - 1.0).max() <= 1e-12


def _chart_op(p):
    """The family member at one chart point, built point by point through
    make_lorentz and action_op."""
    def unit(v):
        n = math.sqrt(sum(float(c) ** 2 for c in v))
        return [0.0, 0.0, 1.0] if n < 1e-12 else [float(c) / n for c in v]
    L = make_lorentz(unit(p[1:4]), p[0], unit(p[5:8]), p[4])
    return action_op("three_half_L", "A", L, DEFAULT_FRAME).matrix


def _chart_points():
    rng = np.random.default_rng(47)
    points = rng.normal(size=(12, 8))
    points[:, 0] *= math.pi
    points[3, 1:4] = (3e-13, -2e-13, 1e-13)
    points[5, 5:8] = 0.0
    points[7, 1:4] = points[7, 5:8] = (1e-13, 0.0, 0.0)
    return points


def test_family_matrices_match_the_action_table():
    points = _chart_points()
    batch = lorentz._family_matrices(points)
    assert batch.shape == (len(points), 8, 8)
    for p, m in zip(points, batch):
        assert np.abs(m - _chart_op(p)).max() <= 1e-14


def test_batched_jacobian_matches_a_columnwise_difference():
    points = _chart_points()[:4]
    target = np.arange(64.0).reshape(8, 8)
    resid, jac = lorentz._family_jacobian(points, target)
    assert resid.shape == (4, 64) and jac.shape == (4, 64, 8)
    for x, r, j in zip(points, resid, jac):
        h = math.sqrt(np.finfo(float).eps) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, abs(x))
        h = (x + h) - x
        centre = _chart_op(x)
        cols = []
        for k in range(8):
            shifted = x.copy()
            shifted[k] += h[k]
            cols.append(((_chart_op(shifted) - centre) / h[k]).ravel())
        assert np.abs(r - (centre - target).ravel()).max() <= 1e-14
        assert np.abs(j - np.stack(cols, axis=1)).max() <= 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_boost_counterexample_defect_is_stable(seed):
    assert abs(boost_counterexample(seed)["defect"] - 0.4309406155) <= 1e-9


def _churn_heap(rng, held):
    """Allocate and free numpy arrays and bytearrays of random sizes, keep
    up to eight of them alive, and run one float suite, so that each fit
    starts from a different heap."""
    for _ in range(rng.randint(1, 6)):
        n = rng.randint(1, 1 << 16)
        held.append(np.ones(n) if rng.random() < 0.5 else bytearray(n))
    while len(held) > 8:
        held.pop(rng.randrange(len(held)))
    harness.run("lorentz.subspaces", seed=rng.randint(0, 10 ** 6))


def test_boost_counterexample_is_bit_identical_within_a_process():
    # the benchmark compares a traced round's report with an untraced one
    # in the same process; the defect must not depend on the heap
    rng = random.Random(25)
    held = []
    defects = {seed: set() for seed in range(4)}
    for _ in range(10):
        for seed, seen in defects.items():
            _churn_heap(rng, held)
            seen.add(boost_counterexample(seed)["defect"])
    assert all(len(seen) == 1 for seen in defects.values()), defects


def test_exponential_rep_and_l32_differ_off_axis():
    # about a generic axis the exponential spin-3/2 representation and the
    # whole-algebra action are different operator families
    rng = random.Random(68)
    axis = _rand_axis(rng)
    while abs(axis[2]) > 0.9:
        axis = _rand_axis(rng)
    theta = 0.8
    L = make_lorentz(axis, theta, axis, 0.0)
    rep = rotate(SpinLabel.THREE_HALF, axis, theta, DEFAULT_FRAME)
    assert not action_op("three_half_L", "A", L, DEFAULT_FRAME).equal(rep, tol=1e-3)


def test_half_minus_action_agrees_with_rotation_rep_on_subspace():
    rng = random.Random(69)
    f = DEFAULT_FRAME
    from bqspin.spin import subspace_basis
    for _ in range(10):
        axis = _rand_axis(rng)
        theta = rng.uniform(-math.pi, math.pi)
        L = make_lorentz(axis, theta, axis, 0.0)
        a_op = action_op("half_minus", "A", L, f)
        rep = rotate(SpinLabel.HALF_MINUS, axis, theta, f)
        for b in subspace_basis(SpinLabel.HALF_MINUS, f):
            assert (a_op.apply(b) - rep.apply(b)).max_abs() < 1e-11


def _poison_sample(transform, index):
    """transform with the operator of sample ``index`` made all NaN, whether
    the samples come as one stack or one call each."""
    seen = [0]

    def poisoned(*args):
        m = np.array(transform(*args).matrix, dtype=float)
        stack = m.reshape(-1, 8, 8)
        if 0 <= index - seen[0] < len(stack):
            stack[index - seen[0]] = np.nan
        seen[0] += len(stack)
        return RealLinearOp(m)

    return poisoned


def test_a_nan_action_in_one_sample_is_a_nan_closure_residual(monkeypatch):
    monkeypatch.setattr(lorentz, "action_op", _poison_sample(lorentz.action_op, 3))
    out = lorentz.subspace_closure("one", DEFAULT_FRAME, np.random.default_rng(4))
    assert math.isnan(out["max_residual"])


def test_a_nan_operator_in_one_sample_fails_the_three_half_witness(monkeypatch):
    [row] = harness.run("products.three_half_matrix", seed=5)
    assert row.status == "witness"
    monkeypatch.setattr(lorentz, "spin_rotate", _poison_sample(lorentz.spin_rotate, 7))
    [row] = harness.run("products.three_half_matrix", seed=5)
    assert row.status == "fail" and math.isnan(row.max_residual)
