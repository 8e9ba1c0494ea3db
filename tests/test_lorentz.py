import math
import random

import pytest

from bqspin.biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    minkowski_product,
    unitary_product,
)
from bqspin.errors import InvalidAxis
from bqspin.lorentz import (
    ROWS,
    act,
    action_op,
    best_fit_defect,
    boost_counterexample,
    invariance_report,
    l32_action,
    l32_invariance_report,
    make_lorentz,
    polar_split,
    random_lorentz,
    rotation_closure,
    subspace_closure,
)
from bqspin.spin import SpinLabel, eigenstates, rotate


def _rand_axis(rng):
    v = [rng.gauss(0, 1) for _ in range(3)]
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def test_make_lorentz_invariants():
    rng = random.Random(60)
    one = Biquaternion.scalar(1.0)
    for _ in range(25):
        L = random_lorentz(rng)
        # unit norm, real rotation part, bireal boost part, L = B R
        assert (L.l * L.l.bar() - one).max_abs() < 1e-12
        assert (L.rotation_part.star() - L.rotation_part).max_abs() < 1e-12
        assert (L.rotation_part * L.rotation_part.bar() - one).max_abs() < 1e-12
        assert (L.boost_part.plus() - L.boost_part).max_abs() < 1e-12
        assert (L.boost_part * L.rotation_part - L.l).max_abs() < 1e-12


def test_make_lorentz_pure_cases():
    rng = random.Random(61)
    axis = _rand_axis(rng)
    ident = make_lorentz(axis, 0.0, axis, 0.0)
    assert (ident.l - Biquaternion.scalar(1.0)).max_abs() < 1e-15
    rot = make_lorentz(axis, 1.1, axis, 0.0)
    assert (rot.l.star() - rot.l).max_abs() < 1e-13
    boo = make_lorentz(axis, 0.0, axis, 0.8)
    assert (boo.l.plus() - boo.l).max_abs() < 1e-13


def test_polar_split_recovers_factors():
    rng = random.Random(62)
    for _ in range(25):
        L = random_lorentz(rng)
        split = polar_split(L.l)
        assert (split.boost_part - L.boost_part).max_abs() < 1e-10
        r2a = split.rotation_part * split.rotation_part
        r2b = L.rotation_part * L.rotation_part
        assert (r2a - r2b).max_abs() < 1e-10


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
    rng = random.Random(64)
    f = DEFAULT_FRAME
    for _ in range(10):
        L1 = random_lorentz(rng)
        L2 = random_lorentz(rng)
        L12 = polar_split(L1.l * L2.l)
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
    rng = random.Random(66)
    f = DEFAULT_FRAME
    for _ in range(10):
        L = random_lorentz(rng)
        x = Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
        assert (act("one", "A", L, x, f) - L.l * x * L.l.plus()).max_abs() < 1e-12
        assert (act("one", "B", L, x, f) - L.l.star() * x * L.l.plus()).max_abs() < 1e-12


@pytest.mark.parametrize("row,dims", [
    ("zero", (4, 2)),
    ("half_plus", (4, 4)),
    ("half_minus", (4, 4)),
    ("one", (4, 6)),
    ("three_half_L", (8, 8)),
])
def test_subspace_closure_and_dimensions(row, dims):
    out = subspace_closure(row, DEFAULT_FRAME, seed=5)
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
    rot = invariance_report(s, "rotation", seed=7)
    assert rot["minkowski_invariant"] and rot["unitary_invariant"]
    boo = invariance_report(s, "boost", seed=8)
    assert boo["minkowski_invariant"]
    assert not boo["unitary_invariant"]
    assert boo["unitary_violation"] > 0.1


def test_three_half_rep_invariance_matrix():
    rot = invariance_report(SpinLabel.THREE_HALF, "rotation", seed=9)
    assert rot["unitary_invariant"]
    assert not rot["minkowski_invariant"]
    assert rot["minkowski_violation"] > 1e-3


def test_l32_invariance_matrix():
    rot = l32_invariance_report("rotation", seed=10)
    assert rot["minkowski_invariant"] and rot["unitary_invariant"]
    boo = l32_invariance_report("boost", seed=11)
    assert boo["minkowski_invariant"]
    assert not boo["unitary_invariant"]
    assert boo["unitary_violation"] > 0.1


def test_l32_identity():
    ident = make_lorentz((0, 0, 1), 0.0, (0, 0, 1), 0.0)
    from bqspin.linops import RealLinearOp
    assert l32_action(ident).equal(RealLinearOp.identity(), tol=1e-14)


def test_l32_matches_rep_for_nu_rotations():
    # for rotations about the quantization axis the whole-algebra action and
    # the exponential representation are the same operator
    rng = random.Random(67)
    f = DEFAULT_FRAME
    for _ in range(10):
        theta = rng.uniform(-math.pi, math.pi)
        L = make_lorentz((0, 0, 1), theta, (0, 0, 1), 0.0)
        rep = rotate(SpinLabel.THREE_HALF, (0, 0, 1), theta, f)
        assert l32_action(L).equal(rep, tol=1e-11)
    # eigenstates pick up the phases exp(-i m theta)
    theta = 0.9
    L = make_lorentz((0, 0, 1), theta, (0, 0, 1), 0.0)
    op = l32_action(L)
    for m, state in eigenstates(SpinLabel.THREE_HALF, f):
        phase = complex(math.cos(m * theta), -math.sin(m * theta))
        assert (op.apply(state) - state * phase).max_abs() < 1e-12


def test_closure():
    assert rotation_closure(seed=3) <= 1e-12
    assert boost_counterexample(seed=3)["defect"] > 1e-3


def test_best_fit_defect_zero_for_family_member():
    L = make_lorentz((0, 1, 0), 0.7, (1, 0, 0), 0.5)
    assert best_fit_defect(l32_action(L), seed=4, restarts=6) < 1e-7


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
    assert not l32_action(L).equal(rep, tol=1e-3)


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
