import math
import random

import pytest

from bqspin.biquaternion import DEFAULT_FRAME, random_rational_frame
from bqspin.errors import InvalidAxis
from bqspin.linops import MUL_I, RealLinearOp
from bqspin.spin import (
    SpinLabel,
    boost,
    closed_form_half_boost,
    closed_form_half_rotation,
    closed_form_one_rotation,
    eigenstates,
    generators,
    rotate,
    spin_of,
    subspace_basis,
)


ALL_LABELS = list(SpinLabel)


def _random_axis(rng):
    v = [rng.gauss(0, 1) for _ in range(3)]
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def _frames(rng):
    return [DEFAULT_FRAME, random_rational_frame(rng)]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_su2_commutators(label):
    rng = random.Random(50)
    for f in _frames(rng):
        g = generators(label, f)
        pairs = [(g.j1, g.j2, g.j3), (g.j2, g.j3, g.j1), (g.j3, g.j1, g.j2)]
        for a, b, c in pairs:
            comm = (a @ b) - (b @ a)
            assert comm.equal(MUL_I @ c, tol=1e-12)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_casimir_on_designated_subspace(label):
    rng = random.Random(51)
    s = spin_of(label)
    expected = s * (s + 1)
    for f in _frames(rng):
        cas = generators(label, f).casimir()
        for b in subspace_basis(label, f):
            diff = cas.apply(b) - b * expected
            assert diff.max_abs() < 1e-12


def test_three_half_casimir_everywhere():
    # the three-half column fills the whole algebra
    from bqspin.biquaternion import basis_elements
    cas = generators(SpinLabel.THREE_HALF, DEFAULT_FRAME).casimir()
    for b in basis_elements(exact=False):
        assert (cas.apply(b) - b * 3.75).max_abs() < 1e-12


@pytest.mark.parametrize("label", ALL_LABELS)
def test_eigenstates_labels_and_norms(label):
    rng = random.Random(52)
    for f in _frames(rng):
        g = generators(label, f)
        states = eigenstates(label, f)
        expected_labels = {
            SpinLabel.HALF_PLUS: [0.5, -0.5],
            SpinLabel.HALF_MINUS: [0.5, -0.5],
            SpinLabel.ONE: [1.0, 0.0, -1.0],
            SpinLabel.THREE_HALF: [1.5, 0.5, -0.5, -1.5],
        }[label]
        assert [m for m, _ in states] == expected_labels
        for m, state in states:
            assert (g.j3.apply(state) - state * m).max_abs() < 1e-12
            assert abs(state.unitary_norm() - 1.0) < 1e-12


def test_three_half_j3_action_on_sigma():
    f = DEFAULT_FRAME
    g = generators(SpinLabel.THREE_HALF, f)
    target = f.sigma.to_float() * 1.5
    assert (g.j3.apply(f.sigma.to_float()) - target).max_abs() < 1e-12


def test_one_j3_annihilates_nu():
    g = generators(SpinLabel.ONE, DEFAULT_FRAME)
    assert g.j3.apply(DEFAULT_FRAME.nu.to_float()).max_abs() < 1e-13


def test_half_plus_j3_on_sigma():
    f = DEFAULT_FRAME
    g = generators(SpinLabel.HALF_PLUS, f)
    assert (g.j3.apply(f.sigma.to_float()) - f.sigma.to_float() * 0.5).max_abs() < 1e-13


def test_invalid_axis():
    with pytest.raises(InvalidAxis):
        rotate(SpinLabel.ONE, (0, 0, 2), 0.3, DEFAULT_FRAME)
    with pytest.raises(InvalidAxis):
        boost(SpinLabel.ONE, (1, 1, 0), 0.3, DEFAULT_FRAME)


def test_half_rotation_reduces_to_closed_form_on_subspace():
    rng = random.Random(53)
    f = DEFAULT_FRAME
    for _ in range(100):
        axis = _random_axis(rng)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        full = rotate(SpinLabel.HALF_PLUS, axis, theta, f)
        closed = closed_form_half_rotation(axis, theta)
        worst = max((full.apply(b) - closed.apply(b)).max_abs()
                    for b in subspace_basis(SpinLabel.HALF_PLUS, f))
        assert worst < 1e-10


def test_one_rotation_reduces_to_rodrigues_everywhere():
    rng = random.Random(54)
    f = DEFAULT_FRAME
    for _ in range(100):
        axis = _random_axis(rng)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        full = rotate(SpinLabel.ONE, axis, theta, f)
        closed = closed_form_one_rotation(axis, theta)
        assert full.equal(closed, tol=1e-10)


@pytest.mark.parametrize("label,sign2pi", [
    (SpinLabel.HALF_PLUS, -1.0),
    (SpinLabel.HALF_MINUS, -1.0),
    (SpinLabel.ONE, 1.0),
    (SpinLabel.THREE_HALF, -1.0),
])
def test_periodicity(label, sign2pi):
    rng = random.Random(55)
    f = DEFAULT_FRAME
    axis = _random_axis(rng)
    r2pi = rotate(label, axis, 2 * math.pi, f)
    r4pi = rotate(label, axis, 4 * math.pi, f)
    for b in subspace_basis(label, f):
        assert (r2pi.apply(b) - b * sign2pi).max_abs() < 1e-10
        assert (r4pi.apply(b) - b).max_abs() < 1e-10


@pytest.mark.parametrize("label", ALL_LABELS)
def test_rotation_composition_fixed_axis(label):
    rng = random.Random(56)
    f = DEFAULT_FRAME
    axis = _random_axis(rng)
    t1, t2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
    lhs = rotate(label, axis, t1, f) @ rotate(label, axis, t2, f)
    rhs = rotate(label, axis, t1 + t2, f)
    assert lhs.equal(rhs, tol=1e-11)


def test_boost_zero_is_identity_and_inverse():
    rng = random.Random(57)
    f = DEFAULT_FRAME
    axis = _random_axis(rng)
    assert boost(SpinLabel.HALF_PLUS, axis, 0.0, f).equal(RealLinearOp.identity(),
                                                        tol=1e-13)
    rho = rng.uniform(-1.5, 1.5)
    prod = boost(SpinLabel.HALF_PLUS, axis, rho, f) @ boost(SpinLabel.HALF_PLUS, axis, -rho, f)
    assert prod.equal(RealLinearOp.identity(), tol=1e-12)


def test_half_boost_factor_is_bireal():
    rng = random.Random(58)
    f = DEFAULT_FRAME
    for _ in range(20):
        axis = _random_axis(rng)
        rho = rng.uniform(-2, 2)
        full = boost(SpinLabel.HALF_PLUS, axis, rho, f)
        closed = closed_form_half_boost(axis, rho)
        worst = max((full.apply(b) - closed.apply(b)).max_abs()
                    for b in subspace_basis(SpinLabel.HALF_PLUS, f))
        assert worst < 1e-11
        # the closed-form factor itself is bireal: B.plus() == B
        half = rho / 2.0
        from bqspin.biquaternion import Biquaternion
        ax = Biquaternion.vector(*(float(c) for c in axis))
        b = Biquaternion.scalar(complex(math.cosh(half))) + ax * (1j * math.sinh(half))
        assert (b.plus() - b).max_abs() < 1e-15
