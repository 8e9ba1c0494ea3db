import math
import random
from fractions import Fraction

import numpy as np

from bqspin.biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    basis_elements,
    random_rational_biquaternion,
)
from bqspin.linops import MUL_I, RealLinearOp, left_mul, monomial, op_exp
from bqspin.scalars import GR_I, gr


ONE = Biquaternion.one()
STAR = RealLinearOp.from_function(lambda x: x.star())
PLUS = RealLinearOp.from_function(lambda x: x.plus())


def test_monomial_identity():
    ident = monomial(ONE, ONE)
    assert ident.equal(RealLinearOp.identity(), tol=0.0)


def test_monomial_matches_direct_product():
    rng = random.Random(11)
    f = DEFAULT_FRAME
    op = monomial(f.sigma, f.sigma_bar)
    assert op.apply(f.tau) == f.sigma * f.tau * f.sigma_bar
    for _ in range(30):
        a = random_rational_biquaternion(rng)
        b = random_rational_biquaternion(rng)
        x = random_rational_biquaternion(rng)
        for conjf in (lambda q: q, lambda q: q.bar(), lambda q: q.star(), lambda q: q.plus()):
            op = monomial(a, b) @ RealLinearOp.from_function(conjf)
            assert op.apply(x) == a * conjf(x) * b


def test_faithful_on_basis():
    rng = random.Random(12)
    a = random_rational_biquaternion(rng)
    b = random_rational_biquaternion(rng)
    op = monomial(a, b)
    for e in basis_elements(exact=True):
        assert op.apply(e) == a * e * b


def test_antilinearity_detection():
    # complex-linear maps commute with multiplication by i, antilinear ones anticommute
    rng = random.Random(13)
    a = random_rational_biquaternion(rng)
    b = random_rational_biquaternion(rng)
    bar = RealLinearOp.from_function(lambda x: x.bar())
    for op in (STAR, PLUS, monomial(a, b) @ STAR):
        assert (op @ MUL_I).equal(-(MUL_I @ op), tol=0.0)
    for op in (bar, RealLinearOp.identity(), monomial(a, b)):
        assert (op @ MUL_I).equal(MUL_I @ op, tol=0.0)


def test_composition_and_fusion():
    rng = random.Random(14)
    a = random_rational_biquaternion(rng)
    c = random_rational_biquaternion(rng)
    fused = monomial(a, c)
    composed = left_mul(a) @ monomial(ONE, c)
    assert fused.equal(composed, tol=0.0)
    ident = RealLinearOp.identity()
    assert (fused @ ident).equal(fused, tol=0.0)
    assert (STAR @ STAR).equal(ident, tol=0.0)


def test_compose_is_pointwise_composition():
    rng = random.Random(15)
    f = monomial(random_rational_biquaternion(rng), random_rational_biquaternion(rng))
    g = monomial(random_rational_biquaternion(rng), random_rational_biquaternion(rng)) @ PLUS
    for _ in range(10):
        x = random_rational_biquaternion(rng)
        assert (f @ g).apply(x) == f.apply(g.apply(x))


def test_op_equal_tolerance():
    j3_fixture = monomial(DEFAULT_FRAME.nu * gr(0, 1), DEFAULT_FRAME.sigma)
    again = monomial(DEFAULT_FRAME.nu * gr(0, 1), DEFAULT_FRAME.sigma)
    assert j3_fixture.equal(again, tol=0.0)
    other = monomial(DEFAULT_FRAME.tau, DEFAULT_FRAME.sigma)
    assert not j3_fixture.equal(other, tol=1e-9)


def test_op_exp_zero_and_inverse():
    zero = RealLinearOp.zero()
    assert op_exp(zero).equal(RealLinearOp.identity(), tol=1e-15)
    rng = random.Random(16)
    for _ in range(10):
        m = RealLinearOp((np.array([[rng.uniform(-1.5, 1.5) for _ in range(8)]
                                    for _ in range(8)])).tolist())
        prod = op_exp(m) @ op_exp(m.scale(-1.0))
        assert prod.equal(RealLinearOp.identity(), tol=1e-12)


def test_op_exp_matches_rodrigues_closed_form():
    # one-sided exponential: exp of left-multiplication by theta/2 * a
    # equals left multiplication by (cos(theta/2) + a sin(theta/2))
    rng = random.Random(17)
    for _ in range(20):
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        v /= np.linalg.norm(v)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        a = Biquaternion.vector(*(complex(c) for c in v))
        gen = left_mul(a.to_float()).scale(theta / 2.0)
        closed = left_mul(
            Biquaternion.scalar(complex(math.cos(theta / 2))) + a * math.sin(theta / 2)
        )
        assert op_exp(gen).equal(closed, tol=1e-12)


def test_mul_i_op_square():
    assert (MUL_I @ MUL_I).equal(RealLinearOp.identity().scale(-1), tol=0.0)


def _assert_exact_op(op):
    assert op.matrix.dtype == object
    assert all(type(x) in (int, Fraction) for x in op.matrix.flat)


def test_exact_operators_are_object_arrays_of_rationals():
    rng = random.Random(19)
    a, b = random_rational_biquaternion(rng), random_rational_biquaternion(rng)
    ident, zero, star, J = (RealLinearOp.identity(), RealLinearOp.zero(), STAR,
                            left_mul(Biquaternion.scalar(GR_I)))
    f = monomial(a, b) @ PLUS
    for op in (ident, zero, star, J, f, J @ f, f + star, f - ident, -f,
               f.scale(Fraction(2, 3)), ident @ zero):
        _assert_exact_op(op)


def test_any_float_entry_gives_a_float64_operator():
    rng = random.Random(20)
    exact = monomial(random_rational_biquaternion(rng), ONE) @ STAR
    flt = left_mul(Biquaternion.scalar(0.5j))
    rows = [[Fraction(k - j, 3) for k in range(8)] for j in range(8)]
    rows[2][5] = 0.25
    for op in (RealLinearOp(rows), flt, exact @ flt, flt @ exact, exact + flt,
               exact.scale(0.5), op_exp(exact), op_exp(RealLinearOp.zero())):
        assert op.matrix.dtype == np.float64


def test_integer_matrices_stay_exact():
    # numpy builds int64 from Python ints; an operator never keeps it
    for data in ([[1] * 8 for _ in range(8)], np.eye(8, dtype=np.int64)):
        op = RealLinearOp(data)
        _assert_exact_op(op)
        _assert_exact_op(op @ op.scale(Fraction(1, 2)))
