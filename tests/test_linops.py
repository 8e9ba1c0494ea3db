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
from bqspin.linops import MUL_I, RealLinearOp, monomial, op_exp
from bqspin.scalars import GR_I, gr


ONE = Biquaternion.one()
STAR = RealLinearOp.from_function(lambda x: x.star())
PLUS = RealLinearOp.from_function(lambda x: x.plus())


def _left_monomial(a):
    """x -> a x, the monomial with the unit of a's backend on the right."""
    return monomial(a, ONE if a.is_exact() else ONE.to_float())


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
    composed = _left_monomial(a) @ monomial(ONE, c)
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
        gen = _left_monomial(a.to_float()).scale(theta / 2.0)
        closed = _left_monomial(
            Biquaternion.scalar(complex(math.cos(theta / 2))) + a * math.sin(theta / 2)
        )
        assert op_exp(gen).equal(closed, tol=1e-12)


def test_mul_i_op_square():
    assert (MUL_I @ MUL_I).equal(RealLinearOp.identity().scale(-1), tol=0.0)
    assert MUL_I.matrix.dtype == np.float64
    assert MUL_I.equal(RealLinearOp.from_function(lambda x: x * 1j, basis_elements(exact=False)))


def _assert_exact_op(op):
    assert op.matrix.dtype == object
    assert all(type(x) in (int, Fraction) for x in op.matrix.flat)


def test_exact_operators_are_object_arrays_of_rationals():
    rng = random.Random(19)
    a, b = random_rational_biquaternion(rng), random_rational_biquaternion(rng)
    ident, zero, star, J = (RealLinearOp.identity(), RealLinearOp.zero(), STAR,
                            _left_monomial(Biquaternion.scalar(GR_I)))
    f = monomial(a, b) @ PLUS
    for op in (ident, zero, star, J, f, J @ f, f + star, f - ident, -f,
               f.scale(Fraction(2, 3)), ident @ zero):
        _assert_exact_op(op)


def test_any_float_entry_gives_a_float64_operator():
    rng = random.Random(20)
    exact = monomial(random_rational_biquaternion(rng), ONE) @ STAR
    flt = _left_monomial(Biquaternion.scalar(0.5j))
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


def _float_stack(rng, n):
    """n random float biquaternions as one element with array components."""
    return Biquaternion(*(np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)])
                          for _ in range(4)))


def _sample(q, i):
    """Sample i of an element with array components, with Python complex components."""
    return Biquaternion(*(complex(c[i]) for c in q.components()))


def test_a_float_monomial_is_its_unit_by_unit_matrix():
    # each column is the product on its own unit, up to rounding: numpy's
    # complex product may round differently from Python's
    rng = random.Random(21)
    for _ in range(20):
        a, b = _sample(_float_stack(rng, 1), 0), _sample(_float_stack(rng, 1), 0)
        cols = np.array([(a * e * b).real_coords() for e in basis_elements(exact=False)]).T
        assert np.abs(monomial(a, b).matrix - cols).max() <= 1e-15 * np.abs(cols).max()


def test_a_monomial_of_array_factors_is_the_stack_of_single_monomials():
    rng = random.Random(22)
    left, right = _float_stack(rng, 5), _float_stack(rng, 5)
    stack = monomial(left, right)
    assert stack.matrix.shape == (5, 8, 8)
    for i, m in enumerate(stack.matrix):
        assert np.array_equal(m, monomial(_sample(left, i), _sample(right, i)).matrix)
    # one array factor against a single one broadcasts
    single = monomial(left, Biquaternion.scalar(1.0))
    for i, m in enumerate(single.matrix):
        assert np.array_equal(m, _left_monomial(_sample(left, i)).matrix)


def test_exact_monomials_and_maps_stay_exact_on_the_stacked_basis():
    rng = random.Random(23)
    a, b = random_rational_biquaternion(rng), random_rational_biquaternion(rng)
    for fn in (lambda x: a * x * b, lambda x: x.star(), lambda x: a * x.plus()):
        op = RealLinearOp.from_function(fn)
        _assert_exact_op(op)
        cols = [fn(e).real_coords() for e in basis_elements(exact=True)]
        assert (op.matrix == np.array(cols, dtype=object).T).all()


def test_op_exp_of_a_stack_is_the_stack_of_op_exps():
    rng = np.random.default_rng(24)
    stack = RealLinearOp(rng.uniform(-1.5, 1.5, size=(6, 8, 8)))
    out = op_exp(stack).matrix
    assert out.shape == (6, 8, 8)
    for m, e in zip(stack.matrix, out):
        assert np.array_equal(e, op_exp(RealLinearOp(m)).matrix)


def test_a_stack_applies_sample_by_sample():
    rng = random.Random(25)
    stack = monomial(_float_stack(rng, 4), _float_stack(rng, 4))
    x, xs = _sample(_float_stack(rng, 1), 0), _float_stack(rng, 4)
    one_x, each_x = stack.apply(x), stack.apply(xs)
    for i, m in enumerate(stack.matrix):
        op = RealLinearOp(m)
        assert (_sample(one_x, i) - op.apply(x)).max_abs() <= 1e-15
        assert (_sample(each_x, i) - op.apply(_sample(xs, i))).max_abs() <= 1e-15
