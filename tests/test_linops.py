import math
import random

import numpy as np

from bqspin.biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    basis_elements,
    random_rational_biquaternion,
)
from bqspin.linops import (
    RealLinearOp,
    anticommutes_with_i,
    commutes_with_i,
    conj_op,
    left_mul,
    monomial,
    mul_i_op,
    op_equal,
    op_exp,
    right_mul,
)
from bqspin.scalars import gr


ONE = Biquaternion.one()


def test_monomial_identity():
    ident = monomial(ONE, ONE, "id")
    assert op_equal(ident, RealLinearOp.identity(), tol=0.0)


def test_monomial_matches_direct_product():
    rng = random.Random(11)
    f = DEFAULT_FRAME
    op = monomial(f.sigma, f.sigma_bar, "id")
    assert op.apply(f.tau) == f.sigma * f.tau * f.sigma_bar
    for _ in range(30):
        a = random_rational_biquaternion(rng)
        b = random_rational_biquaternion(rng)
        x = random_rational_biquaternion(rng)
        for flavor, conjf in (("id", lambda q: q), ("bar", lambda q: q.bar()),
                              ("star", lambda q: q.star()), ("plus", lambda q: q.plus())):
            assert monomial(a, b, flavor).apply(x) == a * conjf(x) * b


def test_faithful_on_basis():
    rng = random.Random(12)
    a = random_rational_biquaternion(rng)
    b = random_rational_biquaternion(rng)
    op = monomial(a, b, "id")
    for e in basis_elements(exact=True):
        assert op.apply(e) == a * e * b


def test_antilinearity_detection():
    assert anticommutes_with_i(conj_op("star"))
    assert anticommutes_with_i(conj_op("plus"))
    assert commutes_with_i(conj_op("bar"))
    assert commutes_with_i(conj_op("id"))
    rng = random.Random(13)
    a = random_rational_biquaternion(rng)
    b = random_rational_biquaternion(rng)
    assert commutes_with_i(monomial(a, b, "id"))
    assert anticommutes_with_i(monomial(a, b, "star"))


def test_composition_and_fusion():
    rng = random.Random(14)
    a = random_rational_biquaternion(rng)
    c = random_rational_biquaternion(rng)
    fused = monomial(a, c, "id")
    composed = left_mul(a) @ right_mul(c)
    assert op_equal(fused, composed, tol=0.0)
    ident = RealLinearOp.identity()
    assert op_equal(fused @ ident, fused, tol=0.0)
    star = conj_op("star")
    assert op_equal(star @ star, ident, tol=0.0)


def test_compose_is_pointwise_composition():
    rng = random.Random(15)
    f = monomial(random_rational_biquaternion(rng), random_rational_biquaternion(rng), "id")
    g = monomial(random_rational_biquaternion(rng), random_rational_biquaternion(rng), "plus")
    for _ in range(10):
        x = random_rational_biquaternion(rng)
        assert (f @ g).apply(x) == f.apply(g.apply(x))


def test_op_equal_tolerance():
    j3_fixture = monomial(DEFAULT_FRAME.nu * gr(0, 1), DEFAULT_FRAME.sigma, "id")
    again = monomial(DEFAULT_FRAME.nu * gr(0, 1), DEFAULT_FRAME.sigma, "id")
    assert op_equal(j3_fixture, again, tol=0.0)
    other = monomial(DEFAULT_FRAME.tau, DEFAULT_FRAME.sigma, "id")
    assert not op_equal(j3_fixture, other, tol=1e-9)


def test_op_exp_zero_and_inverse():
    zero = RealLinearOp.zero()
    assert op_equal(op_exp(zero), RealLinearOp.identity(), tol=1e-15)
    rng = random.Random(16)
    for _ in range(10):
        m = RealLinearOp((np.array([[rng.uniform(-1.5, 1.5) for _ in range(8)]
                                    for _ in range(8)])).tolist())
        prod = op_exp(m) @ op_exp(m.scale(-1.0))
        assert op_equal(prod, RealLinearOp.identity(), tol=1e-12)


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
        assert op_equal(op_exp(gen), closed, tol=1e-12)


def test_mul_i_op_square():
    J = mul_i_op()
    assert op_equal(J @ J, RealLinearOp.identity().scale(-1), tol=0.0)
