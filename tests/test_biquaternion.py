import random
from fractions import Fraction

import pytest

from bqspin.biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    basis_elements,
    classify,
    make_frame,
    minkowski_product,
    peirce_compose,
    peirce_decompose,
    random_rational_biquaternion,
    random_rational_frame,
    random_real_quaternion,
    unitary_product,
)
from bqspin.errors import InvalidFrame, SingularOperand
from bqspin.exactlinalg import solve
from bqspin.scalars import gr


ONE, E1, E2, E3, I, IE1, IE2, IE3 = basis_elements(exact=True)


def test_hamilton_table():
    # e_n * e_m for the frozen p = -1, q = +1 convention
    assert E1 * E2 == E3
    assert E2 * E3 == E1
    assert E3 * E1 == E2
    assert E2 * E1 == -E3
    for e in (E1, E2, E3):
        assert e * e == -ONE
    assert I * I == -ONE
    assert (ONE * E2) == E2


def test_identity_element():
    rng = random.Random(1)
    for _ in range(20):
        q = random_rational_biquaternion(rng)
        assert ONE * q == q
        assert q * ONE == q


def test_associativity_exact():
    rng = random.Random(2)
    for _ in range(300):
        a = random_rational_biquaternion(rng)
        b = random_rational_biquaternion(rng)
        c = random_rational_biquaternion(rng)
        assert (a * b) * c == a * (b * c)


def test_conjugation_antiautomorphisms():
    rng = random.Random(3)
    for _ in range(200):
        a = random_rational_biquaternion(rng)
        b = random_rational_biquaternion(rng)
        assert (a * b).bar() == b.bar() * a.bar()
        assert (a * b).plus() == b.plus() * a.plus()
        assert (a * b).star() == a.star() * b.star()


def test_conjugation_component_actions():
    q = Biquaternion(gr(1, 2), gr(3, -1), gr(0, 5), gr(-2, 0))
    assert q.bar() == Biquaternion(gr(1, 2), gr(-3, 1), gr(0, -5), gr(2, 0))
    assert q.star() == Biquaternion(gr(1, -2), gr(3, 1), gr(0, -5), gr(-2, 0))
    assert q.plus() == q.bar().star()
    # bireal units are fixed by plus
    for u in (IE1, IE2, IE3, ONE):
        assert u.plus() == u
    # reversal fixes complex scalars and real vectors
    assert (I * 3).reverse() == I * 3
    assert E2.reverse() == E2
    assert IE2.reverse() == -IE2


def test_reverse_involution_and_bireal_product_law():
    rng = random.Random(4)
    for _ in range(50):
        q = random_rational_biquaternion(rng)
        assert q.reverse().reverse() == q
        assert q.reverse().bar() == q.bar().reverse()
    # on six-vectors (pure complex vectors) reversal conjugates components
    w = Biquaternion(gr(0), gr(1, 2), gr(-3, 1), gr(0, 7))
    assert w.reverse() == w.star()
    # on products of four-vectors (bireal elements) reversal swaps the order
    # up to quaternion conjugation: (AB)~ = (BA).bar()
    for _ in range(50):
        a = random_rational_biquaternion(rng)
        b = random_rational_biquaternion(rng)
        A = a + a.plus()
        B = b + b.plus()
        assert (A * B).reverse() == (B * A).bar()


def test_norm_multiplicativity():
    rng = random.Random(5)
    for _ in range(100):
        a = random_rational_biquaternion(rng)
        b = random_rational_biquaternion(rng)
        assert (a * b).norm() == a.norm() * b.norm()


def test_norm_product_has_zero_vector_part():
    rng = random.Random(55)
    for _ in range(100):
        q = random_rational_biquaternion(rng)
        prod = q * q.bar()
        assert prod.vector_part().is_zero()
        assert prod.scalar_part() == q.norm()


def test_associativity_float_mode():
    rng = random.Random(56)
    for _ in range(200):
        a, b, c = (Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                  for _ in range(4))) for _ in range(3))
        assert ((a * b) * c - a * (b * c)).max_abs() <= 1e-13


def test_classify_and_singularity():
    f = DEFAULT_FRAME
    assert classify(f.sigma)["singular"]
    assert classify(f.sigma)["norm"] == gr(0)
    reg = ONE + E1
    out = classify(reg)
    assert not out["singular"]
    assert out["norm"] == gr(2)
    rng = random.Random(6)
    for _ in range(50):
        l = random_real_quaternion(rng)
        r = random_real_quaternion(rng)
        assert (l * f.sigma).is_singular()
        assert (r * f.sigma_bar).is_singular()
        assert (random_rational_biquaternion(rng) * f.sigma).is_singular()


def test_inverse():
    assert ONE.inverse() == ONE
    assert E1.inverse() == -E1
    rng = random.Random(7)
    for _ in range(50):
        q = random_rational_biquaternion(rng)
        if q.is_singular():
            continue
        assert q * q.inverse() == ONE
        assert q.inverse() * q == ONE
    with pytest.raises(SingularOperand):
        DEFAULT_FRAME.sigma.inverse()


def test_frame_construction_and_validation():
    f = DEFAULT_FRAME
    half = Fraction(1, 2)
    assert f.sigma == Biquaternion(gr(half), gr(0), gr(0), gr(0, half))
    assert f.nu * f.nu == -ONE
    assert f.tau * f.tau == -ONE
    assert minkowski_product(f.nu, f.tau) == gr(0)
    with pytest.raises(InvalidFrame):
        make_frame((0, 0, 1), (0, 0, 1))
    with pytest.raises(InvalidFrame):
        make_frame((0, 0, 2), (1, 0, 0))


def test_frame_idempotents():
    rng = random.Random(8)
    frames = [DEFAULT_FRAME] + [random_rational_frame(rng) for _ in range(5)]
    for f in frames:
        assert f.sigma * f.sigma == f.sigma
        assert f.sigma * f.sigma_bar == Biquaternion.zero()
        sbt = f.sigma_bar * f.tau
        assert sbt * sbt == Biquaternion.zero()
        assert f.tau_sigma * f.tau_sigma == Biquaternion.zero()
        # sigma + sigma_bar = 1
        assert f.sigma + f.sigma_bar == ONE


def test_peirce_basis_multiplication_table():
    # frozen fixture: products of (sigma, tau*sigma, sigma_bar, tau*sigma_bar)
    f = DEFAULT_FRAME
    s, ts, sb, tsb = f.basis()
    zero = Biquaternion.zero()
    table = {
        (0, 0): s, (0, 1): zero, (0, 2): zero, (0, 3): tsb,
        (1, 0): ts, (1, 1): zero, (1, 2): zero, (1, 3): -sb,
        (2, 0): zero, (2, 1): ts, (2, 2): sb, (2, 3): zero,
        (3, 0): zero, (3, 1): -s, (3, 2): tsb, (3, 3): zero,
    }
    basis = f.basis()
    for (i, j), expected in table.items():
        assert basis[i] * basis[j] == expected, (i, j)


def test_peirce_roundtrip_exact():
    rng = random.Random(9)
    frames = [DEFAULT_FRAME, random_rational_frame(rng)]
    for f in frames:
        for _ in range(30):
            q = random_rational_biquaternion(rng)
            coords = peirce_decompose(q, f)
            assert peirce_compose(coords, f) == q


def test_peirce_known_values():
    f = DEFAULT_FRAME
    assert peirce_decompose(f.sigma, f) == (gr(1), gr(0), gr(0), gr(0))
    assert peirce_decompose(ONE, f) == (gr(1), gr(0), gr(1), gr(0))


def test_peirce_complex_linearity():
    rng = random.Random(91)
    f = random_rational_frame(rng)
    a = random_rational_biquaternion(rng)
    b = random_rational_biquaternion(rng)
    c = gr(Fraction(2, 3), Fraction(-1, 2))
    lhs = peirce_decompose(a * c + b, f)
    ca = peirce_decompose(a, f)
    cb = peirce_decompose(b, f)
    assert lhs == tuple(xa * c + xb for xa, xb in zip(ca, cb))


def test_peirce_linear_solve_oracle():
    # independent check: solve the 8x8 real system for the coordinates
    rng = random.Random(10)
    f = random_rational_frame(rng)
    q = random_rational_biquaternion(rng)
    cols = []
    for b in f.basis():
        cols.append(b.real_coords())
        cols.append((b * gr(0, 1)).real_coords())
    matrix = [[cols[j][i] for j in range(8)] for i in range(8)]
    sol = solve(matrix, q.real_coords())
    assert sol is not None
    oracle = [gr(sol[0], sol[1]), gr(sol[2], sol[3]), gr(sol[4], sol[5]), gr(sol[6], sol[7])]
    assert tuple(oracle) == peirce_decompose(q, f)


def test_scalar_products():
    f = DEFAULT_FRAME
    assert minkowski_product(ONE, ONE) == gr(1)
    assert unitary_product(IE3, IE3) == gr(1)
    assert minkowski_product(f.sigma, f.sigma) == gr(0)
    s2 = f.sigma * 2
    assert unitary_product(s2, s2) * gr(Fraction(1, 2)) == gr(1)
    # <sqrt(2) sigma, sqrt(2) sigma>_+ = 1 checked rationally as 2<sigma+ sigma>
    assert unitary_product(f.sigma, f.sigma) == gr(Fraction(1, 2))
