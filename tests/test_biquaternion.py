import math
import random
from fractions import Fraction

import numpy as np
import pytest
from test_oracle import _load_oracle

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
from bqspin.errors import InvalidFrame, MixedBackend, SingularOperand
from bqspin.exactlinalg import solve
from bqspin.scalars import GaussianIntArray, GaussianRational, gr


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


def _componentwise(a, b):
    """The Hamilton product written out with the scalars' own operators."""
    aw, ax, ay, az = a.components()
    bw, bx, by, bz = b.components()
    return Biquaternion(aw * bw - ax * bx - ay * by - az * bz,
                        aw * bx + ax * bw + ay * bz - az * by,
                        aw * by + ay * bw + az * bx - ax * bz,
                        aw * bz + az * bw + ax * by - ay * bx)


def _wide_biquaternion(rng):
    """Exact components with numerators above 2**64 over coprime denominators."""
    def comp():
        return gr(Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.choice((1, 7, 11, 13))),
                  Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.choice((1, 7, 11, 13))))
    return Biquaternion(comp(), comp(), comp(), comp())


def test_exact_product_matches_the_componentwise_formula_and_the_oracle():
    rng = random.Random(57)
    sparse = [E1, E2, E3, IE1, IE2, IE3, DEFAULT_FRAME.nu, Biquaternion.zero()]
    wide = [_wide_biquaternion(rng) for _ in range(40)]
    small = [random_rational_biquaternion(rng) for _ in range(20)]
    pairs = list(zip(wide[::2], wide[1::2])) + list(zip(small[::2], small[1::2]))
    pairs += [(a, b) for a in sparse for b in sparse]
    pairs += [(a, b) for a in sparse for b in wide[:4]]
    pairs += [(b, a) for a in sparse for b in wide[:4]]
    assert any(c._d == 7 * 11 * 13 for c in (wide[0] * wide[1]).components())
    for a, b in pairs:
        prod = a * b
        assert all(type(c) is GaussianRational for c in prod.components())
        assert prod == _componentwise(a, b)
    checks, problems = _load_oracle().check(sparse + wide + small, pairs)
    assert checks > 0
    assert problems == []


def _monomial(j, c):
    comps = [gr(0)] * 4
    comps[j] = c
    return Biquaternion(*comps)


def _canonical(c):
    return c._d > 0 and math.gcd(c._a, c._b, c._d) == 1


def test_monomial_products_match_the_componentwise_formula_and_the_oracle():
    # c * e_j times q, and q times c * e_j, take the signed-permutation kernel
    rng = random.Random(58)
    elements, pairs = [], []
    for j in range(4):
        general = gr(Fraction(rng.randint(2, 9), rng.randint(2, 7)),
                     Fraction(rng.randint(-9, -1), rng.randint(2, 7)))
        for c in (gr(1), gr(-1), gr(0, 1), gr(0, -1), general):
            m = _monomial(j, c)
            elements.append(m)
            for q in (random_rational_biquaternion(rng), _wide_biquaternion(rng)):
                elements.append(q)
                for a, b in ((m, q), (q, m)):
                    prod = a * b
                    assert all(type(x) is GaussianRational and _canonical(x)
                               for x in prod.components())
                    assert prod == _componentwise(a, b), (j, c)
                    pairs.append((a, b))
    checks, problems = _load_oracle().check(elements, pairs)
    assert checks >= len(pairs)
    assert problems == []


def test_exact_minkowski_product_matches_the_componentwise_formula_and_the_oracle():
    # scal(a.bar() b) is half the trace of adj(M(a)) M(b) in the 2x2 model
    oracle = _load_oracle()
    rng = random.Random(60)
    sparse = [ONE, E1, E2, E3, IE1, IE2, IE3, DEFAULT_FRAME.nu, DEFAULT_FRAME.sigma,
              Biquaternion.zero(), _monomial(2, gr(Fraction(3, 7), -2))]
    wide = [_wide_biquaternion(rng) for _ in range(20)]
    small = [random_rational_biquaternion(rng) for _ in range(20)]
    pairs = list(zip(wide[::2], wide[1::2])) + list(zip(small[::2], small[1::2]))
    pairs += [(a, b) for a in sparse for b in sparse + wide[:3] + small[:3]]
    pairs += [(b, a) for a in sparse for b in wide[:3] + small[:3]]
    for a, b in pairs:
        got = minkowski_product(a, b)
        assert type(got) is GaussianRational and _canonical(got)
        assert got == a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z
        m = oracle._matmul(oracle._adjugate(oracle.to_matrix(a)), oracle.to_matrix(b))
        half_trace = oracle._add(m[0][0], m[1][1])
        assert oracle._c(got) == (half_trace[0] / 2, half_trace[1] / 2)


def test_unit_products_pass_components_through():
    rng = random.Random(59)
    q = random_rational_biquaternion(rng)
    for prod in (ONE * q, q * ONE):
        assert all(x is y for x, y in zip(prod.components(), q.components()))
    # e1 * (w, x, y, z) = (-x, w, -z, y): w and y are q's own values
    prod = E1 * q
    assert prod.x is q.w and prod.z is q.y
    assert prod == Biquaternion(-q.x, q.w, -q.z, q.y)


def test_mixed_element_takes_the_componentwise_product():
    mixed = Biquaternion(gr(1), 0.5j, gr(0), gr(Fraction(1, 3)))
    q = Biquaternion(gr(2, 1), gr(Fraction(1, 7)), gr(0, -1), gr(3))
    for a, b in ((mixed, q), (q, mixed), (mixed, mixed)):
        assert a * b == _componentwise(a, b)
    with pytest.raises(MixedBackend):
        mixed.is_exact()
    # every output component has a term with the complex x, as exact with float gives float
    assert not (mixed * q).is_exact()


@pytest.mark.parametrize("slot", range(4))
def test_is_zero_reads_every_component(slot):
    zero_batch = GaussianIntArray(np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64))
    one_sample = GaussianIntArray([0, 0, 0, -2, 0], np.zeros(5, dtype=np.int64))
    batch = [zero_batch] * 4
    assert Biquaternion(*batch).is_zero()
    batch[slot] = one_sample
    assert not Biquaternion(*batch).is_zero()
    for zero, nonzero in ((gr(0), gr(0, Fraction(1, 9))), (0j, 1e-300j)):
        parts = [zero] * 4
        assert Biquaternion(*parts).is_zero()
        parts[slot] = nonzero
        assert not Biquaternion(*parts).is_zero()


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


_FRAME_MEMBERS = ("nu", "tau", "sigma", "sigma_bar", "tau_sigma", "tau_sigma_bar")


def test_frame_float_copy_is_made_once():
    pairs = [(DEFAULT_FRAME, make_frame((0, 0, 1), (1, 0, 0))),
             (random_rational_frame(random.Random(9)), random_rational_frame(random.Random(9))),
             (make_frame((0.6, 0.8, 0.0), (0.0, 0.0, 1.0)),
              make_frame((0.6, 0.8, 0.0), (0.0, 0.0, 1.0)))]
    for f, twin in pairs:
        # twin is equal to f and never converted, so it holds no float copy
        twin_hash, twin_repr = hash(twin), repr(twin)
        ff = f.to_float()
        assert f.to_float() is ff
        assert ff.to_float() is ff
        for name in _FRAME_MEMBERS:
            member = getattr(ff, name)
            assert not member.is_exact()
            assert member == getattr(f, name).to_float()
        # equality, hash and repr ignore the kept copy
        assert f == twin
        assert hash(f) == twin_hash
        assert repr(f) == twin_repr
        assert "_float" not in repr(ff)


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
    # independent check: solve the 8x8 real system for the coordinates, on
    # the default frame and on random exact frames
    rng = random.Random(10)
    for f in [DEFAULT_FRAME] + [random_rational_frame(rng) for _ in range(4)]:
        cols = []
        for b in f.basis():
            cols.append(b.real_coords())
            cols.append((b * gr(0, 1)).real_coords())
        matrix = [[cols[j][i] for j in range(8)] for i in range(8)]
        for _ in range(5):
            q = random_rational_biquaternion(rng)
            sol = solve(matrix, q.real_coords())
            assert sol is not None
            oracle = [gr(sol[0], sol[1]), gr(sol[2], sol[3]), gr(sol[4], sol[5]),
                      gr(sol[6], sol[7])]
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


def test_max_abs_is_nan_when_any_component_is_nan():
    # builtin max keeps a NaN only when it comes first
    nan = float("nan")
    assert math.isnan(Biquaternion(0, nan, 0, 0).max_abs())
    assert math.isnan(Biquaternion(nan, 0, 0, 0).max_abs())
    samples = Biquaternion(*(np.array([0j, 1j, 0j]) for _ in range(3)), np.array([2j, nan, 0j]))
    assert math.isnan(samples.max_abs())
    assert Biquaternion(*(np.array([0j, 1j, 3j]) for _ in range(4))).max_abs() == 3.0


def test_scalar_and_vector_take_float_arrays():
    # an array becomes a complex-array component, one sample per entry; a
    # number still becomes a Python complex
    s = Biquaternion.scalar(np.array([1.0, -2.5]))
    assert s.w.dtype == complex and np.array_equal(s.w, [1.0, -2.5])
    assert all(type(c) is complex and c == 0 for c in (s.x, s.y, s.z))
    v = Biquaternion.vector(np.array([1.0, 2.0]), 0.5, np.array([3j, -1j]))
    assert type(v.w) is complex and v.w == 0 and type(v.y) is complex and v.y == 0.5
    assert np.array_equal(v.x, [1.0, 2.0]) and np.array_equal(v.z, [3j, -1j])
    assert v.x.dtype == v.z.dtype == complex
    # sample by sample, the same elements as the scalar constructors give
    for k in range(2):
        sample = Biquaternion(*(c[k] if isinstance(c, np.ndarray) else c
                                for c in v.components()))
        assert sample == Biquaternion.vector(complex(v.x[k]), 0.5, complex(v.z[k]))
    assert all(type(c) is complex for c in Biquaternion.scalar(2.0).components())
    assert all(type(c) is complex for c in Biquaternion.vector(1.0, 0, 2).components())
