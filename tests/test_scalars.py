"""The exact scalar: a Gaussian rational stored as (a + i*b)/d in three ints.

The arithmetic is checked against an independent reference, a pair of
``Fraction`` values per number, and every result must be in canonical form:
d > 0 and gcd(a, b, d) = 1.  The rest pins the contract the float backend
relies on: hashes and equality agree with ``int``, ``Fraction``, ``float``
and ``complex``, and ``complex(g)`` rounds exactly as ``float`` does on each
part.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bqspin.scalars import GaussianRational, gr, largest

BIG = 2 ** 80


def _ints(g):
    """The stored ints (a, b, d) of a Gaussian rational."""
    return g._a, g._b, g._d


def _assert_canonical(g):
    assert type(g) is GaussianRational
    a, b, d = _ints(g)
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0
    assert math.gcd(a, b, d) == 1


def _rational(rng):
    """A random Fraction: small, or with numerator and denominator near 2^80."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.randint(-9, 9))
    if kind == 1:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    if kind == 2:
        return Fraction(rng.randint(-BIG - 999, BIG + 999), rng.randint(BIG - 999, BIG + 999))
    # a common denominator, so sums take the equal-denominator path
    return Fraction(rng.randint(-BIG, BIG), 6)


def _pair(rng):
    return _rational(rng), _rational(rng)


def _reference(op, x, y):
    (xr, xi), (yr, yi) = x, y
    if op == "+":
        return xr + yr, xi + yi
    if op == "-":
        return xr - yr, xi - yi
    if op == "*":
        return xr * yr - xi * yi, xr * yi + xi * yr
    n = yr * yr + yi * yi
    return (xr * yr + xi * yi) / n, (xi * yr - xr * yi) / n


_OPS = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
        "*": lambda u, v: u * v, "/": lambda u, v: u / v}


def _assert_value(g, pair):
    _assert_canonical(g)
    assert (g.re, g.im) == pair


# -- arithmetic against the Fraction-pair reference -----------------------------


@pytest.mark.parametrize("op", sorted(_OPS))
def test_binary_operations_match_fraction_pairs(op):
    rng = random.Random(20 + "+-*/".index(op))
    for _ in range(1000):
        x, y = _pair(rng), _pair(rng)
        if op == "/" and y == (0, 0):
            continue
        _assert_value(_OPS[op](gr(*x), gr(*y)), _reference(op, x, y))
        # the same denominator on both sides: x op x
        if op != "/" or x != (0, 0):
            _assert_value(_OPS[op](gr(*x), gr(*x)), _reference(op, x, x))


@pytest.mark.parametrize("op", sorted(_OPS))
def test_mixed_int_and_fraction_operands(op):
    rng = random.Random(40 + "+-*/".index(op))
    for _ in range(500):
        x = _pair(rng)
        r = _rational(rng)
        for other in (r, r.numerator):
            if op == "/" and other == 0:
                continue
            _assert_value(_OPS[op](gr(*x), other), _reference(op, x, (Fraction(other), 0)))
            if x != (0, 0) or op != "/":
                _assert_value(_OPS[op](other, gr(*x)), _reference(op, (Fraction(other), 0), x))


def test_negation_and_conjugate_match_fraction_pairs():
    rng = random.Random(60)
    for _ in range(2000):
        xr, xi = _pair(rng)
        _assert_value(-gr(xr, xi), (-xr, -xi))
        _assert_value(gr(xr, xi).conjugate(), (xr, -xi))


def test_constructor_stores_the_canonical_ints():
    assert _ints(gr(Fraction(1, 2), Fraction(1, 3))) == (3, 2, 6)
    assert _ints(gr(Fraction(-4, 6), 2)) == (-2, 6, 3)
    assert _ints(gr(True)) == (1, 0, 1)
    _assert_canonical(gr(True))
    rng = random.Random(70)
    for _ in range(2000):
        xr, xi = _pair(rng)
        _assert_value(gr(xr, xi), (xr, xi))


def test_equal_values_have_equal_ints():
    rng = random.Random(80)
    for _ in range(500):
        x, y = gr(*_pair(rng)), gr(*_pair(rng))
        if not y:
            continue
        back = x * y / y
        assert back == x and _ints(back) == _ints(x)
        assert (x == y) == ((x.re, x.im) == (y.re, y.im))


def test_zero_is_zero_over_one():
    x = gr(Fraction(7, BIG + 1), Fraction(-3, 5))
    for zero in (gr(), gr(0, 0), gr(Fraction(0, 5), Fraction(0)), x - x, x * 0,
                 x * gr(), gr() / x, -gr(), gr().conjugate(), x + (-x)):
        assert _ints(zero) == (0, 0, 1)
        assert not zero


def test_division_by_zero_raises():
    x = gr(3, Fraction(1, 2))
    for zero in (gr(), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        1 / gr()
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / gr()


def test_gaussian_rationals_are_immutable():
    x = gr(1, 2)
    for name in ("re", "im", "real", "imag", "anything"):
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
    assert _ints(x) == (1, 2, 1)


# -- the contract with the float backend --------------------------------------


_DYADIC = (0, 1, -1, 7, -2, Fraction(3, 8), Fraction(-5, 1024), Fraction(1, 2 ** 60),
           2 ** 60, -3 * 2 ** 70, Fraction(2 ** 52 + 1, 2 ** 40))


def test_hash_is_the_hash_of_the_equal_complex():
    for x in _DYADIC:
        for y in _DYADIC:
            z = complex(float(x), float(y))
            assert z == complex(x, y) and gr(x, y) == z
            assert hash(gr(x, y)) == hash(z)


@pytest.mark.parametrize("n", [0, 1, -1, -2, 5, 2 ** 61 - 1, 2 ** 61, -(2 ** 100) - 3, BIG + 7])
def test_hash_of_an_integer_value_is_the_integer_hash(n):
    assert hash(gr(n)) == hash(n)
    assert hash(gr(Fraction(n, 3))) == hash(Fraction(n, 3))


def test_equality_with_other_numbers_is_exact():
    third, half = Fraction(1, 3), Fraction(1, 2)
    assert gr(2) == 2 and 2 == gr(2) and gr(2, 1) != 2 and gr(half) != 1
    assert gr(third) == third and third == gr(third) and gr(third, 1) != third
    assert gr(half) == 0.5 and 0.5 == gr(half)
    assert gr(third) != 1 / 3
    assert gr(2 ** 80) == float(2 ** 80) and gr(2 ** 80 + 1) != float(2 ** 80)
    assert gr(half, Fraction(-1, 4)) == complex(0.5, -0.25)
    assert gr(third, 1) != complex(1 / 3, 1)
    assert gr(0) != float("nan") and gr(0) != float("inf") and gr(1) != complex(1, float("nan"))
    assert gr(1, 2) != "1+2i"


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_complex_rounds_each_part_as_float_does():
    rng = random.Random(90)
    values = [_pair(rng) for _ in range(2000)]
    values += [(Fraction(1, 2 ** 1074), Fraction(-3, 2 ** 1075)),   # subnormal results
               (Fraction(2 ** 1023 - 1, 3), Fraction(-1, 3)),
               (Fraction(BIG + 1, 3 * BIG), Fraction(1, 2 ** 1080))]
    for x in values:
        g = gr(*x)
        assert _bits(complex(g)) == _bits(complex(float(g.re), float(g.im)))
    assert complex(gr(Fraction(1, 2 ** 1074))).real == 5e-324


@pytest.mark.parametrize("x", [(2 ** 1024, 0), (Fraction(1, 3), Fraction(-(2 ** 1100), 7))])
def test_complex_of_a_value_beyond_the_float_range_overflows(x):
    g = gr(*x)
    with pytest.raises(OverflowError):
        complex(g)
    with pytest.raises(OverflowError):
        complex(float(g.re), float(g.im))


def test_float_input_is_rejected_and_float_operands_give_complex():
    for args in ((0.5,), (1, 0.5), (1j,)):
        with pytest.raises(TypeError):
            GaussianRational(*args)
    x = gr(Fraction(1, 2), 1)
    assert type(x * 0.5) is complex and x * 0.5 == complex(0.25, 0.5)
    assert type(1j + x) is complex and 1j + x == complex(0.5, 2)
    assert type(x / 2.0) is complex and type(2.0 / x) is complex
    assert x * np.float64(2.0) == complex(1, 2) and (x - np.array([0.5]))[0] == 1j
    with pytest.raises(TypeError):
        x * "2"


def test_repr_text():
    assert repr(gr(3)) == "3"
    assert repr(gr(Fraction(-1, 2))) == "-1/2"
    assert repr(gr(0, 1)) == "(0+1i)"
    assert repr(gr(Fraction(1, 3), Fraction(-2, 5))) == "(1/3-2/5i)"


def test_largest_is_nan_when_any_entry_is_nan():
    nan = float("nan")
    assert math.isnan(largest([0.0, nan, 1.0]))
    assert math.isnan(largest([1.0, np.array([0.0, nan])]))
    assert largest([1.0, np.array([0.5, 2.0]), 1.5]) == 2.0


def test_an_object_array_keeps_gaussian_rationals_exact():
    # numpy applies the operator entry by entry, as the stacked exact basis
    # of linops needs; a float array still meets the rational as a complex
    x = gr(Fraction(1, 2), 1)
    entries = np.array([gr(1), gr(0, 1), gr(Fraction(1, 3))], dtype=object)
    for out in (x * entries, x + entries, x - entries, entries * x):
        assert all(type(v) is GaussianRational for v in out)
    assert (x * entries)[1] == gr(-1, Fraction(1, 2))
    assert (x * np.array([2.0])).dtype == complex
