"""Exactly differentiable biquaternion-valued fields on spacetime.

A Field is a finite sum of modes.  Each mode is either purely polynomial
(wave vector zero) or a pair P(x)*cos(phi) + Q(x)*sin(phi) with polynomial
coefficients and phase phi = k0*t - k.x for a fixed real wave 4-vector k.
The class is closed under addition, products (including products of two
trigonometric modes via angle sum/difference), all four conjugations, and
partial derivatives, so every identity in the wave-equation suites can be
checked exactly.  Fields are exact by type: every coefficient is a Gaussian
rational biquaternion and every wave vector rational, and float data raises
``MixedBackend`` where it would enter (``Poly``, ``Field.trig``, ``lmul``,
``rmul``, ``scale`` and ``map_coeffs``).

The quaternion four-gradient is frozen to

    nabla = -i d/dt + e1 d/dx1 + e2 d/dx2 + e3 d/dx3

with four-vectors packaged as v0 - i*vvec; see select_nabla_convention for
the procedure that singles this form out.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .biquaternion import (
    DEFAULT_FRAME,
    Biquaternion,
    Frame,
    _DRAW_SCALE,
    _element,
    basis_elements,
    random_rational_rows,
)
from .errors import (
    DegenerateMass,
    MixedBackend,
    NoConsistentConvention,
    NotAPlaneWave,
    OffShell,
)
from .exactlinalg import nullspace
from .scalars import (
    GR_I,
    GR_ZERO,
    GaussianRational,
    _hamilton_int,
    _integral,
    _pairing_int,
    _row_map,
    _unit_map,
    _unit_pairs,
    gr,
)


_E_UNITS = tuple(basis_elements()[1:4])
_HALF = gr(Fraction(1, 2))


# -- coefficient rows ---------------------------------------------------------------
#
# A Poly stores each coefficient as a row of eight ints
# (A_w, B_w, A_x, B_x, A_y, B_y, A_z, B_z), the components (A + iB)/den over
# one denominator den > 0 shared by the whole Poly: the format of
# ``scalars._hamilton_int``.  The form is canonical: no row is zero, the gcd
# of den and every entry is 1, and the empty Poly has den 1.


def _add_rows(p, q):
    a0, a1, a2, a3, a4, a5, a6, a7 = p
    b0, b1, b2, b3, b4, b5, b6, b7 = q
    return (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6, a7 + b7)


def _sub_rows(p, q):
    a0, a1, a2, a3, a4, a5, a6, a7 = p
    b0, b1, b2, b3, b4, b5, b6, b7 = q
    return (a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4, a5 - b5, a6 - b6, a7 - b7)


def _neg_row(p):
    a0, a1, a2, a3, a4, a5, a6, a7 = p
    return (-a0, -a1, -a2, -a3, -a4, -a5, -a6, -a7)


def _scaled_row(c, p):
    a0, a1, a2, a3, a4, a5, a6, a7 = p
    return (c * a0, c * a1, c * a2, c * a3, c * a4, c * a5, c * a6, c * a7)


def _divided_row(p, g):
    """p with every entry divided by g, which divides them all."""
    a0, a1, a2, a3, a4, a5, a6, a7 = p
    return (a0 // g, a1 // g, a2 // g, a3 // g, a4 // g, a5 // g, a6 // g, a7 // g)


def _sign_pattern(*signs):
    return _row_map(list(enumerate(signs)))


# the four involutions on rows: bar negates the vector part, star conjugates
# every component, plus is both, reverse conjugates the vector part
_BAR_ROW = _sign_pattern(1, 1, -1, -1, -1, -1, -1, -1)
_STAR_ROW = _sign_pattern(1, -1, 1, -1, 1, -1, 1, -1)
_PLUS_ROW = _sign_pattern(1, -1, -1, 1, -1, 1, -1, 1)
_REVERSE_ROW = _sign_pattern(1, 1, 1, -1, 1, -1, 1, -1)


def _canonical(rows, den):
    """The Poly of rows (none zero) over den > 0, in lowest terms.

    The gcd of den and the entries is taken once, row by row, and stops at
    the first row that brings it to 1.
    """
    g = den
    if g != 1:
        for row in rows.values():
            g = math.gcd(g, *row)
            if g == 1:
                break
        if g != 1:
            den //= g
            rows = {e: _divided_row(row, g) for e, row in rows.items()}
    return Poly._exact(rows, den)


class _Terms(Mapping):
    """Read-only view of a Poly's coefficients: each Biquaternion is
    built from its row when it is read, and the length costs O(1)."""

    __slots__ = ("_rows", "_den")

    def __init__(self, rows, den):
        self._rows = rows
        self._den = den

    def __getitem__(self, e):
        return _element(self._rows[e], self._den)

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def __contains__(self, e):
        return e in self._rows


class Poly:
    """Polynomial in (t, x1, x2, x3) with exact biquaternion coefficients.

    A Poly is a dict of exponent tuples to integer rows over one shared
    denominator (see the row format above), so each operation is integer
    arithmetic with one reduction per result, and a component that is zero
    costs an int 0.  ``terms`` reads it as a mapping of exponents to
    ``Biquaternion``s.  No stored coefficient is zero.

    The constructor raises ``MixedBackend`` on any float coefficient, zero
    or not, and ``lmul``, ``rmul`` and ``scale`` on a float constant, so
    no float reaches the rows.  Those three read their constant once per
    call (see ``_multiplier``).
    """

    __slots__ = ("_rows", "_den")

    def __init__(self, terms=None):
        if not terms:
            self._rows, self._den = {}, 1
            return
        parts = {}
        for e, c in terms.items():
            row = _exact_row(c)
            if any(row[0]):
                parts[tuple(e)] = row
        den = math.lcm(*(d for _, d in parts.values()))
        p = _canonical({e: row if d == den else _scaled_row(den // d, row)
                        for e, (row, d) in parts.items()}, den)
        self._rows, self._den = p._rows, p._den

    @staticmethod
    def _exact(rows, den):
        """The exact Poly of canonical rows over den."""
        p = object.__new__(Poly)
        p._rows = rows
        p._den = den
        return p

    @staticmethod
    def constant(q: Biquaternion):
        return Poly({(0, 0, 0, 0): q})

    @property
    def terms(self):
        """The coefficients, a read-only mapping of exponent tuples to Biquaternions."""
        return _Terms(self._rows, self._den)

    def is_zero(self):
        return not self._rows

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def _combine(self, other, subtract):
        """self + other, or self - other term by term when subtract is True.

        Rows are added at a common denominator (an lcm only when the two
        differ), and the result is reduced only when two rows met.
        """
        d1, d2 = self._den, other._den
        r1, r2 = self._rows, other._rows
        if not r2:
            return self
        if not r1:
            return -other if subtract else other
        den = d1
        if d1 != d2:
            den = math.lcm(d1, d2)
            s1, s2 = den // d1, den // d2
            if s1 != 1:
                r1 = {e: _scaled_row(s1, row) for e, row in r1.items()}
            if s2 != 1:
                r2 = {e: _scaled_row(s2, row) for e, row in r2.items()}
        out = dict(r1)
        met = False
        for e, row in r2.items():
            s = out.get(e)
            if s is None:
                out[e] = _neg_row(row) if subtract else row
                continue
            met = True
            v = _sub_rows(s, row) if subtract else _add_rows(s, row)
            if any(v):
                out[e] = v
            else:
                del out[e]
        # rows that did not meet keep gcd 1 with den: at an lcm, the two
        # scale factors are coprime
        return _canonical(out, den) if met else Poly._exact(out, den)

    def __neg__(self):
        return Poly._exact({e: _neg_row(r) for e, r in self._rows.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self._product(other, False)
        if isinstance(other, Biquaternion):
            return self.rmul(other)
        return self.scale(other)

    def _product(self, other, pairing):
        """self * other term by term.  With pairing, the coefficient product
        is the Minkowski pairing in place of the Hamilton product: each sum
        is a scalar, the scalar part of a coefficient.

        The rows take the integer Hamilton product (or pairing) of
        ``scalars``, are summed per exponent as ints over d1 * d2, and the
        result is reduced once.
        """
        kernel = _pairing_int if pairing else _hamilton_int
        out = {}
        for (t, x, y, z), a in self._rows.items():
            for e2, c in other._rows.items():
                e = (t + e2[0], x + e2[1], y + e2[2], z + e2[3])
                v = kernel(a, c)
                s = out.get(e)
                if s is None:
                    out[e] = v
                elif pairing:
                    out[e] = (s[0] + v[0], s[1] + v[1])
                else:
                    out[e] = _add_rows(s, v)
        if pairing:
            rows = {e: (re, im, 0, 0, 0, 0, 0, 0) for e, (re, im) in out.items() if re or im}
        else:
            rows = {e: v for e, v in out.items() if any(v)}
        return _canonical(rows, self._den * other._den)

    def scale(self, c):
        """Multiply by a commuting scalar; an exact 1 returns the Poly itself."""
        return self if _is_exact_one(c) else self._times(c, False)

    def lmul(self, q: Biquaternion):
        return self._times(q, True)

    def rmul(self, q: Biquaternion):
        return self._times(q, False)

    def _times(self, q, left):
        return _multiplier(q, left)(self)

    def map_coeffs(self, fn):
        """The Poly of fn(c) for every coefficient c, built by the constructor
        (so a float value raises ``MixedBackend``)."""
        return Poly({e: fn(c) for e, c in self.terms.items()})

    def _involution(self, row_map):
        """The involution with sign pattern row_map; it makes no zero and
        changes no gcd."""
        return Poly._exact({e: row_map(r) for e, r in self._rows.items()}, self._den)

    def _scalar_part(self):
        return _canonical({e: (r[0], r[1], 0, 0, 0, 0, 0, 0)
                           for e, r in self._rows.items() if r[0] or r[1]}, self._den)

    def _vector_part(self):
        return _canonical({e: (0, 0) + r[2:] for e, r in self._rows.items() if any(r[2:])},
                          self._den)

    def derivative(self, var: int):
        out = {}
        for e, c in self._rows.items():
            n = e[var]
            if n == 0:
                continue
            ne = list(e)
            ne[var] = n - 1
            if n == 1:
                out[tuple(ne)] = c
            else:
                out[tuple(ne)] = _scaled_row(n, c)
        return _canonical(out, self._den)

    def eval_float(self, point):
        total = Biquaternion.scalar(0.0)
        for e, c in self.terms.items():
            val = 1.0
            for basis, p in zip(point, e):
                val *= float(basis) ** p
            total = total + c.to_float() * val
        return total

    def max_abs(self):
        return max((c.max_abs() for c in self.terms.values()), default=0.0)

    def __repr__(self):
        return f"Poly({len(self._rows)} terms)"


def _poly_pairing(p, q):
    """The Poly product of p and q with the Minkowski pairing as coefficient product."""
    return p._product(q, True)


def _is_exact_one(c):
    """True for an exact scalar equal to 1, by which a product changes nothing."""
    return isinstance(c, (int, Fraction, GaussianRational)) and c == 1


def _exact_row(q):
    """An exact constant (Biquaternion or scalar) as (row, denominator).

    Raises MixedBackend on float data: a float or complex scalar, or a
    Biquaternion with a component that is not exact.
    """
    if isinstance(q, Biquaternion):
        w, x, y, z = q.components()
        if type(w) is type(x) is type(y) is type(z) is GaussianRational:
            return _integral((w, x, y, z))
        if q.is_exact():
            return _integral([c if type(c) is GaussianRational else gr(c) for c in (w, x, y, z)])
    elif isinstance(q, (int, Fraction)):
        return (q.numerator, 0, 0, 0, 0, 0, 0, 0), q.denominator
    elif isinstance(q, GaussianRational):
        return _integral((q, GR_ZERO, GR_ZERO, GR_ZERO))
    raise MixedBackend(f"a field is exact; got the float value {q!r}")


def _multiplier(q, left):
    """The map p -> q*p (left) or p*q on Polys, for an exact Biquaternion or
    commuting scalar q read once per call; a float q raises MixedBackend.

    - q = 0 gives the zero Poly;
    - q = c*e_j with c = 1, -1, i or -i is a signed permutation of each row,
      with the same denominator and no reduction;
    - a real scalar a/d multiplies the entries by a;
    - any other q is the integer Hamilton product of each row with q's.
    The last two multiply the denominators and reduce once.
    """
    qr, dq = _exact_row(q)
    if not any(qr):
        return lambda p: Poly()
    unit = _unit_of(qr, dq)
    if unit is not None:
        unit = _unit_map(unit[0], left, unit[1], unit[2])
        return lambda p: Poly._exact({e: unit(r) for e, r in p._rows.items()}, p._den)
    if not any(qr[1:]):
        # a real scalar a/dq
        a = qr[0]
        if a == 1:
            return lambda p: _canonical(p._rows, p._den * dq)
        return lambda p: _canonical({e: _scaled_row(a, r) for e, r in p._rows.items()},
                                    p._den * dq)

    def general(p):
        rows = {}
        for e, r in p._rows.items():
            v = _hamilton_int(qr, r) if left else _hamilton_int(r, qr)
            if any(v):
                rows[e] = v
        return _canonical(rows, p._den * dq)

    return general


def _unit_of(qr, dq):
    """(j, a, b) when the exact row qr over dq is c*e_j for a unit
    c = a + ib in {1, -1, i, -i}; None otherwise."""
    if dq != 1:
        return None
    nonzero = [j for j in range(4) if qr[2 * j] or qr[2 * j + 1]]
    if len(nonzero) != 1:
        return None
    j = nonzero[0]
    a, b = qr[2 * j], qr[2 * j + 1]
    return (j, a, b) if a * a + b * b == 1 else None


def _wave_vector(k):
    """k as a mode key: an integral entry becomes an int and any other a
    Fraction.  Equal numbers hash alike, so keys of either kind merge; int
    keys hash and multiply faster.

    Derivatives multiply the coefficients by k, so a float entry is float
    data in the field and raises MixedBackend.
    """
    out = []
    for c in k:
        if type(c) is not int:
            if isinstance(c, (float, complex)):
                raise MixedBackend(f"a field is exact; got the float wave vector {k!r}")
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c.denominator == 1:
                c = c.numerator
        out.append(c)
    return tuple(out)


def _canonical_mode(k, ps):
    """k with its first nonzero entry made positive, and the sin Poly ps over
    that vector: negated on a sign flip, empty for the zero vector."""
    for c in k:
        if c > 0:
            return k, ps
        if c < 0:
            return tuple(-c for c in k), -ps
    return k, Poly()


def _merge(modes, k, pc, ps, subtract=False):
    """Add (pc, ps) into modes at the canonical key k, or subtract it when
    subtract is True; a zero result leaves the dict."""
    old = modes.get(k)
    if old is not None:
        pc, ps = (old[0] - pc, old[1] - ps) if subtract else (old[0] + pc, old[1] + ps)
    elif subtract:
        pc, ps = -pc, -ps
    if pc._rows or ps._rows:
        modes[k] = (pc, ps)
    elif old is not None:
        del modes[k]


class Field:
    """Biquaternion-valued function of spacetime, closed under exact calculus.

    ``modes`` maps a wave vector k to its (cos_poly, sin_poly) pair; the zero
    vector holds the polynomial part.  By construction every key is
    sign-canonical (first nonzero entry positive), no pair is zero, and the
    zero vector's sin Poly is empty.  Only ``trig``, ``plane_wave_field`` and
    ``__mul__`` make wave vectors, through ``_canonical_mode``; the linear
    operations and the first-order operators keep their operands' keys.  A difference is taken mode by mode, with no negated
    copy of the subtrahend.  ``lmul``, ``rmul`` and ``scale`` read their
    constant once per call, not once per Poly.  The product and
    ``scalar_of_product`` share one mode loop, ``_product``.  Like its
    Polys, a Field is exact: float data raises ``MixedBackend`` where it
    enters.
    """

    __slots__ = ("modes",)

    def __init__(self):
        self.modes = {}

    @staticmethod
    def _of(modes):
        """The Field of a dict of canonical modes; drops zero pairs in place."""
        for k in [k for k, (pc, ps) in modes.items() if not (pc._rows or ps._rows)]:
            del modes[k]
        f = object.__new__(Field)
        f.modes = modes
        return f

    def _each(self, fn):
        """The field with the Poly map fn applied to both Polys of every mode."""
        return Field._of({k: (fn(pc), fn(ps)) for k, (pc, ps) in self.modes.items()})

    # -- construction ----------------------------------------------------------

    @staticmethod
    def zero():
        return Field()

    @staticmethod
    def constant(q: Biquaternion):
        return Field.polynomial(Poly.constant(q))

    @staticmethod
    def polynomial(poly: Poly):
        return Field._of({(0, 0, 0, 0): (poly, Poly())})

    @staticmethod
    def trig(k, cos_coeff: Biquaternion, sin_coeff: Biquaternion):
        k, ps = _canonical_mode(_wave_vector(k), Poly.constant(sin_coeff))
        return Field._of({k: (Poly.constant(cos_coeff), ps)})

    # -- linear structure --------------------------------------------------------

    def __add__(self, other):
        out = dict(self.modes)
        for k, (pc, ps) in other.modes.items():
            _merge(out, k, pc, ps)
        return Field._of(out)

    def __neg__(self):
        return Field._of({k: (-pc, -ps) for k, (pc, ps) in self.modes.items()})

    def __sub__(self, other):
        out = dict(self.modes)
        for k, (pc, ps) in other.modes.items():
            _merge(out, k, pc, ps, subtract=True)
        return Field._of(out)

    def scale(self, c):
        """Multiply by a commuting scalar; an exact 1 returns the field itself."""
        return self if _is_exact_one(c) else self._times(c, False)

    def lmul(self, q: Biquaternion):
        return self._times(q, True)

    def rmul(self, q: Biquaternion):
        return self._times(q, False)

    def _times(self, q, left):
        return self._each(_multiplier(q, left))

    def map_coeffs(self, fn):
        """The field of fn(c) for every coefficient c; raises MixedBackend
        when fn gives a float value."""
        return self._each(lambda p: p.map_coeffs(fn))

    # -- products ------------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            return self.rmul(other)
        if not isinstance(other, Field):
            return self.scale(other)
        return self._product(other, False)

    def scalar_of_product(self, other):
        """The scalar part of self * other, without forming its vector part.

        scal(x y) is the Minkowski pairing of x.bar() with y, so this is the
        mode loop of the product run on self.bar() and other with the
        pairing as the coefficient product.  It equals
        ``(self * other).scalar_part()`` exactly.
        """
        return self.bar()._product(other, True)

    def _product(self, other, pairing):
        """The mode loop of the product, or with pairing of the Minkowski
        pairing of coefficients (``Poly._product``).  The angle sum and
        difference of two trigonometric modes are bilinear, so either
        coefficient product runs through the same loop."""
        mul = _poly_pairing if pairing else operator.mul
        out = {}
        for ka, (ca, sa) in self.modes.items():
            for kb, (cb, sb) in other.modes.items():
                cacb = mul(ca, cb)
                if not any(ka):
                    # plain polynomial times mode b
                    _merge(out, kb, cacb, mul(ca, sb))
                    continue
                if not any(kb):
                    _merge(out, ka, cacb, mul(sa, cb))
                    continue
                sasb = mul(sa, sb)
                sacb = mul(sa, cb)
                casb = mul(ca, sb)
                # the sum of two canonical keys is canonical: at the first
                # index where either is nonzero, both entries are >= 0
                kp = tuple(a + b for a, b in zip(ka, kb))
                _merge(out, kp, (cacb - sasb) * _HALF, (sacb + casb) * _HALF)
                km, sm = _canonical_mode(tuple(a - b for a, b in zip(ka, kb)),
                                         (sacb - casb) * _HALF)
                _merge(out, km, (cacb + sasb) * _HALF, sm)
        return Field._of(out)

    def __rmul__(self, q):
        if isinstance(q, Biquaternion):
            return self.lmul(q)
        return self.scale(q)

    # -- conjugations -----------------------------------------------------------------

    def bar(self):
        return self._involution(_BAR_ROW)

    def star(self):
        return self._involution(_STAR_ROW)

    def plus(self):
        return self._involution(_PLUS_ROW)

    def reverse(self):
        return self._involution(_REVERSE_ROW)

    def _involution(self, row_map):
        # an involution keeps every mode, so no zero pair is dropped
        f = object.__new__(Field)
        f.modes = {k: (pc._involution(row_map), ps._involution(row_map))
                   for k, (pc, ps) in self.modes.items()}
        return f

    def scalar_part(self):
        return self._each(Poly._scalar_part)

    def vector_part(self):
        return self._each(Poly._vector_part)

    def re_scalar(self):
        """(f + f.star())/2 -- the real part, for scalar-valued fields."""
        return (self + self.star()).scale(_HALF)

    # -- calculus ------------------------------------------------------------------------

    def derivative(self, var: int):
        """Partial derivative with respect to t, x1, x2, or x3 (var = 0..3)."""
        out = {}
        for k, (pc, ps) in self.modes.items():
            dpc = pc.derivative(var)
            if not any(k):
                out[k] = (dpc, ps)
                continue
            dphi = k[0] if var == 0 else -k[var]
            if not dphi:
                # the phase does not depend on this variable
                out[k] = (dpc, ps.derivative(var))
                continue
            # d(P cos) = P' cos - P dphi sin ; d(Q sin) = Q' sin + Q dphi cos
            out[k] = (dpc + ps.scale(dphi), ps.derivative(var) - pc.scale(dphi))
        return Field._of(out)

    def dt(self):
        return self.derivative(0)

    def dx(self, n: int):
        return self.derivative(n)

    # -- comparisons -----------------------------------------------------------------------

    def is_zero(self):
        return not self.modes

    def max_abs(self):
        return max((max(pc.max_abs(), ps.max_abs())
                    for pc, ps in self.modes.values()), default=0.0)

    def equal(self, other):
        return (self - other).is_zero()

    def eval_float(self, point):
        total = Biquaternion.scalar(0.0)
        t, x1, x2, x3 = (float(c) for c in point)
        for k, (pc, ps) in self.modes.items():
            phase = float(k[0]) * t - float(k[1]) * x1 - float(k[2]) * x2 - float(k[3]) * x3
            total = (total + pc.eval_float(point) * math.cos(phase)
                     + ps.eval_float(point) * math.sin(phase))
        return total

    def __repr__(self):
        return f"Field({len(self.modes)} modes)"


# -- first-order operators as row kernels ------------------------------------------------
#
# Every operator of the wave equations is a sum of terms K(d f/dx_v), and of
# order-0 terms K(f), where each K is x -> left * x * right for constants
# fixed by the operator: a gradient unit, a bireal unit, nu or i nu.  A
# kernel K is a map of coefficient rows built once per operator (``_kernel``)
# and applied by ``_first_order`` in one pass over the rows of the input.
# Minimal coupling is order-0 too: x -> c phi x, for a polynomial phi, adds
# the product of each term of phi with each row of x at the sum of their
# exponents (``_multiplier_entries``), and so does a mass term x -> c x or
# x -> c x* at no shift.
#
# A kernel entry is (v, K, s): v is a variable 0..3 for a derivative term,
# or an exponent shift for an order-0 term, and the int s scales K onto the
# denominator that all the entries of one operator share (``_joined``).

_IDENTITY_PAIRS = tuple((n, 1) for n in range(8))
_NO_SHIFT = (0, 0, 0, 0)


def _same_row(r):
    return r


def _kernel(left=None, right=None):
    """The row map of x -> left * x * right for exact constants (None is 1),
    as (map, den): map takes a coefficient row to den times the row of the
    product.

    The unit factors c*e_j (c = 1, -1, i or -i) compose into one signed
    permutation (``scalars._unit_pairs``); any other factor is the integer
    Hamilton product by its row, and its denominator goes into den.  Left
    and right products commute, so the order of the two does not matter.  A
    float constant raises MixedBackend.
    """
    pairs, products, den = _IDENTITY_PAIRS, [], 1
    for q, side in ((left, True), (right, False)):
        if q is None:
            continue
        qr, dq = _exact_row(q)
        unit = _unit_of(qr, dq)
        if unit is None:
            products.append((qr, side))
            den *= dq
        else:
            outer = _unit_pairs(unit[0], side, unit[1], unit[2])
            pairs = tuple((pairs[i][0], sign * pairs[i][1]) for i, sign in outer)
    perm = None if pairs == _IDENTITY_PAIRS else _row_map(pairs)
    if not products:
        return perm or _same_row, den

    def mapped(r):
        for qr, side in products:
            r = _hamilton_int(qr, r) if side else _hamilton_int(r, qr)
        return r if perm is None else perm(r)

    return mapped, den


def _kernels(terms):
    """The kernel entries of (v, left, right) terms, one per variable v
    (None for an order-0 term), as (entries, den) over their shared den."""
    built = [(v, *_kernel(left, right)) for v, left, right in terms]
    den = math.lcm(*(d for _, _, d in built))
    return tuple((_NO_SHIFT if v is None else v, mapped, den // d)
                 for v, mapped, d in built), den


def _joined(groups):
    """The (entries, den) groups over one den, the lcm of theirs: each
    entry's scale takes the factor that brings its group there.  Returns the
    list of rescaled entry tuples and that den."""
    den = math.lcm(*(d for _, d in groups))
    return [entries if d == den else tuple((v, kernel, s * (den // d)) for v, kernel, s in entries)
            for entries, d in groups], den


def _complex_product(a, b):
    """The row map of x -> (a + ib) x for ints a, b."""
    def mapped(r):
        r0, r1, r2, r3, r4, r5, r6, r7 = r
        return (a * r0 - b * r1, a * r1 + b * r0, a * r2 - b * r3, a * r3 + b * r2,
                a * r4 - b * r5, a * r5 + b * r4, a * r6 - b * r7, a * r7 + b * r6)

    return mapped


def _row_entry(shift, row):
    """The order-0 entry of x -> q x at shift, for the row of q: a real
    scalar a is the scale a, any other scalar a + ib the complex product,
    and any other q the Hamilton product by its row from the left."""
    a, b = row[0], row[1]
    if any(row[2:]):
        return shift, functools.partial(_hamilton_int, row), 1
    if not b:
        return shift, _same_row, a
    return shift, _complex_product(a, b), 1


def _multiplier_entries(p: Poly):
    """The order-0 entries of x -> p x for a Poly p, as (entries, den): one
    entry per term of p, shifted by its exponent (``_row_entry``)."""
    return tuple(_row_entry(e, row) for e, row in p._rows.items()), p._den


def _scalar_entries(c, row_map):
    """The order-0 entries of x -> c row_map(x) for an exact scalar c, as
    (entries, den): none for c = 0.  A float c raises MixedBackend."""
    row, den = _exact_row(c)
    if not any(row):
        return (), 1
    shift, kernel, scale = _row_entry(_NO_SHIFT, row)
    if row_map is not _same_row:
        kernel = row_map if kernel is _same_row else _composed(kernel, row_map)
    return ((shift, kernel, scale),), den


def _composed(outer, inner):
    return lambda r: outer(inner(r))


_NO_PHASE = (0, 0, 0, 0)

# a row's exponent lowered by one in variable v
_LOWER = (lambda e: (e[0] - 1, e[1], e[2], e[3]),
          lambda e: (e[0], e[1] - 1, e[2], e[3]),
          lambda e: (e[0], e[1], e[2] - 1, e[3]),
          lambda e: (e[0], e[1], e[2], e[3] - 1))


def _first_order(terms, den=1):
    """The sum over (f, kernels) terms of s K(d f/dx_v) for each kernel
    entry (v, K, s) of f, or s K(f) shifted by v for an order-0 entry; every
    K is a row map over the one denominator den, s included (``_kernels``,
    ``_joined``).

    One pass over the rows of each input mode: a row r at exponent e adds
    n_v s K(r) at e lowered in x_v, and in a trigonometric mode it adds the
    phase term into the partner Poly at e, since d(P cos phi) = P' cos phi
    - dphi_v P sin phi and d(Q sin phi) = Q' sin phi + dphi_v Q cos phi; an
    order-0 entry adds s K(r) at e + v.  Each output Poly is summed over one
    denominator, the lcm of the denominators of the inputs that reach it
    times that of dphi, and reduced once.  An order-0 term, or a derivative
    along a variable the phase does not depend on, keeps a Poly on its own
    side, so the cos and the sin output of a mode can have different
    denominators.
    """
    groups = {}
    for f, kernels in terms:
        for k, pair in f.modes.items():
            group = groups.get(k)
            if group is None:
                groups[k] = [(pair, kernels)]
            else:
                group.append((pair, kernels))
    out = {}
    for k, group in groups.items():
        dk, dphi = 1, _NO_PHASE
        if any(k):
            # dphi = (k0, -k1, -k2, -k3) as ints over dk
            dk = math.lcm(*[c.denominator for c in k])
            dphi = [c.numerator * (dk // c.denominator) for c in k]
            dphi[1:] = [-c for c in dphi[1:]]
        # the denominators of the inputs that reach each output side
        reach = ([], [])
        for pair, kernels in group:
            crosses = any(type(v) is int and dphi[v] for v, _, _ in kernels)
            for side, p in enumerate(pair):
                if p._rows:
                    reach[side].append(p._den)
                    if crosses:
                        reach[1 - side].append(p._den)
        common = (math.lcm(*reach[0]), math.lcm(*reach[1]))
        acc = ({}, {})
        for pair, kernels in group:
            for side, p in enumerate(pair):
                rows = p._rows
                if not rows:
                    continue
                same, other = acc[side], acc[1 - side]
                # each term is scaled onto its output's denominator; s_other
                # is read only by phase terms, so only when p reaches there
                s_same = common[side] // p._den * dk
                s_other = common[1 - side] // p._den
                # each loop adds c K(r) into the rows of its output at an
                # exponent, scaling only when c is not 1
                for v, kernel, scale in kernels:
                    c = s_same * scale
                    if type(v) is not int:
                        if v == _NO_SHIFT:
                            for e, r in rows.items():
                                r = kernel(r)
                                if c != 1:
                                    r = _scaled_row(c, r)
                                old = same.get(e)
                                same[e] = r if old is None else _add_rows(old, r)
                            continue
                        t0, x0, y0, z0 = v
                        for (t, x, y, z), r in rows.items():
                            e = (t + t0, x + x0, y + y0, z + z0)
                            r = kernel(r)
                            if c != 1:
                                r = _scaled_row(c, r)
                            old = same.get(e)
                            same[e] = r if old is None else _add_rows(old, r)
                        continue
                    phase = (dphi[v] if side else -dphi[v]) * s_other * scale
                    lower = _LOWER[v]
                    for e, r in rows.items():
                        n = e[v]
                        if not (n or phase):
                            continue
                        kr = kernel(r)
                        if n:
                            nc = n * c
                            r = kr if nc == 1 else _scaled_row(nc, kr)
                            e2 = lower(e)
                            old = same.get(e2)
                            same[e2] = r if old is None else _add_rows(old, r)
                        if phase:
                            r = kr if phase == 1 else _scaled_row(phase, kr)
                            old = other.get(e)
                            other[e] = r if old is None else _add_rows(old, r)
        out[k] = tuple(_canonical({e: r for e, r in rows.items() if any(r)}, c * dk * den)
                       if rows else Poly() for rows, c in zip(acc, common))
    return Field._of(out)


# -- the quaternion four-gradient ----------------------------------------------------------


@dataclass(frozen=True)
class NablaSpec:
    """Component assignment of the four-gradient.

    nabla(f) = time_coeff * df/dt + sum_n space_sign * e_n * df/dx_n when
    i_on_time, else nabla(f) = df/dt + sum_n space_sign * i * e_n * df/dx_n.
    """

    i_on_time: bool
    space_sign: int

    def describe(self):
        if self.i_on_time:
            return f"-i d/dt {'+' if self.space_sign > 0 else '-'} e_n d/dx_n"
        return f"d/dt {'+' if self.space_sign > 0 else '-'} i e_n d/dx_n"

    def units(self):
        """The four left-multiplier units (time, e1.., possibly i-weighted)."""
        return _units(self)


# built once per spec: the gradients run hundreds of times per suite run,
# always with one of the four candidate specs
@functools.cache
def _units(spec: NablaSpec):
    if spec.i_on_time:
        time = Biquaternion.scalar(-GR_I)
        space = tuple(e * spec.space_sign for e in _E_UNITS)
    else:
        time = Biquaternion.one()
        space = tuple(e * (GR_I * spec.space_sign) for e in _E_UNITS)
    return (time,) + space


@functools.cache
def _bar_units(spec: NablaSpec):
    """The conjugated units of nabla_bar."""
    return tuple(u.bar() for u in _units(spec))


@functools.cache
def _gradient_kernels(spec: NablaSpec, bar: bool, from_right: bool):
    """The kernels of the four-gradient (its units, or their bars), each
    unit multiplied from the left or the right: built once per case."""
    units = _bar_units(spec) if bar else _units(spec)
    return _kernels([(v, None, u) if from_right else (v, u, None)
                     for v, u in enumerate(units)])


FROZEN_NABLA = NablaSpec(i_on_time=True, space_sign=1)


def _gradient(f: Field, spec, bar, from_right):
    kernels, den = _gradient_kernels(spec, bar, from_right)
    return _first_order([(f, kernels)], den)


def nabla(f: Field, spec: NablaSpec = FROZEN_NABLA) -> Field:
    return _gradient(f, spec, False, False)


def nabla_bar(f: Field, spec: NablaSpec = FROZEN_NABLA) -> Field:
    return _gradient(f, spec, True, False)


def nabla_from_right(f: Field, spec: NablaSpec = FROZEN_NABLA) -> Field:
    return _gradient(f, spec, False, True)


def nabla_bar_from_right(f: Field, spec: NablaSpec = FROZEN_NABLA) -> Field:
    return _gradient(f, spec, True, True)


def box(f: Field) -> Field:
    """The d'Alembertian d2/dt2 - sum_n d2/dx_n2."""
    out = f.dt().dt()
    for n in (1, 2, 3):
        out = out - f.dx(n).dx(n)
    return out


def four_vector_quaternion(v0, v):
    """Package real components (v0, v) as the four-vector v0 - i*vvec."""
    i_unit = gr(0, -1)
    return (Biquaternion.scalar(gr(v0))
            + Biquaternion.vector(*v) * i_unit)


def gradient_symbol(spec: NablaSpec, p0, p):
    """Constant quaternion S with nabla(exp(i phi_p)) = S exp(i phi_p)."""
    i_unit = gr(0, 1)
    comps = [i_unit * gr(p0), -i_unit * gr(p[0]), -i_unit * gr(p[1]), -i_unit * gr(p[2])]
    units = spec.units()
    out = Biquaternion.zero()
    for u, c in zip(units, comps):
        out = out + u * c
    return out


def select_nabla_convention():
    """Select the unique gradient convention satisfying the three criteria.

    Candidates: the i factor sits on the time or the space part (the time
    coefficient is fixed to -i when it carries the i), with a free sign on
    the other part.  The survivor must (i) have a momentum symbol that is a
    constant complex multiple of the four-vector package p0 - i*pvec, (ii)
    compose with its own conjugate to minus the d'Alembertian, and (iii)
    conserve the probability current on constructed plane-wave solutions.
    """
    candidates = [
        NablaSpec(True, 1), NablaSpec(True, -1),
        NablaSpec(False, 1), NablaSpec(False, -1),
    ]
    survivors = []
    for spec in candidates:
        if not _symbol_is_four_vector(spec):
            continue
        if not _composes_to_minus_box(spec):
            continue
        if not _conserves_current(spec):
            continue
        survivors.append(spec)
    if len(survivors) != 1:
        raise NoConsistentConvention(len(survivors))
    return survivors[0]


def _symbol_is_four_vector(spec) -> bool:
    # The symbol at momentum (1,0,0,0) fixes the allowed constant; every
    # basis momentum must then reproduce c * (p0 - i pvec) exactly.
    c = gradient_symbol(spec, 1, (0, 0, 0)).scalar_part()
    if not bool(c):
        return False
    probes = [(1, (0, 0, 0)), (0, (1, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1)),
              (2, (3, -1, 5))]
    for p0, p in probes:
        expected = four_vector_quaternion(p0, p) * c
        if not (gradient_symbol(spec, p0, p) - expected).is_zero():
            return False
    return True


def _composes_to_minus_box(spec) -> bool:
    rng = random.Random(20240)
    f = random_poly_field(rng, n_terms=4, max_deg=3)
    lhs = nabla(nabla_bar(f, spec), spec)
    return (lhs + box(f)).is_zero()


def _conserves_current(spec) -> bool:
    # a moving momentum is essential: in the rest frame every candidate
    # conserves the current trivially (cyclicity of the scalar part)
    p = Momentum(Fraction(5), (Fraction(3), Fraction(0), Fraction(0)), Fraction(4))
    basis = plane_wave_solutions(p, DEFAULT_FRAME, spec)
    if len(basis) != 4:
        return False
    for amp in basis:
        psi = plane_wave_field(amp, p.k_tuple(), DEFAULT_FRAME)
        if not nabla_bar(current(psi), spec).scalar_part().is_zero():
            return False
    return True


_ZERO_ROW = (0,) * 8


def _mode_key(k):
    """The canonical mode key of the wave vector k."""
    return _canonical_mode(_wave_vector(k), Poly())[0]


def _mode_row(f: Field, kc):
    """(row, den) of the constant cos coefficient of a field that is one
    plane-wave mode at the canonical key kc.

    The zero field gives the zero row.  Raises NotAPlaneWave if the field
    has a mode at another wave vector or a non-constant coefficient, which
    this amplitude would drop.
    """
    if not f.modes:
        return _ZERO_ROW, 1
    pair = f.modes.get(kc)
    if pair is None or len(f.modes) != 1:
        raise NotAPlaneWave(f"expected one mode at {kc}, got modes {list(f.modes)}")
    pc, ps = pair
    if any(e != (0, 0, 0, 0) for e in (*pc._rows, *ps._rows)):
        raise NotAPlaneWave("the plane-wave mode has a non-constant coefficient")
    return pc._rows.get((0, 0, 0, 0), _ZERO_ROW), pc._den


def _extract_mode_cos(f: Field, k):
    """The constant cos coefficient of a field that is one plane-wave mode
    at k, as ``_mode_row`` reads it."""
    return _element(*_mode_row(f, _mode_key(k)))


# the rows of the real basis units (1, e1, e2, e3, i, ie1, ie2, ie3)
_UNIT_ROWS = tuple(tuple(int(n == j) for n in range(8)) for j in (0, 2, 4, 6, 1, 3, 5, 7))


def _unit_waves(k, frame: Frame):
    """The eight plane waves at k whose amplitudes are the real basis units."""
    k = _wave_vector(k)
    return [_plane_wave(row, 1, k, frame) for row in _UNIT_ROWS]


def _plane_wave_symbol(op, k, waves):
    """The real matrix of op on plane-wave amplitudes at k, as a list of rows.

    Column a holds the real coordinates of the amplitude of op(waves[a]),
    read from its row in the order of ``Biquaternion.real_coords``; op must
    map each wave to one plane-wave mode at k.
    """
    kc = _mode_key(k)
    cols = []
    for w in waves:
        r, d = _mode_row(op(w), kc)
        col = [r[n] for n in (0, 2, 4, 6, 1, 3, 5, 7)]
        cols.append(col if d == 1 else [Fraction(c, d) for c in col])
    return [list(row) for row in zip(*cols)]


def _coords_row(coords):
    """(row, den) in lowest terms of the amplitude with the eight rational
    real coordinates coords, in the order of ``Biquaternion.real_coords``."""
    den = math.lcm(*[c.denominator for c in coords])
    a = [c.numerator * (den // c.denominator) for c in coords]
    return (a[0], a[4], a[1], a[5], a[2], a[6], a[3], a[7]), den


# -- momenta and plane waves ------------------------------------------------------------


@dataclass(frozen=True)
class Momentum:
    """Energy-momentum with mass; exact when built from rationals."""

    p0: object
    p: tuple
    m: object

    def on_shell(self):
        return self.p0 * self.p0 - sum(c * c for c in self.p) == self.m * self.m

    def k_tuple(self):
        return (self.p0,) + tuple(self.p)

    def quaternion(self):
        return four_vector_quaternion(self.p0, self.p)


def plane_wave_field(amplitude: Biquaternion, k, frame: Frame) -> Field:
    """The field amplitude * exp(-nu * phi) with phi = k0 t - k.x; the ansatz
    is independent of the gradient convention: one mode, cos Poly amplitude
    and sin Poly -amplitude * nu (``_plane_wave``)."""
    return _plane_wave(*_exact_row(amplitude), _wave_vector(k), frame)


def _plane_wave(row, den, k, frame: Frame) -> Field:
    """``plane_wave_field`` of the amplitude with the row over den, in
    lowest terms, at a wave vector k of ``_wave_vector``.

    The cos Poly is the row itself and the sin Poly the integer Hamilton
    product -row * nu over den times nu's den, reduced once; the zero row
    gives the zero field.
    """
    if not any(row):
        return Field()
    nu, dn = _nu_row(frame)
    k, ps = _canonical_mode(k, _canonical({_NO_SHIFT: _neg_row(_hamilton_int(row, nu))},
                                          den * dn))
    return Field._of({k: (Poly._exact({_NO_SHIFT: row}, den), ps)})


def _nu_row(frame: Frame):
    """(row, den) of the frame's nu, read once per frame and kept on it."""
    hit = frame._kernels.get("nu")
    if hit is None:
        hit = frame._kernels["nu"] = _exact_row(frame.nu)
    return hit


def plane_wave_solutions(p: Momentum, frame: Frame, spec: NablaSpec = FROZEN_NABLA):
    """Basis of amplitudes X of the plane waves at p that solve the free
    spinor equation of the gradient convention spec (for the frozen one,
    P.bar() X = m X*): the nullspace of its real-linear 8x8 symbol, of real
    dimension 4 on shell."""
    if not bool(p.m):
        raise DegenerateMass("massive plane-wave construction requires m > 0")
    if not p.on_shell():
        raise OffShell("momentum is not on the mass shell")
    k = p.k_tuple()
    free = ExternalField.zero()
    symbol = _plane_wave_symbol(lambda x: dirac_lanczos_residual(x, free, p.m, frame, spec), k,
                                _unit_waves(k, frame))
    return [Biquaternion.from_real_coords(v) for v in nullspace(symbol)]


def lanczos_plane_wave(p: Momentum, frame: Frame, a0: Biquaternion):
    """Exact plane-wave solution pair (A, B) of the free fundamental system."""
    if p.m == 0:
        raise DegenerateMass("massive construction requires m > 0")
    pq = p.quaternion()
    i_unit = gr(0, 1)
    b0 = (pq.bar() * a0 * frame.nu) * (i_unit / p.m)
    k = p.k_tuple()
    return plane_wave_field(a0, k, frame), plane_wave_field(b0, k, frame)


# -- wave equations ---------------------------------------------------------------------


@dataclass(frozen=True)
class ExternalField:
    """Polynomial electromagnetic potential phi = phi0 - i*phivec with coupling e.

    The coupling terms -e phi x and -e phi_bar x of the operators are
    order-0 kernel entries (``_multiplier_entries``) built from phi's rows
    on first use and kept on the instance, and so are the joined kernels of
    ``pibar`` and ``dirac_lanczos_residual``, one per frame, gradient
    convention and mass (a free potential's are kept on the frame), and
    the curvature multipliers of ``rs.RSContext.curvature``.
    """

    phi: Field
    e: object
    # (id(frame), spec, m) -> (frame, kernels, den) of ``_coupled_kernels``,
    # where the frame is kept, so its id is not reused while the entry
    # lives; "curvature" -> the multipliers of ``rs._curvature``
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def zero():
        return ExternalField(Field.zero(), gr(0))

    @staticmethod
    def from_components(phi0: Poly, phivec, e):
        """Build from a scalar polynomial and three real vector polynomials;
        the factor -i e_n of component n is a signed permutation of its rows."""
        total = Field.polynomial(phi0)
        for n, comp in enumerate(phivec):
            unit = _unit_map(n + 1, True, 0, -1)
            total = total + Field.polynomial(
                Poly._exact({exps: unit(r) for exps, r in comp._rows.items()}, comp._den))
        return ExternalField(total, e)

    def is_zero(self):
        return self.phi.is_zero() or (not bool(self.e))

    @functools.cached_property
    def _phi_bar(self):
        return self.phi.bar()

    def phi_bar(self):
        return self._phi_bar

    @functools.cached_property
    def _minus_e_phi(self):
        """The Poly of -e phi, empty when e or phi is zero; a potential with
        a trigonometric mode raises ValueError."""
        modes = self.phi.modes
        if not modes or not self.e:
            return Poly()
        if any(any(k) for k in modes):
            raise ValueError("the potential must be a polynomial field")
        return modes[_NO_SHIFT][0].scale(-self.e)

    @functools.cached_property
    def _coupling(self):
        """The order-0 entries of x -> -e phi x and x -> -e phi_bar x (bar
        commutes with the complex scalar -e)."""
        p = self._minus_e_phi
        return _multiplier_entries(p), _multiplier_entries(p._involution(_BAR_ROW))

    def component_fields(self):
        """Scalar fields (phi0, phi1, phi2, phi3): the potential components.

        The quaternion field stores phi0 - i*phivec, so the n-th component
        is i times the n-th vector part: the row (-B_n, A_n, 0, ...) of each
        row (A_w, B_w, ..., A_n, B_n, ...).
        """
        return [self.phi._each(functools.partial(_component, n=n)) for n in range(4)]


def _component(p: Poly, n):
    """The scalar Poly of component n of a potential p = phi0 - i*phivec:
    the scalar part for n = 0, and i times vector component n for n = 1..3."""
    if not n:
        return p._scalar_part()
    a, b = 2 * n, 2 * n + 1
    return _canonical({e: (-r[b], r[a], 0, 0, 0, 0, 0, 0)
                       for e, r in p._rows.items() if r[a] or r[b]}, p._den)


def _vector_components(f: Field, factor):
    """The vector components (x, y, z) of f times a scalar factor, as scalar fields."""
    return [f.map_coeffs(lambda c, comp=comp: Biquaternion.scalar(getattr(c, comp) * factor))
            for comp in ("x", "y", "z")]


def lanczos_residual(a: Field, b: Field, ext: ExternalField, m):
    """Residual pair (nabla_bar a - e phi_bar a - m b, nabla b - e phi b - m a)
    of the coupled fundamental system.

    Each residual is one pass (``_first_order``): the gradient kernels and
    the coupling entries on the first input, the mass entry on the second.
    """
    plain, bar = ext._coupling
    mass = _scalar_entries(-m, _same_row)
    (grad_bar, coupling_bar, mass_a), den_a = _joined(
        [_gradient_kernels(FROZEN_NABLA, True, False), bar, mass])
    (grad, coupling, mass_b), den_b = _joined(
        [_gradient_kernels(FROZEN_NABLA, False, False), plain, mass])
    ra = _first_order([(a, grad_bar + coupling_bar)] + ([(b, mass_a)] if mass_a else []), den_a)
    rb = _first_order([(b, grad + coupling)] + ([(a, mass_b)] if mass_b else []), den_b)
    return ra, rb


def pibar(x: Field, ext: ExternalField, frame: Frame, spec: NablaSpec = FROZEN_NABLA) -> Field:
    """The minimally coupled spinor operator nabla_bar(x) i nu - e phi_bar x.

    One pass of the kernels ubar_v (.) i nu (``_pibar_kernels``) and the
    coupling entries of -e phi_bar (``_coupled_kernels``).
    """
    kernels, den = _coupled_kernels(ext, frame, spec, None)
    return _first_order([(x, kernels)], den)


def _pibar_kernels(frame: Frame, spec: NablaSpec):
    """The kernels x -> ubar_v x i nu of pibar's derivative part, built
    once per frame and gradient convention and kept on the frame."""
    kernels = frame._kernels.get(spec)
    if kernels is None:
        i_nu = frame.i_nu
        kernels = _kernels([(v, u, i_nu) for v, u in enumerate(_bar_units(spec))])
        frame._kernels[spec] = kernels
    return kernels


def _coupled_kernels(ext: ExternalField, frame: Frame, spec: NablaSpec, m):
    """The kernels of x -> pibar(x) - m x* on ext (no mass term for m
    None), as (entries, den): those of ``_pibar_kernels``, the coupling
    entries of -e phi_bar and the star entry of -m, joined over one den,
    built once per frame, spec and m and kept on ext.

    A free potential has no coupling entries, so its kernels depend on the
    frame, spec and m alone and are kept on the frame, next to those of
    ``_pibar_kernels``: every ``ExternalField.zero()`` shares them.  The
    type of m is in that key, so a float mass equal to an exact one reaches
    ``_scalar_entries`` and raises MixedBackend.
    """
    if ext.is_zero():
        cache, key, keep = frame._kernels, (spec, type(m), m), None
    else:
        cache, key, keep = ext._kernels, (id(frame), spec, m), frame
    hit = cache.get(key)
    if hit is None:
        groups = [_pibar_kernels(frame, spec)]
        if keep is not None:
            groups.append(ext._coupling[1])
        if m is not None:
            groups.append(_scalar_entries(-m, _STAR_ROW))
        entries, den = _joined(groups)
        hit = cache[key] = (keep, sum(entries, ()), den)
    return hit[1], hit[2]


def dirac_lanczos_residual(psi: Field, ext: ExternalField, m, frame: Frame,
                           spec: NablaSpec = FROZEN_NABLA) -> Field:
    """Residual Pibar(psi) - m psi* of the minimally coupled four-component
    spinor equation, in one pass (``_coupled_kernels``)."""
    kernels, den = _coupled_kernels(ext, frame, spec, m)
    return _first_order([(psi, kernels)], den)


def build_doublet(a: Field, b: Field, frame: Frame):
    """The two independent spinor superpositions built from a solution pair."""
    itn = frame.tau * frame.i_nu
    psi_plus = a * frame.sigma + b.star() * frame.sigma_bar
    psi_minus = (a * frame.sigma_bar - b.star() * frame.sigma) * itn
    return psi_plus, psi_minus


def current(psi: Field) -> Field:
    """Probability current density psi * psi.plus().

    The scalar part is the nonnegative density sum |component|^2; with the
    bi-conjugation on the right factor the divergence vanishes exactly on
    solutions of the spinor equation, including at moving momenta, and the
    value transforms as a four-vector under psi -> L psi.
    """
    return psi * psi.plus()


def divergence_scalar(c: Field) -> Field:
    """Scalar part of nabla_bar applied to a current field."""
    return nabla_bar(c).scalar_part()


def proca_residual(a: Field, m):
    """Field bivector and second-order residual of the massive spin-1 system.

    Returns (b, res) where b is the vector part of nabla_bar(a) and
    res = (nabla(b) + reverse(b) nabla_from_right)/2 - m^2 a.
    """
    b = nabla_bar(a).vector_part()
    res = (nabla(b) + nabla_from_right(b.reverse())).scale(_HALF) - a.scale(m * m)
    return b, res


# -- random field generators ----------------------------------------------------------


@functools.cache
def _exponents(max_deg):
    """The exponent tuples of (t, x1, x2, x3) of degree at most max_deg."""
    return tuple(e for e in itertools.product(range(max_deg + 1), repeat=4) if sum(e) <= max_deg)


def random_poly_field(rng, n_terms=4, max_deg=3):
    """Sparse random polynomial field with small rational coefficients.

    The n_terms coefficient rows are drawn at once (``random_rational_rows``
    with span 4), then one exponent for each, uniform over the exponents of
    degree at most max_deg; a later term at the same exponent replaces an
    earlier one.
    """
    exps = _exponents(max_deg)
    rows = {}
    for row in random_rational_rows(rng, n_terms, span=4):
        rows[exps[rng.randrange(len(exps))]] = row
    return Field.polynomial(_canonical({e: r for e, r in rows.items() if any(r)},
                                        _DRAW_SCALE))


# the constant term, then t, x1, x2, x3
_LINEAR_EXPONENTS = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def random_linear_potential(rng):
    """External field with degree-1 polynomial components."""
    def lin():
        values = [rng.randint(-3, 3) for _ in range(5)]
        return _canonical({e: (v, 0, 0, 0, 0, 0, 0, 0)
                           for e, v in zip(_LINEAR_EXPONENTS, values) if v}, 1)

    coupling = gr(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    return ExternalField.from_components(lin(), (lin(), lin(), lin()), coupling)


def random_quadratic_potential(rng):
    """External field with three terms of degree at most 2 in each component;
    a later term at the same exponent replaces an earlier one."""
    def quad():
        values = {}
        for _ in range(3):
            exps = tuple(rng.randint(0, 2) for _ in range(4))
            while sum(exps) > 2:
                exps = tuple(rng.randint(0, 2) for _ in range(4))
            values[exps] = rng.randint(-2, 2)
        return _canonical({e: (v, 0, 0, 0, 0, 0, 0, 0) for e, v in values.items() if v}, 1)

    coupling = gr(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    return ExternalField.from_components(quad(), (quad(), quad(), quad()), coupling)
