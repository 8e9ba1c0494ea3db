"""Scalar backends: exact Gaussian rationals and ordinary complex floats.

Every biquaternion component is either a :class:`GaussianRational` (exact
mode) or a Python ``complex`` (float mode).  Both expose the same arithmetic
protocol plus ``conjugate()``, so the algebra layer never branches on the
backend.  The backend is a property of the values, read from their type and
never from how they are stored: exact with exact stays exact, and exact with
float gives float, just as int with float gives float.

A :class:`GaussianRational` stores (a + i*b)/d as three Python ints in
canonical form: d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1) and two
values are equal exactly when their ints are.  Each operation is integer
arithmetic and one three-way gcd; ``re`` and ``im`` are ``Fraction`` values
derived from the ints on demand.  The Hamilton product of two quaternions of
Gaussian rationals is fused into one such operation per output component
(:func:`_hamilton`), so it makes four values and four gcds where sixteen
products and twelve sums would make 28.  The pairing sum_k p_k q_k of two
such quaternions, the kernel of ``biquaternion.minkowski_product``, is
fused the same way (:func:`_pairing`): one value and one gcd.  Both bring
each operand to one denominator, a row of eight ints (:func:`_integral`),
and apply one integer formula to the rows (:func:`_hamilton_int`,
:func:`_pairing_int`); the exact ``Poly`` of ``fields`` stores its
coefficients as such rows and runs the same two formulas.

A quaternion with one nonzero component, c*e_j (a monomial), multiplies
another by a signed permutation of its components times c
(:func:`_permuted`): four scalar products and no sums.  Multiplying by a
unit c (1, -1, i or -i) keeps (a + i*b)/d in lowest terms, so then no gcd
is taken at all, and a component that the permutation passes through
unchanged is the operand's own value.  On a row, the product by a unit
times e_j is a signed permutation of the eight ints (:func:`_unit_map`).

A :class:`GaussianIntArray` is a third, exact scalar: one Gaussian rational
per sample of a batch, so the unchanged algebra layer checks an identity on
every sample of a sweep at once.  It never mixes with the other two.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from math import gcd, lcm, nan

import numpy as np

from .errors import MixedBackend


def _parts(x):
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


# the operands a Gaussian rational meets as a complex; any other type it
# does not know gets NotImplemented, so a Field or a Biquaternion operand
# answers with its own reflected operator
_FLOATS = (float, complex, np.generic, np.ndarray)


def _float_operand(x):
    """True for an operand that a Gaussian rational meets as a complex.

    An object array is none: it gets NotImplemented, so numpy applies the
    operator entry by entry and an array of exact scalars stays exact."""
    return isinstance(x, _FLOATS) and getattr(x, "dtype", None) != object


def _operand(x):
    """The ints (a, b, d) of an exact scalar operand; None for any other type."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


def _made(a, b, d):
    """The Gaussian rational (a + i*b)/d of ints already in canonical form."""
    z = object.__new__(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a, b, d):
    """The Gaussian rational (a + i*b)/d of ints with d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        return _made(a // g, b // g, d // g)
    return _made(a, b, d)


# e_j * q (_LEFT_UNITS[j]) and q * e_j (_RIGHT_UNITS[j]) for q = (w, x, y, z),
# with e_0 = 1: component k of the product is sign * q[index], one
# (index, sign) pair per k.  From e1 e2 = e3, e2 e3 = e1, e3 e1 = e2, e_n**2 = -1.
_LEFT_UNITS = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, -1), (0, 1), (3, -1), (2, 1)),
    ((2, -1), (3, 1), (0, 1), (1, -1)),
    ((3, -1), (2, -1), (1, 1), (0, 1)),
)
_RIGHT_UNITS = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, -1), (0, 1), (3, 1), (2, -1)),
    ((2, -1), (3, -1), (0, 1), (1, 1)),
    ((3, -1), (2, 1), (1, -1), (0, 1)),
)


def _monomial(p, left):
    """The kernel of q -> p*q (left) or q*p for p = c*e_j, a quaternion of
    GaussianRational components with exactly one nonzero component c = p[j].

    The kernel is (terms, unit, d): one (index, re, im) triple per output
    component k, so that component k is (re + i*im) * q[index] / d; unit is
    True when c is 1, -1, i or -i.  None for p with no or several nonzero
    components.
    """
    j = -1
    for k in range(4):
        if p[k]._a or p[k]._b:
            if j >= 0:
                return None
            j = k
    if j < 0:
        return None
    c = p[j]
    a, b, d = c._a, c._b, c._d
    terms = tuple((index, sign * a, sign * b)
                  for index, sign in (_LEFT_UNITS if left else _RIGHT_UNITS)[j])
    return terms, d == 1 and a * a + b * b == 1, d


def _permuted(kernel, q):
    """The kernel's product with the GaussianRational quaternion q, as a list
    of four components.  A unit changes no gcd, so its values are made
    unreduced, and a component it passes through unchanged is q's own."""
    terms, unit, d = kernel
    out = []
    if unit:
        for index, re, im in terms:
            v = q[index]
            if re == 1:
                out.append(v)
            elif re:
                out.append(_made(-v._a, -v._b, v._d))
            elif im == 1:
                # i * (a + i*b) = -b + i*a
                out.append(_made(-v._b, v._a, v._d))
            else:
                out.append(_made(v._b, -v._a, v._d))
    else:
        for index, re, im in terms:
            v = q[index]
            a, b = v._a, v._b
            out.append(_reduced(re * a - im * b, re * b + im * a, d * v._d))
    return out


def _integral(p):
    """A quaternion p of GaussianRational components over one denominator:
    the row (A_w, B_w, A_x, B_x, A_y, B_y, A_z, B_z) of ints and d, with
    p = (A + iB)/d component by component, d the lcm of the four denominators."""
    pw, px, py, pz = p
    d = lcm(pw._d, px._d, py._d, pz._d)
    s, t, u, v = d // pw._d, d // px._d, d // py._d, d // pz._d
    return (pw._a * s, pw._b * s, px._a * t, px._b * t,
            py._a * u, py._b * u, pz._a * v, pz._b * v), d


def _hamilton_int(p, q):
    """The Hamilton product of two quaternions of Gaussian integers, each
    given as a row (A_w, B_w, A_x, B_x, A_y, B_y, A_z, B_z) with components
    A + iB; the product is a row of the same form."""
    aw, bw, ax, bx, ay, by, az, bz = p
    cw, ew, cx, ex, cy, ey, cz, ez = q
    return (aw * cw - bw * ew - ax * cx + bx * ex - ay * cy + by * ey - az * cz + bz * ez,
            aw * ew + bw * cw - ax * ex - bx * cx - ay * ey - by * cy - az * ez - bz * cz,
            aw * cx - bw * ex + ax * cw - bx * ew + ay * cz - by * ez - az * cy + bz * ey,
            aw * ex + bw * cx + ax * ew + bx * cw + ay * ez + by * cz - az * ey - bz * cy,
            aw * cy - bw * ey + ay * cw - by * ew + az * cx - bz * ex - ax * cz + bx * ez,
            aw * ey + bw * cy + ay * ew + by * cw + az * ex + bz * cx - ax * ez - bx * cz,
            aw * cz - bw * ez + az * cw - bz * ew + ax * cy - bx * ey - ay * cx + by * ex,
            aw * ez + bw * cz + az * ew + bz * cw + ax * ey + bx * cy - ay * ex - by * cx)


def _pairing_int(p, q):
    """The pairing p_w q_w + p_x q_x + p_y q_y + p_z q_z of two rows of
    Gaussian integers (see :func:`_hamilton_int`), as the pair (re, im)."""
    aw, bw, ax, bx, ay, by, az, bz = p
    cw, ew, cx, ex, cy, ey, cz, ez = q
    return (aw * cw - bw * ew + ax * cx - bx * ex + ay * cy - by * ey + az * cz - bz * ez,
            aw * ew + bw * cw + ax * ex + bx * cx + ay * ey + by * cy + az * ez + bz * cz)


def _unit_pairs(j, left, re, im):
    """The product of a row (see :func:`_hamilton_int`) by u*e_j, from the
    left or the right, for a unit u = re + i*im in {1, -1, i, -i}: a signed
    permutation of the row's entries, as the (index, sign) pairs of
    :func:`_row_map`."""
    pairs = []
    for index, sign in (_LEFT_UNITS if left else _RIGHT_UNITS)[j]:
        a, b = sign * re, sign * im
        # (a + ib)(x + iy) = (ax - by) + i(ay + bx), and one of a, b is 0
        pairs += [(2 * index, a), (2 * index + 1, a)] if a else [(2 * index + 1, -b), (2 * index, b)]
    return pairs


@functools.cache
def _unit_map(j, left, re, im):
    """The map of :func:`_unit_pairs`, built once per unit."""
    return _row_map(_unit_pairs(j, left, re, im))


def _row_map(pairs):
    """The map of a row to the row whose entry n is sign * row[index], for
    eight (index, sign) pairs."""
    (i0, s0), (i1, s1), (i2, s2), (i3, s3), (i4, s4), (i5, s5), (i6, s6), (i7, s7) = pairs

    def mapped(r):
        return (s0 * r[i0], s1 * r[i1], s2 * r[i2], s3 * r[i3],
                s4 * r[i4], s5 * r[i5], s6 * r[i6], s7 * r[i7])

    return mapped


def _all_gaussian(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (type(pw) is type(px) is type(py) is type(pz) is type(qw) is type(qx)
            is type(qy) is type(qz) is GaussianRational)


def _hamilton(p, q):
    """The Hamilton product of quaternions p and q, as four Gaussian rationals.

    p and q are (w, x, y, z) tuples; None unless all eight components are
    GaussianRational.  When either operand is a monomial c*e_j, the product
    is the signed permutation of :func:`_permuted`.  Otherwise each operand
    is brought to one common denominator (:func:`_integral`), so every
    output component is a sum of Gaussian-integer products
    (:func:`_hamilton_int`) over one denominator and is reduced once.
    Canonical values do not depend on the order of evaluation, so the result
    equals the component-wise formula.
    """
    if not _all_gaussian(p, q):
        return None
    kernel = _monomial(p, True)
    if kernel is not None:
        return _permuted(kernel, q)
    kernel = _monomial(q, False)
    if kernel is not None:
        return _permuted(kernel, p)
    a, dp = _integral(p)
    c, dq = _integral(q)
    d = dp * dq
    rw, iw, rx, ix, ry, iy, rz, iz = _hamilton_int(a, c)
    return (_reduced(rw, iw, d), _reduced(rx, ix, d), _reduced(ry, iy, d), _reduced(rz, iz, d))


def _pairing(p, q):
    """The sum p_w q_w + p_x q_x + p_y q_y + p_z q_z, as one Gaussian rational.

    p and q are (w, x, y, z) tuples; None unless all eight components are
    GaussianRational.  As in :func:`_hamilton`, both operands are brought to
    one denominator each, so the sum is one Gaussian integer
    (:func:`_pairing_int`) over dp*dq, reduced once.
    """
    if not _all_gaussian(p, q):
        return None
    a, dp = _integral(p)
    c, dq = _integral(q)
    re, im = _pairing_int(a, c)
    return _reduced(re, im, dp * dq)


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    The value (a + i*b)/d is held as three ints in canonical form (see the
    module docstring).  Like ``Fraction`` it is immutable: the ints live in
    private slots, and every public attribute is read-only.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        p, q = _parts(re)
        r, s = _parts(im)
        a, b, d = p * s, r * q, q * s
        g = gcd(a, b, d)
        self._a, self._b, self._d = a // g, b // g, d // g

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is GaussianRational:
            c, e, f = other._a, other._b, other._d
        else:
            o = _operand(other)
            if o is None:
                return complex(self) + other if _float_operand(other) else NotImplemented
            c, e, f = o
        d = self._d
        if d == f:
            return _reduced(self._a + c, self._b + e, d)
        return _reduced(self._a * f + c * d, self._b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussianRational:
            c, e, f = other._a, other._b, other._d
        else:
            o = _operand(other)
            if o is None:
                return complex(self) - other if _float_operand(other) else NotImplemented
            c, e, f = o
        d = self._d
        if d == f:
            return _reduced(self._a - c, self._b - e, d)
        return _reduced(self._a * f - c * d, self._b * f - e * d, d * f)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _made(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = _operand(other)
        if o is None:
            return complex(self) * other if _float_operand(other) else NotImplemented
        c, e, f = o
        a, b = self._a, self._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _operand(other)
        if o is None:
            return complex(self) / other if _float_operand(other) else NotImplemented
        c, e, f = o
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self._a, self._b
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other):
        o = _operand(other)
        if o is None:
            return other / complex(self) if _float_operand(other) else NotImplemented
        return _made(*o) / self

    # -- protocol shared with complex ---------------------------------------

    def conjugate(self):
        return _made(self._a, -self._b, self._d)

    @property
    def re(self):
        """The real part, as a Fraction."""
        return Fraction(self._a, self._d)

    @property
    def im(self):
        """The imaginary part, as a Fraction."""
        return Fraction(self._b, self._d)

    real = re
    imag = im

    def __complex__(self):
        # int / int is correctly rounded, so this equals float() of each Fraction
        return complex(self._a / self._d, self._b / self._d)

    def __abs__(self):
        return abs(complex(self))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        if isinstance(other, (float, complex)):
            # exact comparison, as Fraction does with a float
            return self.re == other.real and self.im == other.imag
        return NotImplemented

    def __hash__(self):
        # the hash of complex, so equal numbers hash alike across the backends
        h = hash(self.re) + sys.hash_info.imag * hash(self.im)
        h = (h + _HASH_HALF) % (2 * _HASH_HALF) - _HASH_HALF
        return -2 if h == -1 else h

    def __repr__(self):
        if not self._b:
            return f"{self.re}"
        return f"({self.re}{'+' if self._b >= 0 else ''}{self.im}i)"


_HASH_HALF = 1 << (sys.hash_info.width - 1)

GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor for exact complex scalars."""
    return GaussianRational(re, im)


# every entry of a GaussianIntArray stays below this, so int64 never wraps
_INT_LIMIT = 1 << 62


def _headroom(bound):
    if bound >= _INT_LIMIT:
        raise OverflowError(f"a GaussianIntArray entry could reach {bound} >= 2**62")


def _entries(x):
    """x as an int64 array, and the largest absolute value of its entries."""
    a = np.asarray(x)
    if a.dtype.kind == "O" and a.size and all(isinstance(v, int) for v in a.flat):
        raise OverflowError("a GaussianIntArray entry does not fit in 64 bits")
    if a.dtype.kind not in "biu" and a.size:
        raise TypeError(f"cannot build a GaussianIntArray from {a.dtype} entries")
    bound = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    _headroom(bound)
    return a.astype(np.int64, copy=False), bound


class GaussianIntArray:
    """A batch of exact Gaussian rationals (re + i*im) / scale.

    ``re`` and ``im`` are int64 arrays with one entry per sample and
    ``scale`` is one positive integer shared by the batch.  Sums and
    differences need equal scales and products multiply them, which is all a
    homogeneous identity needs, so nothing is ever rescaled.  Each batch
    keeps a bound on the absolute value of its entries, measured once when it
    is built from data; an operation derives its result's bound from its
    operands' bounds, so it reduces no array to check its headroom.  Every
    operation raises OverflowError before that bound could reach 2**62;
    int64 would wrap silently.  Truth means "nonzero on some sample", so an identity
    holds on the whole batch exactly when its residual is false.
    """

    __slots__ = ("re", "im", "scale", "_bound")

    def __init__(self, re, im, scale=1):
        if type(scale) is not int or scale <= 0:
            raise ValueError(f"the scale of a GaussianIntArray must be a positive int, not {scale!r}")
        self.re, re_bound = _entries(re)
        self.im, im_bound = _entries(im)
        self.scale = scale
        self._bound = max(re_bound, im_bound)

    @staticmethod
    def _of(re, im, scale, bound):
        """The batch of int64 arrays whose entries are at most bound in absolute value."""
        z = object.__new__(GaussianIntArray)
        z.re = re
        z.im = im
        z.scale = scale
        z._bound = bound
        return z

    def _operand(self, other, same_scale):
        """other as a batch; None for a type that is no scalar at all."""
        if isinstance(other, GaussianIntArray):
            if same_scale and other.scale != self.scale:
                raise ValueError(f"scales {self.scale} and {other.scale} differ")
            return other
        if isinstance(other, (GaussianRational, int, Fraction, float, complex)):
            raise MixedBackend(f"a GaussianIntArray does not combine with "
                               f"{type(other).__name__}")
        return None

    def __add__(self, other):
        o = self._operand(other, True)
        if o is None:
            return NotImplemented
        bound = self._bound + o._bound
        _headroom(bound)
        return GaussianIntArray._of(self.re + o.re, self.im + o.im, self.scale, bound)

    def __sub__(self, other):
        o = self._operand(other, True)
        if o is None:
            return NotImplemented
        bound = self._bound + o._bound
        _headroom(bound)
        return GaussianIntArray._of(self.re - o.re, self.im - o.im, self.scale, bound)

    def __mul__(self, other):
        o = self._operand(other, False)
        if o is None:
            return NotImplemented
        bound = 2 * self._bound * o._bound
        _headroom(bound)
        return GaussianIntArray._of(self.re * o.re - self.im * o.im,
                                    self.re * o.im + self.im * o.re, self.scale * o.scale, bound)

    def _reflected(self, other):
        # reached only for another type: a scalar raises MixedBackend
        self._operand(other, False)
        return NotImplemented

    __radd__ = __rsub__ = __rmul__ = _reflected

    def __neg__(self):
        return GaussianIntArray._of(-self.re, -self.im, self.scale, self._bound)

    def conjugate(self):
        return GaussianIntArray._of(self.re, -self.im, self.scale, self._bound)

    def nonzero(self):
        """Boolean mask of the samples that are not zero."""
        return (self.re != 0) | (self.im != 0)

    def __bool__(self):
        return bool(self.re.any() or self.im.any())


def largest(values):
    """The largest entry of some floats and float arrays, as a float; NaN
    when any entry is NaN.  Builtin ``max`` keeps a NaN only when it comes
    first, so a residual that is NaN in one sample could pass a check."""
    top = [float(np.max(v)) if isinstance(v, np.ndarray) else v for v in values]
    return nan if any(v != v for v in top) else float(max(top))


def is_exact(x) -> bool:
    """True for a scalar of the exact backend: Gaussian rational, int or Fraction,
    or a batch of Gaussian rationals."""
    return isinstance(x, (GaussianRational, int, Fraction, GaussianIntArray))

