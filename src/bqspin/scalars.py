"""Scalar backends: exact Gaussian rationals and ordinary complex floats.

Every biquaternion component is either a :class:`GaussianRational` (exact
mode) or a Python ``complex`` (float mode).  Both expose the same arithmetic
protocol plus ``conjugate()``, so the algebra layer never branches on the
backend.  The backend is a property of the values: exact with exact stays
exact, and exact with float gives float, just as int with float gives float.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) - other
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) / other
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / complex(self)
        return o / self

    # -- protocol shared with complex ---------------------------------------

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    @property
    def real(self):
        return self.re

    @property
    def imag(self):
        return self.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction, float, complex)):
            # exact comparison, as Fraction does with a float
            return self.re == other.real and self.im == other.imag
        return NotImplemented

    def __hash__(self):
        # the hash of complex, so equal numbers hash alike across the backends
        h = hash(self.re) + sys.hash_info.imag * hash(self.im)
        h = (h + _HASH_HALF) % (2 * _HASH_HALF) - _HASH_HALF
        return -2 if h == -1 else h

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


_HASH_HALF = 1 << (sys.hash_info.width - 1)

GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor for exact complex scalars."""
    return GaussianRational(re, im)


def is_exact(x) -> bool:
    """True for a scalar of the exact backend: Gaussian rational, int or Fraction."""
    return isinstance(x, (GaussianRational, int, Fraction))

