"""Real-linear operators on the 8-real-dimensional biquaternion algebra.

Operators are stored as 8x8 real matrices over the basis
(1, e1, e2, e3, i, ie1, ie2, ie3).  This uniform representation covers both
complex-linear maps (left/right multiplications) and antilinear ones
(anything involving component conjugation), which complex 4x4 matrices
cannot express.  Entries are Fractions in exact mode or floats otherwise;
an operator built from float data is float.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .biquaternion import Biquaternion, basis_elements
from .scalars import GR_I


_BASIS_EXACT = basis_elements(exact=True)
_BASIS_FLOAT = basis_elements(exact=False)


class RealLinearOp:
    """A real-linear map on the biquaternion algebra, as an 8x8 matrix."""

    __slots__ = ("matrix", "label")

    def __init__(self, matrix, label=""):
        self.matrix = [list(row) for row in matrix]
        self.label = label

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_function(fn, label="", basis=_BASIS_EXACT):
        """Matrix of an arbitrary real-linear function on the algebra.

        fn is evaluated on ``basis``, the real basis in one backend
        (``basis_elements``); the float basis keeps float closures unmixed.
        """
        cols = [fn(b).real_coords() for b in basis]
        matrix = [[cols[j][i] for j in range(8)] for i in range(8)]
        return RealLinearOp(matrix, label)

    @staticmethod
    def identity(label="id"):
        one, zero = Fraction(1), Fraction(0)
        return RealLinearOp([[one if i == j else zero for j in range(8)]
                             for i in range(8)], label)

    @staticmethod
    def zero():
        return RealLinearOp([[Fraction(0)] * 8 for _ in range(8)], "0")

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        return RealLinearOp(
            [[a + b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.matrix, other.matrix)])

    def __sub__(self, other):
        return RealLinearOp(
            [[a - b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.matrix, other.matrix)])

    def __neg__(self):
        return RealLinearOp([[-a for a in row] for row in self.matrix])

    def scale(self, c):
        """Multiply by a real scalar."""
        return RealLinearOp([[a * c for a in row] for row in self.matrix])

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Operator composition: (self @ other)(x) = self(other(x))."""
        m, n = self.matrix, other.matrix
        out = []
        for i in range(8):
            row = []
            mi = m[i]
            for j in range(8):
                acc = mi[0] * n[0][j]
                for k in range(1, 8):
                    acc += mi[k] * n[k][j]
                row.append(acc)
            out.append(row)
        return RealLinearOp(out)

    def apply(self, q: Biquaternion) -> Biquaternion:
        coords = q.real_coords()
        out = []
        for i in range(8):
            acc = sum(self.matrix[i][k] * coords[k] for k in range(8))
            out.append(acc)
        return Biquaternion.from_real_coords(out)

    def __call__(self, q: Biquaternion) -> Biquaternion:
        return self.apply(q)

    # -- comparisons ------------------------------------------------------------

    def max_abs_diff(self, other) -> float:
        return max(
            abs(float(a) - float(b))
            for ra, rb in zip(self.matrix, other.matrix)
            for a, b in zip(ra, rb)
        )

    def equal(self, other, tol=0.0) -> bool:
        if tol == 0.0:
            return all(a == b
                       for ra, rb in zip(self.matrix, other.matrix)
                       for a, b in zip(ra, rb))
        return self.max_abs_diff(other) <= tol

    def to_numpy(self):
        return np.array([[float(a) for a in row] for row in self.matrix], dtype=float)

    def norm(self):
        return float(np.linalg.norm(self.to_numpy()))

    def __repr__(self):
        tag = f" {self.label}" if self.label else ""
        return f"<RealLinearOp{tag}>"


# Flavored slot monomials -------------------------------------------------------

_FLAVORS = ("id", "star", "bar", "plus")


def monomial(left: Biquaternion, right: Biquaternion, slot_flavor="id", label=""):
    """Operator x -> left * flavor(x) * right.

    Flavors star and plus produce antilinear operators; id and bar are
    complex-linear.  The operator is float when either factor is float.
    """
    if slot_flavor not in _FLAVORS:
        raise ValueError(f"unknown slot flavor {slot_flavor!r}")

    def fn(x):
        if slot_flavor == "star":
            x = x.star()
        elif slot_flavor == "bar":
            x = x.bar()
        elif slot_flavor == "plus":
            x = x.plus()
        return left * x * right

    return RealLinearOp.from_function(fn, label, _basis_of(left, right))


def _basis_of(*factors):
    """The real basis in the backend of the factors: float when any is float."""
    exact = all(q.is_exact() for q in factors)
    return _BASIS_EXACT if exact else _BASIS_FLOAT


def left_mul(a: Biquaternion, label=""):
    return RealLinearOp.from_function(lambda x: a * x, label or "L", _basis_of(a))


def right_mul(a: Biquaternion, label=""):
    return RealLinearOp.from_function(lambda x: x * a, label or "R", _basis_of(a))


def conj_op(flavor):
    """The operator applying one of the four conjugations."""
    one = Biquaternion.one()
    return monomial(one, one, flavor, label=flavor)


def mul_i_op():
    """The multiply-by-i operator."""
    return RealLinearOp.from_function(lambda x: x * GR_I, "i*")


def reverse_op():
    return RealLinearOp.from_function(lambda x: x.reverse(), "rev")


def commutes_with_i(op: RealLinearOp, tol=1e-12) -> bool:
    J = mul_i_op()
    return (op @ J).equal(J @ op, tol)


def anticommutes_with_i(op: RealLinearOp, tol=1e-12) -> bool:
    J = mul_i_op()
    return ((op @ J) + (J @ op)).equal(RealLinearOp.zero(), tol)


def op_equal(f: RealLinearOp, g: RealLinearOp, tol=0.0) -> bool:
    """Entrywise equality, exact when tol == 0."""
    return f.equal(g, tol)


def op_exp(f: RealLinearOp) -> RealLinearOp:
    """Matrix exponential by scaling-and-squaring with a truncated series.

    The squaring count is chosen so the scaled norm is below 1/2, and the
    series order 18 keeps the unit-inverse residual below 1e-12 for the
    generator norms that appear in the rotation/boost suites.
    """
    m = f.to_numpy()
    norm = np.linalg.norm(m, 1)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        m = m / (2.0 ** squarings)
    acc = np.eye(8)
    term = np.eye(8)
    for k in range(1, 19):
        term = term @ m / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return RealLinearOp(acc.tolist(), label=f"exp({f.label})" if f.label else "exp")
