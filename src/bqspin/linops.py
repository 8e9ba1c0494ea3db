"""Real-linear operators on the 8-real-dimensional biquaternion algebra.

Operators are stored as 8x8 real matrices over the basis
(1, e1, e2, e3, i, ie1, ie2, ie3).  This uniform representation covers both
complex-linear maps (left/right multiplications) and antilinear ones
(anything involving component conjugation), which complex 4x4 matrices
cannot express.

The matrix is a numpy array that follows the scalar backend rule: a
``float64`` array when any entry is float, otherwise an ``object`` array of
exact ``int``/``Fraction`` entries.  Exact with exact stays exact, and exact
with float gives float, so composing an exact operator with a float one
gives a float operator.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .biquaternion import Biquaternion, basis_elements
from .scalars import is_exact


_BASIS_EXACT = basis_elements(exact=True)
_BASIS_FLOAT = basis_elements(exact=False)
_IS_EXACT = np.frompyfunc(is_exact, 1, 1)


def _real_matrix(matrix):
    """The matrix as float64 when any entry is float, else as an object
    array of exact int/Fraction entries (never a fixed-width int array)."""
    m = np.asarray(matrix)
    if m.dtype == np.float64:
        return m
    m = m.astype(object)
    return m if _IS_EXACT(m).all() else m.astype(float)


class RealLinearOp:
    """A real-linear map on the biquaternion algebra, as an 8x8 matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = _real_matrix(matrix)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_function(fn, basis=_BASIS_EXACT):
        """Matrix of an arbitrary real-linear function on the algebra.

        fn is evaluated on ``basis``, the real basis in one backend
        (``basis_elements``); the float basis keeps float closures unmixed.
        """
        cols = [fn(b).real_coords() for b in basis]
        return RealLinearOp(np.array(cols).T)

    @staticmethod
    def identity():
        return RealLinearOp(np.eye(8, dtype=object))

    @staticmethod
    def zero():
        return RealLinearOp(np.zeros((8, 8), dtype=object))

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        return RealLinearOp(self.matrix + other.matrix)

    def __sub__(self, other):
        return RealLinearOp(self.matrix - other.matrix)

    def __neg__(self):
        return RealLinearOp(-self.matrix)

    def scale(self, c):
        """Multiply by a real scalar."""
        return RealLinearOp(self.matrix * c)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Operator composition: (self @ other)(x) = self(other(x))."""
        return RealLinearOp(self.matrix @ other.matrix)

    def apply(self, q: Biquaternion) -> Biquaternion:
        return Biquaternion.from_real_coords(self.matrix @ np.array(q.real_coords()))

    def __call__(self, q: Biquaternion) -> Biquaternion:
        return self.apply(q)

    # -- comparisons ------------------------------------------------------------

    def max_abs_diff(self, other) -> float:
        return float(np.abs(self.to_numpy() - other.to_numpy()).max())

    def equal(self, other, tol=0.0) -> bool:
        if tol == 0.0:
            return bool((self.matrix == other.matrix).all())
        return self.max_abs_diff(other) <= tol

    def to_numpy(self):
        return self.matrix.astype(float)

    def norm(self):
        return float(np.linalg.norm(self.to_numpy()))


# Slot monomials -----------------------------------------------------------------


def monomial(left: Biquaternion, right: Biquaternion):
    """Operator x -> left * x * right, complex-linear.

    The operator is float when either factor is float.
    """
    return RealLinearOp.from_function(lambda x: left * x * right, _basis_of(left, right))


def _basis_of(*factors):
    """The real basis in the backend of the factors: float when any is float."""
    exact = all(q.is_exact() for q in factors)
    return _BASIS_EXACT if exact else _BASIS_FLOAT


def left_mul(a: Biquaternion):
    return RealLinearOp.from_function(lambda x: a * x, _basis_of(a))


# multiplication by i, built on the float basis so that composing it with
# the float generators stays in complex arithmetic
MUL_I = left_mul(Biquaternion.scalar(1j))


def op_exp(f: RealLinearOp) -> RealLinearOp:
    """Matrix exponential by scipy's scaling-and-squaring Pade method
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970)."""
    return RealLinearOp(expm(f.to_numpy()))
