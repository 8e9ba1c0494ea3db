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

A stack of n operators is one operator whose matrix is (n, 8, 8), one
sample per leading entry, as a sweep makes them: factors whose components
are arrays of n samples give one (``monomial``), and so do n axes and
angles (``spin.rotate``).  Composition, sums, ``apply``, ``op_exp`` and the
comparisons broadcast over stacks as numpy's ``matmul`` does, so a single
operator is the case without a leading axis of the same code.
"""

from __future__ import annotations

import numpy as np

from .biquaternion import Biquaternion, basis_elements
from .scalars import is_exact


_BASIS_EXACT = basis_elements(exact=True)
_BASIS_FLOAT = basis_elements(exact=False)
_IS_EXACT = np.frompyfunc(is_exact, 1, 1)
# the real and imaginary parts of each entry of an object array, whose own
# .real is the array itself
_REAL = np.frompyfunc(lambda c: c.real, 1, 1)
_IMAG = np.frompyfunc(lambda c: c.imag, 1, 1)


def _real_matrix(matrix):
    """The matrix as float64 when any entry is float, else as an object
    array of exact int/Fraction entries (never a fixed-width int array)."""
    m = np.asarray(matrix)
    if m.dtype == np.float64:
        return m
    m = m.astype(object)
    return m if _IS_EXACT(m).all() else m.astype(float)


def _stacked(basis):
    """The 8 elements of a real basis as one element whose components hold
    element k at entry k: complex arrays, or object arrays of exact scalars."""
    return Biquaternion(*np.array([b.components() for b in basis]).T)


def _coordinate_rows(q):
    """The 8 real coordinates of an element whose components are arrays of
    one shape, as one array with the coordinate on its first axis."""
    c = np.array(q.components())
    if c.dtype == object:
        return np.concatenate([_REAL(c), _IMAG(c)])
    return np.concatenate([c.real, c.imag])


class RealLinearOp:
    """A real-linear map on the biquaternion algebra, as an 8x8 matrix, or
    a stack of n of them as an (n, 8, 8) one."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = _real_matrix(matrix)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_function(fn, basis=_BASIS_EXACT):
        """Matrix of a real-linear function on the algebra, or a stack of them.

        fn is evaluated once, on the 8 elements of ``basis``, the real basis
        in one backend (``basis_elements``), stacked into one element: unit k
        is entry k of the last axis of each component.  The float basis
        keeps float closures unmixed.  A closure whose components are arrays
        with a trailing axis of length 1 broadcasts against the units and
        gives a stack, one matrix per leading entry.
        """
        rows = _coordinate_rows(fn(_stacked(basis)))
        # the coordinate axis goes next to the unit axis; np.moveaxis is
        # several times slower on arrays this small
        return RealLinearOp(rows.transpose(*range(1, rows.ndim - 1), 0, rows.ndim - 1))

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
        """Multiply by a real scalar, or a stack by an array of them, one
        per operator."""
        if isinstance(c, np.ndarray):
            c = c[..., None, None]
        return RealLinearOp(self.matrix * c)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Operator composition: (self @ other)(x) = self(other(x))."""
        return RealLinearOp(self.matrix @ other.matrix)

    def apply(self, q: Biquaternion) -> Biquaternion:
        """The image of q; a stack, or q with array components, gives the
        images sample by sample."""
        x = np.array(q.real_coords())
        y = (self.matrix @ x.transpose(*range(1, x.ndim), 0)[..., None])[..., 0]
        return Biquaternion.from_real_coords(y.transpose(y.ndim - 1, *range(y.ndim - 1)))

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

    The operator is float when either factor is float.  Factors whose
    components are arrays of n samples give the stack of the n operators.
    """
    left, right = _trailing_axis(left), _trailing_axis(right)
    return RealLinearOp.from_function(lambda x: left * x * right, _basis_of(left, right))


def _trailing_axis(q):
    """q with a trailing axis of length 1 on each array component, so that
    it broadcasts against the stacked basis units."""
    return Biquaternion(*(c[..., None] if isinstance(c, np.ndarray) else c
                          for c in q.components()))


def _basis_of(*factors):
    """The real basis in the backend of the factors: float when any is float."""
    exact = all(q.is_exact() for q in factors)
    return _BASIS_EXACT if exact else _BASIS_FLOAT


# multiplication by i, built on the float basis so that composing it with
# the float generators stays in complex arithmetic
MUL_I = monomial(Biquaternion.scalar(1j), Biquaternion.scalar(1.0))


def op_exp(f: RealLinearOp) -> RealLinearOp:
    """Matrix exponential by scipy's scaling-and-squaring Pade method
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970).  A stack
    takes one call; scipy exponentiates its slices one by one, each as a
    single call would.

    scipy is imported here, not at module level, so that the exact suites,
    which never exponentiate, do not pay for loading it."""
    from scipy.linalg import expm
    return RealLinearOp(expm(f.to_numpy()))
