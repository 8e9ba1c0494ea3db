"""Biquaternion algebra: Hamilton product, conjugations, frames, Peirce basis.

A biquaternion is a scalar plus 3-vector with complex components.  The
product follows Hamilton's convention (e1*e2 = e3, e_n**2 = -1).  Components
are either exact :class:`~bqspin.scalars.GaussianRational` values or Python
``complex``; all operations work uniformly over both backends.  The backend of
an element is the type of its components (see :meth:`Biquaternion.is_exact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidFrame, MixedBackend, SingularOperand
from .scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational, gr, is_exact


def _lift(*values):
    """Lift bare numbers into one backend: exact when all of them are rational."""
    if all(is_exact(v) for v in values):
        return [v if isinstance(v, GaussianRational) else GaussianRational(v)
                for v in values]
    return [complex(v) for v in values]


@dataclass(frozen=True, slots=True)
class Biquaternion:
    """Element of the biquaternion algebra, stored as (w; x, y, z)."""

    w: object
    x: object
    y: object
    z: object

    # -- constructors --------------------------------------------------------

    # Each constructor is exact when every number it is given is rational,
    # and float otherwise; none of them produces a mix.

    @staticmethod
    def scalar(s):
        w, zero = _lift(s, GR_ZERO)
        return Biquaternion(w, zero, zero, zero)

    @staticmethod
    def vector(x, y, z):
        return Biquaternion(*_lift(GR_ZERO, x, y, z))

    @staticmethod
    def zero():
        return Biquaternion(GR_ZERO, GR_ZERO, GR_ZERO, GR_ZERO)

    @staticmethod
    def one():
        return Biquaternion(GR_ONE, GR_ZERO, GR_ZERO, GR_ZERO)

    @staticmethod
    def from_real_coords(coords):
        """Build from 8 real coordinates in the basis (1, e1, e2, e3, i, ie1, ie2, ie3)."""
        a = list(coords)
        if all(is_exact(c) for c in a):
            return Biquaternion(*(GaussianRational(a[k], a[k + 4]) for k in range(4)))
        return Biquaternion(*(complex(float(a[k]), float(a[k + 4])) for k in range(4)))

    # -- views ---------------------------------------------------------------

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def scalar_part(self):
        return self.w

    def vector_part(self):
        return Biquaternion.vector(self.x, self.y, self.z)

    def real_coords(self):
        """8 real coordinates in the basis (1, e1, e2, e3, i, ie1, ie2, ie3)."""
        cs = self.components()
        return [c.real for c in cs] + [c.imag for c in cs]

    def is_exact(self):
        """True when all four components are exact, False when none is.

        Raises MixedBackend when the components disagree.
        """
        exact = [is_exact(c) for c in self.components()]
        if all(exact):
            return True
        if any(exact):
            raise MixedBackend(f"components mix exact and float scalars: {self!r}")
        return False

    def to_float(self):
        return Biquaternion(*(complex(c) for c in self.components()))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Biquaternion):
            return NotImplemented
        return Biquaternion(self.w + other.w, self.x + other.x,
                            self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        if not isinstance(other, Biquaternion):
            return NotImplemented
        return Biquaternion(self.w - other.w, self.x - other.x,
                            self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Biquaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            aw, ax, ay, az = self.components()
            bw, bx, by, bz = other.components()
            return Biquaternion(
                aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by + ay * bw + az * bx - ax * bz,
                aw * bz + az * bw + ax * by - ay * bx,
            )
        return Biquaternion(self.w * other, self.x * other,
                            self.y * other, self.z * other)

    def __rmul__(self, other):
        # scalars commute with everything
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, Biquaternion):
            return self * other.inverse()
        return Biquaternion(self.w / other, self.x / other,
                            self.y / other, self.z / other)

    # -- conjugations --------------------------------------------------------

    def bar(self):
        """Quaternion conjugation: negate the vector part."""
        return Biquaternion(self.w, -self.x, -self.y, -self.z)

    def star(self):
        """Imaginary conjugation: conjugate every component."""
        return Biquaternion(*(c.conjugate() for c in self.components()))

    def plus(self):
        """Bi-conjugation, the composition of bar and star."""
        return Biquaternion(self.w.conjugate(), -self.x.conjugate(),
                            -self.y.conjugate(), -self.z.conjugate())

    def reverse(self):
        """Order reversal: fix the scalar, conjugate the vector components.

        This is the involution tied to flipping the sign of the vector
        product; it fixes complex scalars and real vectors, and it is the
        map that sends the field bivector of the massive spin-1 system to
        its reversed partner (see fields.proca_residual and its tests).
        It is real-linear but neither complex-linear nor antilinear.
        """
        return Biquaternion(self.w, self.x.conjugate(), self.y.conjugate(),
                            self.z.conjugate())

    # -- norms and classification ---------------------------------------------

    def norm(self):
        """The complex scalar q * q.bar()."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def unitary_norm(self):
        """The real, nonnegative scalar part of q.plus() * q."""
        total = 0
        for c in self.components():
            total = total + c.real * c.real + c.imag * c.imag
        return total

    def is_singular(self):
        return not self.norm()

    def inverse(self):
        n = self.norm()
        if not n:
            raise SingularOperand("cannot invert a singular biquaternion")
        return self.bar() / n

    # -- comparisons ----------------------------------------------------------

    def is_zero(self):
        return not any(bool(c) for c in self.components())

    def max_abs(self):
        return max(abs(complex(c)) for c in self.components())

    def __repr__(self):
        return f"Biquaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


# Convenience scalar products ------------------------------------------------

def minkowski_product(a: Biquaternion, b: Biquaternion):
    """Scalar part of a.bar() * b (the relativistic pairing)."""
    return a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z


def unitary_product(a: Biquaternion, b: Biquaternion):
    """Scalar part of a.plus() * b (the quantum pairing)."""
    return (a.w.conjugate() * b.w + a.x.conjugate() * b.x
            + a.y.conjugate() * b.y + a.z.conjugate() * b.z)


def classify(q: Biquaternion):
    """Return the complex norm and whether the element is null."""
    return {"norm": q.norm(), "singular": q.is_singular()}


def conjugations(q: Biquaternion):
    """All four involutions of the algebra applied to q."""
    return {"bar": q.bar(), "star": q.star(), "plus": q.plus(), "reverse": q.reverse()}


# Frames and the Peirce basis --------------------------------------------------

def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


@dataclass(frozen=True, slots=True)
class Frame:
    """Orthonormal pair (nu, tau) with the derived idempotent/nilpotent basis.

    sigma = (1 + i*nu)/2 is idempotent with sigma * sigma.bar() = 0; the four
    elements (sigma, tau*sigma, sigma.bar(), tau*sigma.bar()) span the algebra
    over the complex scalars.
    """

    nu: Biquaternion
    tau: Biquaternion
    sigma: Biquaternion
    sigma_bar: Biquaternion
    tau_sigma: Biquaternion
    tau_sigma_bar: Biquaternion

    @property
    def i_nu(self):
        return self.nu * GR_I

    def basis(self):
        return (self.sigma, self.tau_sigma, self.sigma_bar, self.tau_sigma_bar)


# how far a float frame may be from orthonormal
_FRAME_TOL = 1e-12


def make_frame(nu_vec, tau_vec) -> Frame:
    """Build a Frame from two real 3-vectors (rational entries give exact mode)."""
    exact = all(is_exact(c) for c in tuple(nu_vec) + tuple(tau_vec))
    if exact:
        nv = [Fraction(c) for c in nu_vec]
        tv = [Fraction(c) for c in tau_vec]
        ok = (_dot3(nv, nv) == 1 and _dot3(tv, tv) == 1 and _dot3(nv, tv) == 0)
    else:
        nv = [float(c) for c in nu_vec]
        tv = [float(c) for c in tau_vec]
        ok = (abs(_dot3(nv, nv) - 1) <= _FRAME_TOL and abs(_dot3(tv, tv) - 1) <= _FRAME_TOL
              and abs(_dot3(nv, tv)) <= _FRAME_TOL)
    if not ok:
        raise InvalidFrame("frame vectors must be orthogonal unit 3-vectors")

    nu = Biquaternion.vector(*nv)
    tau = Biquaternion.vector(*tv)
    sigma = (Biquaternion.one() + nu * GR_I) * gr(Fraction(1, 2))
    sigma_bar = sigma.bar()
    return Frame(
        nu=nu,
        tau=tau,
        sigma=sigma,
        sigma_bar=sigma_bar,
        tau_sigma=tau * sigma,
        tau_sigma_bar=tau * sigma_bar,
    )


DEFAULT_FRAME = make_frame((0, 0, 1), (1, 0, 0))


def peirce_decompose(q: Biquaternion, f: Frame):
    """Complex coordinates (x1, x2, x3, x4) of q in the Peirce basis.

    Closed form: sandwiching with sigma / sigma.bar() isolates each basis
    element, e.g. sigma*q*sigma = x1*sigma.
    """
    s, sb, t = f.sigma, f.sigma_bar, f.tau
    two = 2
    x1 = two * (s * q * s).scalar_part()
    x2 = -two * (t * (sb * q * s)).scalar_part()
    x3 = two * (sb * q * sb).scalar_part()
    x4 = -two * (t * (s * q * sb)).scalar_part()
    return (x1, x2, x3, x4)


def peirce_compose(coords, f: Frame) -> Biquaternion:
    x1, x2, x3, x4 = coords
    return (f.sigma * x1 + f.tau_sigma * x2
            + f.sigma_bar * x3 + f.tau_sigma_bar * x4)


# Basis constants ---------------------------------------------------------------

def basis_elements(exact=True):
    """The 8 real-basis elements (1, e1, e2, e3, i, ie1, ie2, ie3).

    The one constructor that takes a backend: exact, or float with exact=False.
    """
    real = [Biquaternion.one(), Biquaternion.vector(1, 0, 0),
            Biquaternion.vector(0, 1, 0), Biquaternion.vector(0, 0, 1)]
    basis = real + [b * GR_I for b in real]
    return basis if exact else [b.to_float() for b in basis]


def random_rational_biquaternion(rng, span=6):
    """Random exact biquaternion with small rational components."""
    def comp():
        return gr(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                  Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    return Biquaternion(comp(), comp(), comp(), comp())


def random_real_quaternion(rng, span=6):
    """Random exact quaternion with real rational components."""
    def comp():
        return gr(Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    return Biquaternion(comp(), comp(), comp(), comp())


def random_rational_frame(rng):
    """Random exact orthonormal frame from a rational rotation.

    Conjugation by a nonzero rational quaternion q maps e3 and e1 to an
    orthonormal pair with rational components (the rotation matrix of q has
    rational entries after dividing by the norm).
    """
    while True:
        q = random_real_quaternion(rng, span=4)
        n = q.norm()
        if bool(n):
            break
    qinv = q.bar() / n
    e3 = Biquaternion.vector(0, 0, 1)
    e1 = Biquaternion.vector(1, 0, 0)
    nu = q * e3 * qinv
    tau = q * e1 * qinv
    nv = [c.re for c in (nu.x, nu.y, nu.z)]
    tv = [c.re for c in (tau.x, tau.y, tau.z)]
    return make_frame(nv, tv)
