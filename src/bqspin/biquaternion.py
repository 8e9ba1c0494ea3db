"""Biquaternion algebra: Hamilton product, conjugations, frames, Peirce basis.

A biquaternion is a scalar plus 3-vector with complex components.  The
product follows Hamilton's convention (e1*e2 = e3, e_n**2 = -1).  Components
are either exact :class:`~bqspin.scalars.GaussianRational` values or Python
``complex``; all operations work uniformly over both backends.  The backend of
an element is the type of its components (see :meth:`Biquaternion.is_exact`).
The ring operations, the involutions and ``norm`` also run unchanged on
:class:`~bqspin.scalars.GaussianIntArray` components, one sample per entry
(see :func:`random_rational_batch`).  Every random exact element is decoded
from one draw of ``getrandbits`` words (``_draw_parts``): as coefficient
rows, as one element, or as a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import lcm
from numbers import Number

import numpy as np

from .errors import InvalidFrame, MixedBackend, SingularOperand
from .scalars import (GR_I, GR_ONE, GR_ZERO, GaussianIntArray, GaussianRational, _hamilton,
                      _integral, _pairing, _reduced, gr, is_exact, largest)

# the operands a Biquaternion scales component by component; for any other
# type (a Field, say) its product returns NotImplemented
_SCALARS = (Number, GaussianRational, GaussianIntArray, np.ndarray)


def _lift(*values):
    """Lift bare numbers into one backend: exact when all of them are rational.
    In float, a numpy array becomes a complex array, one sample per entry,
    and any other number a Python ``complex``."""
    if all(is_exact(v) for v in values):
        return [v if isinstance(v, GaussianRational) else GaussianRational(v)
                for v in values]
    return [np.asarray(v, dtype=complex) if isinstance(v, np.ndarray) else complex(v)
            for v in values]


@dataclass(frozen=True, slots=True, init=False)
class Biquaternion:
    """Element of the biquaternion algebra, stored as (w; x, y, z).

    The plain constructor does not check that the four components share one
    backend.  Every product and sum constructs an element, and four
    ``is_exact`` calls would cost about as much again as the construction
    (about 0.5-0.7 us each way in CPython 3.11), so the check is :meth:`is_exact`,
    which raises ``MixedBackend`` on a mix; the named constructors below
    never make one.  Components that are numpy float or complex arrays, one
    sample per entry (the batched sweeps of ``spin`` and ``lorentz``), are
    of the float backend.  ``linops`` also evaluates maps on object arrays
    of exact scalars, the stacked basis units.

    When all eight components of a product are ``GaussianRational``, the
    product is the fused integer kernel ``scalars._hamilton``: four values
    and four gcds, or, when either operand has one nonzero component, a
    signed permutation of the other's components times it (no gcd at all
    for 1, -1, i or -i).  Every other product (``complex``, numpy-array and
    ``GaussianIntArray`` components, or a mix from the plain constructor)
    is the component-wise formula on the scalars' own operators.
    """

    w: object
    x: object
    y: object
    z: object

    def __init__(self, w, x, y, z):
        # The frozen dataclass's own __init__ sets each slot through
        # object.__setattr__; the slot descriptors set them directly, in
        # about two thirds of the time, and every product and sum makes one.
        _SET_W(self, w)
        _SET_X(self, x)
        _SET_Y(self, y)
        _SET_Z(self, z)

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
        """Build from 8 real coordinates in the basis (1, e1, e2, e3, i, ie1, ie2, ie3).

        Float coordinates that are arrays of one shape, one sample per
        entry, give complex-array components; plain floats give Python
        ``complex`` components, whose scalar arithmetic is faster than
        numpy's."""
        a = list(coords)
        if all(is_exact(c) for c in a):
            return Biquaternion(*(GaussianRational(a[k], a[k + 4]) for k in range(4)))
        c = np.asarray(a, dtype=float)
        z = c[:4].astype(complex)
        z.imag = c[4:]
        return Biquaternion(*(z.tolist() if z.ndim == 1 else z))

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
            a = self.components()
            b = other.components()
            if type(self.w) is GaussianRational:
                prod = _hamilton(a, b)
                if prod is not None:
                    return Biquaternion(*prod)
            aw, ax, ay, az = a
            bw, bx, by, bz = b
            return Biquaternion(
                aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by + ay * bw + az * bx - ax * bz,
                aw * bz + az * bw + ax * by - ay * bx,
            )
        if not isinstance(other, _SCALARS):
            return NotImplemented
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

    def scalar_of_product(self, other):
        """scal(self * other) as a scalar element: the Minkowski pairing of
        self.bar() with other, as ``fields.Field.scalar_of_product`` is."""
        return Biquaternion.scalar(minkowski_product(self.bar(), other))

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
        return not (self.w or self.x or self.y or self.z)

    def max_abs(self):
        """The largest modulus of a component, over every sample of array
        components; NaN when any modulus is NaN."""
        return largest(abs(c) for c in self.components())

    def __repr__(self):
        return f"Biquaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


_SET_W, _SET_X, _SET_Y, _SET_Z = (Biquaternion.__dict__[name].__set__ for name in "wxyz")


# Convenience scalar products ------------------------------------------------

def minkowski_product(a: Biquaternion, b: Biquaternion):
    """Scalar part of a.bar() * b (the relativistic pairing).

    When all eight components are ``GaussianRational`` this is the integer
    kernel ``scalars._pairing``: one sum over a common denominator, reduced
    once.  Any other components take the formula below.  It sums in the
    order of the w component of the Hamilton product, and negation is exact
    in IEEE arithmetic, so in float ``minkowski_product(x.bar(), y)`` is
    ``(x * y).scalar_part()`` bit for bit, up to the sign of a zero.
    """
    s = _pairing(a.components(), b.components())
    if s is not None:
        return s
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
    # the float copy, made by the first to_float() call
    _float: Frame | None = field(default=None, init=False, repr=False, compare=False)
    # built on first use by ``fields``: the row kernels of ``pibar`` on this
    # frame, one per gradient convention, those of a free potential's
    # operators, and nu's row
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def i_nu(self):
        return self.nu * GR_I

    def basis(self):
        return (self.sigma, self.tau_sigma, self.sigma_bar, self.tau_sigma_bar)

    def to_float(self):
        """The same frame with every member in the float backend.

        The copy is made once and kept on the frame; it is its own float copy.
        """
        ff = self._float
        if ff is None:
            ff = Frame(*(getattr(self, fld.name).to_float()
                         for fld in fields(self) if fld.init))
            object.__setattr__(ff, "_float", ff)
            object.__setattr__(self, "_float", ff)
        return ff


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

    Sandwiching with sigma / sigma.bar() isolates each basis element, e.g.
    sigma*q*sigma = x1*sigma.  The scalar part is cyclic and
    tau*sigma.bar() = sigma*tau, so each sandwich is one pairing:
    x = (2, -2, 2, -2) * scal(d q) for d = sigma, sigma*tau, sigma.bar(),
    sigma.bar()*tau.  Since scal(d q) = minkowski_product(d.bar(), q) and
    (sigma*tau).bar() = -sigma*tau, each coordinate is twice the pairing of
    q with the partner basis element: sigma.bar(), tau*sigma.bar(), sigma,
    tau*sigma.  Twice a pairing is formed as its sum with itself, since a
    ``GaussianIntArray`` combines with no int.
    """
    s, ts, sb, tsb = f.basis()
    pairings = (minkowski_product(d, q) for d in (sb, tsb, s, ts))
    return tuple(x + x for x in pairings)


def peirce_compose(coords, f: Frame) -> Biquaternion:
    x1, x2, x3, x4 = coords
    return (f.sigma * x1 + f.tau_sigma * x2
            + f.sigma_bar * x3 + f.tau_sigma_bar * x4)


def _batch_frame(f: Frame) -> Frame:
    """The exact frame f with every component of every member a one-entry
    ``GaussianIntArray`` over D, the lcm of all the members' denominators.

    A one-entry batch broadcasts against a batch of samples, so
    ``peirce_decompose`` and ``peirce_compose`` run unchanged on a batch
    of q: each coordinate has D times the scale of q, and the recomposed
    q D^2 times it.  The members share one bound, the largest numerator
    of any of them.  Nothing is kept on f.
    """
    rows = [_integral(getattr(f, fld.name).components()) for fld in fields(f) if fld.init]
    d = lcm(*(dm for _, dm in rows))
    parts = np.array([[x * (d // dm) for x in r] for r, dm in rows],
                     dtype=np.int64).reshape(len(rows), 4, 2, 1)
    bound = int(np.abs(parts).max())
    return Frame(*(Biquaternion(*(GaussianIntArray._of(re, im, d, bound) for re, im in member))
                   for member in parts))


# Basis constants ---------------------------------------------------------------

def basis_elements(exact=True):
    """The 8 real-basis elements (1, e1, e2, e3, i, ie1, ie2, ie3).

    The one constructor that takes a backend: exact, or float with exact=False.
    """
    real = [Biquaternion.one(), Biquaternion.vector(1, 0, 0),
            Biquaternion.vector(0, 1, 0), Biquaternion.vector(0, 0, 1)]
    basis = real + [b * GR_I for b in real]
    return basis if exact else [b.to_float() for b in basis]


# the lcm of the denominators 1, 2, 3 of a drawn part
_DRAW_SCALE = 6
# 6 // d for the denominator d = 1, 2, 3, indexed by d - 1
_DEN_FACTOR = np.array([6, 3, 2], dtype=np.int64)
# the most 32-bit generator words read at once by a draw
_CHUNK = 4096


def _draw_parts(rng, count, span):
    """count exact rational parts, each an int over 6, as an int64 array.

    A part is a numerator uniform in [-span, span] over a denominator
    uniform in {1, 2, 3}.  The (numerator, denominator) pair is one value v
    uniform below 3 * (2*span + 1), split as
    ``den - 1, num + span = divmod(v, 2*span + 1)``.  v is the top bits of
    a 32-bit word of ``rng.getrandbits``, kept when it falls in range, so
    ``rng`` is read through ``getrandbits`` alone and the 3 * (2*span + 1)
    values must fit in one word (ValueError otherwise).  Each pass reads
    about as many words as the parts still missing need, at most
    ``_CHUNK``; the parts are the first count values kept, however the
    words are split into passes.
    """
    width = 2 * span + 1
    pairs = 3 * width
    # 3 does not divide 2**32, so this is pairs <= 2**32
    if not 0 < pairs < 1 << 32:
        raise ValueError(f"span {span} is not in 0..{((1 << 32) // 3 - 1) // 2}")
    bits = pairs.bit_length()
    shift = 32 - bits
    flat = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        # a word is kept with probability pairs / 2**bits > 1/2
        words = min(_CHUNK, ((count - filled) << bits) // pairs + 4)
        v = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                          "<u4").astype(np.int64) >> shift
        v = v[v < pairs][:count - filled]
        den, num = np.divmod(v, width)
        np.multiply(num - span, _DEN_FACTOR[den], out=flat[filled:filled + v.size])
        filled += v.size
    return flat


def _element(r, d):
    """The Biquaternion of the coefficient row r over d > 0: the eight ints
    (A_w, B_w, A_x, B_x, A_y, B_y, A_z, B_z) of the components (A + iB)/d."""
    return Biquaternion(_reduced(r[0], r[1], d), _reduced(r[2], r[3], d),
                        _reduced(r[4], r[5], d), _reduced(r[6], r[7], d))


def random_rational_rows(rng, n, span=6):
    """n random exact biquaternions as coefficient rows over 6.

    Each row is a tuple of eight ints, the real and imaginary parts of
    w, x, y, z in the order of ``_element``, each drawn as ``_draw_parts``
    draws it.
    """
    return [tuple(row) for row in _draw_parts(rng, 8 * n, span).reshape(n, 8).tolist()]


def random_rational_biquaternion(rng, span=6):
    """Random exact biquaternion with small rational components: the
    first row of ``random_rational_rows``."""
    return _element(random_rational_rows(rng, 1, span)[0], _DRAW_SCALE)


def random_rational_batch(rng, n, k, span=6):
    """k biquaternions whose components are batches of n exact samples.

    Sample i of the j-th element is row i*k + j of
    ``random_rational_rows(rng, n * k, span)``, each part an integer over
    the common denominator 6.
    """
    parts = _draw_parts(rng, n * k * 8, span).reshape(n, k, 4, 2).transpose(1, 2, 3, 0)
    # no entry exceeds span * 6 // 1
    bound = span * _DRAW_SCALE
    return [Biquaternion(*(GaussianIntArray._of(re, im, _DRAW_SCALE, bound) for re, im in element))
            for element in parts]


def random_real_quaternion(rng, span=6):
    """Random exact quaternion with real rational components, each drawn
    as ``_draw_parts`` draws a part."""
    return Biquaternion(*(_reduced(a, 0, _DRAW_SCALE) for a in _draw_parts(rng, 4, span).tolist()))


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
    _, e1, _, e3, *_ = basis_elements()
    nu = q * e3 * qinv
    tau = q * e1 * qinv
    nv = [c.re for c in (nu.x, nu.y, nu.z)]
    tv = [c.re for c in (tau.x, tau.y, tau.z)]
    return make_frame(nv, tv)
