"""Biquaternion algebra: Hamilton product, conjugations, frames, Peirce basis.

A biquaternion is a scalar plus 3-vector with complex components.  The
product follows Hamilton's convention (e1*e2 = e3, e_n**2 = -1).  Components
are either exact :class:`~bqspin.scalars.GaussianRational` values or Python
``complex``; all operations work uniformly over both backends.  The backend of
an element is the type of its components (see :meth:`Biquaternion.is_exact`).
The ring operations, the involutions and ``norm`` also run unchanged on
:class:`~bqspin.scalars.GaussianIntArray` components, one sample per entry
(see :func:`random_rational_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from numbers import Number

import numpy as np

from .errors import InvalidFrame, MixedBackend, SingularOperand
from .scalars import (GR_I, GR_ONE, GR_ZERO, GaussianIntArray, GaussianRational, _hamilton,
                      _pairing, gr, is_exact, largest)

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
    tau*sigma.
    """
    s, ts, sb, tsb = f.basis()
    return tuple(2 * minkowski_product(d, q) for d in (sb, tsb, s, ts))


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


# the lcm of the denominators 1, 2, 3 that random_rational_biquaternion draws
_BATCH_SCALE = 6
# 6 // d for the denominator d = 1, 2, 3 read from the top two bits 0, 1, 2 of a word
_DEN_FACTOR = np.array([6, 3, 2], dtype=np.int64)
# 32-bit generator words read at once by random_rational_batch
_CHUNK = 4096
_TWICE_INDEX = 2 * np.arange(_CHUNK)


def random_rational_batch(rng, n, k, span=6):
    """k biquaternions whose components are batches of n exact samples.

    Sample i of the j-th element is the biquaternion that the (i*k + j)-th of
    n*k calls of random_rational_biquaternion(rng, span) would draw, and rng
    is left in the state those calls would leave.  Each drawn numerator is
    stored as an integer over the common denominator 6.

    rng must be a ``random.Random``: the draws replay its ``randint``
    without calling it.  ``randint`` draws from a range of width w by
    reading one 32-bit Mersenne Twister word, keeping its top
    ``w.bit_length()`` bits and reading another word while that value is
    >= w.  Here the words come from ``getrandbits`` in chunks and numpy
    applies that rejection to a whole chunk, so the numerator width
    2*span + 1 must fit in 32 bits (ValueError otherwise).
    """
    width = 2 * span + 1
    if not 0 < width < 1 << 32:
        raise ValueError(f"span {span} is not in 0..2**31 - 1")
    shift = 32 - width.bit_length()
    # per sample, per element: re and im of w, x, y, z, each a numerator
    # and then a denominator, as comp() in random_rational_biquaternion draws them;
    # draw 2m is the numerator of flat[m], and draw 2m + 1 its denominator d,
    # which multiplies it by 6 // d
    flat = np.empty(n * k * 8, dtype=np.int64)
    draws = 2 * flat.size
    filled = 0
    while filled < draws:
        # a chunk draws at most one value per word, so only one that could
        # reach the last draw needs the state to give back its unused words
        state = rng.getstate() if draws - filled <= _CHUNK else None
        # The chunk is worked in int64 and bool only, through numpy loops that
        # the batched products run anyway: each loop first run maps more of
        # numpy's code into memory (64 KB each for a uint32 compare, an int64
        # `& 1` and a slice copy), so a parity is read with a shift and the
        # numerators are written through a ufunc's out argument.
        words = np.frombuffer(rng.getrandbits(32 * _CHUNK).to_bytes(4 * _CHUNK, "little"),
                              "<u4").astype(np.int64)
        num, den = words >> shift, words >> 30
        num_ok, den_ok = num < width, den < 3
        # While waiting for a numerator (False) or a denominator (True), a word
        # that passes both tests flips the wait, one that passes one test sets
        # it to the other draw, and one that passes neither leaves it.  So the
        # wait after word i is the one set by the last setting word j <= i,
        # flipped by each flipping word in (j, i]; before any setting word, it
        # is the chunk's first wait: True after an odd count of draws.
        sets = num_ok ^ den_ok
        flipped = np.logical_xor.accumulate(num_ok & den_ok)
        start = filled & 1
        # 2j + (wait set by j) ^ flipped[j] at a setting word j, start - 2 at
        # any other: the running maximum reads the last setting word's bit
        last = np.where(sets, np.where(num_ok ^ flipped, _TWICE_INDEX + 1, _TWICE_INDEX), start - 2)
        np.maximum.accumulate(last, out=last)
        wait = np.empty(_CHUNK, dtype=bool)
        wait[0] = start
        np.not_equal((last[:-1] >> 1) * 2 != last[:-1], flipped[:-1], out=wait[1:])
        taken = np.flatnonzero(num_ok ^ (wait & sets))[:draws - filled]
        nums, dens = taken[start::2], taken[1 - start::2]
        np.subtract(num[nums], span, out=flat[(filled + 1) // 2:][:nums.size])
        flat[filled // 2:][:dens.size] *= _DEN_FACTOR[den[dens]]
        filled += taken.size
        if filled == draws:
            # give back the words after the last one drawn
            rng.setstate(state)
            rng.getrandbits(32 * (int(taken[-1]) + 1))
    parts = flat.reshape(n, k, 4, 2).transpose(1, 2, 3, 0)
    # no entry exceeds span * 6 // 1
    bound = span * _BATCH_SCALE
    return [Biquaternion(*(GaussianIntArray._of(re, im, _BATCH_SCALE, bound) for re, im in element))
            for element in parts]


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
    _, e1, _, e3, *_ = basis_elements()
    nu = q * e3 * qinv
    tau = q * e1 * qinv
    nv = [c.re for c in (nu.x, nu.y, nu.z)]
    tv = [c.re for c in (tau.x, tau.y, tau.z)]
    return make_frame(nv, tv)
