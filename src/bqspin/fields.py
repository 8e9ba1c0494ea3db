"""Exactly differentiable biquaternion-valued fields on spacetime.

A Field is a finite sum of modes.  Each mode is either purely polynomial
(wave vector zero) or a pair P(x)*cos(phi) + Q(x)*sin(phi) with polynomial
coefficients and phase phi = k0*t - k.x for a fixed real wave 4-vector k.
The class is closed under addition, products (including products of two
trigonometric modes via angle sum/difference), all four conjugations, and
partial derivatives, so every identity in the wave-equation suites can be
checked exactly in the rational backend.

The quaternion four-gradient is frozen to

    nabla = -i d/dt + e1 d/dx1 + e2 d/dx2 + e3 d/dx3

with four-vectors packaged as v0 - i*vvec; see select_nabla_convention for
the procedure that singles this form out.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .biquaternion import DEFAULT_FRAME, Biquaternion, Frame, random_rational_biquaternion
from .errors import DegenerateMass, MixedBackend, NoConsistentConvention, OffShell
from .exactlinalg import nullspace
from .linops import RealLinearOp
from .scalars import GR_I, gr


_VARS = ("t", "x1", "x2", "x3")

_E_UNITS = (Biquaternion.vector(1, 0, 0), Biquaternion.vector(0, 1, 0),
            Biquaternion.vector(0, 0, 1))
_HALF = gr(Fraction(1, 2))


class Poly:
    """Polynomial in (t, x1, x2, x3) with biquaternion coefficients.

    The constructor does not check that the coefficients share one backend,
    because it runs on every product and sum; ``Field.polynomial`` and
    ``Field.trig`` are the checks, and raise ``MixedBackend`` on a mix.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for exps, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[tuple(exps)] = coeff

    @staticmethod
    def constant(q: Biquaternion):
        return Poly({(0, 0, 0, 0): q})

    @staticmethod
    def zero():
        return Poly()

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(out)

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                    c = c1 * c2
                    s = out.get(e)
                    s = c if s is None else s + c
                    out[e] = s
            return Poly(out)
        return self.map_coeffs(lambda c: c * other)

    def lmul(self, q: Biquaternion):
        return self.map_coeffs(lambda c: q * c)

    def rmul(self, q: Biquaternion):
        return self.map_coeffs(lambda c: c * q)

    def map_coeffs(self, fn):
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[e] = v
        return Poly(out)

    def derivative(self, var: int):
        out = {}
        for e, c in self.terms.items():
            n = e[var]
            if n == 0:
                continue
            ne = list(e)
            ne[var] = n - 1
            out[tuple(ne)] = c * n
        return Poly(out)

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
        return f"Poly({len(self.terms)} terms)"


def _neg_k(k):
    return tuple(-c for c in k)


def _k_is_zero(k):
    return all(c == 0 for c in k)


def _k_canonical(k):
    """Sign-canonical representative: first nonzero component positive."""
    for c in k:
        if c > 0:
            return k, 1
        if c < 0:
            return _neg_k(k), -1
    return k, 1


def _one_backend(coeffs):
    """Raise MixedBackend unless the coefficients share one scalar backend."""
    if len({q.is_exact() for q in coeffs}) > 1:
        raise MixedBackend("field coefficients mix exact and float scalars")


class Field:
    """Biquaternion-valued function of spacetime, closed under exact calculus."""

    __slots__ = ("modes",)

    def __init__(self, modes=None):
        # modes: {k: (cos_poly, sin_poly)}; k == (0,0,0,0) holds the plain
        # polynomial part in its cos slot.
        self.modes = {}
        if modes:
            for k, (pc, ps) in modes.items():
                self._accumulate(k, pc, ps)

    # -- construction ----------------------------------------------------------

    @staticmethod
    def zero():
        return Field()

    @staticmethod
    def constant(q: Biquaternion):
        return Field.polynomial(Poly.constant(q))

    @staticmethod
    def polynomial(poly: Poly):
        _one_backend(poly.terms.values())
        f = Field()
        f._accumulate((0, 0, 0, 0), poly, None)
        return f

    @staticmethod
    def trig(k, cos_coeff: Biquaternion, sin_coeff: Biquaternion):
        # a rational wave vector stays exact, like the scalars
        k = tuple(c if isinstance(c, float) else Fraction(c) for c in k)
        pc, ps = Poly.constant(cos_coeff), Poly.constant(sin_coeff)
        coeffs = [*pc.terms.values(), *ps.terms.values()]
        _one_backend(coeffs)
        # derivatives multiply the coefficients by k, so a float k is float data
        if any(isinstance(c, float) for c in k) and any(q.is_exact() for q in coeffs):
            raise MixedBackend("a float wave vector with exact field coefficients")
        f = Field()
        f._accumulate(k, pc, ps)
        return f

    def _accumulate(self, k, pc, ps):
        k, sign = _k_canonical(tuple(k))
        if ps is not None and sign < 0:
            ps = -ps
        if _k_is_zero(k):
            ps = None  # sin(0) == 0
        old = self.modes.get(k)
        oc, os_ = old if old is not None else (Poly(), Poly())
        nc = oc + pc if pc is not None else oc
        ns = os_ + ps if ps is not None else os_
        if nc.is_zero() and ns.is_zero():
            self.modes.pop(k, None)
        else:
            self.modes[k] = (nc, ns)

    # -- linear structure --------------------------------------------------------

    def __add__(self, other):
        out = Field()
        for k, (pc, ps) in self.modes.items():
            out._accumulate(k, pc, ps)
        for k, (pc, ps) in other.modes.items():
            out._accumulate(k, pc, ps)
        return out

    def __neg__(self):
        return Field({k: (-pc, -ps) for k, (pc, ps) in self.modes.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a commuting scalar."""
        return self.map_coeffs(lambda q: q * c)

    def lmul(self, q: Biquaternion):
        return self.map_coeffs(lambda c: q * c)

    def rmul(self, q: Biquaternion):
        return self.map_coeffs(lambda c: c * q)

    def map_coeffs(self, fn):
        out = Field()
        for k, (pc, ps) in self.modes.items():
            out._accumulate(k, pc.map_coeffs(fn), ps.map_coeffs(fn))
        return out

    # -- products ------------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            return self.rmul(other)
        if not isinstance(other, Field):
            return self.scale(other)
        out = Field()
        for ka, (ca, sa) in self.modes.items():
            for kb, (cb, sb) in other.modes.items():
                cacb = ca * cb
                if _k_is_zero(ka):
                    # plain polynomial times mode b
                    out._accumulate(kb, cacb, ca * sb)
                    continue
                if _k_is_zero(kb):
                    out._accumulate(ka, cacb, sa * cb)
                    continue
                sasb = sa * sb
                sacb = sa * cb
                casb = ca * sb
                kp = tuple(a + b for a, b in zip(ka, kb))
                km = tuple(a - b for a, b in zip(ka, kb))
                out._accumulate(kp, (cacb - sasb) * _HALF, (sacb + casb) * _HALF)
                out._accumulate(km, (cacb + sasb) * _HALF, (sacb - casb) * _HALF)
        return out

    def __rmul__(self, q):
        if isinstance(q, Biquaternion):
            return self.lmul(q)
        return self.scale(q)

    # -- conjugations -----------------------------------------------------------------

    def bar(self):
        return self.map_coeffs(lambda c: c.bar())

    def star(self):
        return self.map_coeffs(lambda c: c.star())

    def plus(self):
        return self.map_coeffs(lambda c: c.plus())

    def reverse(self):
        return self.map_coeffs(lambda c: c.reverse())

    def scalar_part(self):
        return self.map_coeffs(lambda c: Biquaternion.scalar(c.w))

    def vector_part(self):
        return self.map_coeffs(lambda c: c.vector_part())

    def re_scalar(self):
        """(f + f.star())/2 -- the real part, for scalar-valued fields."""
        return (self + self.star()).scale(_HALF)

    # -- calculus ------------------------------------------------------------------------

    def derivative(self, var: int):
        """Partial derivative with respect to t, x1, x2, or x3 (var = 0..3)."""
        out = Field()
        for k, (pc, ps) in self.modes.items():
            dpc = pc.derivative(var)
            dps = ps.derivative(var)
            if _k_is_zero(k):
                out._accumulate(k, dpc, None)
                continue
            dphi = k[0] if var == 0 else -k[var]
            # d(P cos) = P' cos - P dphi sin ; d(Q sin) = Q' sin + Q dphi cos
            out._accumulate(k, dpc + ps * dphi, dps - pc * dphi)
        return out

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


FROZEN_NABLA = NablaSpec(i_on_time=True, space_sign=1)


def _apply_gradient(f: Field, units, from_right=False):
    derivs = [f.dt(), f.dx(1), f.dx(2), f.dx(3)]
    out = Field.zero()
    for u, d in zip(units, derivs):
        out = out + (d.rmul(u) if from_right else d.lmul(u))
    return out


def nabla(f: Field, spec: NablaSpec = FROZEN_NABLA) -> Field:
    return _apply_gradient(f, spec.units())


def nabla_bar(f: Field, spec: NablaSpec = FROZEN_NABLA) -> Field:
    return _apply_gradient(f, _bar_units(spec))


def nabla_from_right(f: Field, spec: NablaSpec = FROZEN_NABLA) -> Field:
    return _apply_gradient(f, spec.units(), from_right=True)


def nabla_bar_from_right(f: Field, spec: NablaSpec = FROZEN_NABLA) -> Field:
    return _apply_gradient(f, _bar_units(spec), from_right=True)


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
        raise NoConsistentConvention(
            f"expected exactly one gradient convention, found {len(survivors)}")
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
    frame = DEFAULT_FRAME
    p0, p, m = Fraction(5), (Fraction(3), Fraction(0), Fraction(0)), Fraction(4)
    basis = _plane_wave_amplitudes_for_spec(spec, p0, p, m, frame)
    if len(basis) != 4:
        return False
    for amp in basis:
        psi = plane_wave_field(amp, (p0,) + p, frame)
        cur = psi * psi.plus()
        if not nabla_bar(cur, spec).scalar_part().is_zero():
            return False
    return True


def _dl_symbol_op_for_spec(spec, p0, p, m, frame) -> RealLinearOp:
    """Real-linear symbol of the free minimally-coupled equation on the
    amplitude of psi = X * exp(-nu*phi)."""
    def residual_amp(x):
        psi = plane_wave_field(x, (p0,) + tuple(p), frame)
        res = nabla_bar(psi, spec).rmul(frame.i_nu) - psi.star().scale(m)
        # the residual is again a single plane-wave mode; extract its cos part
        return _extract_mode_cos(res, (p0,) + tuple(p))

    return RealLinearOp.from_function(residual_amp)


def _extract_mode_cos(f: Field, k):
    k = tuple(Fraction(c) for c in k)
    kc, _ = _k_canonical(k)
    pair = f.modes.get(kc)
    if pair is None:
        return Biquaternion.zero()
    coeff = pair[0].terms.get((0, 0, 0, 0))
    return coeff if coeff is not None else Biquaternion.zero()


def _plane_wave_amplitudes_for_spec(spec, p0, p, m, frame):
    op = _dl_symbol_op_for_spec(spec, p0, p, m, frame)
    basis = nullspace(op.matrix.tolist())
    return [Biquaternion.from_real_coords(v) for v in basis]


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
    is independent of the gradient convention."""
    zero = Biquaternion.zero()
    return Field.trig(k, amplitude, zero) - Field.trig(k, zero, amplitude * frame.nu)


def plane_wave_solutions(p: Momentum, frame: Frame):
    """Basis of amplitudes X solving the momentum-space equation
    P.bar() X = m X* (real-linear 8x8 system); real dimension 4 on shell."""
    if not bool(p.m):
        raise DegenerateMass("massive plane-wave construction requires m > 0")
    if not p.on_shell():
        raise OffShell("momentum is not on the mass shell")
    return _plane_wave_amplitudes_for_spec(FROZEN_NABLA, p.p0, p.p, p.m, frame)


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
    """Polynomial electromagnetic potential phi = phi0 - i*phivec with coupling e."""

    phi: Field
    e: object

    @staticmethod
    def zero():
        return ExternalField(Field.zero(), gr(0))

    @staticmethod
    def from_components(phi0: Poly, phivec, e):
        """Build from a scalar polynomial and three real vector polynomials."""
        i_neg = gr(0, -1)
        total = Field.polynomial(phi0)
        for n, comp in enumerate(phivec):
            unit = _E_UNITS[n] * i_neg
            total = total + Field.polynomial(comp).lmul(unit)
        return ExternalField(total, e)

    def is_zero(self):
        return self.phi.is_zero() or (not bool(self.e))

    def phi_bar(self):
        return self.phi.bar()

    def component_fields(self):
        """Scalar fields (phi0, phi1, phi2, phi3): the potential components.

        The quaternion field stores phi0 - i*phivec, so the n-th component
        is i times the n-th vector part.
        """
        return [self.phi.scalar_part()] + _vector_components(self.phi, GR_I)


def _vector_components(f: Field, factor):
    """The vector components (x, y, z) of f times a scalar factor, as scalar fields."""
    return [f.map_coeffs(lambda c, comp=comp: Biquaternion.scalar(getattr(c, comp) * factor))
            for comp in ("x", "y", "z")]


def lanczos_residual(a: Field, b: Field, ext: ExternalField, m):
    """Residual pair of the coupled fundamental system."""
    e = ext.e
    ra = nabla_bar(a) - (ext.phi_bar() * a).scale(e) - b.scale(m)
    rb = nabla(b) - (ext.phi * b).scale(e) - a.scale(m)
    return ra, rb


def dirac_lanczos_residual(psi: Field, ext: ExternalField, m, frame: Frame) -> Field:
    """Residual of the minimally coupled four-component spinor equation."""
    return (nabla_bar(psi).rmul(frame.i_nu) - (ext.phi_bar() * psi).scale(ext.e)
            - psi.star().scale(m))


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


def random_poly_field(rng, n_terms=4, max_deg=3):
    """Sparse random polynomial field with small rational coefficients."""
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(4))
        while sum(exps) > max_deg:
            exps = tuple(rng.randint(0, max_deg) for _ in range(4))
        terms[exps] = random_rational_biquaternion(rng, span=4)
    return Field.polynomial(Poly(terms))


def random_linear_potential(rng):
    """External field with degree-1 polynomial components."""
    def lin():
        terms = {(0, 0, 0, 0): Biquaternion.scalar(gr(rng.randint(-3, 3)))}
        for var in range(4):
            exps = [0, 0, 0, 0]
            exps[var] = 1
            terms[tuple(exps)] = Biquaternion.scalar(gr(rng.randint(-3, 3)))
        return Poly(terms)

    coupling = gr(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    return ExternalField.from_components(lin(), (lin(), lin(), lin()), coupling)


def random_quadratic_potential(rng):
    def quad():
        terms = {}
        for _ in range(3):
            exps = tuple(rng.randint(0, 2) for _ in range(4))
            while sum(exps) > 2:
                exps = tuple(rng.randint(0, 2) for _ in range(4))
            terms[exps] = Biquaternion.scalar(gr(rng.randint(-2, 2)))
        return Poly(terms)

    coupling = gr(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    return ExternalField.from_components(quad(), (quad(), quad(), quad()), coupling)
