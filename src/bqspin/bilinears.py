"""Bilinear covariants of a field pair, divergence identities, Lagrangian.

All quantities are pointwise bilinears of two biquaternion fields.  The
divergence identities are certified in residual-corrected form: for an
arbitrary pair the divergence of each current equals its source terms plus
an explicit bilinear in the equation residuals, exactly; on solutions the
corrections vanish.  A bilinear that keeps only the scalar part of a
product, scal(x y), is ``Field.scalar_of_product``, which forms no vector
part.

``CovariantSet`` uses only ``*``, ``+``, ``-``, ``plus``, ``bar`` and
``scalar_of_product`` of its pair, so it runs on exact Fields and on
Biquaternions alike.  Fields are exact, so the float check of the
covariance characters (eqs. 37-38) runs it on float Biquaternions.
"""

from __future__ import annotations

from functools import cached_property

from .biquaternion import Biquaternion, unitary_product
from .fields import ExternalField, Field, lanczos_residual, nabla_bar
from .lorentz import act
from .scalars import largest


class CovariantSet:
    """The eight bilinear covariants of a pair (a, b) of Fields or of
    Biquaternions (see the module docstring).

    Each covariant, and each product two of them share, is built on its
    first read and kept, so a caller pays only for the covariants it reads.
    The expressions are fixed, so a float value does not depend on which
    covariants were read before it.
    """

    def __init__(self, a: Field | Biquaternion, b: Field | Biquaternion):
        self._a = a
        self._b = b

    # the products that two covariants share
    @cached_property
    def _a_ap(self):
        return self._a * self._a.plus()

    @cached_property
    def _b_bp_bar(self):
        return (self._b * self._b.plus()).bar()

    @cached_property
    def _s_aa(self):
        return self._a.scalar_of_product(self._a.bar())

    @cached_property
    def _s_bb(self):
        return self._b.scalar_of_product(self._b.bar())

    @cached_property
    def _ab_bar(self):
        return self._a * self._b.bar()

    @cached_property
    def polar(self) -> Field:
        """Conserved four-vector current."""
        return self._a_ap + self._b_bp_bar

    @cached_property
    def axial(self) -> Field:
        """Spin-density pseudo four-vector."""
        return self._a_ap - self._b_bp_bar

    @cached_property
    def six(self) -> Field:
        """Dipole-moment six-vector."""
        a_bp = self._a * self._b.plus()
        return a_bp - a_bp.bar()

    @cached_property
    def inv(self) -> Field:
        """Complex invariant entering the Lagrangian."""
        return self._a.plus().scalar_of_product(self._b)

    @cached_property
    def s_p(self) -> Field:
        """Invariant scalar."""
        return self._s_aa + self._s_bb

    @cached_property
    def s_a(self) -> Field:
        """Invariant pseudoscalar."""
        return self._s_aa - self._s_bb

    @cached_property
    def v_p(self) -> Field:
        """Polar transition current."""
        return self._ab_bar + self._ab_bar.plus()

    @cached_property
    def v_a(self) -> Field:
        """Axial transition current."""
        return self._ab_bar - self._ab_bar.plus()


def covariants(a: Field | Biquaternion, b: Field | Biquaternion) -> CovariantSet:
    return CovariantSet(a, b)


def polar_current_divergence(a: Field, b: Field, ext: ExternalField, m):
    """Divergence of the conserved current in residual-corrected form.

    Returns (lhs, correction): lhs is the scalar divergence and the
    correction is 2i Im <r_a a.plus + r_b b.plus>, which vanishes exactly on
    solutions, for any external field.
    """
    cov = covariants(a, b)
    lhs = nabla_bar(cov.polar).scalar_part()
    ra, rb = lanczos_residual(a, b, ext, m)
    w = ra.scalar_of_product(a.plus()) + rb.scalar_of_product(b.plus())
    correction = w - w.star()
    return lhs, correction


def transition_current_divergences(a: Field, b: Field, ext: ExternalField, m):
    """Residual-corrected divergence identities for the transition currents.

    For arbitrary (a, b):

        <nabla_bar v_p> = m (s_p - s_p*) + 2e <phi.bar v_a> + (corr - corr*)
        <nabla_bar v_a> = m (s_p + s_p*) + 2e <phi.bar v_p> + (corr + corr*)

    with corr = <r_a b.bar + a r_b.bar>.  On exact solutions the corr terms
    drop and, with the field switched off, the polar current is conserved
    precisely when the invariant scalar is real.
    """
    cov = covariants(a, b)
    ra, rb = lanczos_residual(a, b, ext, m)
    corr = ra.scalar_of_product(b.bar()) + a.scalar_of_product(rb.bar())
    e = ext.e
    phib = ext.phi_bar()
    vp_lhs = nabla_bar(cov.v_p).scalar_part()
    va_lhs = nabla_bar(cov.v_a).scalar_part()
    vp_rhs = (cov.s_p - cov.s_p.star()).scale(m) + phib.scalar_of_product(cov.v_a).scale(2 * e)
    va_rhs = (cov.s_p + cov.s_p.star()).scale(m) + phib.scalar_of_product(cov.v_p).scale(2 * e)
    return {
        "vp_residual": vp_lhs - vp_rhs - (corr - corr.star()),
        "va_residual": va_lhs - va_rhs - (corr + corr.star()),
        "vp_lhs": vp_lhs,
        "va_lhs": va_lhs,
        "correction_terms": (corr - corr.star(), corr + corr.star()),
    }


def lagrangian_density(a: Field, b: Field, ext: ExternalField, m) -> Field:
    """Real scalar density Re scal(a.plus() r_a + b.plus() r_b) of the
    residual pair of ``fields.lanczos_residual``; its variation gives the
    coupled system, and it vanishes identically on solutions."""
    ra, rb = lanczos_residual(a, b, ext, m)
    return (a.plus().scalar_of_product(ra) + b.plus().scalar_of_product(rb)).re_scalar()


def amplitude(a1: Biquaternion, b2: Biquaternion):
    """Invariant pairing of two states: the scalar part of a1 * b2.plus(),
    which by cyclicity is the unitary product of b2 and a1."""
    return unitary_product(b2, a1)


def covariance_characters(L, f, rng_values):
    """Transformation characters of the bilinears under the table actions.

    For the whole-algebra action (a -> L a R^2, b -> L* b R^2): the scalars
    are invariant and the transition currents map by x -> L x L.plus().
    For the spinor row (a -> L a sigma, b -> L* b sigma on the sigma ideal):
    polar/axial currents map by x -> L x L.plus() and the six-vector by
    x -> L x L.bar().
    Returns the maximum deviation found for each claim, NaN when any
    deviation is NaN.
    """
    sg = f.to_float().sigma
    seen = {name: [0.0] for name in
            ("s_p", "s_a", "v_p", "v_a", "polar", "axial", "six", "amplitude")}
    for a0, b0 in rng_values:
        cov = covariants(a0, b0)
        ta0, tb0 = act("three_half_L", "A", L, a0, f), act("three_half_L", "B", L, b0, f)
        tcov = covariants(ta0, tb0)
        seen["s_p"].append((tcov.s_p - cov.s_p).max_abs())
        seen["s_a"].append((tcov.s_a - cov.s_a).max_abs())
        for name in ("v_p", "v_a"):
            expect = L * getattr(cov, name) * L.plus()
            seen[name].append((getattr(tcov, name) - expect).max_abs())
        seen["amplitude"].append(abs(complex(amplitude(ta0, tb0) - amplitude(a0, b0))))

        # spinor row: project onto the sigma ideal first
        sa0, sb0 = a0 * sg, b0 * sg
        scov = covariants(sa0, sb0)
        tscov = covariants(act("half_plus", "A", L, sa0, f), act("half_plus", "B", L, sb0, f))
        for name in ("polar", "axial"):
            expect = L * getattr(scov, name) * L.plus()
            seen[name].append((getattr(tscov, name) - expect).max_abs())
        expect_six = L * scov.six * L.bar()
        seen["six"].append((tscov.six - expect_six).max_abs())

    return {name: largest(values) for name, values in seen.items()}
