"""Bilinear covariants of a field pair, divergence identities, Lagrangian.

All quantities are pointwise bilinears of two biquaternion fields.  The
divergence identities are certified in residual-corrected form: for an
arbitrary pair the divergence of each current equals its source terms plus
an explicit bilinear in the equation residuals, exactly; on solutions the
corrections vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

from .biquaternion import Biquaternion
from .fields import ExternalField, Field, lanczos_residual, nabla, nabla_bar
from .lorentz import act


@dataclass(frozen=True)
class CovariantSet:
    polar: Field            # conserved four-vector current
    axial: Field            # spin-density pseudo four-vector
    six: Field              # dipole-moment six-vector
    inv: Field              # complex invariant entering the Lagrangian
    s_p: Field              # invariant scalar
    s_a: Field              # invariant pseudoscalar
    v_p: Field              # polar transition current
    v_a: Field              # axial transition current


def covariants(a: Field, b: Field) -> CovariantSet:
    ap = a.plus()
    bp = b.plus()
    b_bar = b.bar()
    a_ap = a * ap
    b_bp_bar = (b * bp).bar()
    a_bp = a * bp
    a_a_bar = a * a.bar()
    b_b_bar = b * b_bar
    ab_bar = a * b_bar
    ab_bar_plus = ab_bar.plus()
    return CovariantSet(
        polar=a_ap + b_bp_bar,
        axial=a_ap - b_bp_bar,
        six=a_bp - a_bp.bar(),
        inv=(ap * b).scalar_part(),
        s_p=(a_a_bar + b_b_bar).scalar_part(),
        s_a=(a_a_bar - b_b_bar).scalar_part(),
        v_p=ab_bar + ab_bar_plus,
        v_a=ab_bar - ab_bar_plus,
    )


def polar_current_divergence(a: Field, b: Field, ext: ExternalField, m):
    """Divergence of the conserved current in residual-corrected form.

    Returns (lhs, correction): lhs is the scalar divergence and the
    correction is 2i Im <r_a a.plus + r_b b.plus>, which vanishes exactly on
    solutions, for any external field.
    """
    cov = covariants(a, b)
    lhs = nabla_bar(cov.polar).scalar_part()
    ra, rb = lanczos_residual(a, b, ext, m)
    w = (ra * a.plus() + rb * b.plus()).scalar_part()
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
    corr = (ra * b.bar() + a * rb.bar()).scalar_part()
    e = ext.e
    phib = ext.phi_bar()
    vp_lhs = nabla_bar(cov.v_p).scalar_part()
    va_lhs = nabla_bar(cov.v_a).scalar_part()
    vp_rhs = (cov.s_p - cov.s_p.star()).scale(m) + (phib * cov.v_a).scalar_part().scale(2 * e)
    va_rhs = (cov.s_p + cov.s_p.star()).scale(m) + (phib * cov.v_p).scalar_part().scale(2 * e)
    return {
        "vp_residual": vp_lhs - vp_rhs - (corr - corr.star()),
        "va_residual": va_lhs - va_rhs - (corr + corr.star()),
        "vp_lhs": vp_lhs,
        "va_lhs": va_lhs,
        "correction_terms": (corr - corr.star(), corr + corr.star()),
    }


def lagrangian_density(a: Field, b: Field, ext: ExternalField, m) -> Field:
    """Real scalar density whose variation gives the coupled system;
    vanishes identically on solutions."""
    e = ext.e
    phi = ext.phi
    phib = ext.phi_bar()
    inner = (a.plus() * (nabla_bar(a) - (phib * a).scale(e))
             - (a.plus() * b).scale(m)
             + b.plus() * (nabla(b) - (phi * b).scale(e))
             - (b.plus() * a).scale(m)).scalar_part()
    return inner.re_scalar()


def amplitude(a1: Biquaternion, b2: Biquaternion):
    """Invariant pairing of two states: the scalar part of a1 * b2.plus()."""
    return (a1 * b2.plus()).scalar_part()


def covariance_characters(L, f, rng_values):
    """Transformation characters of the bilinears under the table actions.

    For the whole-algebra action (a -> L a R^2, b -> L* b R^2): the scalars
    are invariant and the transition currents map by x -> L x L.plus().
    For the spinor row (a -> L a sigma, b -> L* b sigma on the sigma ideal):
    polar/axial currents map by x -> L x L.plus() and the six-vector by
    x -> L x L.bar().
    Returns the maximum deviation found for each claim.
    """
    sg = f.to_float().sigma

    def fconst(q):
        return Field.constant(q)

    worst = {"s_p": 0.0, "s_a": 0.0, "v_p": 0.0, "v_a": 0.0,
             "polar": 0.0, "axial": 0.0, "six": 0.0, "amplitude": 0.0}
    for a0, b0 in rng_values:
        a, b = fconst(a0), fconst(b0)
        cov = covariants(a, b)
        ta0, tb0 = act("three_half_L", "A", L, a0, f), act("three_half_L", "B", L, b0, f)
        tcov = covariants(fconst(ta0), fconst(tb0))
        worst["s_p"] = max(worst["s_p"], (tcov.s_p - cov.s_p).max_abs())
        worst["s_a"] = max(worst["s_a"], (tcov.s_a - cov.s_a).max_abs())
        for name in ("v_p", "v_a"):
            expect = getattr(cov, name).lmul(L).rmul(L.plus())
            worst[name] = max(worst[name], (getattr(tcov, name) - expect).max_abs())
        worst["amplitude"] = max(worst["amplitude"], abs(complex(
            amplitude(ta0, tb0) - amplitude(a0, b0))))

        # spinor row: project onto the sigma ideal first
        sa0, sb0 = a0 * sg, b0 * sg
        scov = covariants(fconst(sa0), fconst(sb0))
        tscov = covariants(fconst(act("half_plus", "A", L, sa0, f)),
                           fconst(act("half_plus", "B", L, sb0, f)))
        for name in ("polar", "axial"):
            expect = getattr(scov, name).lmul(L).rmul(L.plus())
            worst[name] = max(worst[name], (getattr(tscov, name) - expect).max_abs())
        expect_six = scov.six.lmul(L).rmul(L.bar())
        worst["six"] = max(worst["six"], (tscov.six - expect_six).max_abs())

    return worst
