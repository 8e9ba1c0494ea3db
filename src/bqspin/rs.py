"""The vector-spinor system: component operators, constraints, commutator
curvature, the coupled equation with parameter g, and its contraction and
reduction chain.

A vector-spinor field is a 4-tuple of biquaternion fields indexed by a
tensor index.  The component operators are

    pi_mu(X) = (d_mu X) nu - e phi_mu X,       d_mu = (d/dt, -d/dx_n)

with phi_mu the potential components (phi0, phi_n), and they recombine into
the minimally coupled spinor operator and its conjugate:

    Pibar      = eps_bar^mu pi_mu = (d/dt - i e.d)[.] nu - e phi.bar [.]
    Pibar_star = eps^mu      pi_mu = (d/dt + i e.d)[.] nu - e phi     [.]

Every identity in this module is verified exactly on polynomial fields in
the rational backend; the tests double as the committed derivation chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .biquaternion import Biquaternion, Frame, basis_elements
from .errors import DegenerateMass, OffShell
from .exactlinalg import nullspace, rank
from .fields import (
    ExternalField,
    Field,
    Momentum,
    _component,
    _coords_row,
    _first_order,
    _joined,
    _kernel,
    _kernels,
    _multiplier_entries,
    _plane_wave,
    _plane_wave_symbol,
    _unit_waves,
    _wave_vector,
    current,
    dirac_lanczos_residual,
    nabla_bar,
    nabla_bar_from_right,
    pibar,
)
from .scalars import gr


@functools.cache
def eps_units():
    """The bireal unit 4-tuples: lower, upper, and their bar partners.

    Built once; the mapping is read-only and every entry is a tuple.
    """
    basis = basis_elements()
    one, ie = basis[0], basis[5:]
    lower = (one, *ie)
    upper = (one, *(-u for u in ie))
    return MappingProxyType({
        "lower": lower,
        "upper": upper,
        "bar_lower": tuple(u.bar() for u in lower),
        "bar_upper": tuple(u.bar() for u in upper),
    })


ETA = (1, -1, -1, -1)


def _d_lower(f: Field, mu: int) -> Field:
    return f.dt() if mu == 0 else -f.dx(mu)


@functools.cache
def _contraction_kernels(name: str):
    """The order-0 kernels x -> u_lam x of the bireal units ``eps_units()[name]``."""
    return _kernels([(None, u, None) for u in eps_units()[name]])


def _contraction(name: str, psi) -> Field:
    """sum_lam u_lam psi_lam for the bireal units u = ``eps_units()[name]``."""
    kernels, den = _contraction_kernels(name)
    return _first_order([(x, (kernel,)) for x, kernel in zip(psi, kernels)], den)


@dataclass(frozen=True)
class RSContext:
    """Shared data for the vector-spinor operators.

    pi_mu, pi^mu and pi^lam psi_lam are one pass each of row kernels
    (``fields._first_order``): the derivative kernel x -> x nu or x -> -x nu
    and the order-0 coupling entries of -e phi_mu, built on first use and
    kept on the context.
    """

    ext: ExternalField
    m: object
    frame: Frame

    @property
    def nu(self):
        return self.frame.nu

    @functools.cached_property
    def _pi_kernels(self):
        """The kernel entries of pi_mu and of pi^mu for mu = 0..3, and the
        den they share.

        pi_mu is x -> d_mu x nu - e phi_mu x with d_mu = (d/dt, -d/dx_n),
        and pi^mu = eta_mu pi_mu takes x -> x nu under d/dx_mu and the
        coupling entries of -e phi_mu times eta_mu.
        """
        (plus, den), (minus, _) = _kernel(right=self.nu), _kernel(right=-self.nu)
        # the components of -e phi are -e phi_mu: both maps are complex-linear
        coupled = self.ext._minus_e_phi
        groups = [(((mu, minus if mu else plus, 1),), den) for mu in range(4)]
        groups += [_multiplier_entries(_component(coupled, mu)) for mu in range(4)]
        entries, den = _joined(groups)
        lower, upper = [], []
        for mu in range(4):
            derivative, coupling = entries[mu], entries[4 + mu]
            scale = derivative[0][2]
            lower.append(derivative + coupling)
            upper.append(((mu, plus, scale),)
                         + tuple((v, kernel, ETA[mu] * s) for v, kernel, s in coupling))
        return lower, upper, den

    def pi_lower(self, mu: int, x: Field) -> Field:
        lower, _, den = self._pi_kernels
        return _first_order([(x, lower[mu])], den)

    def pi_upper(self, mu: int, x: Field) -> Field:
        _, upper, den = self._pi_kernels
        return _first_order([(x, upper[mu])], den)

    def pibar(self, x: Field) -> Field:
        return pibar(x, self.ext, self.frame)

    def pibar_star(self, x: Field) -> Field:
        return self.pibar(x.star()).star()

    def dirac(self, x: Field) -> Field:
        """The spinor operator D(x) = Pibar(x) - m x*, as
        ``fields.dirac_lanczos_residual`` defines it."""
        return dirac_lanczos_residual(x, self.ext, self.m, self.frame)

    def algebraic(self, psi) -> Field:
        """The algebraic contraction u = eps_bar^lam psi_lam."""
        return _contraction("bar_upper", psi)

    def differential(self, psi) -> Field:
        """The differential contraction w3 = pi^lam psi_lam, in one pass
        over the four components."""
        _, upper, den = self._pi_kernels
        return _first_order([(x, kernels) for x, kernels in zip(psi, upper)], den)

    @property
    def curvature(self):
        """The four curvature multipliers Phi(eps_bar^mu) of ``_curvature``,
        built once per potential and kept on it, so that every context of
        one potential reads the same copy."""
        kept = self.ext._kernels.get("curvature")
        if kept is None:
            kept = self.ext._kernels["curvature"] = _curvature(self.ext)
        return kept

    def extra_constraint(self, psi) -> Field:
        """The field sum_mu Phi(eps_bar^mu) psi_mu i nu, whose vanishing the
        coupled system forces on solutions."""
        i_nu = self.frame.i_nu
        return sum(((phi * x).rmul(i_nu) for phi, x in zip(self.curvature, psi)),
                   Field.zero())


# -- the free constrained system ---------------------------------------------------


def rs_free_system(psi, ext: ExternalField, m, frame: Frame):
    """Residuals of the spinor equations plus the two constraints."""
    ctx = RSContext(ext, m, frame)
    return {
        "eq_residuals": [ctx.dirac(p) for p in psi],
        "algebraic_constraint": ctx.algebraic(psi),
        "differential_constraint": ctx.differential(psi),
    }


def rs_current(psi) -> Field:
    """Summed probability current of the four component fields."""
    return sum((current(p) for p in psi), Field.zero())


def _residual(f: Field) -> float:
    """0.0 exactly when f is zero; a nonzero f reads at least the least
    positive float, even when its float norm underflows."""
    return 0.0 if f.is_zero() else max(f.max_abs(), math.ulp(0.0))


# -- curvature: the dual-tensor map and the commutator identity ----------------------


def dual_tensor(ext: ExternalField):
    """The curvature map X -> (GL X + X GR)/2 built from the potential.

    GL and GR are the vector parts of the left and right gradients of the
    potential; dropping the scalar (gauge-divergence) parts is what makes
    the commutator identity below exact for arbitrary potentials.
    """
    gl = nabla_bar(ext.phi).vector_part()
    gr_ = nabla_bar_from_right(ext.phi).vector_part()
    half = gr(Fraction(1, 2))

    def apply(x):
        if isinstance(x, Biquaternion):
            x = Field.constant(x)
        return (gl * x + x * gr_).scale(half)

    return apply


def _curvature(ext: ExternalField):
    """The four curvature multipliers Phi(eps_bar^mu) of eqs. (21)-(23)."""
    phi_map = dual_tensor(ext)
    return tuple(phi_map(u) for u in eps_units()["bar_upper"])


def commutator_identity(ext: ExternalField, frame: Frame, fields, m=Fraction(1)):
    """Max residual of [pi^mu, Pibar] = e Phi(eps_bar^mu) [.] i nu over the
    supplied sample fields, per index; exact zero in the rational backend."""
    ctx = RSContext(ext, m, frame)
    # the right-hand side is built here, not read from the potential, so it
    # is the curvature of ``dual_tensor`` whatever other checks have kept
    curvature = _curvature(ext)
    worst = 0.0
    for x in fields:
        pibar_x = ctx.pibar(x)
        for mu in range(4):
            lhs = ctx.pi_upper(mu, pibar_x) - ctx.pibar(ctx.pi_upper(mu, x))
            rhs = (curvature[mu] * x).rmul(frame.i_nu).scale(ext.e)
            worst = max(worst, _residual(lhs - rhs))
    return worst


def extra_constraint(psi, ext: ExternalField, frame: Frame) -> Field:
    """``RSContext.extra_constraint`` of one psi; the mass plays no part.

    Several fields under one potential should share one context, which
    builds the curvature multipliers once.
    """
    return RSContext(ext, None, frame).extra_constraint(psi)


def extra_constraint_derivation_residual(psi, ext: ExternalField, m, frame: Frame):
    """Exact derivation identity behind the extra constraint.

    For arbitrary psi:  sum_mu pi^mu(Pibar psi_mu - m psi_mu*) equals
    (Pibar - m(.)*) applied to the differential-constraint contraction plus
    e times the extra-constraint field.  Returns the residual field.
    """
    ctx = RSContext(ext, m, frame)
    lhs = ctx.differential([ctx.dirac(p) for p in psi])
    rhs = (ctx.dirac(ctx.differential(psi))
           + ctx.extra_constraint(psi).scale(ext.e))
    return lhs - rhs


# -- the coupled equation and its contractions -----------------------------------------


@dataclass(frozen=True)
class CoupledParts:
    """The parts of the coupled rows and of both closed forms that do not
    depend on g, for one vector-spinor psi; ``coupled_parts`` builds them.

    u = eps_bar^lam psi_lam and w3 = pi^lam psi_lam are the two contractions
    and pibar_star_u is Pibar_star(u).  Row mu of the coupled equation is
    dirac[mu] + g g_factor[mu] (``coupled_rows``).  eq28 holds the four
    contractions of eq. (28) from ``_pi_contraction_terms``, and defect is
    ``second_order_defect`` of u.
    """

    m: object
    u: Field
    w3: Field
    pibar_star_u: Field
    dirac: tuple
    g_factor: tuple
    eq28: tuple
    defect: Field


def coupled_parts(ctx: RSContext, psi) -> CoupledParts:
    """The g-free parts of the coupled system at psi, each built once.

    dirac[mu] = D(psi_mu), and the factor of g in row mu is
    eps_bar_mu (Pibar_star(u) + m u* - w3) - pi_mu(u).
    """
    ebl = eps_units()["bar_lower"]
    u = ctx.algebraic(psi)
    w3 = ctx.differential(psi)
    pibar_star_u = ctx.pibar_star(u)
    head = pibar_star_u + u.star().scale(ctx.m) - w3
    return CoupledParts(
        m=ctx.m,
        u=u,
        w3=w3,
        pibar_star_u=pibar_star_u,
        dirac=tuple(ctx.dirac(p) for p in psi),
        g_factor=tuple(head.lmul(ebl[mu]) - ctx.pi_lower(mu, u) for mu in range(4)),
        eq28=_pi_contraction_terms(ctx, psi, u, w3),
        defect=second_order_defect(ctx, u),
    )


def coupled_rows(parts: CoupledParts, g):
    """The four rows of the coupled equation at g: D(psi_mu) + g G_mu."""
    return [d + f.scale(g) for d, f in zip(parts.dirac, parts.g_factor)]


@dataclass(frozen=True)
class CoupledSystem:
    """The g-parameterized candidate equation, as four row operators."""

    g: object
    ctx: RSContext

    def rows(self, psi):
        return coupled_rows(coupled_parts(self.ctx, psi), self.g)


def coupled_equation(g, ext: ExternalField, m, frame: Frame) -> CoupledSystem:
    return CoupledSystem(g=g, ctx=RSContext(ext, m, frame))


def eps_contraction(rows) -> Field:
    """sum_mu eps^mu times the mu-th row."""
    return _contraction("upper", rows)


def eps_contraction_closed_form(parts: CoupledParts, g) -> Field:
    """(4g-1) eps^lam m psi_lam* - 2(2g-1) pi^lam(psi_lam)
    + (3g-1) Pibar_star(eps_bar^lam psi_lam), where eps^lam psi_lam* = u*."""
    return (parts.u.star().scale(parts.m * (4 * g - 1))
            - parts.w3.scale(2 * (2 * g - 1))
            + parts.pibar_star_u.scale(3 * g - 1))


def _pi_contraction_terms(ctx: RSContext, psi, u: Field, w3: Field):
    """The four contractions of eq. (28): Pibar(eps^lam psi_lam*),
    pi^lam(psi_lam*), pi^lam(Pibar psi_lam) and Pibar(pi^lam psi_lam).

    None depends on g; ``_eq28`` weighs them.  The operator acts on the
    contracted field in the first and the last, so they are Pibar(u*)
    (eps^lam psi_lam* = (eps_bar^lam psi_lam)*) and Pibar(w3), with u and w3
    the algebraic and differential contractions of psi.
    """
    return (
        ctx.pibar(u.star()),
        ctx.differential([p.star() for p in psi]),
        ctx.differential([ctx.pibar(p) for p in psi]),
        ctx.pibar(w3),
    )


def _eq28(parts: CoupledParts, g) -> Field:
    """The four terms of eq. (28) at g: m(g Pibar(eps^lam psi_lam*) -
    pi^lam(psi_lam*)) + pi^lam(Pibar psi_lam) - g Pibar(pi^lam psi_lam)."""
    s1, s2, s3, s4 = parts.eq28
    return (s1.scale(g) - s2).scale(parts.m) + s3 - s4.scale(g)


def pi_contraction_closed_form(parts: CoupledParts, g) -> Field:
    """The four terms of eq. (28) minus the second-order curvature correction
    g*(sum pi^mu pi_mu - Pibar Pibar_star) applied to the algebraic
    contraction."""
    return _eq28(parts, g) - parts.defect.scale(g)


def second_order_defect(ctx: RSContext, x: Field) -> Field:
    """sum_mu pi^mu(pi_mu(x)) - Pibar(Pibar_star(x)): a derivative-free
    curvature multiplier, nonzero only with the coupling switched on."""
    total = sum((ctx.pi_upper(mu, ctx.pi_lower(mu, x)) for mu in range(4)), Field.zero())
    return total - ctx.pibar(ctx.pibar_star(x))


def contraction_chain(g, ext: ExternalField, m, frame: Frame, sample_fields):
    """Verify both contractions of the coupled equation on sample
    vector-spinors, for one value of g or for each of a tuple or list of them.

    The g-free parts are built once per sample, and the rows and closed
    forms of every g are read from them.  Returns the max residuals over
    all g (exact zeros expected), and under "failing_g" the values of g
    with a nonzero residual, in the order given.
    """
    gs = tuple(g) if isinstance(g, (tuple, list)) else (g,)
    ctx = RSContext(ext, m, frame)
    worst_eps = dict.fromkeys(gs, 0.0)
    worst_pi = dict.fromkeys(gs, 0.0)
    for psi in sample_fields:
        parts = coupled_parts(ctx, psi)
        for gv in gs:
            rows = coupled_rows(parts, gv)
            d1 = eps_contraction(rows) - eps_contraction_closed_form(parts, gv)
            d2 = ctx.differential(rows) - pi_contraction_closed_form(parts, gv)
            worst_eps[gv] = max(worst_eps[gv], _residual(d1))
            worst_pi[gv] = max(worst_pi[gv], _residual(d2))
    return {"eps_residual": max(worst_eps.values()),
            "pi_residual": max(worst_pi.values()),
            "failing_g": [gv for gv in gs if worst_eps[gv] or worst_pi[gv]]}


# -- the g = 1 reduction chain ----------------------------------------------------------


def g1_chain(ext: ExternalField, m, frame: Frame, sample_fields):
    """Verify every step of the g = 1 reduction as exact operator identities.

    Each "arrow" expresses one derived equation as an explicit combination
    of previously established ones, so the identities hold for arbitrary
    vector-spinors, not only on solutions.  Each sample's g-free parts are
    built once (``coupled_parts``).  Returns max residuals per step.
    """
    if not bool(m):
        raise DegenerateMass("the reduction chain requires m != 0")
    ctx = RSContext(ext, m, frame)
    one = Fraction(1)
    ebl = eps_units()["bar_lower"]
    e = ext.e
    coeff = 2 * e / (3 * m * m)
    out = {k: 0.0 for k in
           ("e27_is_eps_contraction", "e28_is_pi_contraction", "e29_conjugation",
            "e30_secondary", "e31_secondary", "e32_equation_of_motion")}

    for psi in sample_fields:
        parts = coupled_parts(ctx, psi)
        u, w3, pibar_star_u = parts.u, parts.w3, parts.pibar_star_u
        w23 = ctx.extra_constraint(psi)
        rows = coupled_rows(parts, one)
        # the curvature source of the secondary constraints (30)-(32)
        cw23 = w23.scale(coeff)
        cw23_star = cw23.star()

        # (27): the eps contraction at g = 1
        e27 = u.star().scale(3 * m) - w3.scale(2) + pibar_star_u.scale(2)
        out["e27_is_eps_contraction"] = max(
            out["e27_is_eps_contraction"],
            _residual(eps_contraction(rows) - e27))

        # (28): the pi contraction at g = 1 (with curvature correction)
        e28 = _eq28(parts, one)
        out["e28_is_pi_contraction"] = max(
            out["e28_is_pi_contraction"],
            _residual(ctx.differential(rows) - (e28 - parts.defect)))

        # (29): complex conjugation of (28) after inserting the commutator;
        # the pointwise star already negates the trailing i nu factor, so the
        # curvature term enters with a plus sign in this representation
        e29 = pibar_star_u.scale(m) - w3.scale(m) + w23.star().scale(e)
        out["e29_conjugation"] = max(
            out["e29_conjugation"], _residual(e29 - e28.star()))

        # (30): the algebraic contraction in terms of the curvature field
        e30 = u - cw23
        combo = (e27 - e29.scale(Fraction(2) / m)).scale(Fraction(1) / (3 * m))
        out["e30_secondary"] = max(
            out["e30_secondary"], _residual(e30 - combo.star()))

        # (31): the differential contraction in terms of the curvature field
        pibar_star_e30 = ctx.pibar_star(e30)
        e31 = w3 - (ctx.pibar_star(cw23) + cw23_star.scale(m * Fraction(3, 2)))
        combo31 = pibar_star_e30 - e29.scale(Fraction(1) / m)
        out["e31_secondary"] = max(
            out["e31_secondary"], _residual(e31 - combo31))

        # (32): the equation of motion row by row
        for mu in range(4):
            e32 = (parts.dirac[mu]
                   - ctx.pi_lower(mu, cw23)
                   - cw23_star.lmul(ebl[mu]).scale(m * Fraction(1, 2)))
            combo32 = (rows[mu] + e31.lmul(ebl[mu]) + ctx.pi_lower(mu, e30)
                       - pibar_star_e30.lmul(ebl[mu])
                       - e30.star().lmul(ebl[mu]).scale(m))
            out["e32_equation_of_motion"] = max(
                out["e32_equation_of_motion"], _residual(e32 - combo32))
    return out


# -- constraint counting at fixed momentum -----------------------------------------------


def _free_symbol(p: Momentum, m, frame: Frame):
    """The real symbol of the free system at momentum p, built from blocks.

    Returns the rows (dl, alg, diff): 32 rows for the four Dirac equations
    and 8 for each constraint, over 32 columns, where column 8*mu + a is the
    real amplitude coordinate a of the component psi_mu.  Every 8x8 block is
    read by ``fields._plane_wave_symbol`` from the same eight unit plane
    waves.  The Dirac operator acts on each component alone, so dl is
    block-diagonal with the block of ``RSContext.dirac`` four times.  The
    constraints see psi_mu only through eps_bar^mu psi_mu and pi^mu psi_mu,
    so each of their row groups is four blocks side by side, one per mu.
    """
    if not p.on_shell():
        raise OffShell("counting requires an on-shell momentum")
    k = p.k_tuple()
    ctx = RSContext(ExternalField.zero(), m, frame)
    ebu = eps_units()["bar_upper"]
    waves = _unit_waves(k, frame)

    def row_group(op):
        blocks = [_plane_wave_symbol(functools.partial(op, mu), k, waves) for mu in range(4)]
        return [sum(rows, []) for rows in zip(*blocks)]

    block = _plane_wave_symbol(ctx.dirac, k, waves)
    dl = [[0] * (8 * mu) + row + [0] * (8 * (3 - mu)) for mu in range(4) for row in block]
    alg = row_group(lambda mu, x: x.lmul(ebu[mu]))
    diff = row_group(ctx.pi_upper)
    return dl, alg, diff


def constraint_counting(p: Momentum, m, frame: Frame):
    """Momentum-space rank analysis of the free constrained system.

    Reports the rank of the 32 Dirac rows alone, the real dimension before
    constraints, after imposing the two constraint groups, and the real
    dimension of the full solution space, with a basis of it.  The symbol
    is built by ``_free_symbol``: the four Dirac equations form a
    block-diagonal 32x32 matrix with one 8x8 block repeated, and each of
    the two 8x32 constraint groups takes component psi_mu through
    eps_bar^mu and pi^mu alone.  On shell each Dirac block has rank 4, so
    ``dirac_rank`` is 16; the constraints make one block redundant, so the
    other counts alone would not notice a block that is missing or sits
    over another component's columns.
    """
    dl, alg, diff = _free_symbol(p, m, frame)
    sol_basis = nullspace(dl + alg + diff)
    return {
        "total_real_dim": 32,
        "dirac_rank": rank(dl),
        "constraint_ranks": (rank(alg), rank(diff)),
        "after_constraints": 32 - rank(alg + diff),
        "solution_dim": len(sol_basis),
        "solution_basis": sol_basis,
    }


def free_rs_solutions(p: Momentum, m, frame: Frame):
    """Plane-wave vector-spinor solutions of the full free system.

    One solution per basis vector of the nullspace of the stacked symbol of
    ``_free_symbol`` (the block-diagonal Dirac rows over the two constraint
    groups); no ranks are computed.  Each component is the plane wave of the
    amplitude row read from its eight coordinates (``fields._coords_row``).
    """
    dl, alg, diff = _free_symbol(p, m, frame)
    k = _wave_vector(p.k_tuple())
    return [tuple(_plane_wave(*_coords_row(vec[8 * mu: 8 * mu + 8]), k, frame)
                  for mu in range(4))
            for vec in nullspace(dl + alg + diff)]
