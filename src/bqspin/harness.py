"""Named verification suites with deterministic seeding and reporting.

Each suite checks one cluster of identities at its stated tolerance and
returns a result row; witness suites demonstrate a non-invariance by
exhibiting a concrete counterexample with a margin.  Every suite carries a
stable anchor tag, and the coverage table maps the full anchor list to
suites or to explicit out-of-scope entries, so a report doubles as a
coverage map.
"""

from __future__ import annotations

import fnmatch
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import bilinears as cov
from . import fields as flds
from . import lorentz as lor
from . import rs
from .biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    basis_elements,
    peirce_compose,
    peirce_decompose,
    random_rational_batch,
    random_rational_biquaternion,
    random_rational_frame,
    random_real_quaternion,
)
from .errors import DegenerateMass, OffShell, UnknownSuite
from .fields import (
    ExternalField,
    Field,
    Momentum,
    Poly,
    build_doublet,
    dirac_lanczos_residual,
    lanczos_plane_wave,
    nabla,
    nabla_bar,
    plane_wave_field,
    plane_wave_solutions,
    proca_residual,
    random_linear_potential,
    random_poly_field,
    random_quadratic_potential,
    select_nabla_convention,
)
from .linops import MUL_I, RealLinearOp, op_exp
from .scalars import GR_I, GR_ONE, gr
from .spin import (
    SpinLabel,
    boost,
    closed_form_half_rotation,
    closed_form_one_rotation,
    eigenstates,
    generators,
    rotate,
    spin_of,
    subspace_basis,
)


@dataclass(frozen=True)
class SuiteResult:
    suite_id: str
    paper_anchor: str
    status: str               # pass | fail | witness
    max_residual: float
    witness_payload: object
    seed: int
    backend: str

    def as_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class SuiteSpec:
    suite_id: str
    anchor: str
    backend: str              # natural backend
    tol: float                # pass tolerance (0.0 means exact)
    fn: object
    kind: str = "identity"    # identity | witness


_REGISTRY: dict[str, SuiteSpec] = {}


def _suite(suite_id, anchor, backend, tol, kind="identity"):
    def deco(fn):
        _REGISTRY[suite_id] = SuiteSpec(suite_id, anchor, backend, tol, fn, kind)
        return fn

    return deco


def _rng_for(seed, suite_id):
    return random.Random(f"{seed}:{suite_id}")


ONSHELL = Momentum(Fraction(5), (Fraction(3), Fraction(0), Fraction(0)), Fraction(4))


# -- algebra ---------------------------------------------------------------------


# samples drawn and checked at once by a batched sweep: enough that the cost
# of each numpy call is small next to the draws, few enough that the arrays
# add well under 1 MB to the peak memory of a 10^4-sample sweep
_BATCH = 2000


def _sweep(rng, n, k, residuals, span=6):
    """Exact check of an identity on n samples of k random elements.

    ``residuals`` maps k batched biquaternions to the residuals that must
    vanish.  The samples are drawn in batches as ``random_rational_batch``
    draws them; the first sample with a nonzero residual is the witness.
    """
    for start in range(0, n, _BATCH):
        failing = False
        for r in residuals(*random_rational_batch(rng, min(_BATCH, n - start), k, span)):
            for c in (r.components() if isinstance(r, Biquaternion) else (r,)):
                failing = failing | c.nonzero()
        bad = np.flatnonzero(failing)
        if bad.size:
            return False, 1.0, {"sample_index": start + int(bad[0])}
    return True, 0.0, None


@_suite("algebra.associativity", "eq.A.1", "exact", 0.0)
def _s_assoc(rng, tol):
    return _sweep(rng, 10000, 3, lambda a, b, c: [(a * b) * c - a * (b * c)], span=9)


@_suite("algebra.hamilton_table", "eq.A.2", "exact", 0.0)
def _s_table(rng, tol):
    one, e1, e2, e3, *_ = basis_elements(exact=True)
    fixtures = [
        (e1 * e1, -one), (e2 * e2, -one), (e3 * e3, -one),
        (e1 * e2, e3), (e2 * e3, e1), (e3 * e1, e2),
        (e2 * e1, -e3), (e3 * e2, -e1), (e1 * e3, -e2),
        (one * e1, e1),
    ]
    ok = all((got - want).is_zero() for got, want in fixtures)
    return ok, 0.0 if ok else 1.0, None


@_suite("algebra.conjugation_laws", "eq.A.4", "exact", 0.0)
def _s_conj(rng, tol):
    return _sweep(rng, 10000, 2, lambda a, b: [
        (a * b).bar() - b.bar() * a.bar(),
        (a * b).plus() - b.plus() * a.plus(),
        (a * b).star() - a.star() * b.star(),
    ])


@_suite("algebra.norm_multiplicativity", "eq.A.1", "exact", 0.0)
def _s_norm(rng, tol):
    return _sweep(rng, 10000, 2, lambda a, b: [(a * b).norm() - a.norm() * b.norm()])


def _reversal_residuals(q, a, b):
    va, vb = a + a.plus(), b + b.plus()
    return [q.reverse().reverse() - q, (va * vb).reverse() - (vb * va).bar()]


@_suite("algebra.reversal", "eq.A.2", "exact", 0.0)
def _s_reversal(rng, tol):
    return _sweep(rng, 400, 3, _reversal_residuals)


@_suite("peirce.idempotents", "footnote.7", "exact", 0.0)
def _s_idem(rng, tol):
    frames = [DEFAULT_FRAME] + [random_rational_frame(rng) for _ in range(3)]
    for f in frames:
        checks = [
            f.sigma * f.sigma - f.sigma,
            f.sigma * f.sigma_bar,
            (f.sigma_bar * f.tau) * (f.sigma_bar * f.tau),
            f.tau_sigma * f.tau_sigma,
        ]
        if not all(c.is_zero() for c in checks):
            return False, 1.0, None
        l = random_rational_biquaternion(rng)
        if not (l * f.sigma).is_singular():
            return False, 1.0, None
    return True, 0.0, None


@_suite("peirce.roundtrip", "eq.8", "exact", 0.0)
def _s_peirce(rng, tol):
    frames = [DEFAULT_FRAME, random_rational_frame(rng)]
    for f in frames:
        for _ in range(100):
            q = random_rational_biquaternion(rng)
            if peirce_compose(peirce_decompose(q, f), f) != q:
                return False, 1.0, None
    return True, 0.0, None


# -- table 1 ------------------------------------------------------------------------


def _all_frames(rng):
    f2 = random_rational_frame(rng)
    return [DEFAULT_FRAME, f2]


@_suite("table1.su2_commutators", "table.1", "float", 1e-12)
def _s_su2(rng, tol):
    worst = 0.0
    for f in _all_frames(rng):
        for s in SpinLabel:
            g = generators(s, f)
            for a, b, c in ((g.j1, g.j2, g.j3), (g.j2, g.j3, g.j1), (g.j3, g.j1, g.j2)):
                diff = (a @ b) - (b @ a) - (MUL_I @ c)
                worst = max(worst, float(np.linalg.norm(diff.to_numpy(), 2)))
    return worst <= tol, worst, None


@_suite("table1.casimir", "table.1", "float", 1e-12)
def _s_casimir(rng, tol):
    worst = 0.0
    for f in _all_frames(rng):
        for s in SpinLabel:
            expected = spin_of(s) * (spin_of(s) + 1)
            cas = generators(s, f).casimir()
            for b in subspace_basis(s, f):
                worst = max(worst, (cas.apply(b) - b * expected).max_abs())
    return worst <= tol, worst, None


@_suite("table1.eigenstates", "eq.47", "float", 1e-12)
def _s_eigen(rng, tol):
    worst = 0.0
    for f in _all_frames(rng):
        for s in SpinLabel:
            g = generators(s, f)
            for m, state in eigenstates(s, f):
                worst = max(worst, (g.j3.apply(state) - state * m).max_abs())
                worst = max(worst, abs(state.unitary_norm() - 1.0))
    return worst <= tol, worst, None


@_suite("rotations.half_closed_form", "eq.4", "float", 1e-10)
def _s_rot_half(rng, tol):
    worst = 0.0
    f = DEFAULT_FRAME
    basis = subspace_basis(SpinLabel.HALF_PLUS, f)
    for _ in range(100):
        axis = lor._random_axis(rng)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        full = rotate(SpinLabel.HALF_PLUS, axis, theta, f)
        closed = closed_form_half_rotation(axis, theta)
        worst = max(worst, max((full.apply(b) - closed.apply(b)).max_abs()
                               for b in basis))
    return worst <= tol, worst, None


@_suite("rotations.one_closed_form", "eq.5", "float", 1e-10)
def _s_rot_one(rng, tol):
    worst = 0.0
    f = DEFAULT_FRAME
    for _ in range(100):
        axis = lor._random_axis(rng)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        worst = max(worst, rotate(SpinLabel.ONE, axis, theta, f).max_abs_diff(
            closed_form_one_rotation(axis, theta)))
    return worst <= tol, worst, None


@_suite("rotations.periodicity", "eq.6", "float", 1e-10)
def _s_period(rng, tol):
    worst = 0.0
    f = DEFAULT_FRAME
    signs = {SpinLabel.HALF_PLUS: -1.0, SpinLabel.HALF_MINUS: -1.0,
             SpinLabel.ONE: 1.0, SpinLabel.THREE_HALF: -1.0}
    for s, sign in signs.items():
        axis = lor._random_axis(rng)
        r2 = rotate(s, axis, 2 * math.pi, f)
        r4 = rotate(s, axis, 4 * math.pi, f)
        for b in subspace_basis(s, f):
            worst = max(worst, (r2.apply(b) - b * sign).max_abs())
            worst = max(worst, (r4.apply(b) - b).max_abs())
    return worst <= tol, worst, None


@_suite("rotations.boost", "footnote.8", "float", 1e-12)
def _s_boost(rng, tol):
    worst = 0.0
    f = DEFAULT_FRAME
    for s in SpinLabel:
        axis = lor._random_axis(rng)
        rho = rng.uniform(-1.2, 1.2)
        prod = boost(s, axis, rho, f) @ boost(s, axis, -rho, f)
        worst = max(worst, prod.max_abs_diff(RealLinearOp.identity()))
    return worst <= tol, worst, None


# -- scalar products and the action table ----------------------------------------------


@_suite("products.low_spin_matrix", "eq.1", "float", 1e-10)
def _s_products_low(rng, tol):
    payload = {}
    ok = True
    worst = 0.0
    for s in (SpinLabel.HALF_PLUS, SpinLabel.HALF_MINUS, SpinLabel.ONE):
        rot = lor.invariance_report(s, "rotation", seed=rng.randint(0, 10 ** 6))
        boo = lor.invariance_report(s, "boost", seed=rng.randint(0, 10 ** 6))
        # rotations keep both products, boosts only the Minkowski one
        kept = max(rot["minkowski_violation"], rot["unitary_violation"],
                   boo["minkowski_violation"])
        ok = (ok and kept <= tol and boo["unitary_violation"] > tol
              and boo["unitary_violation"] > 0.1)
        worst = max(worst, kept)
        payload[s.value] = {"boost_unitary_violation": boo["unitary_violation"]}
    return ok, worst, payload


@_suite("products.three_half_matrix", "eq.3", "float", 1e-10, kind="witness")
def _s_products_three_half(rng, tol):
    rot = lor.invariance_report(SpinLabel.THREE_HALF, "rotation",
                                seed=rng.randint(0, 10 ** 6))
    ok = (rot["unitary_violation"] <= tol and rot["minkowski_violation"] > tol
          and rot["minkowski_violation"] > 1e-3)
    return ok, rot["unitary_violation"], {
        "minkowski_violation_margin": rot["minkowski_violation"]}


@_suite("products.l32_matrix", "eq.2", "float", 1e-10)
def _s_products_l32(rng, tol):
    rot = lor.l32_invariance_report("rotation", seed=rng.randint(0, 10 ** 6))
    boo = lor.l32_invariance_report("boost", seed=rng.randint(0, 10 ** 6))
    kept = max(rot["minkowski_violation"], rot["unitary_violation"],
               boo["minkowski_violation"])
    ok = kept <= tol and boo["unitary_violation"] > tol
    return ok, kept, {"boost_unitary_violation": boo["unitary_violation"]}


@_suite("lorentz.group_actions", "eq.A.5", "float", 1e-11)
def _s_actions(rng, tol):
    worst = 0.0
    f = DEFAULT_FRAME
    for _ in range(6):
        L1 = lor.random_lorentz(rng)
        L2 = lor.random_lorentz(rng)
        L12 = L1 * L2
        for row in ("zero", "half_plus", "half_minus", "one"):
            for role in ("A", "B"):
                lhs = lor.action_op(row, role, L1, f) @ lor.action_op(row, role, L2, f)
                worst = max(worst, lhs.max_abs_diff(lor.action_op(row, role, L12, f)))
    return worst <= tol, worst, None


@_suite("lorentz.subspaces", "table.2", "float", 1e-9)
def _s_subspaces(rng, tol):
    expected = {"zero": (4, 2), "half_plus": (4, 4), "half_minus": (4, 4),
                "one": (4, 6), "three_half_L": (8, 8)}
    worst = 0.0
    for row, dims in expected.items():
        out = lor.subspace_closure(row, DEFAULT_FRAME, seed=rng.randint(0, 10 ** 6))
        worst = max(worst, out["max_residual"])
        if worst > tol:
            return False, worst, {"row": row}
        if (out["real_dim_A"], out["real_dim_B"]) != dims:
            return False, 1.0, {"row": row}
    return True, worst, None


@_suite("l32.nu_rotation_closure", "eq.48", "float", 1e-12)
def _s_l32_closure(rng, tol):
    defect = lor.rotation_closure(seed=rng.randint(0, 10 ** 6))
    return defect <= tol, defect, None


@_suite("l32.boost_counterexample", "eq.48", "float", 1e-3, kind="witness")
def _s_l32_witness(rng, tol):
    out = lor.boost_counterexample(seed=rng.randint(0, 10 ** 6))
    return out["defect"] > tol, out["defect"], out


# -- wave equations ------------------------------------------------------------------


@_suite("nabla.selection", "eq.17", "exact", 0.0)
def _s_nabla(rng, tol):
    spec = select_nabla_convention()
    ok = spec == flds.FROZEN_NABLA
    return ok, 0.0 if ok else 1.0, {"selected": spec.describe()}


@_suite("dirac.nullspace", "eq.15", "exact", 0.0)
def _s_nullspace(rng, tol):
    frame = DEFAULT_FRAME
    basis = plane_wave_solutions(ONSHELL, frame)
    if len(basis) != 4:
        return False, 1.0, None
    try:
        plane_wave_solutions(
            Momentum(Fraction(5), (Fraction(2), 0, 0), Fraction(4)), frame)
        return False, 1.0, None
    except OffShell:
        pass
    for amp in basis:
        psi = plane_wave_field(amp, ONSHELL.k_tuple(), frame)
        if not dirac_lanczos_residual(psi, ExternalField.zero(), ONSHELL.m, frame).is_zero():
            return False, 1.0, None
    return True, 0.0, None


@_suite("dirac.klein_gordon", "eq.12", "exact", 0.0)
def _s_kg(rng, tol):
    frame = DEFAULT_FRAME
    m2 = ONSHELL.m * ONSHELL.m
    for amp in plane_wave_solutions(ONSHELL, frame):
        psi = plane_wave_field(amp, ONSHELL.k_tuple(), frame)
        if not (nabla(nabla_bar(psi)) - psi.scale(m2)).is_zero():
            return False, 1.0, None
    return True, 0.0, None


@_suite("dirac.current", "eq.16", "exact", 0.0)
def _s_current(rng, tol):
    frame = DEFAULT_FRAME
    for amp in plane_wave_solutions(ONSHELL, frame):
        psi = plane_wave_field(amp, ONSHELL.k_tuple(), frame)
        if not nabla_bar(flds.current(psi)).scalar_part().is_zero():
            return False, 1.0, None
    # positivity of the density on arbitrary fields
    f = random_poly_field(rng)
    cf = flds.current(f)
    val = cf.eval_float((0.3, -0.2, 0.8, 0.1)).scalar_part()
    if val.real < -1e-12 or abs(val.imag) > 1e-9:
        return False, 1.0, None
    return True, 0.0, None


@_suite("dirac.doublet", "eq.11", "exact", 0.0)
def _s_doublet(rng, tol):
    for frame in (DEFAULT_FRAME, random_rational_frame(rng)):
        a0 = random_rational_biquaternion(rng)
        a, b = lanczos_plane_wave(ONSHELL, frame, a0)
        for psi in build_doublet(a, b, frame):
            if not dirac_lanczos_residual(psi, ExternalField.zero(), ONSHELL.m, frame).is_zero():
                return False, 1.0, None
            kg = nabla(nabla_bar(psi)) - psi.scale(ONSHELL.m * ONSHELL.m)
            if not kg.is_zero():
                return False, 1.0, None
    return True, 0.0, None


@_suite("lanczos.free_solutions", "eq.10", "exact", 0.0)
def _s_lanczos(rng, tol):
    frame = DEFAULT_FRAME
    a0 = random_rational_biquaternion(rng)
    a, b = lanczos_plane_wave(ONSHELL, frame, a0)
    ra, rb = flds.lanczos_residual(a, b, ExternalField.zero(), ONSHELL.m)
    ok = ra.is_zero() and rb.is_zero()
    # massless limit: a constant six-vector solves the sourced second half
    const = Field.constant(Biquaternion.vector(gr(1, 2), gr(0, -1), gr(3, 0)))
    _, rb0 = flds.lanczos_residual(Field.zero(), const, ExternalField.zero(), Fraction(0))
    ok = ok and rb0.is_zero()
    return ok, 0.0 if ok else 1.0, None


@_suite("lanczos.symbol_covariance", "eq.13", "float", 1e-10)
def _s_symbol_cov(rng, tol):
    # the free pair-system symbol (i P.bar A - m B, i P B - m A) is
    # equivariant under every action row combined with P -> L P L.plus():
    # the first residual transforms by L.star [.] r and the second by
    # L [.] r, where r is the row's right factor
    frame = DEFAULT_FRAME
    worst = 0.0
    m = float(ONSHELL.m)
    pq = ONSHELL.quaternion().to_float()
    one = Biquaternion.scalar(1.0)
    for _ in range(50):
        L = lor.random_lorentz(rng)
        pq2 = L * pq * L.plus()
        for row in lor.ROWS:
            left, r = lor.action_factors(row, "A", L, frame)
            a0 = lor._random_float_bq(rng)
            # the scalar row pairs a four-vector with an invariant scalar
            b0 = one * complex(rng.gauss(0, 1), rng.gauss(0, 1)) if row == "zero" \
                else lor._random_float_bq(rng)
            res1 = (pq.bar() * a0) * 1j - b0 * m
            res2 = (pq * b0) * 1j - a0 * m
            a1 = left * a0 * r
            b1 = lor.act(row, "B", L, b0, frame)
            lhs1 = (pq2.bar() * a1) * 1j - b1 * m
            lhs2 = (pq2 * b1) * 1j - a1 * m
            worst = max(worst, (lhs1 - L.star() * res1 * r).max_abs())
            worst = max(worst, (lhs2 - left * res2 * r).max_abs())
    return worst <= tol, worst, None


# -- covariants --------------------------------------------------------------------------


@_suite("covariants.singular_pair", "eq.41", "exact", 0.0)
def _s_singular(rng, tol):
    for frame in (DEFAULT_FRAME, random_rational_frame(rng)):
        for _ in range(20):
            l = random_real_quaternion(rng)
            r = random_real_quaternion(rng)
            c = cov.covariants(Field.constant(l * frame.sigma),
                               Field.constant(r * frame.sigma))
            if not (c.s_p.is_zero() and c.s_a.is_zero()
                    and c.v_p.is_zero() and c.v_a.is_zero()):
                return False, 1.0, None
    return True, 0.0, None


@_suite("covariants.characters", "eq.37", "float", 1e-12)
def _s_characters(rng, tol):
    values = [(lor._random_float_bq(rng), lor._random_float_bq(rng)) for _ in range(5)]
    worst = 0.0
    for _ in range(5):
        L = lor.random_lorentz(rng)
        out = cov.covariance_characters(L, DEFAULT_FRAME, values)
        worst = max(worst, max(out.values()))
    return worst <= tol, worst, None


@_suite("covariants.current_conservation", "eq.34", "exact", 0.0)
def _s_cov_current(rng, tol):
    a, b = lanczos_plane_wave(ONSHELL, DEFAULT_FRAME, random_rational_biquaternion(rng))
    lhs, corr = cov.polar_current_divergence(a, b, ExternalField.zero(), ONSHELL.m)
    if not (lhs.is_zero() and corr.is_zero()):
        return False, 1.0, None
    ext = random_linear_potential(rng)
    fa, fb = random_poly_field(rng), random_poly_field(rng)
    lhs, corr = cov.polar_current_divergence(fa, fb, ext, Fraction(3))
    ok = (lhs - corr).is_zero()
    # positive density
    c = cov.covariants(fa, fb)
    val = c.polar.eval_float((0.4, 0.3, -0.1, 0.2)).scalar_part()
    ok = ok and val.real >= -1e-12 and abs(val.imag) < 1e-9
    return ok, 0.0 if ok else 1.0, None


@_suite("covariants.divergences", "eq.45", "exact", 0.0)
def _s_divergences(rng, tol):
    ext = random_linear_potential(rng)
    m = Fraction(2)
    for _ in range(3):
        a, b = random_poly_field(rng), random_poly_field(rng)
        out = cov.transition_current_divergences(a, b, ext, m)
        if not (out["vp_residual"].is_zero() and out["va_residual"].is_zero()):
            return False, 1.0, None
    # outright on free plane-wave solutions
    a, b = lanczos_plane_wave(ONSHELL, DEFAULT_FRAME, random_rational_biquaternion(rng))
    out = cov.transition_current_divergences(a, b, ExternalField.zero(), ONSHELL.m)
    ok = out["vp_lhs"].is_zero()
    return ok, 0.0 if ok else 1.0, None


@_suite("covariants.lagrangian", "eq.39", "exact", 0.0)
def _s_lagrangian(rng, tol):
    a, b = lanczos_plane_wave(ONSHELL, DEFAULT_FRAME, random_rational_biquaternion(rng))
    if not cov.lagrangian_density(a, b, ExternalField.zero(), ONSHELL.m).is_zero():
        return False, 1.0, None
    fa, fb = random_poly_field(rng), random_poly_field(rng)
    val = cov.lagrangian_density(fa, fb, random_linear_potential(rng), Fraction(3))
    ok = not val.is_zero()
    return ok, 0.0 if ok else 1.0, None


@_suite("covariants.amplitude", "eq.40", "float", 1e-12)
def _s_amplitude(rng, tol):
    worst = 0.0
    for _ in range(10):
        L = lor.random_lorentz(rng)
        a0, b0 = lor._random_float_bq(rng), lor._random_float_bq(rng)
        t = cov.amplitude(lor.act("three_half_L", "A", L, a0, DEFAULT_FRAME),
                          lor.act("three_half_L", "B", L, b0, DEFAULT_FRAME))
        worst = max(worst, abs(complex(t - cov.amplitude(a0, b0))))
    return worst <= tol, worst, None


# -- the vector-spinor system ----------------------------------------------------------


def _sample_psi(rng, deg=2):
    return tuple(random_poly_field(rng, n_terms=2, max_deg=deg) for _ in range(4))


def _witness_potential():
    phi0 = Poly({(1, 0, 0, 0): Biquaternion.scalar(gr(1)),
                 (0, 0, 1, 0): Biquaternion.scalar(gr(2))})
    lin = Poly({(0, 1, 0, 0): Biquaternion.scalar(gr(3))})
    zero = Poly({})
    return ExternalField.from_components(phi0, (lin, zero, zero), gr(Fraction(1, 2)))


@_suite("rs.identities", "eq.19", "exact", 0.0)
def _s_rs_identities(rng, tol):
    ext = _witness_potential()
    ctx = rs.RSContext(ext, Fraction(2), DEFAULT_FRAME)
    units = rs.eps_units()
    eu = units["upper"]
    ebu = units["bar_upper"]
    x = random_poly_field(rng, n_terms=3, max_deg=4)
    terms = [ctx.pi_lower(mu, x) for mu in range(4)]
    acc_bar = rs._sum_fields(t.lmul(ebu[mu]) for mu, t in enumerate(terms))
    acc_star = rs._sum_fields(t.lmul(eu[mu]) for mu, t in enumerate(terms))
    ok = (acc_bar - ctx.pibar(x)).is_zero() and (acc_star - ctx.pibar_star(x)).is_zero()
    total = Biquaternion.zero()
    for mu in range(4):
        total = total + units["bar_upper"][mu] * units["lower"][mu]
    ok = ok and total == Biquaternion.scalar(gr(4))
    q = random_rational_biquaternion(rng)
    for lam in range(4):
        ok = ok and (units["bar_upper"][lam] * q).star() == units["upper"][lam] * q.star()
    return ok, 0.0 if ok else 1.0, None


@_suite("rs.commutator", "eq.21", "exact", 0.0)
def _s_rs_commutator(rng, tol):
    fields = [random_poly_field(rng, n_terms=2, max_deg=4) for _ in range(2)]
    for ext in (_witness_potential(), random_quadratic_potential(rng)):
        if rs.commutator_identity(ext, DEFAULT_FRAME, fields, Fraction(2)) != 0.0:
            return False, 1.0, None
    if rs.commutator_identity(ExternalField.zero(), DEFAULT_FRAME, fields, Fraction(2)) != 0.0:
        return False, 1.0, None
    return True, 0.0, None


@_suite("rs.dual_tensor", "eq.22", "exact", 0.0)
def _s_rs_dual(rng, tol):
    ext = _witness_potential()
    comps = ext.component_fields()
    phi_map = rs.dual_tensor(ext)
    units = rs.eps_units()
    phi_lower = [comps[0]] + [-comps[n] for n in (1, 2, 3)]
    minus_i = gr(0, -1)
    for lam in range(4):
        val = phi_map(units["bar_upper"][lam])
        for rho in range(4):
            got = val.lmul(units["bar_lower"][rho]).scalar_part()
            ft = rs._d_lower(phi_lower[rho], lam) - rs._d_lower(phi_lower[lam], rho)
            if not got.equal(ft.scale(minus_i)):
                return False, 1.0, None
    return True, 0.0, None


@_suite("rs.free_system", "eq.18", "exact", 0.0)
def _s_rs_free(rng, tol):
    sols = rs.free_rs_solutions(ONSHELL, ONSHELL.m, DEFAULT_FRAME)
    if len(sols) != 8:
        return False, 1.0, None
    for psi in sols[:4]:
        out = rs.rs_free_system(psi, ExternalField.zero(), ONSHELL.m, DEFAULT_FRAME)
        if not all(r.is_zero() for r in out["eq_residuals"]):
            return False, 1.0, None
        if not out["algebraic_constraint"].is_zero():
            return False, 1.0, None
        if not out["differential_constraint"].is_zero():
            return False, 1.0, None
        if not nabla_bar(rs.rs_current(psi)).scalar_part().is_zero():
            return False, 1.0, None
    return True, 0.0, None


@_suite("rs.extra_constraint", "eq.23", "exact", 1e-3, kind="witness")
def _s_rs_extra(rng, tol):
    psi = _sample_psi(rng, deg=4)
    ext = _witness_potential()
    if not rs.extra_constraint_derivation_residual(
            psi, ext, Fraction(2), DEFAULT_FRAME).is_zero():
        return False, 0.0, None
    if not rs.extra_constraint(psi, ExternalField.zero(), Fraction(2),
                               DEFAULT_FRAME).is_zero():
        return False, 0.0, None
    witness = 0.0
    payload = None
    for sol in rs.free_rs_solutions(ONSHELL, ONSHELL.m, DEFAULT_FRAME):
        w = rs.extra_constraint(sol, ext, ONSHELL.m, DEFAULT_FRAME)
        val = w.eval_float((0.3, 0.1, -0.2, 0.5)).max_abs()
        if val > witness:
            witness = val
            payload = {"residual_norm_at_sample_point": val}
    return witness > tol, witness, payload


@_suite("rs.contraction_chain", "eq.25", "exact", 0.0)
def _s_rs_contraction(rng, tol):
    ext = _witness_potential()
    samples = [_sample_psi(rng), _sample_psi(rng, deg=3)]
    for g in (Fraction(1, 3), Fraction(1), Fraction(7, 5)):
        out = rs.contraction_chain(g, ext, Fraction(2), DEFAULT_FRAME, samples)
        if out["eps_residual"] != 0.0 or out["pi_residual"] != 0.0:
            return False, max(out["eps_residual"], out["pi_residual"]), {"g": str(g)}
    return True, 0.0, None


@_suite("rs.g1_chain", "eq.30", "exact", 0.0)
def _s_rs_g1(rng, tol):
    ext = _witness_potential()
    out = rs.g1_chain(ext, Fraction(2), DEFAULT_FRAME,
                      [_sample_psi(rng), _sample_psi(rng, deg=3)])
    worst = max(out.values())
    try:
        rs.g1_chain(ext, Fraction(0), DEFAULT_FRAME, [_sample_psi(rng)])
        return False, 1.0, None
    except DegenerateMass:
        pass
    return worst == 0.0, worst, {k: v for k, v in out.items()}


@_suite("rs.constraint_counting", "eq.18", "exact", 0.0)
def _s_rs_counting(rng, tol):
    out = rs.constraint_counting(ONSHELL, ONSHELL.m, DEFAULT_FRAME)
    ok = (out["total_real_dim"] == 32 and out["constraint_ranks"] == (8, 8)
          and out["after_constraints"] == 16 and out["solution_dim"] == 8)
    return ok, 0.0 if ok else 1.0, {
        "after_constraints": out["after_constraints"],
        "solution_dim": out["solution_dim"],
    }


def _div(v):
    return v[0].dx(1) + v[1].dx(2) + v[2].dx(3)


def _curl(v):
    return [v[2].dx(2) - v[1].dx(3), v[0].dx(3) - v[2].dx(1), v[1].dx(1) - v[0].dx(2)]


@_suite("proca.tensor_equivalence", "eq.A.8", "exact", 0.0)
def _s_proca(rng, tol):
    f = random_poly_field(rng, n_terms=4, max_deg=3)
    a = f + f.plus()
    m = Fraction(3)
    b, res = proca_residual(a, m)
    # independent tensor-component recomputation
    a0 = a.scalar_part()
    avec = flds._vector_components(a, GR_I)
    e_c = [(-avec[n].dt() - a0.dx(n + 1)) for n in range(3)]
    b_c = _curl(avec)
    curl_b = _curl(b_c)
    if not res.scalar_part().equal(-_div(e_c) - a0.scale(m * m)):
        return False, 1.0, None
    for n, rn in enumerate(flds._vector_components(res, GR_ONE)):
        want = (e_c[n].dt() - curl_b[n] - avec[n].scale(m * m)).scale(gr(0, -1))
        if not rn.equal(want):
            return False, 1.0, None
    for n, bn in enumerate(flds._vector_components(b, GR_ONE)):
        if not bn.equal(e_c[n] + b_c[n].scale(GR_I)):
            return False, 1.0, None
    return True, 0.0, None


@_suite("proca.maxwell_limit", "footnote.13", "exact", 0.0)
def _s_maxwell(rng, tol):
    e_f = [random_poly_field(rng).scalar_part().re_scalar() for _ in range(3)]
    b_f = [random_poly_field(rng).scalar_part().re_scalar() for _ in range(3)]
    units = [Biquaternion.vector(1, 0, 0), Biquaternion.vector(0, 1, 0),
             Biquaternion.vector(0, 0, 1)]
    six = Field.zero()
    for n in range(3):
        six = six + (e_f[n] + b_f[n].scale(GR_I)).lmul(units[n])
    grad = nabla(six)
    if not grad.scalar_part().equal(-(_div(e_f) + _div(b_f).scale(GR_I))):
        return False, 1.0, None
    curl_e, curl_b = _curl(e_f), _curl(b_f)
    for n, gn in enumerate(flds._vector_components(grad, GR_ONE)):
        want = curl_e[n] + b_f[n].dt() - (e_f[n].dt() - curl_b[n]).scale(GR_I)
        if not gn.equal(want):
            return False, 1.0, None
    return True, 0.0, None


@_suite("operators.exponential", "eq.6", "float", 1e-12)
def _s_op_exp(rng, tol):
    worst = 0.0
    for _ in range(10):
        m = RealLinearOp([[rng.uniform(-1.5, 1.5) for _ in range(8)] for _ in range(8)])
        prod = op_exp(m) @ op_exp(m.scale(-1.0))
        diff = prod - RealLinearOp.identity()
        worst = max(worst, float(np.linalg.norm(diff.to_numpy(), 2)))
    # rotation generators at the 4 pi double turn reach norm 6 pi, the
    # largest norm the rotation suites exponentiate
    gen = (MUL_I @ generators(SpinLabel.THREE_HALF, DEFAULT_FRAME).j1).scale(-4.0 * math.pi)
    prod = op_exp(gen) @ op_exp(gen.scale(-1.0))
    diff = prod - RealLinearOp.identity()
    worst = max(worst, float(np.linalg.norm(diff.to_numpy(), 2)))
    return worst <= tol, worst, None


# -- coverage ---------------------------------------------------------------------------


OUT_OF_SCOPE = {
    "eq.7": "two-component spinor form of the first-order pair; formalism context only",
    "eq.9": "two-component transcription via the singular ideals; content covered "
            "by the fundamental-system and ideal-projection suites",
}

COVERAGE = {
    "eq.1": ["products.low_spin_matrix"],
    "eq.2": ["products.low_spin_matrix", "products.l32_matrix"],
    "eq.3": ["products.three_half_matrix"],
    "eq.4": ["rotations.half_closed_form"],
    "eq.5": ["rotations.one_closed_form"],
    "eq.6": ["rotations.periodicity", "operators.exponential", "table1.su2_commutators"],
    "eq.7": [],
    "eq.8": ["peirce.roundtrip", "peirce.idempotents"],
    "eq.9": [],
    "eq.10": ["lanczos.free_solutions"],
    "eq.11": ["dirac.doublet"],
    "eq.12": ["dirac.klein_gordon", "dirac.nullspace"],
    "eq.13": ["lanczos.symbol_covariance"],
    "eq.14": ["rs.identities", "dirac.nullspace"],
    "eq.15": ["dirac.nullspace"],
    "eq.16": ["dirac.current"],
    "eq.17": ["nabla.selection", "rs.identities"],
    "eq.18": ["rs.free_system", "rs.constraint_counting"],
    "eq.19": ["rs.identities"],
    "eq.20": ["rs.free_system"],
    "eq.21": ["rs.commutator"],
    "eq.22": ["rs.dual_tensor"],
    "eq.23": ["rs.extra_constraint"],
    "eq.24": ["rs.contraction_chain"],
    "eq.25": ["rs.contraction_chain"],
    "eq.26": ["rs.contraction_chain"],
    "eq.27": ["rs.g1_chain"],
    "eq.28": ["rs.g1_chain"],
    "eq.29": ["rs.g1_chain"],
    "eq.30": ["rs.g1_chain"],
    "eq.31": ["rs.g1_chain"],
    "eq.32": ["rs.g1_chain"],
    "eq.33": ["covariants.current_conservation", "covariants.divergences"],
    "eq.34": ["covariants.current_conservation"],
    "eq.35": ["covariants.current_conservation"],
    "eq.36": ["covariants.current_conservation"],
    "eq.37": ["covariants.characters"],
    "eq.38": ["covariants.characters"],
    "eq.39": ["covariants.lagrangian"],
    "eq.40": ["covariants.amplitude"],
    "eq.41": ["covariants.singular_pair"],
    "eq.42": ["covariants.singular_pair"],
    "eq.43": ["covariants.singular_pair", "covariants.divergences"],
    "eq.44": ["covariants.singular_pair", "covariants.divergences"],
    "eq.45": ["covariants.divergences"],
    "eq.46": ["covariants.divergences"],
    "eq.47": ["table1.eigenstates"],
    "eq.48": ["l32.nu_rotation_closure", "l32.boost_counterexample", "products.l32_matrix"],
    "eq.A.1": ["algebra.associativity", "algebra.hamilton_table",
               "algebra.norm_multiplicativity"],
    "eq.A.2": ["algebra.hamilton_table", "algebra.reversal"],
    "eq.A.3": ["algebra.conjugation_laws"],
    "eq.A.4": ["algebra.conjugation_laws"],
    "eq.A.5": ["lorentz.group_actions"],
    "eq.A.6": ["lorentz.group_actions", "lorentz.subspaces"],
    "eq.A.7": ["lorentz.group_actions", "lorentz.subspaces"],
    "eq.A.8": ["proca.tensor_equivalence", "proca.maxwell_limit"],
    "table.1": ["table1.su2_commutators", "table1.casimir", "table1.eigenstates"],
    "table.2": ["lorentz.subspaces", "lorentz.group_actions"],
    "footnote.7": ["peirce.idempotents"],
    "footnote.8": ["rotations.boost"],
    "footnote.13": ["proca.maxwell_limit"],
}


def coverage_table():
    """Anchor -> suites or out-of-scope reason; complete over the source map."""
    out = {}
    for anchor, suites in COVERAGE.items():
        if suites:
            out[anchor] = {"suites": suites}
        else:
            out[anchor] = {"out_of_scope": OUT_OF_SCOPE[anchor]}
    return out


def list_suites():
    return sorted(_REGISTRY)


def run(suite_filter="*", seed=0, backend=None, tol=None):
    """Run all suites matching the glob; deterministic in (seed, backend),
    except the float witness ``l32.boost_counterexample``, whose best-fit
    defect comes from an iterative least-squares fit and can differ in its
    last digits from one run to the next (its status does not).

    Each suite carries its natural backend (exact identities vs float
    exponential sweeps); selecting a backend restricts the run to that
    portion of the registry.
    """
    matched = [sid for sid in sorted(_REGISTRY) if fnmatch.fnmatch(sid, suite_filter)]
    if backend is not None:
        matched = [sid for sid in matched if _REGISTRY[sid].backend == backend]
    if not matched:
        raise UnknownSuite(f"no suite matches {suite_filter!r}"
                           + (f" with backend {backend}" if backend else ""))
    results = []
    for sid in matched:
        spec = _REGISTRY[sid]
        effective_backend = spec.backend
        # tol overrides the identity tolerances only, never a witness margin
        effective_tol = spec.tol if tol is None or spec.kind == "witness" else tol
        rng = _rng_for(seed, sid)
        ok, residual, payload = spec.fn(rng, effective_tol)
        if spec.kind == "witness":
            status = "witness" if ok else "fail"
        else:
            status = "pass" if ok else "fail"
        results.append(SuiteResult(
            suite_id=sid,
            paper_anchor=spec.anchor,
            status=status,
            max_residual=float(residual),
            witness_payload=payload,
            seed=seed,
            backend=effective_backend,
        ))
    return results


def all_passed(results):
    return all(r.status in ("pass", "witness") for r in results)
