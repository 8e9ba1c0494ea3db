"""Named verification suites with deterministic seeding and reporting.

Each suite checks one cluster of identities; a witness suite demonstrates a
non-invariance by a counterexample with a margin.  Every suite carries a
stable anchor tag, and the coverage table maps every anchor to suites or to
an explicit out-of-scope entry.

A suite states claims on a ``Check`` and returns only its payload:
``zero(*values)``, ``holds(cond)``, ``rejects(exc_type, fn, *args)`` (any
other exception propagates), ``within(*residuals)`` (float residuals at most
the tolerance; refused in an exact suite) and ``exceeds(margin)`` (a witness
margin above the suite's tolerance and 1e-3).  ``run`` derives each row once:
``max_residual`` is the largest ``within`` value (NaN if any is NaN), else a
witness suite's margin, else 0.0, raised to 1.0 if a zero, holds or rejects
claim failed.  A suite passes (a witness suite: is a ``witness``) when it
made claims, all of them held and any margin exceeded its threshold.  The
payload is the witness of the first failed claim, else the suite's return
value.  A check lives for one suite run.
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
    _batch_frame,
    basis_elements,
    peirce_compose,
    peirce_decompose,
    random_rational_batch,
    random_rational_biquaternion,
    random_rational_frame,
    random_real_quaternion,
)
from .errors import ConfigError, DegenerateMass, NoConsistentConvention, OffShell, UnknownSuite
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
from .scalars import GR_I, GR_ONE, GaussianIntArray, gr, largest
from .spin import (
    SpinLabel,
    boost,
    closed_form_half_boost,
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


# a witness margin must exceed this as well as the suite's tolerance
_WITNESS_MARGIN = 1e-3


class Check:
    """The claims of one suite run, from which ``run`` derives the verdict
    (see the module docstring).  Each claim returns whether it held."""

    def __init__(self, tol, backend="float", kind="identity"):
        self.tol, self.backend, self.kind = tol, backend, kind
        self.claims = 0
        self.failure = None         # (witness,) of the first failed claim
        self.exact_failed = False   # a zero, holds or rejects claim failed
        self.residual = None        # the largest within value
        self.margin = None
        self.shown = False          # the margin exceeded its threshold

    def _record(self, held, witness, exact=True):
        self.claims += 1
        if not held:
            self.failure = self.failure or (witness,)
            self.exact_failed |= exact
        return held

    def zero(self, *values, witness=None):
        """``is_zero()`` on a Field, Poly or Biquaternion, ``== 0`` on a scalar."""
        return self._record(all(v.is_zero() if hasattr(v, "is_zero") else v == 0
                                for v in values), witness)

    def holds(self, cond, witness=None):
        return self._record(bool(cond), witness)

    def rejects(self, exc_type, fn, *args):
        """fn(*args) raises exc_type; any other exception propagates."""
        try:
            fn(*args)
        except exc_type:
            return self._record(True, None)
        return self._record(False, None)

    def within(self, *residuals, witness=None):
        """Each float residual is at most the tolerance (a nan is not)."""
        if self.backend == "exact":
            raise ConfigError("an exact suite decides exactly: within() is for float suites")
        residuals = [float(r) for r in residuals]
        self.residual = largest([0.0 if self.residual is None else self.residual, *residuals])
        return self._record(all(r <= self.tol for r in residuals), witness, exact=False)

    def exceeds(self, margin):
        if self.kind != "witness":
            raise ConfigError("exceeds() states a witness margin; this is an identity suite")
        self.claims += 1
        self.margin = float(margin)
        self.shown = self.margin > max(self.tol, _WITNESS_MARGIN)
        return self.shown

    def verdict(self, payload):
        """(status, max_residual, payload) of the run."""
        residual = self.residual if self.residual is not None else self.margin or 0.0
        if self.exact_failed:
            residual = max(residual, 1.0)
        held = self.claims > 0 and not self.failure and (self.shown or self.kind != "witness")
        status = ("witness" if self.kind == "witness" else "pass") if held else "fail"
        return status, residual, self.failure[0] if self.failure else payload


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


# samples drawn and checked at once by a batched sweep: enough that each
# numpy call of the batched products and involutions works on thousands of
# entries, so its fixed cost is small next to its work, and few enough that
# the arrays add well under 1 MB to the peak memory of a 10^4-sample sweep
_BATCH = 2000


def _first_nonzero(residuals):
    """The index of the first sample on which some batched residual (a
    biquaternion or a scalar) is nonzero; None when all of them vanish."""
    failing = False
    for r in residuals:
        for c in (r.components() if isinstance(r, Biquaternion) else (r,)):
            failing = failing | c.nonzero()
    bad = np.flatnonzero(failing)
    return int(bad[0]) if bad.size else None


def _sweep(check, rng, n, k, residuals, span=6):
    """Exact check of an identity on n samples of k random elements.

    ``residuals`` maps k batched biquaternions to the residuals that must
    vanish.  The samples are drawn in batches as ``random_rational_batch``
    draws them; the first sample with a nonzero residual is the witness.
    """
    for start in range(0, n, _BATCH):
        bad = _first_nonzero(residuals(*random_rational_batch(rng, min(_BATCH, n - start), k, span)))
        witness = None if bad is None else {"sample_index": start + bad}
        if not check.holds(witness is None, witness):
            return


@_suite("algebra.associativity", "eq.A.1", "exact", 0.0)
def _s_assoc(rng, check):
    _sweep(check, rng, 10000, 3, lambda a, b, c: [(a * b) * c - a * (b * c)], span=9)


@_suite("algebra.hamilton_table", "eq.A.2", "exact", 0.0)
def _s_table(rng, check):
    one, e1, e2, e3, *_ = basis_elements(exact=True)
    check.zero(e1 * e1 + one, e2 * e2 + one, e3 * e3 + one,
               e1 * e2 - e3, e2 * e3 - e1, e3 * e1 - e2,
               e2 * e1 + e3, e3 * e2 + e1, e1 * e3 + e2,
               one * e1 - e1)


def _conjugation_residuals(a, b):
    ab = a * b
    return [ab.bar() - b.bar() * a.bar(), ab.plus() - b.plus() * a.plus(),
            ab.star() - a.star() * b.star()]


@_suite("algebra.conjugation_laws", "eq.A.4", "exact", 0.0)
def _s_conj(rng, check):
    _sweep(check, rng, 10000, 2, _conjugation_residuals)


@_suite("algebra.norm_multiplicativity", "eq.A.1", "exact", 0.0)
def _s_norm(rng, check):
    _sweep(check, rng, 10000, 2, lambda a, b: [(a * b).norm() - a.norm() * b.norm()])


def _reversal_residuals(q, a, b):
    va, vb = a + a.plus(), b + b.plus()
    return [q.reverse().reverse() - q, (va * vb).reverse() - (vb * va).bar()]


@_suite("algebra.reversal", "eq.A.2", "exact", 0.0)
def _s_reversal(rng, check):
    _sweep(check, rng, 400, 3, _reversal_residuals)


@_suite("peirce.idempotents", "footnote.7", "exact", 0.0)
def _s_idem(rng, check):
    for f in [DEFAULT_FRAME] + [random_rational_frame(rng) for _ in range(3)]:
        check.zero(
            f.sigma * f.sigma - f.sigma,
            f.sigma * f.sigma_bar,
            (f.sigma_bar * f.tau) * (f.sigma_bar * f.tau),
            f.tau_sigma * f.tau_sigma,
        )
        l = random_rational_biquaternion(rng)
        check.holds((l * f.sigma).is_singular())


# the eight unit coefficient rows, one sample each over 1: sample j is 1 in
# entry j of (A_w, B_w, A_x, B_x, A_y, B_y, A_z, B_z), so the real and
# imaginary parts of a component are two adjacent columns of the identity
_UNIT_ROWS = Biquaternion(*(GaussianIntArray(*np.eye(8, dtype=np.int64)[j:j + 2])
                            for j in range(0, 8, 2)))


@_suite("peirce.roundtrip", "eq.8", "exact", 0.0)
def _s_peirce(rng, check):
    # On a frame over D (``biquaternion._batch_frame``) compose(decompose(q))
    # has D^2 times the scale of q, so q is compared as q D^2 / D^2.  The
    # roundtrip is complex-linear in q, so the unit rows prove it for every q.
    for f in (DEFAULT_FRAME, random_rational_frame(rng)):
        fb = _batch_frame(f)
        d2 = fb.sigma.w.scale ** 2
        one = GaussianIntArray([d2], [0], d2)

        def residuals(q):
            return [peirce_compose(peirce_decompose(q, fb), fb) - q * one]

        _sweep(check, rng, 100, 1, residuals)
        bad = _first_nonzero(residuals(_UNIT_ROWS))
        check.holds(bad is None, {"unit_row": bad})


# -- table 1 ------------------------------------------------------------------------


@_suite("table1.su2_commutators", "table.1", "float", 1e-12)
def _s_su2(rng, check):
    for f in (DEFAULT_FRAME, random_rational_frame(rng)):
        for s in SpinLabel:
            g = generators(s, f)
            for a, b, c in ((g.j1, g.j2, g.j3), (g.j2, g.j3, g.j1), (g.j3, g.j1, g.j2)):
                check.within(np.linalg.norm(((a @ b) - (b @ a) - (MUL_I @ c)).to_numpy(), 2))


@_suite("table1.casimir", "table.1", "float", 1e-12)
def _s_casimir(rng, check):
    for f in (DEFAULT_FRAME, random_rational_frame(rng)):
        for s in SpinLabel:
            expected = spin_of(s) * (spin_of(s) + 1)
            cas = generators(s, f).casimir()
            for b in subspace_basis(s, f):
                check.within((cas.apply(b) - b * expected).max_abs())


@_suite("table1.eigenstates", "eq.47", "float", 1e-12)
def _s_eigen(rng, check):
    for f in (DEFAULT_FRAME, random_rational_frame(rng)):
        for s in SpinLabel:
            g = generators(s, f)
            for m, state in eigenstates(s, f):
                check.within((g.j3.apply(state) - state * m).max_abs(),
                             abs(state.unitary_norm() - 1.0))


def _generator(rng):
    """The numpy Generator of a float suite's stacks, seeded by one draw
    of the suite's rng."""
    return np.random.default_rng(rng.getrandbits(64))


@_suite("rotations.half_closed_form", "eq.4", "float", 1e-10)
def _s_rot_half(rng, check):
    gen = _generator(rng)
    axes, thetas = lor.random_axes(gen, 100), gen.uniform(-2 * math.pi, 2 * math.pi, 100)
    full = rotate(SpinLabel.HALF_PLUS, axes, thetas, DEFAULT_FRAME)
    closed = closed_form_half_rotation(axes, thetas)
    check.within(*((full.apply(b) - closed.apply(b)).max_abs()
                   for b in subspace_basis(SpinLabel.HALF_PLUS, DEFAULT_FRAME)))


@_suite("rotations.one_closed_form", "eq.5", "float", 1e-10)
def _s_rot_one(rng, check):
    gen = _generator(rng)
    axes, thetas = lor.random_axes(gen, 100), gen.uniform(-2 * math.pi, 2 * math.pi, 100)
    check.within(rotate(SpinLabel.ONE, axes, thetas, DEFAULT_FRAME).max_abs_diff(
        closed_form_one_rotation(axes, thetas)))


@_suite("rotations.periodicity", "eq.6", "float", 1e-10)
def _s_period(rng, check):
    # the 2 pi and the 4 pi turn about one axis, as a stack of two, against
    # the sign each column takes at them
    signs = {SpinLabel.HALF_PLUS: -1.0, SpinLabel.HALF_MINUS: -1.0,
             SpinLabel.ONE: 1.0, SpinLabel.THREE_HALF: -1.0}
    for (s, sign), axis in zip(signs.items(), lor.random_axes(_generator(rng), 4)):
        turns = rotate(s, [axis, axis], [2 * math.pi, 4 * math.pi], DEFAULT_FRAME)
        expected = np.array([sign, 1.0])
        for b in subspace_basis(s, DEFAULT_FRAME):
            check.within((turns.apply(b) - b * expected).max_abs())


@_suite("rotations.boost", "footnote.8", "float", 1e-12)
def _s_boost(rng, check):
    # Footnote 8: on its subspace the HALF_PLUS boost is left multiplication
    # by the bireal factor exp(i rho a / 2).  Every boost is also undone by
    # the opposite rapidity, which alone holds for any generator.
    gen = _generator(rng)
    for s, axis, rho in zip(SpinLabel, lor.random_axes(gen, 4), gen.uniform(-1.2, 1.2, 4)):
        forward, backward = (RealLinearOp(m) for m in
                             boost(s, [axis, axis], [rho, -rho], DEFAULT_FRAME).matrix)
        check.within((forward @ backward).max_abs_diff(RealLinearOp(np.eye(8))))
        if s is SpinLabel.HALF_PLUS:
            closed = closed_form_half_boost(axis, rho)
            check.within(*((forward.apply(b) - closed.apply(b)).max_abs()
                           for b in subspace_basis(s, DEFAULT_FRAME)))


# -- scalar products and the action table ----------------------------------------------


@_suite("products.low_spin_matrix", "eq.1", "float", 1e-10)
def _s_products_low(rng, check):
    payload = {}
    gen = _generator(rng)
    for s in (SpinLabel.HALF_PLUS, SpinLabel.HALF_MINUS, SpinLabel.ONE):
        rot = lor.invariance_report(s, "rotation", gen)
        boo = lor.invariance_report(s, "boost", gen)
        # rotations keep both products, boosts only the Minkowski one: they
        # break the unitary product by more than 0.1
        check.within(rot["minkowski_violation"], rot["unitary_violation"],
                     boo["minkowski_violation"])
        payload[s.value] = {"boost_unitary_violation": boo["unitary_violation"]}
        check.holds(boo["unitary_violation"] > 0.1, {s.value: payload[s.value]})
    return payload


@_suite("products.three_half_matrix", "eq.3", "float", 1e-10, kind="witness")
def _s_products_three_half(rng, check):
    rot = lor.invariance_report(SpinLabel.THREE_HALF, "rotation", _generator(rng))
    check.within(rot["unitary_violation"])
    check.exceeds(rot["minkowski_violation"])
    return {"minkowski_violation_margin": rot["minkowski_violation"]}


@_suite("products.l32_matrix", "eq.2", "float", 1e-10)
def _s_products_l32(rng, check):
    gen = _generator(rng)
    rot = lor.l32_invariance_report("rotation", gen)
    boo = lor.l32_invariance_report("boost", gen)
    check.within(rot["minkowski_violation"], rot["unitary_violation"],
                 boo["minkowski_violation"])
    payload = {"boost_unitary_violation": boo["unitary_violation"]}
    check.holds(boo["unitary_violation"] > 0.1, payload)
    return payload


@_suite("lorentz.group_actions", "eq.A.5", "float", 1e-11)
def _s_actions(rng, check):
    f = DEFAULT_FRAME
    # six pairs (L1, L2), as two stacks
    gen = _generator(rng)
    L1, L2 = lor.random_lorentz(gen, 6), lor.random_lorentz(gen, 6)
    L12 = L1 * L2
    for row in ("zero", "half_plus", "half_minus", "one"):
        for role in ("A", "B"):
            lhs = lor.action_op(row, role, L1, f) @ lor.action_op(row, role, L2, f)
            check.within(lhs.max_abs_diff(lor.action_op(row, role, L12, f)))


@_suite("lorentz.subspaces", "table.2", "float", 1e-9)
def _s_subspaces(rng, check):
    expected = {"zero": (4, 2), "half_plus": (4, 4), "half_minus": (4, 4),
                "one": (4, 6), "three_half_L": (8, 8)}
    gen = _generator(rng)
    for row, dims in expected.items():
        out = lor.subspace_closure(row, DEFAULT_FRAME, gen)
        check.within(out["max_residual"], witness={"row": row})
        check.holds((out["real_dim_A"], out["real_dim_B"]) == dims, {"row": row})


@_suite("l32.nu_rotation_closure", "eq.48", "float", 1e-12)
def _s_l32_closure(rng, check):
    check.within(lor.rotation_closure(seed=rng.randint(0, 10 ** 6)))


@_suite("l32.boost_counterexample", "eq.48", "float", 1e-3, kind="witness")
def _s_l32_witness(rng, check):
    out = lor.boost_counterexample(seed=rng.randint(0, 10 ** 6))
    check.exceeds(out["defect"])
    return out


# -- wave equations ------------------------------------------------------------------


@_suite("nabla.selection", "eq.17", "exact", 0.0)
def _s_nabla(rng, check):
    try:
        spec = select_nabla_convention()
    except NoConsistentConvention as err:
        check.holds(False, {"survivors": err.survivors})
        return None
    selected = {"selected": spec.describe()}
    check.holds(spec == flds.FROZEN_NABLA, selected)
    return selected


@_suite("dirac.nullspace", "eq.15", "exact", 0.0)
def _s_nullspace(rng, check):
    basis = plane_wave_solutions(ONSHELL, DEFAULT_FRAME)
    check.holds(len(basis) == 4)
    check.rejects(OffShell, plane_wave_solutions,
                  Momentum(Fraction(5), (Fraction(2), 0, 0), Fraction(4)), DEFAULT_FRAME)
    # the closed form P.bar() X = m X* at +k as well: a symbol of the waves
    # at -k has its own nullspace, on which the residual vanishes too
    pbar = ONSHELL.quaternion().bar()
    for amp in basis:
        psi = plane_wave_field(amp, ONSHELL.k_tuple(), DEFAULT_FRAME)
        check.zero(dirac_lanczos_residual(psi, ExternalField.zero(), ONSHELL.m, DEFAULT_FRAME),
                   pbar * amp - amp.star() * ONSHELL.m)


@_suite("dirac.klein_gordon", "eq.12", "exact", 0.0)
def _s_kg(rng, check):
    for amp in plane_wave_solutions(ONSHELL, DEFAULT_FRAME):
        psi = plane_wave_field(amp, ONSHELL.k_tuple(), DEFAULT_FRAME)
        check.zero(nabla(nabla_bar(psi)) - psi.scale(ONSHELL.m * ONSHELL.m))


def _generic_field(first=0):
    """The polynomial field whose 8 real coordinates, in the basis of
    ``basis_elements``, are x_k = t^(2^k) for k = first, ..., first + 7."""
    return Field.polynomial(Poly({(2 ** (first + k), 0, 0, 0): u
                                  for k, u in enumerate(basis_elements())}))


def _squares_defect(density, dim):
    """density - sum_k x_k^2 (k < dim), for a quadratic density of the
    coordinates x_k of ``_generic_field``.  The products x_k x_l have the
    distinct exponents 2^k + 2^l, so the coefficient of x_k x_l (k < l) is
    the entry G_kl of the density's Gram matrix and that of x_k^2 is
    G_kk / 2.  The defect vanishes exactly when G = 2 I: the density is the
    sum of the squared coordinates, nonnegative on every field everywhere."""
    return density - Field.polynomial(Poly({(2 ** (k + 1), 0, 0, 0): Biquaternion.one()
                                            for k in range(dim)}))


@_suite("dirac.current", "eq.16", "exact", 0.0)
def _s_current(rng, check):
    for amp in plane_wave_solutions(ONSHELL, DEFAULT_FRAME):
        psi = plane_wave_field(amp, ONSHELL.k_tuple(), DEFAULT_FRAME)
        check.zero(nabla_bar(flds.current(psi)).scalar_part())
    # the density is nonnegative on every field
    check.zero(_squares_defect(flds.current(_generic_field()).scalar_part(), 8))


@_suite("dirac.doublet", "eq.11", "exact", 0.0)
def _s_doublet(rng, check):
    for frame in (DEFAULT_FRAME, random_rational_frame(rng)):
        a, b = lanczos_plane_wave(ONSHELL, frame, random_rational_biquaternion(rng))
        for psi in build_doublet(a, b, frame):
            check.zero(dirac_lanczos_residual(psi, ExternalField.zero(), ONSHELL.m, frame),
                       nabla(nabla_bar(psi)) - psi.scale(ONSHELL.m * ONSHELL.m))


@_suite("lanczos.free_solutions", "eq.10", "exact", 0.0)
def _s_lanczos(rng, check):
    a, b = lanczos_plane_wave(ONSHELL, DEFAULT_FRAME, random_rational_biquaternion(rng))
    check.zero(*flds.lanczos_residual(a, b, ExternalField.zero(), ONSHELL.m))
    # massless limit: a constant six-vector solves the sourced second half
    const = Field.constant(Biquaternion.vector(gr(1, 2), gr(0, -1), gr(3, 0)))
    _, rb0 = flds.lanczos_residual(Field.zero(), const, ExternalField.zero(), Fraction(0))
    check.zero(rb0)


@_suite("lanczos.symbol_covariance", "eq.13", "float", 1e-10)
def _s_symbol_cov(rng, check):
    # the free pair-system symbol (i P.bar A - m B, i P B - m A) is
    # equivariant under every action row combined with P -> L P L.plus():
    # the first residual transforms by L.star [.] r and the second by
    # L [.] r, where r is the row's right factor
    m = float(ONSHELL.m)
    pq = ONSHELL.quaternion().to_float()
    # 50 samples as one stack: L, then row by row the components of a0 and
    # b0; the scalar row pairs a four-vector with an invariant scalar
    gen = _generator(rng)
    L = lor.random_lorentz(gen, 50)
    pq2 = L * pq * L.plus()
    for row in lor.ROWS:
        left, r = lor.action_factors(row, "A", L, DEFAULT_FRAME)
        a0 = Biquaternion(*lor.complex_normals(gen, (4, 50)))
        b0 = (Biquaternion.scalar(lor.complex_normals(gen, (50,))) if row == "zero"
              else Biquaternion(*lor.complex_normals(gen, (4, 50))))
        res1 = (pq.bar() * a0) * 1j - b0 * m
        res2 = (pq * b0) * 1j - a0 * m
        a1 = left * a0 * r
        b1 = lor.act(row, "B", L, b0, DEFAULT_FRAME)
        lhs1 = (pq2.bar() * a1) * 1j - b1 * m
        lhs2 = (pq2 * b1) * 1j - a1 * m
        check.within((lhs1 - L.star() * res1 * r).max_abs(),
                     (lhs2 - left * res2 * r).max_abs())


# -- covariants --------------------------------------------------------------------------


@_suite("covariants.singular_pair", "eq.41", "exact", 0.0)
def _s_singular(rng, check):
    for frame in (DEFAULT_FRAME, random_rational_frame(rng)):
        for _ in range(20):
            l = random_real_quaternion(rng)
            r = random_real_quaternion(rng)
            c = cov.covariants(Field.constant(l * frame.sigma),
                               Field.constant(r * frame.sigma))
            check.zero(c.s_p, c.s_a, c.v_p, c.v_a)


@_suite("covariants.characters", "eq.37", "float", 1e-12)
def _s_characters(rng, check):
    # the 5 value pairs against the 5 sampled L as one 5 x 5 broadcast: the
    # L vary along the first axis and the values along the second
    gen = _generator(rng)
    values = [(Biquaternion(*lor.complex_normals(gen, (4, 5))),
               Biquaternion(*lor.complex_normals(gen, (4, 5))))]
    L = Biquaternion(*(c[:, None] for c in lor.random_lorentz(gen, 5).components()))
    check.within(*cov.covariance_characters(L, DEFAULT_FRAME, values).values())


@_suite("covariants.current_conservation", "eq.34", "exact", 0.0)
def _s_cov_current(rng, check):
    a, b = lanczos_plane_wave(ONSHELL, DEFAULT_FRAME, random_rational_biquaternion(rng))
    check.zero(*cov.polar_current_divergence(a, b, ExternalField.zero(), ONSHELL.m))
    ext = random_linear_potential(rng)
    fa, fb = random_poly_field(rng), random_poly_field(rng)
    lhs, corr = cov.polar_current_divergence(fa, fb, ext, Fraction(3))
    check.zero(lhs - corr)
    # the polar density is nonnegative on every pair, with the 16 real
    # coordinates of (a, b) as the coordinates of its Gram matrix
    c = cov.covariants(_generic_field(), _generic_field(8))
    check.zero(_squares_defect(c.polar.scalar_part(), 16))


@_suite("covariants.divergences", "eq.45", "exact", 0.0)
def _s_divergences(rng, check):
    ext = random_linear_potential(rng)
    for _ in range(3):
        a, b = random_poly_field(rng), random_poly_field(rng)
        out = cov.transition_current_divergences(a, b, ext, Fraction(2))
        check.zero(out["vp_residual"], out["va_residual"])
    # outright on free plane-wave solutions
    a, b = lanczos_plane_wave(ONSHELL, DEFAULT_FRAME, random_rational_biquaternion(rng))
    check.zero(cov.transition_current_divergences(a, b, ExternalField.zero(), ONSHELL.m)["vp_lhs"])


@_suite("covariants.lagrangian", "eq.39", "exact", 0.0)
def _s_lagrangian(rng, check):
    a, b = lanczos_plane_wave(ONSHELL, DEFAULT_FRAME, random_rational_biquaternion(rng))
    check.zero(cov.lagrangian_density(a, b, ExternalField.zero(), ONSHELL.m))
    fa, fb = random_poly_field(rng), random_poly_field(rng)
    val = cov.lagrangian_density(fa, fb, random_linear_potential(rng), Fraction(3))
    check.holds(not val.is_zero())


@_suite("covariants.amplitude", "eq.40", "float", 1e-12)
def _s_amplitude(rng, check):
    # 10 samples of L, a0 and b0 as one stack
    gen = _generator(rng)
    L = lor.random_lorentz(gen, 10)
    a0, b0 = (Biquaternion(*lor.complex_normals(gen, (4, 10))) for _ in range(2))
    t = cov.amplitude(lor.act("three_half_L", "A", L, a0, DEFAULT_FRAME),
                      lor.act("three_half_L", "B", L, b0, DEFAULT_FRAME))
    check.within(largest([abs(t - cov.amplitude(a0, b0))]))


# -- the vector-spinor system ----------------------------------------------------------


def _sample_psi(rng, deg=2):
    return tuple(random_poly_field(rng, n_terms=2, max_deg=deg) for _ in range(4))


def _witness_potential():
    phi0 = Poly({(1, 0, 0, 0): Biquaternion.scalar(gr(1)),
                 (0, 0, 1, 0): Biquaternion.scalar(gr(2))})
    lin = Poly({(0, 1, 0, 0): Biquaternion.scalar(gr(3))})
    zero = Poly({})
    return ExternalField.from_components(phi0, (lin, zero, zero), gr(Fraction(1, 2)))


# t x1 x2 x3 times a coefficient with every real coordinate nonzero: a
# sample field plus this term depends on every variable at every seed
_MULTILINEAR = Field.polynomial(Poly({(1, 1, 1, 1): Biquaternion.from_real_coords(
    (1, -2, 3, 1, 2, -1, -3, 1))}))


@_suite("rs.identities", "eq.19", "exact", 0.0)
def _s_rs_identities(rng, check):
    ext = _witness_potential()
    ctx = rs.RSContext(ext, Fraction(2), DEFAULT_FRAME)
    units = rs.eps_units()
    eu, ebu, el = units["upper"], units["bar_upper"], units["lower"]
    x = random_poly_field(rng, n_terms=3, max_deg=4) + _MULTILINEAR
    terms = [ctx.pi_lower(mu, x) for mu in range(4)]
    acc_bar = sum((t.lmul(ebu[mu]) for mu, t in enumerate(terms)), Field.zero())
    acc_star = sum((t.lmul(eu[mu]) for mu, t in enumerate(terms)), Field.zero())
    check.zero(acc_bar - ctx.pibar(x), acc_star - ctx.pibar_star(x))
    check.zero(sum((ebu[mu] * el[mu] for mu in range(4)), Biquaternion.scalar(gr(-4))))
    q = random_rational_biquaternion(rng)
    for lam in range(4):
        check.holds((ebu[lam] * q).star() == eu[lam] * q.star())


@_suite("rs.commutator", "eq.21", "exact", 0.0)
def _s_rs_commutator(rng, check):
    fields = [random_poly_field(rng, n_terms=2, max_deg=4) for _ in range(2)]
    for ext in (_witness_potential(), random_quadratic_potential(rng), ExternalField.zero()):
        check.zero(rs.commutator_identity(ext, DEFAULT_FRAME, fields, Fraction(2)))


@_suite("rs.dual_tensor", "eq.22", "exact", 0.0)
def _s_rs_dual(rng, check):
    ext = _witness_potential()
    comps = ext.component_fields()
    phi_map = rs.dual_tensor(ext)
    units = rs.eps_units()
    phi_lower = [comps[0]] + [-comps[n] for n in (1, 2, 3)]
    for lam in range(4):
        val = phi_map(units["bar_upper"][lam])
        for rho in range(4):
            got = val.lmul(units["bar_lower"][rho]).scalar_part()
            ft = rs._d_lower(phi_lower[rho], lam) - rs._d_lower(phi_lower[lam], rho)
            check.zero(got - ft.scale(gr(0, -1)))


@_suite("rs.free_system", "eq.18", "exact", 0.0)
def _s_rs_free(rng, check):
    sols = rs.free_rs_solutions(ONSHELL, ONSHELL.m, DEFAULT_FRAME)
    check.holds(len(sols) == 8)
    for psi in sols[:4]:
        out = rs.rs_free_system(psi, ExternalField.zero(), ONSHELL.m, DEFAULT_FRAME)
        check.zero(*out["eq_residuals"], out["algebraic_constraint"],
                   out["differential_constraint"],
                   nabla_bar(rs.rs_current(psi)).scalar_part())


@_suite("rs.extra_constraint", "eq.23", "exact", 1e-3, kind="witness")
def _s_rs_extra(rng, check):
    psi = _sample_psi(rng, deg=4)
    ext = _witness_potential()
    # the witness stands only where eq. (23) is derived and vanishes free
    derivation = rs.extra_constraint_derivation_residual(psi, ext, Fraction(2), DEFAULT_FRAME)
    if not check.zero(derivation, rs.extra_constraint(psi, ExternalField.zero(), DEFAULT_FRAME)):
        return None
    # one context, so the curvature multipliers are built once for all solutions
    ctx = rs.RSContext(ext, ONSHELL.m, DEFAULT_FRAME)
    norm = max(ctx.extra_constraint(sol).eval_float((0.3, 0.1, -0.2, 0.5)).max_abs()
               for sol in rs.free_rs_solutions(ONSHELL, ONSHELL.m, DEFAULT_FRAME))
    check.exceeds(norm)
    return {"residual_norm_at_sample_point": norm}


@_suite("rs.contraction_chain", "eq.25", "exact", 0.0)
def _s_rs_contraction(rng, check):
    ext = _witness_potential()
    samples = [_sample_psi(rng), _sample_psi(rng, deg=3)]
    failing = rs.contraction_chain((Fraction(1, 3), Fraction(1), Fraction(7, 5)), ext,
                                   Fraction(2), DEFAULT_FRAME, samples)["failing_g"]
    check.holds(not failing, {"g": str(failing[0])} if failing else None)


@_suite("rs.g1_chain", "eq.30", "exact", 0.0)
def _s_rs_g1(rng, check):
    ext = _witness_potential()
    out = rs.g1_chain(ext, Fraction(2), DEFAULT_FRAME,
                      [_sample_psi(rng), _sample_psi(rng, deg=3)])
    check.zero(*out.values(), witness=out)
    check.rejects(DegenerateMass, rs.g1_chain, ext, Fraction(0), DEFAULT_FRAME,
                  [_sample_psi(rng)])
    return out


@_suite("rs.constraint_counting", "eq.18", "exact", 0.0)
def _s_rs_counting(rng, check):
    out = rs.constraint_counting(ONSHELL, ONSHELL.m, DEFAULT_FRAME)
    payload = {"after_constraints": out["after_constraints"],
               "solution_dim": out["solution_dim"]}
    check.holds(out["total_real_dim"] == 32 and out["dirac_rank"] == 16
                and out["constraint_ranks"] == (8, 8)
                and out["after_constraints"] == 16 and out["solution_dim"] == 8, payload)
    return payload


def _div(v):
    return v[0].dx(1) + v[1].dx(2) + v[2].dx(3)


def _curl(v):
    return [v[2].dx(2) - v[1].dx(3), v[0].dx(3) - v[2].dx(1), v[1].dx(1) - v[0].dx(2)]


@_suite("proca.tensor_equivalence", "eq.A.8", "exact", 0.0)
def _s_proca(rng, check):
    f = random_poly_field(rng, n_terms=4, max_deg=3) + _MULTILINEAR
    a = f + f.plus()
    m = Fraction(3)
    b, res = proca_residual(a, m)
    # independent tensor-component recomputation
    a0 = a.scalar_part()
    avec = flds._vector_components(a, GR_I)
    e_c = [(-avec[n].dt() - a0.dx(n + 1)) for n in range(3)]
    b_c = _curl(avec)
    curl_b = _curl(b_c)
    check.zero(res.scalar_part() - (-_div(e_c) - a0.scale(m * m)))
    for n, rn in enumerate(flds._vector_components(res, GR_ONE)):
        check.zero(rn - (e_c[n].dt() - curl_b[n] - avec[n].scale(m * m)).scale(gr(0, -1)))
    for n, bn in enumerate(flds._vector_components(b, GR_ONE)):
        check.zero(bn - (e_c[n] + b_c[n].scale(GR_I)))


@_suite("proca.maxwell_limit", "footnote.13", "exact", 0.0)
def _s_maxwell(rng, check):
    e_f = [random_poly_field(rng).scalar_part().re_scalar() for _ in range(3)]
    b_f = [random_poly_field(rng).scalar_part().re_scalar() for _ in range(3)]
    units = basis_elements()[1:4]
    six = Field.zero()
    for n in range(3):
        six = six + (e_f[n] + b_f[n].scale(GR_I)).lmul(units[n])
    grad = nabla(six)
    check.zero(grad.scalar_part() + (_div(e_f) + _div(b_f).scale(GR_I)))
    curl_e, curl_b = _curl(e_f), _curl(b_f)
    for n, gn in enumerate(flds._vector_components(grad, GR_ONE)):
        check.zero(gn - (curl_e[n] + b_f[n].dt() - (e_f[n].dt() - curl_b[n]).scale(GR_I)))


@_suite("operators.exponential", "eq.6", "float", 1e-12)
def _s_op_exp(rng, check):
    # 10 random matrices, drawn row by row, as one stack
    m = RealLinearOp([[[rng.uniform(-1.5, 1.5) for _ in range(8)] for _ in range(8)]
                      for _ in range(10)])
    diff = op_exp(m) @ op_exp(m.scale(-1.0)) - RealLinearOp(np.eye(8))
    check.within(largest([np.linalg.norm(diff.to_numpy(), 2, axis=(-2, -1))]))
    # rotation generators at the 4 pi double turn reach norm 6 pi, the
    # largest norm the rotation suites exponentiate
    gen = (MUL_I @ generators(SpinLabel.THREE_HALF, DEFAULT_FRAME).j1).scale(-4.0 * math.pi)
    diff = op_exp(gen) @ op_exp(gen.scale(-1.0)) - RealLinearOp(np.eye(8))
    check.within(np.linalg.norm(diff.to_numpy(), 2))


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
    return {anchor: {"suites": suites} if suites else {"out_of_scope": OUT_OF_SCOPE[anchor]}
            for anchor, suites in COVERAGE.items()}


def list_suites():
    return sorted(_REGISTRY)


def run(suite_filter="*", seed=0, backend=None, tol=None):
    """Run all suites matching the glob; deterministic in (seed, backend).

    Each suite carries its natural backend (exact identities vs float
    exponential sweeps); selecting a backend restricts the run to that
    portion of the registry.  A tolerance tol that is not a finite number
    >= 0 raises ConfigError: every comparison with nan fails, and any
    finite residual passes inf.
    """
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tolerance must be finite and nonnegative, got {tol!r}")
    matched = [sid for sid in sorted(_REGISTRY) if fnmatch.fnmatch(sid, suite_filter)]
    if backend is not None:
        matched = [sid for sid in matched if _REGISTRY[sid].backend == backend]
    if not matched:
        raise UnknownSuite(f"no suite matches {suite_filter!r}"
                           + (f" with backend {backend}" if backend else ""))
    results = []
    for sid in matched:
        spec = _REGISTRY[sid]
        # tol overrides the identity tolerances only, never a witness margin
        check = Check(spec.tol if tol is None or spec.kind == "witness" else tol,
                      spec.backend, spec.kind)
        payload = spec.fn(_rng_for(seed, sid), check)
        status, residual, payload = check.verdict(payload)
        results.append(SuiteResult(sid, spec.anchor, status, float(residual), payload, seed,
                                   spec.backend))
    return results


def all_passed(results):
    return all(r.status in ("pass", "witness") for r in results)
