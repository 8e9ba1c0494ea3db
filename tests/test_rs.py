import random
from fractions import Fraction

import pytest

from bqspin.biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    random_rational_biquaternion,
    random_rational_frame,
)
from bqspin import rs
from bqspin.errors import DegenerateMass, OffShell
from bqspin.fields import (
    ExternalField,
    Field,
    Momentum,
    Poly,
    _extract_mode_cos,
    dirac_lanczos_residual,
    nabla_bar,
    plane_wave_field,
    random_linear_potential,
    random_poly_field,
    random_quadratic_potential,
)
from bqspin.rs import (
    CoupledSystem,
    RSContext,
    commutator_identity,
    constraint_counting,
    contraction_chain,
    coupled_equation,
    dual_tensor,
    eps_units,
    extra_constraint,
    extra_constraint_derivation_residual,
    free_rs_solutions,
    g1_chain,
    rs_current,
    rs_free_system,
    second_order_defect,
)
from bqspin.scalars import gr


FRAME = DEFAULT_FRAME
M = Fraction(2)
P = Momentum(Fraction(5), (Fraction(3), Fraction(0), Fraction(0)), Fraction(4))


def _rand_psi(rng, n_terms=2, deg=2):
    return tuple(random_poly_field(rng, n_terms=n_terms, max_deg=deg)
                 for _ in range(4))


def _nonlorenz_potential():
    # time-linear scalar potential: four-divergence is 1, not gauge-fixed
    phi0 = Poly({(1, 0, 0, 0): Biquaternion.scalar(gr(1)),
                 (0, 0, 1, 0): Biquaternion.scalar(gr(2))})
    lin = Poly({(0, 1, 0, 0): Biquaternion.scalar(gr(3))})
    zero = Poly({})
    return ExternalField.from_components(phi0, (lin, zero, zero), gr(Fraction(1, 2)))


def test_eps_unit_identities():
    u = eps_units()
    total = Biquaternion.zero()
    for mu in range(4):
        total = total + u["bar_upper"][mu] * u["lower"][mu]
    assert total == Biquaternion.scalar(gr(4))
    for e in u["lower"]:
        assert e.plus() == e  # bireal units


def test_pi_recombination_lemmas():
    # Pibar = eps_bar^mu pi_mu and Pibar_star = eps^mu pi_mu, as operators
    rng = random.Random(110)
    ext = _nonlorenz_potential()
    ctx = RSContext(ext, M, FRAME)
    eu = eps_units()["upper"]
    ebu = eps_units()["bar_upper"]
    for _ in range(4):
        x = random_poly_field(rng, n_terms=3, max_deg=3)
        lhs_bar = None
        lhs_star = None
        for mu in range(4):
            term = ctx.pi_lower(mu, x)
            tb = term.lmul(ebu[mu])
            ts = term.lmul(eu[mu])
            lhs_bar = tb if lhs_bar is None else lhs_bar + tb
            lhs_star = ts if lhs_star is None else lhs_star + ts
        assert (lhs_bar - ctx.pibar(x)).is_zero()
        assert (lhs_star - ctx.pibar_star(x)).is_zero()


def test_coupled_spinor_operator_value():
    # fields.dirac_lanczos_residual and RSContext.dirac both equal the
    # hand-expanded nabla_bar(x) i nu - e phi_bar x - m x*, with
    # nabla_bar = -i d/dt - e_n d/dx_n, on polynomial and plane-wave fields
    rng = random.Random(127)
    ext = _nonlorenz_potential()
    frame = random_rational_frame(rng)
    ctx = RSContext(ext, M, frame)
    units = [Biquaternion.vector(*v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for _ in range(3):
        x = (random_poly_field(rng, n_terms=3, max_deg=3)
             + plane_wave_field(random_rational_biquaternion(rng), P.k_tuple(), frame))
        grad_bar = x.dt().scale(gr(0, -1))
        for n, u in enumerate(units, start=1):
            grad_bar = grad_bar - x.dx(n).lmul(u)
        expected = (grad_bar.rmul(frame.i_nu) - (ext.phi.bar() * x).scale(ext.e)
                    - x.star().scale(M))
        assert not expected.is_zero()
        assert (dirac_lanczos_residual(x, ext, M, frame) - expected).is_zero()
        assert (ctx.dirac(x) - expected).is_zero()


def test_pi_component_recovery():
    # the components are recovered from the expansion by the unit pairings:
    # <eps_bar_lam eps^mu> = delta, then the index is raised by the metric
    rng = random.Random(111)
    ext = _nonlorenz_potential()
    ctx = RSContext(ext, M, FRAME)
    ebl = eps_units()["bar_lower"]
    eu = eps_units()["upper"]
    x = random_poly_field(rng, n_terms=3, max_deg=2)
    for lam in range(4):
        acc = None
        for mu in range(4):
            w = (ebl[lam] * eu[mu]).scalar_part()
            term = ctx.pi_lower(mu, x).scale(w)
            acc = term if acc is None else acc + term
        assert (acc - ctx.pi_lower(lam, x)).is_zero()
        eta = 1 if lam == 0 else -1
        assert (ctx.pi_upper(lam, x) - ctx.pi_lower(lam, x).scale(eta)).is_zero()


def test_star_slot_passes_units():
    # m (eps_bar^lam X)* = eps^lam m X*
    rng = random.Random(112)
    u = eps_units()
    for _ in range(10):
        x = random_rational_biquaternion(rng)
        for lam in range(4):
            assert (u["bar_upper"][lam] * x).star() == u["upper"][lam] * x.star()


def test_pi_mu_trivial_cases():
    ctx = RSContext(ExternalField.zero(), M, FRAME)
    const = Field.constant(Biquaternion.one())
    for mu in range(4):
        assert ctx.pi_lower(mu, const).is_zero()


def test_commutator_identity_exact_linear_and_quadratic():
    rng = random.Random(113)
    fields = [random_poly_field(rng, n_terms=2, max_deg=4) for _ in range(2)]
    for ext in (_nonlorenz_potential(), random_linear_potential(rng),
                random_quadratic_potential(rng)):
        assert commutator_identity(ext, FRAME, fields, M) == 0.0


def test_commutator_vanishes_without_coupling():
    rng = random.Random(114)
    fields = [random_poly_field(rng, n_terms=2, max_deg=2)]
    assert commutator_identity(ExternalField.zero(), FRAME, fields, M) == 0.0


def test_commutator_sides_complex_linear():
    # both sides commute with multiplication by i
    rng = random.Random(115)
    ext = _nonlorenz_potential()
    ctx = RSContext(ext, M, FRAME)
    x = random_poly_field(rng, n_terms=2, max_deg=2)
    i_unit = gr(0, 1)
    for mu in range(4):
        lhs = ctx.pi_upper(mu, ctx.pibar(x)) - ctx.pibar(ctx.pi_upper(mu, x))
        lhs_i = ctx.pi_upper(mu, ctx.pibar(x.scale(i_unit))) - ctx.pibar(
            ctx.pi_upper(mu, x.scale(i_unit)))
        assert (lhs_i - lhs.scale(i_unit)).is_zero()


def test_dual_tensor_matches_field_tensor_components():
    # pairing the curvature map against the bireal units packages -i times
    # the antisymmetric field tensor F_lam_rho built from the potential
    ext = _nonlorenz_potential()
    comps = ext.component_fields()
    phi_map = dual_tensor(ext)
    u = eps_units()
    d_lower = lambda f, mu: (f.dt() if mu == 0 else -f.dx(mu))
    phi_lower = [comps[0]] + [-comps[n] for n in (1, 2, 3)]
    minus_i = gr(0, -1)
    for lam in range(4):
        val = phi_map(u["bar_upper"][lam])
        for rho in range(4):
            got = val.lmul(u["bar_lower"][rho]).scalar_part()
            f_tensor = d_lower(phi_lower[rho], lam) - d_lower(phi_lower[lam], rho)
            assert got.equal(f_tensor.scale(minus_i)), (lam, rho)
    # antisymmetry of the extracted array
    for lam in range(4):
        val = phi_map(u["bar_upper"][lam])
        diag = val.lmul(u["bar_lower"][lam]).scalar_part()
        assert diag.is_zero()


def test_dual_tensor_constant_potential_is_zero_map():
    phi0 = Poly({(0, 0, 0, 0): Biquaternion.scalar(gr(5))})
    zero = Poly({})
    ext = ExternalField.from_components(phi0, (zero, zero, zero), gr(1))
    phi_map = dual_tensor(ext)
    assert phi_map(Biquaternion.one()).is_zero()


def test_free_system_on_momentum_space_solutions():
    for frame in (FRAME,):
        sols = free_rs_solutions(P, P.m, frame)
        assert len(sols) == 8
        for psi in sols:
            out = rs_free_system(psi, ExternalField.zero(), P.m, frame)
            assert all(r.is_zero() for r in out["eq_residuals"])
            assert out["algebraic_constraint"].is_zero()
            assert out["differential_constraint"].is_zero()


def test_single_component_violates_algebraic_constraint():
    # a spinor solution placed in one slot solves the equations but not the
    # algebraic constraint
    from bqspin.fields import plane_wave_field, plane_wave_solutions
    amp = plane_wave_solutions(P, FRAME)[0]
    psi0 = plane_wave_field(amp, P.k_tuple(), FRAME)
    psi = (psi0, Field.zero(), Field.zero(), Field.zero())
    out = rs_free_system(psi, ExternalField.zero(), P.m, FRAME)
    assert all(r.is_zero() for r in out["eq_residuals"])
    assert not out["algebraic_constraint"].is_zero()


def test_rs_current_conservation_and_positivity():
    sols = free_rs_solutions(P, P.m, FRAME)
    for psi in sols[:4]:
        c = rs_current(psi)
        assert nabla_bar(c).scalar_part().is_zero()
    rng = random.Random(116)
    psi = _rand_psi(rng)
    c = rs_current(psi)
    for pt in [(0.4, -0.2, 0.1, 0.9), (1.2, 0.5, -0.7, 0.0)]:
        val = c.eval_float(pt).scalar_part()
        assert abs(val.imag) < 1e-9
        assert val.real >= -1e-12


def test_zero_field_trivia():
    zero_psi = tuple(Field.zero() for _ in range(4))
    out = rs_free_system(zero_psi, ExternalField.zero(), M, FRAME)
    assert all(r.is_zero() for r in out["eq_residuals"])
    assert rs_current(zero_psi).is_zero()
    assert extra_constraint(zero_psi, ExternalField.zero(), FRAME).is_zero()


def test_extra_constraint_dichotomy():
    rng = random.Random(117)
    # no coupling: identically zero for every field
    psi = _rand_psi(rng)
    assert extra_constraint(psi, ExternalField.zero(), FRAME).is_zero()
    # generic coupling on an exact solution of the free system: a certified
    # nonzero witness, so the coupled constraint genuinely cuts solutions
    ext = _nonlorenz_potential()
    witness = 0.0
    for psi in free_rs_solutions(P, P.m, FRAME):
        w = extra_constraint(psi, ext, FRAME)
        val = w.eval_float((0.3, 0.1, -0.2, 0.5)).max_abs()
        witness = max(witness, val)
    assert witness > 1e-3


def test_extra_constraint_derivation_identity():
    rng = random.Random(118)
    for ext in (_nonlorenz_potential(), random_linear_potential(rng)):
        psi = _rand_psi(rng, deg=4)
        res = extra_constraint_derivation_residual(psi, ext, M, FRAME)
        assert res.is_zero()


def test_coupled_equation_reduces_to_free_system():
    rng = random.Random(119)
    for g in (Fraction(1, 3), Fraction(1), Fraction(7, 5)):
        system = coupled_equation(g, ExternalField.zero(), P.m, FRAME)
        for psi in free_rs_solutions(P, P.m, FRAME)[:3]:
            rows = system.rows(psi)
            assert all(r.is_zero() for r in rows)
    zero_psi = tuple(Field.zero() for _ in range(4))
    rows = coupled_equation(Fraction(1), _nonlorenz_potential(), M, FRAME).rows(zero_psi)
    assert all(r.is_zero() for r in rows)


@pytest.mark.parametrize("g", [Fraction(1, 3), Fraction(1), Fraction(0), Fraction(7, 5)])
def test_contraction_chain_exact(g):
    rng = random.Random(120)
    ext = _nonlorenz_potential()
    samples = [_rand_psi(rng) for _ in range(2)]
    out = contraction_chain(g, ext, M, FRAME, samples)
    assert out["eps_residual"] == 0.0
    assert out["pi_residual"] == 0.0


def test_chains_build_the_rows_once_per_sample(monkeypatch):
    # the g-free parts (the four Dirac rows among them) are built once per
    # sample, however many values of g the contraction chain checks
    rng = random.Random(127)
    ext = _nonlorenz_potential()
    samples = [_rand_psi(rng) for _ in range(2)]
    dirac_calls, parts_calls = [], []
    dirac, parts = RSContext.dirac, rs.coupled_parts

    def counted_dirac(self, x):
        dirac_calls.append(x)
        return dirac(self, x)

    def counted_parts(ctx, psi):
        parts_calls.append(psi)
        return parts(ctx, psi)

    monkeypatch.setattr(RSContext, "dirac", counted_dirac)
    monkeypatch.setattr(rs, "coupled_parts", counted_parts)
    gs = (Fraction(1, 3), Fraction(1), Fraction(7, 5))
    out = contraction_chain(gs, ext, M, FRAME, samples)
    assert out == {"eps_residual": 0.0, "pi_residual": 0.0, "failing_g": []}
    assert len(dirac_calls) == 4 * len(samples)
    assert len(parts_calls) == len(samples)
    dirac_calls.clear()
    parts_calls.clear()
    out = g1_chain(ext, M, FRAME, samples)
    assert all(v == 0.0 for v in out.values())
    assert len(parts_calls) == len(samples)
    assert len(dirac_calls) == 4 * len(samples)


def test_chains_report_a_nonzero_residual_below_float_range(monkeypatch):
    # an exact residual of 1e-400 is nonzero but its float norm underflows;
    # each step is judged with is_zero(), so it must not read 0.0
    tiny = Field.constant(Biquaternion.scalar(gr(Fraction(1, 10**400))))
    assert not tiny.is_zero() and tiny.max_abs() == 0.0
    rng = random.Random(125)
    ext = _nonlorenz_potential()
    samples = [_rand_psi(rng)]
    contraction = rs.eps_contraction
    monkeypatch.setattr(rs, "eps_contraction", lambda rows: contraction(rows) + tiny)
    assert contraction_chain(Fraction(1, 3), ext, M, FRAME, samples)["eps_residual"] > 0.0
    out = g1_chain(ext, M, FRAME, samples)
    assert out["e27_is_eps_contraction"] > 0.0
    assert out["e28_is_pi_contraction"] == 0.0
    dual = rs.dual_tensor
    monkeypatch.setattr(rs, "dual_tensor",
                        lambda e: lambda x, phi=dual(e): phi(x) + tiny)
    assert commutator_identity(ext, FRAME, [samples[0][0]], M) > 0.0


def test_curvature_is_built_once_per_potential(monkeypatch):
    # every context of one potential reads the multipliers kept on it; the
    # commutator identity builds its right-hand side itself
    built = []
    curvature = rs._curvature
    monkeypatch.setattr(rs, "_curvature", lambda ext: built.append(ext) or curvature(ext))
    rng = random.Random(127)
    ext = _nonlorenz_potential()
    psi = _rand_psi(rng)
    assert extra_constraint_derivation_residual(psi, ext, M, FRAME).is_zero()
    first = RSContext(ext, M, FRAME).curvature
    assert RSContext(ext, None, FRAME).curvature is first
    assert not rs.extra_constraint(psi, ext, FRAME).is_zero()
    assert built == [ext]
    assert all(a.equal(b) for a, b in zip(first, curvature(ext)))
    assert commutator_identity(ext, FRAME, [psi[0]], M) == 0.0
    assert built == [ext, ext]


def test_second_order_defect_structure():
    # derivative-free, coupling-proportional curvature multiplier
    rng = random.Random(121)
    ext = _nonlorenz_potential()
    ctx = RSContext(ext, M, FRAME)
    x = random_poly_field(rng, n_terms=2, max_deg=2)
    assert not second_order_defect(ctx, x).is_zero()
    ctx0 = RSContext(ExternalField.zero(), M, FRAME)
    assert second_order_defect(ctx0, x).is_zero()
    s = Field.polynomial(Poly({(1, 0, 2, 0): Biquaternion.scalar(gr(Fraction(3, 2)))}))
    lhs = second_order_defect(ctx, s * x)
    rhs = s * second_order_defect(ctx, x)
    assert (lhs - rhs).is_zero()


def test_g1_chain_exact():
    rng = random.Random(122)
    for ext in (_nonlorenz_potential(), random_linear_potential(rng)):
        samples = [_rand_psi(rng, n_terms=2, deg=2) for _ in range(2)]
        out = g1_chain(ext, M, FRAME, samples)
        for step, residual in out.items():
            assert residual == 0.0, step


def test_g1_chain_reduces_to_free_system_without_coupling():
    # with the coupling off, the equation-of-motion rows are exactly the
    # free spinor residuals and the secondary constraints lose their sources
    rng = random.Random(123)
    psi = _rand_psi(rng)
    ext = ExternalField.zero()
    ctx = RSContext(ext, M, FRAME)
    system = coupled_equation(Fraction(1), ext, M, FRAME)
    w23 = extra_constraint(psi, ext, FRAME)
    assert w23.is_zero()
    out = g1_chain(ext, M, FRAME, [psi])
    assert all(v == 0.0 for v in out.values())


def test_g1_chain_rejects_massless():
    rng = random.Random(124)
    with pytest.raises(DegenerateMass):
        g1_chain(_nonlorenz_potential(), Fraction(0), FRAME, [_rand_psi(rng)])


def test_constraint_counting_values():
    out = constraint_counting(P, P.m, FRAME)
    assert out["total_real_dim"] == 32
    assert out["dirac_rank"] == 16
    assert out["constraint_ranks"] == (8, 8)
    assert out["after_constraints"] == 16
    assert out["solution_dim"] == 8
    with pytest.raises(OffShell):
        constraint_counting(Momentum(Fraction(5), (Fraction(1), 0, 0), Fraction(4)),
                            Fraction(4), FRAME)


def test_constraint_counting_other_frames_and_momenta():
    rng = random.Random(125)
    f2 = random_rational_frame(rng)
    out = constraint_counting(P, P.m, f2)
    assert out["dirac_rank"] == 16 and out["solution_dim"] == 8
    rest = Momentum(Fraction(3), (Fraction(0), Fraction(0), Fraction(0)), Fraction(3))
    out2 = constraint_counting(rest, Fraction(3), FRAME)
    assert out2["dirac_rank"] == 16
    assert out2["after_constraints"] == 16 and out2["solution_dim"] == 8
    # Johnson-Sudarshan counting at further exact on-shell momenta: off axis,
    # along e3, and with a non-integer energy
    for energy, k, m in [(Fraction(5), (1, 2, 2), Fraction(4)),
                         (Fraction(13), (0, 0, 12), Fraction(5)),
                         (Fraction(5, 2), (Fraction(3, 2), 0, 0), Fraction(2))]:
        p = Momentum(energy, tuple(Fraction(c) for c in k), m)
        out = constraint_counting(p, m, FRAME)
        assert out["total_real_dim"] == 32
        assert out["dirac_rank"] == 16
        assert out["constraint_ranks"] == (8, 8)
        assert out["after_constraints"] == 16
        assert out["solution_dim"] == 8


def _symbol_from_full_evaluations(p, m, frame):
    """The free symbol column by column: one rs_free_system call per real
    amplitude coordinate of the vector-spinor, the construction that
    rs._free_symbol replaces with blocks."""
    k = p.k_tuple()
    dl_rows = [[] for _ in range(32)]
    alg_rows = [[] for _ in range(8)]
    diff_rows = [[] for _ in range(8)]
    for j in range(32):
        amps = []
        for mu in range(4):
            coords = [0] * 8
            if j // 8 == mu:
                coords[j % 8] = 1
            amps.append(Biquaternion.from_real_coords(coords))
        psi = tuple(plane_wave_field(a, k, frame) for a in amps)
        sysout = rs_free_system(psi, ExternalField.zero(), m, frame)
        for mu in range(4):
            col = _extract_mode_cos(sysout["eq_residuals"][mu], k).real_coords()
            for i in range(8):
                dl_rows[8 * mu + i].append(col[i])
        for rows, key in ((alg_rows, "algebraic_constraint"),
                          (diff_rows, "differential_constraint")):
            col = _extract_mode_cos(sysout[key], k).real_coords()
            for i in range(8):
                rows[i].append(col[i])
    return dl_rows, alg_rows, diff_rows


def test_block_symbol_matches_full_evaluations():
    rng = random.Random(126)
    cases = [(P, P.m, FRAME),
             (P, P.m, random_rational_frame(rng)),
             (Momentum(Fraction(5), (Fraction(1), Fraction(2), Fraction(2)), Fraction(4)),
              Fraction(4), FRAME),
             (Momentum(Fraction(5, 2), (Fraction(3, 2), 0, 0), Fraction(2)),
              Fraction(2), FRAME)]
    for p, m, frame in cases:
        assert rs._free_symbol(p, m, frame) == _symbol_from_full_evaluations(p, m, frame)
    with pytest.raises(OffShell):
        rs._free_symbol(Momentum(Fraction(5), (Fraction(1), 0, 0), Fraction(4)),
                        Fraction(4), FRAME)


def test_free_solutions_are_the_counting_basis():
    out = constraint_counting(P, P.m, FRAME)
    assert out["constraint_ranks"] == (8, 8)
    assert out["after_constraints"] == 16
    assert out["solution_dim"] == 8
    sols = free_rs_solutions(P, P.m, FRAME)
    assert len(sols) == len(out["solution_basis"])
    for psi, vec in zip(sols, out["solution_basis"]):
        want = [plane_wave_field(Biquaternion.from_real_coords(vec[8 * mu: 8 * mu + 8]),
                                 P.k_tuple(), FRAME) for mu in range(4)]
        assert all(a.equal(b) for a, b in zip(psi, want))
    with pytest.raises(OffShell):
        free_rs_solutions(Momentum(Fraction(5), (Fraction(1), 0, 0), Fraction(4)),
                          Fraction(4), FRAME)


def test_chain_machinery_in_random_frame():
    # the recombination lemmas, commutator identity and one reduction-chain
    # sample hold in an arbitrary exact frame, not only the default one
    rng = random.Random(126)
    frame = random_rational_frame(rng)
    ext = _nonlorenz_potential()
    ctx = RSContext(ext, M, frame)
    eu, ebu = eps_units()["upper"], eps_units()["bar_upper"]
    x = random_poly_field(rng, n_terms=2, max_deg=3)
    acc_bar = acc_star = None
    for mu in range(4):
        term = ctx.pi_lower(mu, x)
        tb, ts = term.lmul(ebu[mu]), term.lmul(eu[mu])
        acc_bar = tb if acc_bar is None else acc_bar + tb
        acc_star = ts if acc_star is None else acc_star + ts
    assert (acc_bar - ctx.pibar(x)).is_zero()
    assert (acc_star - ctx.pibar_star(x)).is_zero()
    assert commutator_identity(ext, frame, [x], M) == 0.0
    out = g1_chain(ext, M, frame, [_rand_psi(rng)])
    assert all(v == 0.0 for v in out.values())
    out2 = contraction_chain(Fraction(1, 3), ext, M, frame, [_rand_psi(rng)])
    assert out2["eps_residual"] == 0.0 and out2["pi_residual"] == 0.0
