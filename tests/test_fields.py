import random
from fractions import Fraction

import pytest

from bqspin.biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    random_rational_biquaternion,
    random_rational_frame,
)
from bqspin import fields
from bqspin.errors import OffShell
from bqspin.fields import (
    ExternalField,
    Field,
    FROZEN_NABLA,
    Momentum,
    NablaSpec,
    box,
    build_doublet,
    current,
    dirac_lanczos_residual,
    divergence_scalar,
    lanczos_plane_wave,
    lanczos_residual,
    nabla,
    nabla_bar,
    nabla_bar_from_right,
    plane_wave_field,
    plane_wave_solutions,
    proca_residual,
    random_poly_field,
    select_nabla_convention,
)
from bqspin.scalars import gr


ON_SHELL = Momentum(Fraction(5), (Fraction(3), Fraction(0), Fraction(0)), Fraction(4))


def test_field_ring_axioms():
    rng = random.Random(30)
    f = random_poly_field(rng)
    g = random_poly_field(rng)
    h = random_poly_field(rng)
    assert ((f * g) * h).equal(f * (g * h))
    assert ((f + g) * h).equal(f * h + g * h)
    assert (f - f).is_zero()


def test_trig_products_close():
    rng = random.Random(31)
    k1 = (Fraction(2), Fraction(1), Fraction(0), Fraction(0))
    k2 = (Fraction(1), Fraction(0), Fraction(1), Fraction(0))
    a = Field.trig(k1, random_rational_biquaternion(rng), random_rational_biquaternion(rng))
    b = Field.trig(k2, random_rational_biquaternion(rng), random_rational_biquaternion(rng))
    prod = a * b
    # verify numerically at sample points
    for pt in [(0.3, 0.1, -0.4, 0.7), (1.1, -2.0, 0.5, 0.2)]:
        lhs = prod.eval_float(pt)
        rhs = a.eval_float(pt) * b.eval_float(pt)
        assert (lhs - rhs).max_abs() <= 1e-10


def test_derivative_product_rule_and_mode_closure():
    rng = random.Random(32)
    k = (Fraction(1), Fraction(2), Fraction(0), Fraction(1))
    f = Field.trig(k, random_rational_biquaternion(rng), random_rational_biquaternion(rng))
    g = random_poly_field(rng)
    prod = f * g
    for var in range(4):
        lhs = prod.derivative(var)
        rhs = f.derivative(var) * g + f * g.derivative(var)
        assert lhs.equal(rhs)
    # derivative of a single-mode field keeps the same wave vector
    df = f.derivative(0)
    assert set(df.modes.keys()) == set(f.modes.keys())


def test_constant_derivative_zero():
    c = Field.constant(Biquaternion.one())
    for var in range(4):
        assert c.derivative(var).is_zero()


def test_conjugations_pointwise():
    rng = random.Random(33)
    k = (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    f = Field.trig(k, random_rational_biquaternion(rng), random_rational_biquaternion(rng))
    pt = (0.7, 0.2, 0.9, -0.3)
    assert (f.bar().eval_float(pt) - f.eval_float(pt).bar()).max_abs() <= 1e-12
    assert (f.star().eval_float(pt) - f.eval_float(pt).star()).max_abs() <= 1e-12
    assert (f.plus().eval_float(pt) - f.eval_float(pt).plus()).max_abs() <= 1e-12


def test_nabla_convention_selection_unique():
    spec = select_nabla_convention()
    assert spec == FROZEN_NABLA
    assert spec.describe() == "-i d/dt + e_n d/dx_n"


def test_rejected_convention_dalambertian_sign():
    # the i-on-space candidate yields +box rather than -box
    rng = random.Random(34)
    f = random_poly_field(rng)
    bad = NablaSpec(i_on_time=False, space_sign=1)
    assert (nabla(nabla_bar(f, bad), bad) - box(f)).is_zero()
    good = FROZEN_NABLA
    assert (nabla(nabla_bar(f, good), good) + box(f)).is_zero()


def test_nabla_units_are_built_once_per_spec():
    i = gr(0, 1)
    e = [Biquaternion.vector(1, 0, 0), Biquaternion.vector(0, 1, 0),
         Biquaternion.vector(0, 0, 1)]
    fresh = {
        NablaSpec(True, 1): (Biquaternion.scalar(-i), *e),
        NablaSpec(True, -1): (Biquaternion.scalar(-i), *(-u for u in e)),
        NablaSpec(False, 1): (Biquaternion.one(), *(u * i for u in e)),
        NablaSpec(False, -1): (Biquaternion.one(), *(u * -i for u in e)),
    }
    for spec, want in fresh.items():
        units = spec.units()
        assert isinstance(units, tuple)
        assert units == want
        assert NablaSpec(spec.i_on_time, spec.space_sign).units() is units
        bar_units = fields._bar_units(spec)
        assert bar_units == tuple(u.bar() for u in want)
        assert fields._bar_units(spec) is bar_units


def test_klein_gordon_on_shell():
    frame = DEFAULT_FRAME
    rng = random.Random(35)
    amp = random_rational_biquaternion(rng)
    psi = plane_wave_field(amp, ON_SHELL.k_tuple(), frame)
    m2 = ON_SHELL.m * ON_SHELL.m
    assert (nabla(nabla_bar(psi)) - psi.scale(m2)).is_zero()


def test_klein_gordon_off_shell_residual():
    frame = DEFAULT_FRAME
    rng = random.Random(36)
    amp = random_rational_biquaternion(rng)
    off = (Fraction(5), Fraction(2), Fraction(0), Fraction(0))
    psi = plane_wave_field(amp, off, frame)
    m2 = Fraction(16)
    res = nabla(nabla_bar(psi)) - psi.scale(m2)
    # residual is proportional to (p^2 - m^2) = 25 - 4 - 16 = 5
    assert res.equal(psi.scale(Fraction(5)))


def test_plane_wave_nullspace_dimension():
    frame = DEFAULT_FRAME
    basis = plane_wave_solutions(ON_SHELL, frame)
    assert len(basis) == 4
    with pytest.raises(OffShell):
        plane_wave_solutions(Momentum(Fraction(5), (Fraction(2), 0, 0), Fraction(4)), frame)


def test_plane_wave_solutions_satisfy_equation():
    frame = DEFAULT_FRAME
    for amp in plane_wave_solutions(ON_SHELL, frame):
        psi = plane_wave_field(amp, ON_SHELL.k_tuple(), frame)
        res = dirac_lanczos_residual(psi, ExternalField.zero(), ON_SHELL.m, frame)
        assert res.is_zero()


def test_nullspace_dimension_invariant_under_rational_boost():
    # boost with rational cosh/sinh: c = (t^2+1)/2t, s = (t^2-1)/2t
    frame = DEFAULT_FRAME
    t = Fraction(2)
    c = (t * t + 1) / (2 * t)
    s = (t * t - 1) / (2 * t)
    b = Biquaternion.scalar(gr(c)) + Biquaternion.vector(0, 0, 1) * gr(0, s)
    # boosted momentum: P' = B P B.plus();  B bireal so B.plus() == B
    pq = ON_SHELL.quaternion()
    pq2 = b * pq * b
    p0 = pq2.w.re
    pvec = tuple((pq2.components()[k] * gr(0, 1)).re for k in (1, 2, 3))
    boosted = Momentum(p0, pvec, ON_SHELL.m)
    assert boosted.on_shell()
    assert len(plane_wave_solutions(boosted, frame)) == 4


def test_lanczos_plane_wave_and_doublet():
    rng = random.Random(37)
    for frame in (DEFAULT_FRAME, random_rational_frame(rng)):
        a0 = random_rational_biquaternion(rng)
        a, b = lanczos_plane_wave(ON_SHELL, frame, a0)
        ra, rb = lanczos_residual(a, b, ExternalField.zero(), ON_SHELL.m)
        assert ra.is_zero() and rb.is_zero()
        # both doublet members solve the spinor equation and Klein-Gordon
        for psi in build_doublet(a, b, frame):
            res = dirac_lanczos_residual(psi, ExternalField.zero(), ON_SHELL.m, frame)
            assert res.is_zero()
            kg = nabla(nabla_bar(psi)) - psi.scale(ON_SHELL.m * ON_SHELL.m)
            assert kg.is_zero()


def test_doublet_zero_input():
    z = Field.zero()
    p, m_ = build_doublet(z, z, DEFAULT_FRAME)
    assert p.is_zero() and m_.is_zero()


def test_maxwell_limit_constant_six_vector():
    # with m = 0 and A = 0 the second residual reduces to nabla(B); a
    # constant field therefore solves it
    const = Field.constant(Biquaternion.vector(gr(1, 2), gr(0, -1), gr(3, 0)))
    _, rb = lanczos_residual(Field.zero(), const, ExternalField.zero(), Fraction(0))
    assert rb.is_zero()


def test_current_conservation_and_positivity():
    frame = DEFAULT_FRAME
    for amp in plane_wave_solutions(ON_SHELL, frame):
        psi = plane_wave_field(amp, ON_SHELL.k_tuple(), frame)
        c = current(psi)
        assert divergence_scalar(c).is_zero()
    # positivity of the scalar part holds for any field, pointwise
    rng = random.Random(38)
    f = random_poly_field(rng) + Field.trig(
        (Fraction(1), 0, 0, 0), random_rational_biquaternion(rng),
        random_rational_biquaternion(rng))
    cf = current(f)
    for pt in [(0.2, 0.1, 0.3, -0.5), (1.5, -0.7, 2.0, 0.4)]:
        val = cf.eval_float(pt).scalar_part()
        assert abs(val.imag) < 1e-10
        assert val.real >= -1e-12


def test_constant_current_divergence_zero():
    psi = Field.constant(Biquaternion(gr(1, 1), gr(2, 0), gr(0, 3), gr(1, 0)))
    assert divergence_scalar(current(psi)).is_zero()


def test_reverse_wedge_law():
    # reverse maps the left bivector of a four-vector field to the right one
    rng = random.Random(39)
    f = random_poly_field(rng)
    a = f + f.plus()  # bireal-valued (four-vector) field
    left = nabla_bar(a).vector_part()
    right = nabla_bar_from_right(a).vector_part()
    assert left.reverse().equal(right)


def _em_components(a: Field):
    """Electric/magnetic combinations from a bireal potential field."""
    i_unit = gr(0, 1)
    a0 = a.scalar_part()
    avec = []
    for comp in ("x", "y", "z"):
        avec.append(a.map_coeffs(
            lambda c, comp=comp: Biquaternion.scalar(getattr(c, comp) * i_unit)))
    e_comp = [(-avec[n].dt() - a0.dx(n + 1)) for n in range(3)]
    b_comp = [avec[2].dx(2) - avec[1].dx(3),
              avec[0].dx(3) - avec[2].dx(1),
              avec[1].dx(1) - avec[0].dx(2)]
    return e_comp, b_comp


def test_proca_bivector_matches_tensor_components():
    rng = random.Random(40)
    f = random_poly_field(rng, n_terms=4, max_deg=3)
    a = f + f.plus()
    b, _ = proca_residual(a, Fraction(1))
    e_comp, b_comp = _em_components(a)
    # the bivector packages the field strengths as E + iB componentwise
    for n, comp in enumerate(("x", "y", "z")):
        bn = b.map_coeffs(lambda c, comp=comp: Biquaternion.scalar(getattr(c, comp)))
        expected = e_comp[n] + b_comp[n].scale(gr(0, 1))
        assert bn.equal(expected), f"component {n}"
    assert b.scalar_part().is_zero()
    # and its reverse packages E - iB
    br = b.reverse()
    for n, comp in enumerate(("x", "y", "z")):
        bn = br.map_coeffs(lambda c, comp=comp: Biquaternion.scalar(getattr(c, comp)))
        expected = e_comp[n] + b_comp[n].scale(gr(0, -1))
        assert bn.equal(expected), f"component {n}"


def test_proca_equation_matches_tensor_form():
    # the quaternion residual packages the tensor equations
    # div E = -m^2 a0  and  dE/dt - curl B = m^2 avec
    rng = random.Random(41)
    f = random_poly_field(rng, n_terms=4, max_deg=3)
    a = f + f.plus()
    m = Fraction(3)
    _, res = proca_residual(a, m)
    e_comp, b_comp = _em_components(a)
    a0 = a.scalar_part()
    i_unit = gr(0, 1)
    avec_n = []
    for comp in ("x", "y", "z"):
        avec_n.append(a.map_coeffs(
            lambda c, comp=comp: Biquaternion.scalar(getattr(c, comp) * i_unit)))
    div_e = e_comp[0].dx(1) + e_comp[1].dx(2) + e_comp[2].dx(3)
    curl_b = [b_comp[2].dx(2) - b_comp[1].dx(3),
              b_comp[0].dx(3) - b_comp[2].dx(1),
              b_comp[1].dx(1) - b_comp[0].dx(2)]
    expected_scalar = -div_e - a0.scale(m * m)
    assert res.scalar_part().equal(expected_scalar)
    for n, comp in enumerate(("x", "y", "z")):
        rn = res.map_coeffs(lambda c, comp=comp: Biquaternion.scalar(getattr(c, comp)))
        expected_vec = (e_comp[n].dt() - curl_b[n] - avec_n[n].scale(m * m)).scale(-i_unit)
        assert rn.equal(expected_vec), f"component {n}"


def test_proca_zero_input():
    b, res = proca_residual(Field.zero(), Fraction(2))
    assert b.is_zero() and res.is_zero()


def test_massless_gradient_of_six_vector_is_vacuum_maxwell():
    # nabla(B) for a general six-vector field w = E + iB expands into the
    # four vacuum div/curl equations:
    #   scalar: -(div E) - i (div B); vector: (curl E + dB/dt) - i (dE/dt - curl B)
    rng = random.Random(43)
    i_unit = gr(0, 1)
    e_f = [random_poly_field(rng).scalar_part().re_scalar() for _ in range(3)]
    b_f = [random_poly_field(rng).scalar_part().re_scalar() for _ in range(3)]
    units = [Biquaternion.vector(1, 0, 0), Biquaternion.vector(0, 1, 0),
             Biquaternion.vector(0, 0, 1)]
    six = Field.zero()
    for n in range(3):
        six = six + (e_f[n] + b_f[n].scale(i_unit)).lmul(units[n])
    grad = nabla(six)
    div_e = e_f[0].dx(1) + e_f[1].dx(2) + e_f[2].dx(3)
    div_b = b_f[0].dx(1) + b_f[1].dx(2) + b_f[2].dx(3)
    assert grad.scalar_part().equal(-(div_e + div_b.scale(i_unit)))
    curl_e = [e_f[2].dx(2) - e_f[1].dx(3),
              e_f[0].dx(3) - e_f[2].dx(1),
              e_f[1].dx(1) - e_f[0].dx(2)]
    curl_b = [b_f[2].dx(2) - b_f[1].dx(3),
              b_f[0].dx(3) - b_f[2].dx(1),
              b_f[1].dx(1) - b_f[0].dx(2)]
    for n, comp in enumerate(("x", "y", "z")):
        gn = grad.map_coeffs(lambda c, comp=comp: Biquaternion.scalar(getattr(c, comp)))
        expected = (curl_e[n] + b_f[n].dt()
                    - (e_f[n].dt() - curl_b[n]).scale(i_unit))
        assert gn.equal(expected), f"component {n}"


def test_lanczos_symbol_equivariance_under_table2_rows():
    # free momentum-space symbol is equivariant: with X' = L X sigma (spin
    # one-half row) and P' = L P L.plus(), the residual transforms covariantly
    import math
    frame = DEFAULT_FRAME
    rng = random.Random(42)
    t = Fraction(3)
    c = (t * t + 1) / (2 * t)
    s = (t * t - 1) / (2 * t)
    b = Biquaternion.scalar(gr(c)) + Biquaternion.vector(1, 0, 0) * gr(0, s)
    pq = ON_SHELL.quaternion()
    pq2 = b * pq * b.plus()
    for a0 in plane_wave_solutions(ON_SHELL, frame):
        # transformed amplitude must solve the boosted symbol equation
        amp2 = b * a0
        lhs = pq2.bar() * amp2
        rhs = amp2.star() * ON_SHELL.m
        # spinor transforms with L[.], the conjugate slot makes this
        # L.star-twisted: p'.bar (L a) = L.star (p.bar a) = L.star m a.star
        assert lhs == b.star() * (pq.bar() * a0)
        assert (b.star() * (pq.bar() * a0)) == (b * a0).star() * ON_SHELL.m
