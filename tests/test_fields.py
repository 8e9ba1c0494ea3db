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
from bqspin.errors import MixedBackend, NotAPlaneWave, OffShell
from bqspin.fields import (
    ExternalField,
    Field,
    FROZEN_NABLA,
    Momentum,
    NablaSpec,
    Poly,
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


def _no_zero_coefficient(p: Poly):
    return not any(c.is_zero() for c in p.terms.values())


def test_poly_stores_no_zero_coefficient():
    rng = random.Random(34)
    p = Poly({(1, 0, 2, 0): random_rational_biquaternion(rng),
              (0, 0, 0, 0): random_rational_biquaternion(rng),
              (0, 3, 0, 1): random_rational_biquaternion(rng)})
    q = Poly({(1, 0, 2, 0): -p.terms[(1, 0, 2, 0)],
              (2, 0, 0, 0): random_rational_biquaternion(rng)})
    one = Biquaternion.one()
    e1 = Biquaternion.vector(1, 0, 0)
    cases = {
        "p + (-p)": p + (-p),
        "p - p": p - p,
        "zero map": p.map_coeffs(lambda c: c * 0),
        "constant derivative": Poly.constant(e1).derivative(0),
        "partial cancellation": p + q,
        "derivative": p.derivative(3),
        "product": Poly({(0, 0, 0, 0): one, (1, 0, 0, 0): e1})
        * Poly({(0, 0, 0, 0): one, (1, 0, 0, 0): -e1}),
    }
    for name, r in cases.items():
        assert _no_zero_coefficient(r), name
    for name in ("p + (-p)", "p - p", "zero map", "constant derivative"):
        assert cases[name].terms == {}, name
    assert set(cases["partial cancellation"].terms) == {(0, 0, 0, 0), (0, 3, 0, 1), (2, 0, 0, 0)}
    assert cases["derivative"].terms == {(0, 3, 0, 0): p.terms[(0, 3, 0, 1)]}
    # (1 + e1 t)(1 - e1 t) = 1 - e1 e1 t^2 = 1 + t^2: the t term cancels and is dropped
    assert cases["product"].terms == {(0, 0, 0, 0): one, (2, 0, 0, 0): one}


def _assert_canonical(f: Field, name):
    for k, (pc, ps) in f.modes.items():
        lead = next((c for c in k if c != 0), None)
        assert lead is None or lead > 0, (name, k)
        assert not (pc.is_zero() and ps.is_zero()), (name, k)
        if lead is None:
            assert ps.is_zero(), (name, k)


def test_field_modes_stay_canonical():
    rng = random.Random(35)
    a, b = random_rational_biquaternion(rng), random_rational_biquaternion(rng)
    k = (Fraction(1), Fraction(2), Fraction(0), Fraction(1))
    # a negative leading entry flips the key and the sign of the sin part
    flipped = Field.trig((-2, 1, 0, 3), a, b)
    assert list(flipped.modes) == [(2, -1, 0, -3)]
    assert flipped.modes[(2, -1, 0, -3)][1].terms == {(0, 0, 0, 0): -b}
    wave = Field.trig(k, a, b)
    poly = random_poly_field(rng, n_terms=3, max_deg=2)
    f = wave + poly + flipped
    g = Field.trig((0, 0, -1, 2), b, a) * poly - wave
    # the difference vector of trig(k) * trig(k) is zero: its sin part must go
    square = wave * wave
    assert (0, 0, 0, 0) in square.modes
    cases = {
        "trig": flipped,
        "f + g": f + g,
        "f - g": f - g,
        "-f": -f,
        "map_coeffs": f.map_coeffs(lambda c: c.vector_part()),
        "f * g": f * g,
        "square": square,
        "f + (-f)": f + (-f),
        # the constant and the k2 = 0 trig modes have no x2 dependence
        "killing derivative": (Field.constant(a) + wave.dt()).dx(2),
    }
    for var in range(4):
        cases[f"derivative {var}"] = f.derivative(var)
    for name, r in cases.items():
        _assert_canonical(r, name)
    assert cases["f + (-f)"].is_zero()
    assert cases["killing derivative"].is_zero()
    # a sum leaves its operands' modes unchanged
    f_modes = {k: (dict(pc.terms), dict(ps.terms)) for k, (pc, ps) in f.modes.items()}
    g_modes = {k: (dict(pc.terms), dict(ps.terms)) for k, (pc, ps) in g.modes.items()}
    f + g
    assert {k: (pc.terms, ps.terms) for k, (pc, ps) in f.modes.items()} == f_modes
    assert {k: (pc.terms, ps.terms) for k, (pc, ps) in g.modes.items()} == g_modes


def _snapshot(f: Field):
    """The modes of a field as plain dicts, to compare two fields term by term."""
    return {k: (dict(pc.terms), dict(ps.terms)) for k, (pc, ps) in f.modes.items()}


def _assert_stores_no_zero(f: Field, name):
    for k, (pc, ps) in f.modes.items():
        assert pc.terms or ps.terms, (name, k)
        assert _no_zero_coefficient(pc) and _no_zero_coefficient(ps), (name, k)


def test_difference_is_the_sum_of_the_negation():
    rng = random.Random(38)
    k1 = (Fraction(2), Fraction(1), Fraction(0), Fraction(0))
    k2 = (Fraction(1), Fraction(0), Fraction(-1), Fraction(3))
    for _ in range(10):
        a = (random_poly_field(rng) + Field.trig(k1, random_rational_biquaternion(rng),
                                                  random_rational_biquaternion(rng)))
        b = random_poly_field(rng) * Field.trig(k2, random_rational_biquaternion(rng),
                                                random_rational_biquaternion(rng))
        cases = {
            "a - b": (a, b),
            # whole modes cancel: the k1 mode and the polynomial part of a
            "a - (a + b)": (a, a + b),
            "(a + b) - a": (a + b, a),
            "a - a": (a, a),
            "zero - a": (Field.zero(), a),
        }
        for name, (x, y) in cases.items():
            diff = x - y
            assert _snapshot(diff) == _snapshot(x + (-y)), name
            _assert_stores_no_zero(diff, name)
            _assert_canonical(diff, name)
        assert (a - a).modes == {}
        assert _snapshot(a - (a + b)) == _snapshot(-b)
        pa, pb = a.modes[(0, 0, 0, 0)][0], b.modes[k2][0]
        assert (pa - pb).terms == (pa + (-pb)).terms
        assert (pa - pa).terms == {}


def test_products_by_constants_keep_their_operand():
    rng = random.Random(39)
    k = (Fraction(1), Fraction(2), Fraction(0), Fraction(1))
    f = random_poly_field(rng) + Field.trig(k, random_rational_biquaternion(rng),
                                            random_rational_biquaternion(rng))
    before = _snapshot(f)
    sigma = DEFAULT_FRAME.sigma
    constants = [Biquaternion.vector(0, -1, 0), Biquaternion.scalar(gr(0, 1)),
                 Biquaternion.vector(Fraction(3, 5), 0, 0), random_rational_biquaternion(rng),
                 sigma, Biquaternion.zero()]
    results = {}
    for n, q in enumerate(constants):
        results[f"lmul {n}"] = (f.lmul(q), lambda c, q=q: q * c)
        results[f"rmul {n}"] = (f.rmul(q), lambda c, q=q: c * q)
    for c in (gr(-1), gr(Fraction(2, 3), -1), Fraction(-5, 2), 3, gr(0), 1):
        results[f"scale {c}"] = (f.scale(c), lambda x, c=c: x * c)
    for name in ("bar", "star", "plus", "reverse"):
        results[name] = (getattr(f, name)(), getattr(Biquaternion, name))
    for name, (got, fn) in results.items():
        assert _snapshot(f) == before, name
        assert _snapshot(got) == _snapshot(f.map_coeffs(fn)), name
        _assert_stores_no_zero(got, name)
    # sigma is a zero divisor: sigma_bar * sigma = 0 drops every coefficient
    assert f.lmul(DEFAULT_FRAME.sigma_bar).lmul(sigma).is_zero()
    assert f.scale(1) is f and f.scale(gr(1)) is f
    p = f.modes[(0, 0, 0, 0)][0]
    assert p.scale(1) is p
    assert (p * gr(0, 1)).terms == p.map_coeffs(lambda c: c * gr(0, 1)).terms


def test_unit_products_keep_the_denominator_and_take_no_reduction(monkeypatch):
    rng = random.Random(43)
    p = random_poly_field(rng).modes[(0, 0, 0, 0)][0]
    assert p._den > 1
    units = [Biquaternion.vector(0, -1, 0), Biquaternion.scalar(gr(0, 1)),
             Biquaternion.scalar(gr(-1)), Biquaternion.vector(0, 0, gr(0, -1))]
    expected = {}
    for n, q in enumerate(units):
        expected[f"lmul {n}"] = (lambda q=q: p.lmul(q), lambda c, q=q: q * c)
        expected[f"rmul {n}"] = (lambda q=q: p.rmul(q), lambda c, q=q: c * q)
    for c in (-1, gr(0, 1), gr(0, -1)):
        expected[f"scale {c}"] = (lambda c=c: p.scale(c), lambda x, c=c: x * c)
    reductions = []
    monkeypatch.setattr(fields, "_canonical",
                        lambda rows, den: reductions.append(den) or fields.Poly._exact(rows, den))
    for name, (product, fn) in expected.items():
        got = product()
        assert got._den == p._den, name
        assert reductions == [], name
        assert dict(got.terms) == {e: fn(c) for e, c in p.terms.items()}, name


def test_fields_take_the_plain_product_and_refuse_float_data():
    k = (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(0))
    amplitude = random_rational_biquaternion(random.Random(39))
    f = Field.trig(k, amplitude, amplitude.bar())
    e2 = Biquaternion.vector(0, 1, 0)
    for got, fn in ((f.lmul(e2), lambda c: e2 * c), (f.rmul(e2), lambda c: c * e2),
                    (f.scale(gr(0, -1)), lambda c: c * gr(0, -1))):
        assert not got.is_zero()
        assert _snapshot(got) == _snapshot(f.map_coeffs(fn))
    assert nabla(f).eval_float((0.1, 0.2, 0.3, 0.4)).max_abs() > 0
    # the float field of this check, a float wave vector and a float
    # amplitude, is refused where it would be built
    with pytest.raises(MixedBackend):
        Field.trig((1.0, 0.5, 0.0, 0.0), amplitude, amplitude.bar())
    with pytest.raises(MixedBackend):
        Field.trig(k, amplitude.to_float(), amplitude.bar().to_float())
    with pytest.raises(MixedBackend):
        Poly({(0, 0, 0, 0): Biquaternion.one(), (1, 0, 0, 0): amplitude.to_float()})


def _field_with_modes(rng):
    k = (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(0))
    return random_poly_field(rng) + Field.trig(k, random_rational_biquaternion(rng),
                                               random_rational_biquaternion(rng))


def test_an_exact_scalar_times_a_field_is_the_scaled_field():
    # a Gaussian rational does not know a Field, so its product gives way to
    # Field.__rmul__ rather than turning into a complex the field refuses
    f = _field_with_modes(random.Random(26))
    for c in (gr(0, 1), gr(Fraction(2, 3), -1)):
        assert (c * f).equal(f.scale(c))


def test_a_biquaternion_times_a_field_is_the_left_product():
    # likewise a Biquaternion, which scales only by the scalar types it knows
    rng = random.Random(27)
    f = _field_with_modes(rng)
    for q in (random_rational_biquaternion(rng), DEFAULT_FRAME.sigma, Biquaternion.vector(0, 1, 0)):
        assert (q * f).equal(f.lmul(q))


def _pairing_operands(rng):
    """Exact fields with a polynomial part, trig modes, and a product of two
    trig modes (its angle sum and difference)."""
    k1 = (Fraction(2), Fraction(1), Fraction(0), Fraction(0))
    k2 = (Fraction(1), Fraction(0), Fraction(-1), Fraction(3))

    def trig(k):
        return Field.trig(k, random_rational_biquaternion(rng), random_rational_biquaternion(rng))

    poly = random_poly_field(rng)
    return [poly, trig(k1), poly + trig(k1), trig(k1) * trig(k2) + random_poly_field(rng),
            (random_poly_field(rng, n_terms=2, max_deg=2) * trig(k2)) * trig(k1), Field.zero()]


def test_scalar_of_product_is_the_scalar_part_of_the_product():
    rng = random.Random(40)
    for _ in range(3):
        xs, ys = _pairing_operands(rng), _pairing_operands(rng)
        for n, x in enumerate(xs):
            for m, y in enumerate(ys):
                got = x.scalar_of_product(y)
                assert _snapshot(got) == _snapshot((x * y).scalar_part()), (n, m)
                _assert_stores_no_zero(got, (n, m))
                _assert_canonical(got, (n, m))


def _float_biquaternion(rng):
    return Biquaternion(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)))


def _bits(z: complex):
    """The two floats of z in hex form (signs of zero included)."""
    return z.real.hex(), z.imag.hex()


def test_float_scalar_of_product_is_bit_identical():
    # on float operands the pairing sums in the order of the w component of
    # the product, so the two agree bit for bit, up to the sign of a zero
    rng = random.Random(41)
    for _ in range(200):
        a, b = _float_biquaternion(rng), _float_biquaternion(rng)
        for x, y in ((a, b), (a, a.bar()), (a.plus(), b), (b, a.bar().star())):
            got = x.scalar_of_product(y)
            assert got.vector_part().is_zero()
            assert _bits(got.scalar_part()) == _bits((x * y).scalar_part())
    for _ in range(50):
        a, b = random_rational_biquaternion(rng), random_rational_biquaternion(rng)
        for x, y in ((a, b), (a, a.bar()), (a.plus(), b), (b, a.bar().star())):
            assert x.scalar_of_product(y) == Biquaternion.scalar((x * y).scalar_part())


def test_scalar_of_product_rejects_a_mix_of_backends():
    rng = random.Random(42)
    # a field cannot hold a float coefficient, so no float operand reaches
    # scalar_of_product: the Poly constructor refuses it
    with pytest.raises(MixedBackend):
        Field.constant(_float_biquaternion(rng))
    with pytest.raises(MixedBackend):
        Poly({(0, 0, 0, 0): Biquaternion.one(), (1, 0, 0, 0): _float_biquaternion(rng)})


def test_wave_vector_keys_are_ints_when_integral():
    rng = random.Random(36)
    a, b = random_rational_biquaternion(rng), random_rational_biquaternion(rng)
    given = [(5, 3, 0, 0),
             tuple(Fraction(c) for c in (5, 3, 0, 0)),
             (Fraction(5), 3, Fraction(0), 0)]
    waves = [Field.trig(k, a, b) for k in given]
    for wave in waves:
        assert list(wave.modes) == [(5, 3, 0, 0)]
        assert all(type(c) is int for c in next(iter(wave.modes)))
    total = waves[0] + waves[1] + waves[2]
    assert len(total.modes) == 1
    assert total.modes[(5, 3, 0, 0)][0].terms == {(0, 0, 0, 0): a * 3}
    # a product can key a mode by Fractions of integral value; it still
    # merges with the int key of the same wave vector
    h = Fraction(1, 2)
    square = Field.trig((h, h, 0, 0), a, b) * Field.trig((h, h, 0, 0), a, b)
    assert any(type(c) is Fraction for key in square.modes for c in key)
    merged = square + Field.trig((1, 1, 0, 0), a, b)
    assert len(merged.modes) == len(square.modes)
    want = square.modes[(1, 1, 0, 0)][0] + Poly.constant(a)
    assert (merged.modes[(1, 1, 0, 0)][0] - want).is_zero()
    half = Field.trig((Fraction(1, 2), 1, 0, 0), a, b)
    (key,) = half.modes
    assert key == (Fraction(1, 2), 1, 0, 0)
    assert type(key[0]) is Fraction and type(key[1]) is int
    # d/dx1 of the phase 5t - 3x1 is -3, whatever the type of the key
    for wave in waves:
        assert wave.dx(1).modes[(5, 3, 0, 0)][0].terms == {(0, 0, 0, 0): b * -3}
    assert half.dt().equal(Field.trig((Fraction(1, 2), 1, 0, 0), b * Fraction(1, 2),
                                      -a * Fraction(1, 2)))


def test_extract_mode_cos_reads_one_constant_mode():
    rng = random.Random(37)
    a, b = random_rational_biquaternion(rng), random_rational_biquaternion(rng)
    k = (5, 3, 0, 0)
    assert fields._extract_mode_cos(Field.trig(k, a, b), k) == a
    # the canonical key of -k holds the same mode
    assert fields._extract_mode_cos(Field.trig(k, a, b), (-5, -3, 0, 0)) == a
    assert fields._extract_mode_cos(Field.trig(k, a, b), tuple(map(Fraction, k))) == a
    assert fields._extract_mode_cos(Field.zero(), k) == Biquaternion.zero()
    zero = Biquaternion.zero()
    assert fields._extract_mode_cos(Field.trig(k, zero, b), k) == zero
    two_modes = Field.trig(k, a, b) + Field.trig((4, 3, 0, 0), a, b)
    with_constant = Field.trig(k, a, b) + Field.constant(a)
    other_mode = Field.trig((4, 3, 0, 0), a, b)
    x1 = Field.polynomial(Poly({(0, 1, 0, 0): Biquaternion.one()}))
    non_constant_cos = Field.trig(k, a, zero) * x1
    non_constant_sin = Field.trig(k, zero, b) * x1
    for f in (two_modes, with_constant, other_mode, non_constant_cos, non_constant_sin):
        with pytest.raises(NotAPlaneWave):
            fields._extract_mode_cos(f, k)


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


def test_free_potentials_share_their_kernels_on_the_frame():
    # with no coupling entries the kernels depend on the frame, the
    # convention and the mass alone: every zero potential reads the copy
    # kept on the frame and keeps none itself
    rng = random.Random(36)
    frame = random_rational_frame(rng)
    f = random_poly_field(rng)
    a, b = ExternalField.zero(), ExternalField.zero()
    want = dirac_lanczos_residual(f, a, Fraction(3), frame)
    assert dirac_lanczos_residual(f, b, Fraction(3), frame).equal(want)
    assert fields._coupled_kernels(a, frame, FROZEN_NABLA, Fraction(3))[0] is \
        fields._coupled_kernels(b, frame, FROZEN_NABLA, Fraction(3))[0]
    assert a._kernels == {} and b._kernels == {}
    # a coupling of zero is a free potential too
    assert dirac_lanczos_residual(f, ExternalField(f, gr(0)), 3, frame).equal(want)
    # a float mass equal to a kept exact one is still refused
    with pytest.raises(MixedBackend):
        dirac_lanczos_residual(f, a, 3.0, frame)


def test_unit_waves_and_free_solutions_take_no_biquaternion_product(monkeypatch):
    # once nu's row and the kernels are kept on the frame, the plane waves
    # and the free vector-spinor solutions are built from integer rows
    from bqspin.rs import free_rs_solutions
    frames = (DEFAULT_FRAME, random_rational_frame(random.Random(37)))
    k = ON_SHELL.k_tuple()
    for frame in frames:
        fields._unit_waves(k, frame)
        free_rs_solutions(ON_SHELL, ON_SHELL.m, frame)
    calls = []
    mul, from_coords = Biquaternion.__mul__, Biquaternion.from_real_coords
    monkeypatch.setattr(Biquaternion, "__mul__",
                        lambda *args: calls.append("__mul__") or mul(*args))
    monkeypatch.setattr(Biquaternion, "from_real_coords", staticmethod(
        lambda coords: calls.append("from_real_coords") or from_coords(coords)))
    for frame in frames:
        assert len(fields._unit_waves(k, frame)) == 8
        assert len(free_rs_solutions(ON_SHELL, ON_SHELL.m, frame)) == 8
    assert calls == []
    # the check sees the calls it counts
    Biquaternion.one() * Biquaternion.one()
    Biquaternion.from_real_coords([0] * 8)
    assert calls == ["__mul__", "from_real_coords"]


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
