"""Exact Polys as integer rows over one shared denominator.

An exact ``Poly`` stores each coefficient as eight ints (A_w, B_w, ..., A_z,
B_z) over one denominator for the whole Poly, and each operation runs on
those ints.  Every operation here is checked against the same operation done
coefficient by coefficient on ``terms`` with ``Biquaternion`` arithmetic,
and every result must be in canonical form.  The integer Hamilton and
pairing formulas of ``scalars`` are checked against the 2x2 matrix oracle of
``perfbench/oracle.py``, loaded by path.
"""

import importlib.util
import math
import os
import random
from fractions import Fraction

import pytest

from bqspin.biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    basis_elements,
    random_rational_biquaternion,
    random_rational_frame,
)
from bqspin.fields import (
    FROZEN_NABLA,
    ExternalField,
    Field,
    NablaSpec,
    Poly,
    _canonical_mode,
    _divided_row,
    _scaled_row,
    _unit_waves,
    _wave_vector,
    dirac_lanczos_residual,
    lanczos_residual,
    nabla,
    nabla_bar,
    nabla_bar_from_right,
    nabla_from_right,
    pibar,
    plane_wave_field,
    random_linear_potential,
    random_poly_field,
    random_quadratic_potential,
)
from bqspin.rs import ETA, RSContext, eps_contraction, eps_units
from bqspin.scalars import GaussianRational, _hamilton_int, _pairing_int, gr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HALF = Fraction(1, 2)


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", os.path.join(ROOT, "perfbench", "oracle.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- reference arithmetic on terms ------------------------------------------------


def _nonzero(terms):
    return {e: c for e, c in terms.items() if not c.is_zero()}


def _ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        c = c if sign > 0 else -c
        out[e] = out[e] + c if e in out else c
    return _nonzero(out)


def _ref_map(p, fn):
    return _nonzero({e: fn(c) for e, c in p.items()})


def _ref_mul(p, q, coeff_mul):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = coeff_mul(c1, c2)
            out[e] = out[e] + c if e in out else c
    return _nonzero(out)


def _ref_derivative(p, var):
    out = {}
    for e, c in p.items():
        if e[var]:
            ne = list(e)
            ne[var] -= 1
            out[tuple(ne)] = c * e[var]
    return out


def _snapshot(f: Field):
    return {k: (dict(pc.terms), dict(ps.terms)) for k, (pc, ps) in f.modes.items()}


def _clean(modes):
    """Reference modes with the zero vector's sin part and zero modes dropped."""
    out = {}
    for k, (pc, ps) in modes.items():
        if not any(k):
            ps = {}
        if pc or ps:
            out[k] = (pc, ps)
    return out


def _ref_field_add(x, y, sign=1):
    out = dict(x)
    for k, (pc, ps) in y.items():
        old = out.get(k, ({}, {}))
        out[k] = (_ref_add(old[0], pc, sign), _ref_add(old[1], ps, sign))
    return _clean(out)


def _ref_field_mul(x, y, coeff_mul):
    """(P cos a + Q sin a)(R cos b + S sin b) by the angle sum and difference."""
    out = {}

    def put(k, pc, ps):
        for c in k:
            if c:
                if c < 0:
                    k, ps = tuple(-v for v in k), _ref_map(ps, lambda v: -v)
                break
        old = out.get(k, ({}, {}))
        out[k] = (_ref_add(old[0], pc), _ref_add(old[1], ps))

    def half(p):
        return _ref_map(p, lambda c: c * HALF)

    for ka, (p, q) in x.items():
        for kb, (r, s) in y.items():
            pr, qs = _ref_mul(p, r, coeff_mul), _ref_mul(q, s, coeff_mul)
            ps, qr = _ref_mul(p, s, coeff_mul), _ref_mul(q, r, coeff_mul)
            put(tuple(a + b for a, b in zip(ka, kb)),
                half(_ref_add(pr, qs, -1)), half(_ref_add(ps, qr)))
            put(tuple(a - b for a, b in zip(ka, kb)),
                half(_ref_add(pr, qs)), half(_ref_add(qr, ps, -1)))
    return _clean(out)


def _ref_field_derivative(x, var):
    out = {}
    for k, (pc, ps) in x.items():
        dphi = k[0] if var == 0 else -k[var]
        out[k] = (_ref_add(_ref_derivative(pc, var), _ref_map(ps, lambda c: c * dphi)),
                  _ref_add(_ref_derivative(ps, var), _ref_map(pc, lambda c: c * dphi), -1))
    return _clean(out)


def _ref_field_map(x, fn):
    return _clean({k: (_ref_map(pc, fn), _ref_map(ps, fn)) for k, (pc, ps) in x.items()})


# -- canonical form -------------------------------------------------------------------


def _assert_canonical(p: Poly, name):
    den, rows = p._den, p._rows
    assert type(den) is int and den > 0, name
    assert all(type(x) is int for row in rows.values() for x in row), name
    assert all(len(row) == 8 and any(row) for row in rows.values()), name
    assert math.gcd(den, *(x for row in rows.values() for x in row)) == 1, name


def _assert_canonical_field(f: Field, name):
    for k, (pc, ps) in f.modes.items():
        assert pc._rows or ps._rows, (name, k)
        _assert_canonical(pc, (name, k))
        _assert_canonical(ps, (name, k))


# -- operands ----------------------------------------------------------------------------


_K1 = (2, 1, 0, 0)
_K2 = (1, 0, Fraction(-1, 2), 3)


def _mixed_denominators(k):
    """A trig mode at k whose cos Poly is over 36 and whose sin Poly is over
    12, each with three terms, plus a polynomial mode."""
    cos = Biquaternion.from_real_coords((Fraction(5, 36), 1, 0, Fraction(-1, 4), 0, 2, Fraction(7, 9), 0))
    sin = Biquaternion.from_real_coords((Fraction(1, 12), 0, -3, 0, Fraction(5, 6), 1, 0, 2))
    x = Field.polynomial(Poly({(0, 0, 0, 0): Biquaternion.scalar(3), (1, 0, 0, 0): Biquaternion.one(),
                               (0, 2, 1, 1): Biquaternion.scalar(-2)}))
    f = Field.trig(k, cos, sin) * x
    ((pc, ps),) = f.modes.values()
    assert (pc._den, ps._den) == (36, 12)
    return f + x


def _operands(rng):
    """Exact fields with polynomial parts, trig modes and products of two
    trig modes; the last two have trig modes whose cos and sin Polys have
    different denominators."""
    def trig(k):
        return Field.trig(k, random_rational_biquaternion(rng), random_rational_biquaternion(rng))

    return [random_poly_field(rng), trig(_K1), random_poly_field(rng) + trig(_K2),
            trig(_K1) * trig(_K2) + random_poly_field(rng),
            (random_poly_field(rng, n_terms=2, max_deg=2) * trig(_K2)) * trig(_K1),
            Field.zero(), _mixed_denominators(_K1), _mixed_denominators(_K2)]


def _constants(rng):
    """Unit monomials, non-unit monomials and general exact constants."""
    return [Biquaternion.vector(0, -1, 0), Biquaternion.scalar(gr(0, 1)),
            Biquaternion.vector(0, 0, gr(0, -1)), Biquaternion.scalar(gr(-1)),
            Biquaternion.vector(Fraction(3, 5), 0, 0), Biquaternion.scalar(gr(Fraction(2, 7), 3)),
            Biquaternion.vector(0, gr(0, Fraction(-5, 4)), 0),
            random_rational_biquaternion(rng), DEFAULT_FRAME.sigma, DEFAULT_FRAME.i_nu,
            Biquaternion.zero()]


def test_linear_operations_match_the_coefficient_arithmetic():
    rng = random.Random(50)
    for _ in range(3):
        xs, ys = _operands(rng), _operands(rng)
        for n, x in enumerate(xs):
            sx = _snapshot(x)
            cases = {"neg": (-x, _ref_field_map(sx, lambda c: -c))}
            for m, y in enumerate(ys + [x]):
                sy = _snapshot(y)
                cases[f"sum {m}"] = (x + y, _ref_field_add(sx, sy))
                cases[f"difference {m}"] = (x - y, _ref_field_add(sx, sy, -1))
            for name, (got, want) in cases.items():
                assert _snapshot(got) == want, (n, name)
                _assert_canonical_field(got, (n, name))


def test_products_match_the_coefficient_arithmetic():
    rng = random.Random(51)
    for _ in range(2):
        xs, ys = _operands(rng), _operands(rng)
        for n, x in enumerate(xs):
            for m, y in enumerate(ys):
                sx, sy = _snapshot(x), _snapshot(y)
                got = x * y
                assert _snapshot(got) == _ref_field_mul(sx, sy, lambda a, b: a * b), (n, m)
                _assert_canonical_field(got, (n, m))
                got = x.scalar_of_product(y)
                want = _ref_field_mul(sx, sy, lambda a, b: Biquaternion.scalar((a * b).w))
                assert _snapshot(got) == want, (n, m)
                _assert_canonical_field(got, (n, m))


def test_products_by_constants_match_the_coefficient_arithmetic():
    rng = random.Random(52)
    for x in _operands(rng):
        sx = _snapshot(x)
        cases = {}
        for n, q in enumerate(_constants(rng)):
            cases[f"lmul {n}"] = (x.lmul(q), lambda c, q=q: q * c)
            cases[f"rmul {n}"] = (x.rmul(q), lambda c, q=q: c * q)
        for c in (3, -1, 0, Fraction(-5, 6), Fraction(7, 2), gr(0, 1), gr(0, -1),
                  gr(Fraction(2, 3), -1), gr(-4, Fraction(1, 9))):
            cases[f"scale {c!r}"] = (x.scale(c), lambda v, c=c: v * c)
        for name, (got, fn) in cases.items():
            assert _snapshot(got) == _ref_field_map(sx, fn), name
            _assert_canonical_field(got, name)


def test_unary_operations_match_the_coefficient_arithmetic():
    rng = random.Random(53)
    for x in _operands(rng):
        sx = _snapshot(x)
        cases = {}
        for name in ("bar", "star", "plus", "reverse"):
            cases[name] = (getattr(x, name)(), _ref_field_map(sx, getattr(Biquaternion, name)))
        cases["scalar_part"] = (x.scalar_part(),
                                _ref_field_map(sx, lambda c: Biquaternion.scalar(c.w)))
        cases["vector_part"] = (x.vector_part(), _ref_field_map(sx, Biquaternion.vector_part))
        for var in range(4):
            cases[f"derivative {var}"] = (x.derivative(var), _ref_field_derivative(sx, var))
        for name, (got, want) in cases.items():
            assert _snapshot(got) == want, name
            _assert_canonical_field(got, name)


def test_the_constructor_is_canonical_and_the_empty_poly_has_den_one():
    rng = random.Random(54)
    third = Biquaternion.scalar(gr(Fraction(1, 3)))
    terms = {(0, 0, 0, 0): third * 3, (1, 0, 0, 0): third * 6, (0, 2, 0, 0): third,
             (0, 0, 1, 0): Biquaternion.zero(), (0, 0, 0, 1): random_rational_biquaternion(rng),
             (2, 0, 0, 0): Biquaternion(1, 0, Fraction(1, 2), gr(0, 1))}
    p = Poly(terms)
    _assert_canonical(p, "constructor")
    assert dict(p.terms) == _nonzero(terms)
    assert all(type(c) is GaussianRational for q in p.terms.values() for c in q.components())
    for empty in (Poly(), Poly({(1, 0, 0, 0): Biquaternion.zero()}), p - p, p * Poly(),
                  p.scale(0), p.derivative(0).derivative(0).derivative(0)):
        assert empty._rows == {} and empty._den == 1
    assert len(p.terms) == 5 and (0, 0, 1, 0) not in p.terms


def test_integer_formulas_match_the_matrix_oracle():
    oracle = _load_oracle()
    rng = random.Random(55)
    rows = [tuple(rng.randint(-9, 9) for _ in range(8)) for _ in range(40)]
    rows += [tuple(rng.randint(-2 ** 70, 2 ** 70) for _ in range(8)) for _ in range(10)]
    rows += [tuple(int(n == k) for n in range(8)) for k in range(8)]

    def element(row):
        return Biquaternion(*(GaussianRational(row[2 * k], row[2 * k + 1]) for k in range(4)))

    for p in rows:
        mp = oracle.to_matrix(element(p))
        for q in rng.sample(rows, 12):
            mq = oracle.to_matrix(element(q))
            assert oracle.to_matrix(element(_hamilton_int(p, q))) == oracle._matmul(mp, mq)
            # p_w q_w + ... + p_z q_z = scal(p.bar() q), half the trace of adj(M(p)) M(q)
            re, im = _pairing_int(p, q)
            m = oracle._matmul(oracle._adjugate(mp), mq)
            trace = oracle._add(m[0][0], m[1][1])
            assert (Fraction(re), Fraction(im)) == (trace[0] / 2, trace[1] / 2)


# -- first-order operators: the row kernels against the coefficient arithmetic -----------


_SPECS = [NablaSpec(True, 1), NablaSpec(True, -1), NablaSpec(False, 1), NablaSpec(False, -1)]


def _ref_sum(snaps):
    out = {}
    for snap in snaps:
        out = _ref_field_add(out, snap)
    return out


def _ref_first_order(sx, var_factors):
    """sum over (v, fn) of fn applied to every coefficient of d x/dx_v."""
    return _ref_sum(_ref_field_map(_ref_field_derivative(sx, v), fn) for v, fn in var_factors)


def _ref_coupled(ref, phi, sx, e):
    """ref - e phi x, or ref when e is zero."""
    if not e:
        return ref
    coupling = _ref_field_mul(_snapshot(phi), sx, lambda a, b: a * b)
    return _ref_field_add(ref, _ref_field_map(coupling, lambda c: c * e), -1)


def _ref_mass(ref, sx, m, conjugate):
    """ref - m x*, or ref - m x when conjugate is False."""
    term = _ref_field_map(sx, (lambda c: c.star() * m) if conjugate else (lambda c: c * m))
    return _ref_field_add(ref, term, -1)


def _potentials(rng):
    """No field; linear and quadratic potentials with a real coupling; a
    linear one with a complex-rational coupling and one with e = 0."""
    linear = random_linear_potential(rng)
    return [ExternalField.zero(), linear, random_quadratic_potential(rng),
            ExternalField(linear.phi, gr(Fraction(-2, 3), Fraction(5, 4))),
            ExternalField(linear.phi, gr(0))]


def _assert_rows_equal(got: Field, want, name):
    """got equals the reference modes in canonical rows and denominators."""
    assert set(got.modes) == set(want), name
    for k, (pc, ps) in got.modes.items():
        for p, terms in zip((pc, ps), want[k]):
            ref = Poly(terms)
            assert (p._rows, p._den) == (ref._rows, ref._den), (name, k)


def test_gradient_kernels_match_the_coefficient_arithmetic():
    rng = random.Random(56)
    for x in _operands(rng) + _operands(rng):
        sx = _snapshot(x)
        for spec in _SPECS:
            units = spec.units()
            bars = [u.bar() for u in units]
            cases = {
                "nabla": (nabla(x, spec), [(v, lambda c, u=u: u * c) for v, u in enumerate(units)]),
                "nabla_bar": (nabla_bar(x, spec),
                              [(v, lambda c, u=u: u * c) for v, u in enumerate(bars)]),
                "nabla_from_right": (nabla_from_right(x, spec),
                                     [(v, lambda c, u=u: c * u) for v, u in enumerate(units)]),
                "nabla_bar_from_right": (nabla_bar_from_right(x, spec),
                                         [(v, lambda c, u=u: c * u) for v, u in enumerate(bars)]),
            }
            for name, (got, factors) in cases.items():
                _assert_rows_equal(got, _ref_first_order(sx, factors), (spec, name))


def test_pibar_kernels_match_the_coefficient_arithmetic():
    # on a random frame i nu is not a unit, so its kernel is a Hamilton
    # product over a denominator; the coupling and mass terms ride in the
    # same pass, and each result must equal the composed reference
    rng = random.Random(57)
    frames = [DEFAULT_FRAME, random_rational_frame(rng), random_rational_frame(rng)]
    exts = _potentials(rng)
    masses = [Fraction(3, 2), gr(Fraction(1, 3), -2)]
    for x in _operands(rng):
        sx = _snapshot(x)
        for frame in frames:
            i_nu = frame.i_nu
            for spec in _SPECS:
                factors = [(v, lambda c, u=u.bar(): u * c * i_nu)
                           for v, u in enumerate(spec.units())]
                ref = _ref_first_order(sx, factors)
                for ext in exts if spec == FROZEN_NABLA else exts[:2]:
                    want = _ref_coupled(ref, ext.phi_bar(), sx, ext.e)
                    name = (frame, spec, ext.e)
                    _assert_rows_equal(pibar(x, ext, frame, spec), want, name)
                    for m in masses:
                        _assert_rows_equal(dirac_lanczos_residual(x, ext, m, frame, spec),
                                           _ref_mass(want, sx, m, True), (name, m))


def test_lanczos_pair_matches_the_coefficient_arithmetic():
    # each half is one pass: the gradient and coupling terms on the first
    # input and the mass term on the second
    rng = random.Random(60)
    units = FROZEN_NABLA.units()
    grad = [(v, lambda c, u=u: u * c) for v, u in enumerate(units)]
    grad_bar = [(v, lambda c, u=u.bar(): u * c) for v, u in enumerate(units)]
    xs, ys = _operands(rng), _operands(rng)
    for ext in _potentials(rng):
        for m in (Fraction(3), Fraction(-5, 2), gr(Fraction(1, 2), 1), 0):
            for a, b in zip(xs, reversed(ys)):
                sa, sb = _snapshot(a), _snapshot(b)
                want_a = _ref_mass(_ref_coupled(_ref_first_order(sa, grad_bar), ext.phi_bar(),
                                                sa, ext.e), sb, m, False)
                want_b = _ref_mass(_ref_coupled(_ref_first_order(sb, grad), ext.phi, sb, ext.e),
                                   sa, m, False)
                ra, rb = lanczos_residual(a, b, ext, m)
                _assert_rows_equal(ra, want_a, (ext.e, m, "ra"))
                _assert_rows_equal(rb, want_b, (ext.e, m, "rb"))


def test_vector_spinor_kernels_match_the_coefficient_arithmetic():
    rng = random.Random(58)
    frames = [DEFAULT_FRAME, random_rational_frame(rng)]
    exts = _potentials(rng)
    xs = _operands(rng)
    psi = xs[:4]
    # the mode at _K1 is reached by a derivative with a phase term (lam = 0,
    # integer coefficients) and by one without (lam = 2, cos over 36 and
    # sin over 12), so its cos and sin outputs have different denominators
    mixed_psi = [Field.trig(_K1, Biquaternion.one(), Biquaternion.vector(1, 0, 0)), xs[3],
                 _mixed_denominators(_K1), xs[0]]
    units = eps_units()
    for frame in frames:
        nu = frame.nu
        for ext in exts:
            ctx = RSContext(ext, Fraction(2), frame)
            phis = ext.component_fields()

            def pi_lower(mu, sx):
                # d_mu = (d/dt, -d/dx_n)
                ref = _ref_first_order(sx, [(mu, lambda c: c * (nu if mu == 0 else -nu))])
                return _ref_coupled(ref, phis[mu], sx, ext.e)

            def pi_upper(mu, sx):
                return _ref_field_map(pi_lower(mu, sx), lambda c: c * ETA[mu])

            for x in xs:
                sx = _snapshot(x)
                for mu in range(4):
                    _assert_rows_equal(ctx.pi_lower(mu, x), pi_lower(mu, sx), (frame, ext.e, mu))
                    _assert_rows_equal(ctx.pi_upper(mu, x), pi_upper(mu, sx), (frame, ext.e, mu))
            for components in (psi, mixed_psi):
                snaps = [_snapshot(p) for p in components]
                _assert_rows_equal(ctx.differential(components),
                                   _ref_sum(pi_upper(lam, sx) for lam, sx in enumerate(snaps)),
                                   (frame, ext.e, "differential"))
    # order-0 terms alone, also on trig modes whose cos and sin Polys have
    # different denominators
    mixed = [xs[0], _mixed_denominators(_K1), xs[3], _mixed_denominators(_K2)]
    for components in (psi, mixed):
        for name, got in (("bar_upper", RSContext(ExternalField.zero(), 1, DEFAULT_FRAME).algebraic(components)),
                          ("upper", eps_contraction(components))):
            want = _ref_sum(_ref_field_map(_snapshot(p), lambda c, u=u: u * c)
                            for u, p in zip(units[name], components))
            _assert_rows_equal(got, want, name)


def test_first_order_operators_neither_differentiate_nor_add_fields(monkeypatch):
    # the kernels read the rows of the input once: no derivative Field, and
    # no sum of per-variable Fields
    rng = random.Random(59)
    f = _operands(rng)[4]
    psi = [random_poly_field(rng) for _ in range(3)] + [f]
    ctx = RSContext(ExternalField.zero(), Fraction(2), DEFAULT_FRAME)
    calls = []
    for name in ("derivative", "__add__"):
        original = getattr(Field, name)
        monkeypatch.setattr(Field, name, lambda *args, original=original, name=name:
                            calls.append(name) or original(*args))
    for result in (nabla_bar(f), ctx.pibar(f), ctx.pi_lower(2, f), ctx.differential(psi)):
        assert not result.is_zero()
    assert calls == []
    # the check sees the calls it counts
    f.derivative(0), f + f
    assert calls == ["derivative", "__add__"]


def test_coupled_operators_make_no_field_product(monkeypatch):
    # with the coupling switched on, the terms -e phi x and the mass terms
    # are kernel entries of the one pass: no Field product, and so no
    # separate scale or difference pass over its result
    rng = random.Random(61)
    f = _operands(rng)[3]
    psi = [random_poly_field(rng) for _ in range(3)] + [f]
    ext = random_quadratic_potential(rng)
    ctx = RSContext(ext, Fraction(2), DEFAULT_FRAME)
    calls = []
    original = Field._product
    monkeypatch.setattr(Field, "_product", lambda *args: calls.append(1) or original(*args))
    results = [pibar(f, ext, DEFAULT_FRAME), dirac_lanczos_residual(f, ext, 2, DEFAULT_FRAME),
               *lanczos_residual(f, psi[0], ext, 3), ctx.differential(psi)]
    results += [ctx.pi_lower(mu, f) for mu in range(4)] + [ctx.pi_upper(mu, f) for mu in range(4)]
    assert bool(ext.e) and not any(r.is_zero() for r in results)
    assert calls == []
    # the check sees the calls it counts
    f * f
    assert calls == [1]


def test_a_trigonometric_potential_is_refused():
    # the coupling entries are shifts of the rows of a polynomial potential,
    # so a trigonometric mode of phi, which they would drop, raises
    ext = ExternalField(Field.trig(_K1, Biquaternion.one(), Biquaternion.zero()), gr(1))
    x = random_poly_field(random.Random(62))
    for call in (lambda: pibar(x, ext, DEFAULT_FRAME), lambda: lanczos_residual(x, x, ext, 1),
                 lambda: RSContext(ext, 1, DEFAULT_FRAME).pi_lower(0, x)):
        with pytest.raises(ValueError):
            call()


# -- unpacked row arithmetic and plane waves from rows ------------------------------------


def test_row_scale_and_division_match_the_entrywise_reference():
    # the unpacked eight-lane forms against the list comprehensions they
    # replace, on negative entries and entries past 2^62
    rng = random.Random(63)
    big = 1 << 62
    rows = [tuple(rng.randint(-8 * big, 8 * big) for _ in range(8)) for _ in range(20)]
    rows += [(-1, 2, -3, 4, -5, 6, -7, 8), (big + 1, -big - 3, 0, 0, 1, -1, big * big, -big)]
    for row in rows:
        for c in (1, -1, 3, -7, big + 5, -(big * big + 1)):
            scaled = _scaled_row(c, row)
            assert type(scaled) is tuple and scaled == tuple([c * x for x in row])
            assert _divided_row(scaled, c) == tuple([x // c for x in scaled]) == row
        g = math.gcd(*row)
        assert _divided_row(row, g) == tuple([x // g for x in row])


def _biquaternion_plane_wave(amplitude, k, frame):
    """The plane wave built through the Biquaternion product amplitude * nu
    and two ``Poly.constant``s."""
    k, ps = _canonical_mode(_wave_vector(k), Poly.constant(-(amplitude * frame.nu)))
    return Field._of({k: (Poly.constant(amplitude), ps)})


def _rows_and_dens(f: Field):
    return {k: ((pc._rows, pc._den), (ps._rows, ps._den)) for k, (pc, ps) in f.modes.items()}


_WAVE_VECTORS = [(5, 3, 0, 0), (Fraction(5, 2), Fraction(3, 2), 0, Fraction(-1, 3)),
                 (-2, 1, Fraction(-1, 3), 0), (0, -1, 2, Fraction(1, 2)), (0, 0, 0, 0)]


def test_plane_waves_from_rows_match_the_biquaternion_construction():
    # the same canonical rows and denominators, over frames whose nu has a
    # denominator, fractional and sign-flipped wave vectors, and amplitudes
    # that are zero, units, real scalars and general elements
    rng = random.Random(64)
    frames = [DEFAULT_FRAME] + [random_rational_frame(rng) for _ in range(3)]
    amplitudes = [Biquaternion.zero(), Biquaternion.one(), Biquaternion.scalar(gr(Fraction(-3, 4))),
                  Biquaternion.vector(0, gr(0, Fraction(5, 6)), 0), DEFAULT_FRAME.sigma]
    amplitudes += [random_rational_biquaternion(rng) for _ in range(3)]
    for frame in frames:
        for k in _WAVE_VECTORS:
            for a in amplitudes:
                got = plane_wave_field(a, k, frame)
                assert _rows_and_dens(got) == _rows_and_dens(_biquaternion_plane_wave(a, k, frame))
                _assert_canonical_field(got, (k, a))
                assert got.is_zero() == (a == Biquaternion.zero())


def test_unit_waves_are_the_plane_waves_of_the_basis_units():
    rng = random.Random(65)
    for frame in (DEFAULT_FRAME, random_rational_frame(rng)):
        for k in _WAVE_VECTORS:
            waves = _unit_waves(k, frame)
            assert len(waves) == 8
            for b, wave in zip(basis_elements(), waves):
                assert _rows_and_dens(wave) == _rows_and_dens(plane_wave_field(b, k, frame))
