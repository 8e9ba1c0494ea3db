"""The scalar backend is a property of the values.

A biquaternion is exact when its components are Gaussian rationals; exact
with float gives float; generic code never turns exact input into floats.
"""

import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest

import bqspin
from bqspin.biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    basis_elements,
    random_rational_biquaternion,
)
from bqspin.errors import MixedBackend
from bqspin.fields import (
    Field,
    Momentum,
    Poly,
    build_doublet,
    dirac_lanczos_residual,
    lanczos_plane_wave,
    nabla,
    nabla_bar,
    nabla_bar_from_right,
    nabla_from_right,
    plane_wave_field,
    proca_residual,
    random_linear_potential,
    random_poly_field,
)
from bqspin.rs import RSContext, dual_tensor, eps_units
from bqspin.scalars import GaussianRational, gr


ON_SHELL = Momentum(Fraction(5), (Fraction(3), Fraction(0), Fraction(0)), Fraction(4))


# -- scalars -------------------------------------------------------------------


def test_gaussian_rational_compares_with_float_exactly():
    # like Fraction(1, 3) == 1/3, which is False
    assert gr(Fraction(1, 3)) != complex(1 / 3)
    assert gr(Fraction(1, 3)) != 1 / 3
    assert gr(Fraction(1, 2), -1) == complex(0.5, -1.0)
    assert gr(2) == 2 and gr(2) == Fraction(2) and gr(2) == 2.0


def test_gaussian_rational_hash_agrees_with_equal_numbers():
    assert gr(1) == 1 + 0j
    assert hash(gr(1)) == hash(1 + 0j) == hash(1)
    assert hash(gr(Fraction(1, 3))) == hash(Fraction(1, 3))
    for re, im in ((Fraction(1, 2), Fraction(-3, 4)), (0, 1),
                   # the sum hits -1, which the hash maps to -2
                   (-1000004, 1),
                   # the sum wraps to a signed 64-bit value
                   (2 ** 60, 2 ** 60)):
        value = complex(float(re), float(im))
        assert gr(re, im) == value
        assert hash(gr(re, im)) == hash(value)


# -- biquaternion backends --------------------------------------------------------


def test_is_exact_reads_every_component():
    assert Biquaternion.one().is_exact()
    assert not Biquaternion.scalar(1.0).is_exact()
    with pytest.raises(MixedBackend):
        Biquaternion(gr(1), 0.5j, gr(0), gr(0)).is_exact()
    with pytest.raises(MixedBackend):
        Biquaternion(1j, 0j, 0j, gr(2)).is_exact()


def test_constructors_never_mix():
    assert not Biquaternion.vector(1, 0.5, 0).is_exact()
    assert Biquaternion.vector(1, Fraction(1, 2), gr(0, 1)).is_exact()
    assert not Biquaternion.vector(gr(1), 0.5, 0).is_exact()
    assert not Biquaternion.scalar(0.5j).is_exact()
    assert Biquaternion.from_real_coords([1, 0, 0, 0, Fraction(1, 2), 0, 0, 0]).is_exact()
    assert not Biquaternion.from_real_coords([1, 0, 0, 0, 0.5, 0, 0, 0]).is_exact()
    floats = basis_elements(exact=False)
    assert not any(b.is_exact() for b in floats)
    assert [b.to_float() for b in basis_elements()] == floats


def test_field_rejects_a_mixed_element():
    with pytest.raises(MixedBackend):
        Field.constant(Biquaternion(gr(1), 0.5j, gr(0), gr(0)))
    with pytest.raises(MixedBackend):
        Field.trig((1, 1, 0, 0), Biquaternion(1j, 0j, 0j, gr(2)), Biquaternion.zero())


def test_field_rejects_a_poly_of_two_backends():
    exact, flt = Biquaternion.one(), Biquaternion.scalar(0.5)
    with pytest.raises(MixedBackend):
        Field.polynomial(Poly({(0, 0, 0, 0): exact, (1, 0, 0, 0): flt}))
    with pytest.raises(MixedBackend):
        Field.trig((1, 1, 0, 0), exact, flt)
    # a zero coefficient is dropped, so it has no backend to disagree with
    assert not Field.trig((1, 1, 0, 0), flt, Biquaternion.zero()).is_zero()


def test_exact_with_float_gives_float():
    q = random_rational_biquaternion(random.Random(3))
    for mixed in (q * Biquaternion.scalar(1.0), Biquaternion.scalar(1.0) * q,
                  q + Biquaternion.scalar(0.5j), q * 0.5, q * 1j):
        assert not mixed.is_exact()
    assert (q * Biquaternion.scalar(1.0) - q.to_float()).max_abs() <= 1e-12


# -- no float leaks into exact code -------------------------------------------------


def _assert_exact(f: Field):
    comps = [c for pc, ps in f.modes.values()
             for poly in (pc, ps) for q in poly.terms.values() for c in q.components()]
    assert comps, "a zero field cannot show a leak"
    assert all(type(c) is GaussianRational for c in comps)
    assert not any(isinstance(c, float) for k in f.modes for c in k)


@pytest.fixture(scope="module")
def exact_fields():
    rng = random.Random(12)
    poly = random_poly_field(rng, n_terms=3, max_deg=2)
    wave = Field.trig((2, 1, 0, -1), random_rational_biquaternion(rng),
                      random_rational_biquaternion(rng))
    return poly, wave, poly + wave


def test_field_operations_stay_exact(exact_fields):
    poly, wave, f = exact_fields
    results = [f * wave, poly * f, f.bar(), f.star(), f.plus(), f.reverse(),
               f.scalar_part(), f.vector_part(), f.re_scalar(),
               f.derivative(0), f.derivative(2), nabla(f), nabla_bar(f),
               nabla_from_right(f), nabla_bar_from_right(f),
               f.scale(Fraction(2, 3)), f.lmul(DEFAULT_FRAME.sigma)]
    for out in results:
        _assert_exact(out)
    assert not hasattr(f, "exact") and not hasattr(Poly(), "exact")


def test_wave_equation_builders_stay_exact(exact_fields):
    _, wave, f = exact_fields
    rng = random.Random(13)
    frame = DEFAULT_FRAME
    amp = random_rational_biquaternion(rng)
    _assert_exact(plane_wave_field(amp, ON_SHELL.k_tuple(), frame))
    ext = random_linear_potential(rng)
    _assert_exact(dirac_lanczos_residual(f, ext, ON_SHELL.m, frame))
    a, b = lanczos_plane_wave(ON_SHELL, frame, amp)
    for out in (a, b, *build_doublet(f, wave, frame)):
        _assert_exact(out)
    for out in proca_residual(f + f.plus(), Fraction(3)):
        _assert_exact(out)
    for comp in ext.component_fields():
        _assert_exact(comp)
    _assert_exact(dual_tensor(ext)(f))


def test_rs_operators_stay_exact(exact_fields):
    _, _, f = exact_fields
    ctx = RSContext(random_linear_potential(random.Random(14)), Fraction(2), DEFAULT_FRAME)
    for mu in range(4):
        _assert_exact(ctx.pi_lower(mu, f))
        _assert_exact(ctx.pi_upper(mu, f))
    _assert_exact(ctx.pibar(f))
    _assert_exact(ctx.pibar_star(f))
    for units in eps_units().values():
        assert all(u.is_exact() for u in units)


# -- no hand-threaded flag -------------------------------------------------------------


def _public_callables():
    for info in pkgutil.iter_modules(bqspin.__path__):
        module = importlib.import_module(f"bqspin.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_only_basis_elements_takes_a_backend():
    # an operator is its matrix: no callable takes a label or a slot flavor
    takers, labelled = [], []
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "exact" in params:
            takers.append(name)
        if {"label", "slot_flavor"} & params.keys():
            labelled.append(name)
    assert takers == ["bqspin.biquaternion.basis_elements"]
    assert labelled == []
