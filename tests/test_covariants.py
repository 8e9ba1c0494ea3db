import math
import random
from fractions import Fraction

import numpy as np

from bqspin.biquaternion import (
    Biquaternion,
    DEFAULT_FRAME,
    random_rational_biquaternion,
    random_rational_frame,
    random_real_quaternion,
)
from bqspin.bilinears import (
    amplitude,
    covariance_characters,
    covariants,
    lagrangian_density,
    polar_current_divergence,
    transition_current_divergences,
)
from bqspin.fields import (
    ExternalField,
    Field,
    Momentum,
    lanczos_plane_wave,
    random_linear_potential,
    random_poly_field,
)
from bqspin.lorentz import complex_normals, make_lorentz, random_lorentz
from bqspin.scalars import gr
from bqspin.spin import rotation_factor


P = Momentum(Fraction(5), (Fraction(3), Fraction(0), Fraction(0)), Fraction(4))


def _const(q):
    return Field.constant(q)


def _rand_axis(rng):
    v = [rng.gauss(0, 1) for _ in range(3)]
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def test_singular_pair_annihilation():
    rng = random.Random(70)
    for frame in (DEFAULT_FRAME, random_rational_frame(rng)):
        for _ in range(20):
            l = random_real_quaternion(rng)
            r = random_real_quaternion(rng)
            a = _const(l * frame.sigma)
            b = _const(r * frame.sigma)
            cov = covariants(a, b)
            assert cov.s_p.is_zero() and cov.s_a.is_zero()
            assert cov.v_p.is_zero() and cov.v_a.is_zero()
        # also for arbitrary complex left factors
        l = random_rational_biquaternion(rng)
        r = random_rational_biquaternion(rng)
        cov = covariants(_const(l * frame.sigma), _const(r * frame.sigma))
        assert cov.s_p.is_zero() and cov.v_a.is_zero()


def test_unit_pair_values():
    one = Field.constant(Biquaternion.one())
    cov = covariants(one, one)
    two = Field.constant(Biquaternion.scalar(gr(2)))
    assert cov.polar.equal(two)
    assert cov.axial.is_zero()
    assert cov.s_p.equal(two)
    assert cov.six.is_zero()


def test_four_vector_character_algebraic():
    rng = random.Random(71)
    for _ in range(20):
        a = _const(random_rational_biquaternion(rng))
        b = _const(random_rational_biquaternion(rng))
        cov = covariants(a, b)
        # polar current and v_p are bireal valued; scalars have no vector part
        assert (cov.polar.plus() - cov.polar).is_zero()
        assert (cov.v_p.plus() - cov.v_p).is_zero()
        assert (cov.v_a.plus() + cov.v_a).is_zero()
        assert cov.s_p.vector_part().is_zero()
        assert cov.s_a.vector_part().is_zero()


def test_polar_current_conserved_on_solutions_with_coupling_correction():
    rng = random.Random(72)
    # free plane-wave solutions: conserved outright
    a, b = lanczos_plane_wave(P, DEFAULT_FRAME, random_rational_biquaternion(rng))
    lhs, corr = polar_current_divergence(a, b, ExternalField.zero(), P.m)
    assert corr.is_zero()
    assert lhs.is_zero()
    # arbitrary pair, coupled: divergence equals the residual correction
    ext = random_linear_potential(rng)
    fa, fb = random_poly_field(rng), random_poly_field(rng)
    lhs, corr = polar_current_divergence(fa, fb, ext, Fraction(3))
    assert (lhs - corr).is_zero()


def test_transition_divergence_identities_exact():
    rng = random.Random(73)
    ext = random_linear_potential(rng)
    m = Fraction(2)
    for _ in range(5):
        a, b = random_poly_field(rng), random_poly_field(rng)
        out = transition_current_divergences(a, b, ext, m)
        assert out["vp_residual"].is_zero()
        assert out["va_residual"].is_zero()


def test_transition_divergence_zero_inputs():
    out = transition_current_divergences(Field.zero(), Field.zero(),
                                         ExternalField.zero(), Fraction(1))
    assert out["vp_lhs"].is_zero() and out["va_lhs"].is_zero()
    assert out["correction_terms"][0].is_zero()


def test_free_solution_divergences_vanish_outright():
    rng = random.Random(74)
    a0 = random_rational_biquaternion(rng)
    a, b = lanczos_plane_wave(P, DEFAULT_FRAME, a0)
    out = transition_current_divergences(a, b, ExternalField.zero(), P.m)
    assert out["vp_lhs"].is_zero()
    # the axial divergence equals 2 m Re(s_p) on solutions; verify directly
    cov = covariants(a, b)
    expected = (cov.s_p + cov.s_p.star()).scale(P.m)
    assert out["va_lhs"].equal(expected)


def test_lagrangian_density():
    rng = random.Random(75)
    # vanishes identically on exact solutions
    a, b = lanczos_plane_wave(P, DEFAULT_FRAME, random_rational_biquaternion(rng))
    assert lagrangian_density(a, b, ExternalField.zero(), P.m).is_zero()
    # zero on zero input
    assert lagrangian_density(Field.zero(), Field.zero(),
                              ExternalField.zero(), Fraction(1)).is_zero()
    # generically nonzero on non-solutions
    ext = random_linear_potential(rng)
    fa, fb = random_poly_field(rng), random_poly_field(rng)
    val = lagrangian_density(fa, fb, ext, Fraction(3))
    assert not val.is_zero()
    # always real-valued
    assert (val - val.star()).is_zero()


def test_amplitude_values_and_invariance():
    one = Biquaternion.scalar(1.0)
    assert abs(complex(amplitude(one, one)) - 1.0) < 1e-15
    f = DEFAULT_FRAME
    sg = f.sigma.to_float()
    sb = f.sigma_bar.to_float()
    # frozen fixture: sigma_bar is bireal, so <sigma sigma_bar.plus()> is
    # the scalar part of the vanishing product sigma * sigma_bar
    assert abs(complex(amplitude(sg, sb))) < 1e-15
    # and the same-ideal pairing gives <sigma sigma.plus()> = <sigma> = 1/2
    assert abs(complex(amplitude(sg, sg)) - 0.5) < 1e-15
    rng = random.Random(76)
    for _ in range(10):
        axis, theta = _rand_axis(rng), rng.uniform(-math.pi, math.pi)
        L = make_lorentz(axis, theta, _rand_axis(rng), rng.uniform(-1.5, 1.5))
        a0 = Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
        b0 = Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
        r = rotation_factor(axis, theta)
        t = amplitude(L * a0 * r * r, L.star() * b0 * r * r)
        assert abs(complex(t - amplitude(a0, b0))) < 1e-12


_COVARIANTS = ("polar", "axial", "six", "inv", "s_p", "s_a", "v_p", "v_a")


def test_covariant_set_runs_on_fields_and_on_biquaternions_alike():
    # covariance_characters relies on this: it runs CovariantSet on float
    # Biquaternions, since a Field is exact
    rng = random.Random(79)
    for _ in range(5):
        a, b = random_rational_biquaternion(rng), random_rational_biquaternion(rng)
        on_fields, on_values = covariants(_const(a), _const(b)), covariants(a, b)
        for name in _COVARIANTS:
            value = getattr(on_values, name)
            assert isinstance(value, Biquaternion), name
            assert getattr(on_fields, name).equal(_const(value)), name


def test_covariance_characters():
    rng = random.Random(77)
    values = [(Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))),
               Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))))
              for _ in range(6)]
    out = covariance_characters(random_lorentz(np.random.default_rng(77), 5), DEFAULT_FRAME, values)
    for key, worst in out.items():
        assert worst < 1e-12, (key, worst)


def test_covariance_characters_identity():
    rng = random.Random(78)
    ident = make_lorentz((0, 0, 1), 0.0, (0, 0, 1), 0.0)
    values = [(Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))),
               Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))))]
    out = covariance_characters(ident, DEFAULT_FRAME, values)
    assert all(v < 1e-14 for v in out.values())


def test_a_nan_value_after_the_first_makes_every_character_nan():
    rng = random.Random(79)

    def value():
        return Biquaternion(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))

    nan = float("nan")
    poisoned = Biquaternion(complex(nan, nan), complex(nan, nan), complex(nan, nan),
                            complex(nan, nan))
    values = [(value(), value()), (poisoned, poisoned), (value(), value())]
    out = covariance_characters(random_lorentz(np.random.default_rng(79), 1), DEFAULT_FRAME,
                                values)
    assert {key for key, worst in out.items() if not math.isnan(worst)} == set()


def _character_stacks(seed):
    """5 sampled L with components of shape (5, 1) and one pair of values
    with components of shape (5,)."""
    gen = np.random.default_rng(seed)
    a, b = (Biquaternion(*complex_normals(gen, (4, 5))) for _ in range(2))
    return _entry(random_lorentz(gen, 5), slice(None), None), a, b


def _entry(q, *index):
    return Biquaternion(*(c[index] for c in q.components()))


def test_stacked_characters_are_the_characters_of_the_single_values():
    # the single L and values are one-entry slices of the stacks, so that
    # both sides round as numpy does: the characters are rounding errors,
    # and CPython's complex product rounds differently from numpy's
    L, a, b = _character_stacks(80)
    stacked = covariance_characters(L, DEFAULT_FRAME, [(a, b)])
    values = [(_entry(a, slice(j, j + 1)), _entry(b, slice(j, j + 1))) for j in range(5)]
    single = [covariance_characters(_entry(L, i), DEFAULT_FRAME, values) for i in range(5)]
    for key, worst in stacked.items():
        assert 0.0 < worst < 1e-12, key
        assert math.isclose(worst, max(s[key] for s in single), rel_tol=1e-15), key


def test_a_nan_in_one_entry_of_a_stack_makes_every_character_nan():
    L, a, b = _character_stacks(81)
    x = a.x.copy()
    x[3] = complex(float("nan"), 0.0)
    poisoned = Biquaternion(a.w, x, a.y, a.z)
    out = covariance_characters(L, DEFAULT_FRAME, [(poisoned, b)])
    assert {key for key, worst in out.items() if not math.isnan(worst)} == set()
