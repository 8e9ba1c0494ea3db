"""Batched exact sweeps: the Gaussian-integer array scalar and its draws.

A ``GaussianIntArray`` holds one exact Gaussian rational per sample, so the
unchanged biquaternion code checks an identity on a whole batch at once.
These tests tie the batch to the scalar path it replaces: a draw with the
scalar draw's values and distribution that reads the generator only
through ``getrandbits``, the same products on every decoded sample, and a
sweep that fails when the product is wrong.
"""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bqspin import biquaternion, harness
from bqspin.biquaternion import Biquaternion, random_rational_batch
from bqspin.errors import MixedBackend
from bqspin.scalars import GaussianIntArray, gr, is_exact

SWEEPS = ("algebra.associativity", "algebra.conjugation_laws",
          "algebra.norm_multiplicativity", "algebra.reversal")


def _scalar(c, i):
    """Sample i of a batch scalar as a Gaussian rational."""
    return gr(Fraction(int(c.re[i]), c.scale), Fraction(int(c.im[i]), c.scale))


def _sample(q, i):
    return Biquaternion(*(_scalar(c, i) for c in q.components()))


def _parts(batch):
    """Every real and imaginary part of a batch, over the denominator 6."""
    return np.concatenate([part for q in batch for c in q.components() for part in (c.re, c.im)])


# -- the draws -------------------------------------------------------------------


def _scalar_values(span):
    """The parts random_rational_biquaternion(rng, span) can draw, over 6,
    each with the count of the (numerator, denominator) pairs that give it."""
    return Counter(num * 6 // den for num in range(-span, span + 1) for den in (1, 2, 3))


def _is_scalar_part(p, span):
    """p is 6 * num // den for a numerator num in [-span, span] and a
    denominator den in {1, 2, 3}."""
    return any(p % f == 0 and abs(p // f) <= span for f in (6, 3, 2))


# the (400, 3) batch needs 9600 pairs: at every span, several chunks of 4096 words
@pytest.mark.parametrize("span", [0, 1, 2, 6, 9, 12, 2 ** 20])
@pytest.mark.parametrize("n, k", [(1, 1), (40, 2), (50, 3), (400, 3)])
def test_batch_sample_is_the_scalar_draw(n, k, span):
    # every sample is a biquaternion that random_rational_biquaternion(rng,
    # span) can draw: k elements of n samples, each part a numerator in
    # [-span, span] over 1, 2 or 3, held over 6 within the kept bound
    batch = random_rational_batch(random.Random(7), n, k, span)
    assert len(batch) == k
    for q in batch:
        for c in q.components():
            assert c.scale == 6 and c._bound == 6 * span
            assert c.re.shape == c.im.shape == (n,)
    assert all(_is_scalar_part(p, span) for p in _parts(batch).tolist())


def _support_defects(draw):
    """How a large span-2 draw departs from the scalar draw's distribution.

    The 15 (numerator, denominator) pairs are equally likely; pairs with the
    same quotient, such as 0/1, 0/2 and 0/3, give one stored value, so each
    of the 11 values is expected in proportion to its count of pairs.  Every
    value must appear, and the chi-square statistic of the value counts
    (10 degrees of freedom) must stay below 29.59, its 0.1 % upper tail.
    """
    parts = _parts(draw(random.Random(2024), 2000, 3, 2))
    expected = _scalar_values(2)
    seen = Counter(parts.tolist())
    defects = [f"value {v}/6 never drawn" for v in expected if not seen[v]]
    defects += [f"value {v}/6 is not a draw" for v in seen if v not in expected]
    total = sum(expected.values())
    chi2 = sum((seen[v] - parts.size * m / total) ** 2 / (parts.size * m / total)
               for v, m in expected.items())
    if chi2 >= 29.59:
        defects.append(f"chi-square {chi2:.1f}")
    return defects


def test_the_draw_hits_every_pair_in_proportion():
    assert _support_defects(random_rational_batch) == []


def test_a_draw_that_never_yields_denominator_3_fails_the_support_test(monkeypatch):
    # denominator 3 read as 2: the factor 6 // 3 becomes 6 // 2
    monkeypatch.setattr(biquaternion, "_DEN_FACTOR", np.array([6, 3, 3], dtype=np.int64))
    defects = _support_defects(random_rational_batch)
    assert {"value -4/6 never drawn", "value -2/6 never drawn",
            "value 2/6 never drawn", "value 4/6 never drawn"} <= set(defects)
    assert defects[-1].startswith("chi-square")


def test_equal_seeds_give_equal_arrays():
    first, again, other = (_parts(random_rational_batch(random.Random(seed), 300, 2, 9))
                           for seed in (17, 17, 18))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


class _GetrandbitsOnly(random.Random):
    """A generator whose every draw but getrandbits raises."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the draw read the generator through more than getrandbits")

    randint = randrange = random = getstate = setstate = _refuse


def test_the_draw_reads_the_generator_only_through_getrandbits():
    got = _parts(random_rational_batch(_GetrandbitsOnly(2), 3000, 2, 9))
    want = _parts(random_rational_batch(random.Random(2), 3000, 2, 9))
    assert np.array_equal(got, want)


def test_a_span_wider_than_one_word_is_refused():
    # 3 * (2 * span + 1) values must fit in one 32-bit word
    widest = ((1 << 32) // 3 - 1) // 2
    assert 3 * (2 * widest + 1) <= 1 << 32 < 3 * (2 * widest + 3)
    (q,) = random_rational_batch(random.Random(4), 300, 1, widest)
    parts = _parts([q]).tolist()
    assert all(_is_scalar_part(p, widest) for p in parts)
    # the draws spread over the whole range
    assert max(parts) > 3 * widest and min(parts) < -3 * widest
    for span in (widest + 1, -1):
        with pytest.raises(ValueError):
            random_rational_batch(random.Random(4), 3, 1, span)


def test_batch_operations_agree_with_gaussian_rationals():
    a, b = random_rational_batch(random.Random(11), 100, 2)
    ops = {
        "product": lambda x, y: x * y,
        "bar": lambda x, y: x.bar(),
        "plus": lambda x, y: x.plus(),
        "star": lambda x, y: x.star(),
        "reverse": lambda x, y: x.reverse(),
    }
    batched = {name: op(a, b) for name, op in ops.items()}
    norm = a.norm()
    for i in range(100):
        qa, qb = _sample(a, i), _sample(b, i)
        for name, op in ops.items():
            assert _sample(batched[name], i) == op(qa, qb), (name, i)
        assert _scalar(norm, i) == qa.norm()


def test_is_zero_means_zero_on_every_sample():
    (a,) = random_rational_batch(random.Random(3), 10, 1)
    assert (a - a).is_zero()
    re = np.zeros(10, dtype=np.int64)
    re[7] = 1
    one_off = GaussianIntArray(re, np.zeros(10, dtype=np.int64), 6)
    zero = GaussianIntArray(np.zeros(10, dtype=np.int64), np.zeros(10, dtype=np.int64), 6)
    assert not Biquaternion(zero, zero, one_off, zero).is_zero()
    assert np.flatnonzero(one_off.nonzero()).tolist() == [7]


# -- the scalar ------------------------------------------------------------------


def test_headroom_guard_raises_before_int64_could_wrap():
    big = GaussianIntArray([2 ** 31, 3], [0, -(2 ** 31)])
    with pytest.raises(OverflowError):
        big * big
    with pytest.raises(OverflowError):
        GaussianIntArray([2 ** 61], [0]) + GaussianIntArray([-(2 ** 61)], [0])
    # below the guard the product is exact
    half = GaussianIntArray([2 ** 30], [2 ** 30])
    square = half * half
    assert square.re.tolist() == [0] and square.im.tolist() == [2 ** 61]
    # no entry is taken in at or beyond the guard
    for re in ([2 ** 62], [-(2 ** 62)], [2 ** 63], [2 ** 64], np.array([2 ** 63], dtype=np.uint64)):
        with pytest.raises(OverflowError):
            GaussianIntArray(re, [0])
        with pytest.raises(OverflowError):
            GaussianIntArray([0], re)
    assert GaussianIntArray([2 ** 62 - 1], [-(2 ** 62 - 1)]).re.tolist() == [2 ** 62 - 1]


def test_kept_bound_covers_every_entry():
    a, b, c = random_rational_batch(random.Random(13), 200, 3, span=9)
    for q in (a * b, (a * b) * c - a * (b * c), a.norm(), (a * b).reverse() - b.reverse() * a.reverse(),
              -a.bar() + a.star().plus()):
        for comp in (q.components() if isinstance(q, Biquaternion) else (q,)):
            assert max(np.abs(comp.re).max(), np.abs(comp.im).max()) <= comp._bound
    # a product can reach twice the product of its operands' bounds
    z = GaussianIntArray([5], [5]) * GaussianIntArray([5], [-5])
    assert z.re.tolist() == [50] and z._bound >= 50


def test_array_scalar_is_exact_and_never_mixes():
    (a,) = random_rational_batch(random.Random(5), 4, 1)
    c = a.w
    assert is_exact(c)
    assert a.is_exact()
    for other in (1j, 0.5, gr(1, 2)):
        with pytest.raises(MixedBackend):
            c + other
        with pytest.raises(MixedBackend):
            other + c
        with pytest.raises(MixedBackend):
            c * other
        with pytest.raises(MixedBackend):
            other * c
    with pytest.raises(ValueError):
        c + c * c  # scales 6 and 36: a sum must be homogeneous
    # only integer data is taken in, never truncated
    for re, im in (([0.5, 2.7], [0, 3]), ([1, 2], [0.0, 3.0]), ([1j], [0]), ([Fraction(1, 2)], [0])):
        with pytest.raises(TypeError):
            GaussianIntArray(re, im)
    for scale in (0, -6, 1.5, Fraction(6), True):
        with pytest.raises(ValueError):
            GaussianIntArray([1], [0], scale)


# -- the sweeps ------------------------------------------------------------------


def _sign_flipped_mul(self, other):
    # Biquaternion.__mul__ with "+ ay * bz" turned into "- ay * bz" in e1
    if isinstance(other, Biquaternion):
        aw, ax, ay, az = self.components()
        bw, bx, by, bz = other.components()
        return Biquaternion(
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw - ay * bz - az * by,
            aw * by + ay * bw + az * bx - ax * bz,
            aw * bz + az * bw + ax * by - ay * bx,
        )
    return Biquaternion(self.w * other, self.x * other, self.y * other, self.z * other)


def test_a_wrong_product_fails_every_batched_sweep(monkeypatch):
    monkeypatch.setattr(Biquaternion, "__mul__", _sign_flipped_mul)
    for sid in SWEEPS:
        (row,) = harness.run(sid, seed=0)
        assert row.status == "fail", sid
        assert set(row.witness_payload) == {"sample_index"}, sid
    # the witness is the first sample, in draw order, on which the scalar
    # check of the decoded sample fails
    (row,) = harness.run("algebra.associativity", seed=0)
    witness = row.witness_payload["sample_index"]
    rng = harness._rng_for(0, "algebra.associativity")
    for start in range(0, witness + 1, harness._BATCH):
        batch = random_rational_batch(rng, harness._BATCH, 3, span=9)
        for i in range(start, min(start + harness._BATCH, witness + 1)):
            a, b, c = (_sample(q, i - start) for q in batch)
            assert ((a * b) * c - a * (b * c)).is_zero() == (i < witness)


def test_sweep_witness_counts_samples_across_batches():
    target = harness._BATCH + 345
    seen = [0]

    def residuals(a):
        n = len(a.w.re)
        index = np.arange(seen[0], seen[0] + n)
        seen[0] += n
        return [GaussianIntArray(index >= target, np.zeros(n, dtype=np.int64))]

    check = harness.Check(0.0, "exact")
    harness._sweep(check, random.Random(0), 10000, 1, residuals)
    assert check.verdict(None) == ("fail", 1.0, {"sample_index": target})
    # no batch is drawn after the failing one
    assert seen[0] == 2 * harness._BATCH


def test_passing_sweeps_report_no_witness():
    for row in harness.run("algebra.*", seed=3):
        assert (row.status, row.max_residual, row.witness_payload) == ("pass", 0.0, None)
