"""Batched exact sweeps: the Gaussian-integer array scalar and its draws.

A ``GaussianIntArray`` holds one exact Gaussian rational per sample, so the
unchanged biquaternion code checks an identity on a whole batch at once.
These tests tie the batch to the scalar path it replaces: the same draws,
the same products, and a sweep that fails when the product is wrong.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from bqspin import biquaternion, harness
from bqspin.biquaternion import (
    Biquaternion,
    random_rational_batch,
    random_rational_biquaternion,
)
from bqspin.errors import MixedBackend
from bqspin.scalars import GaussianIntArray, gr, is_exact

SWEEPS = ("algebra.associativity", "algebra.conjugation_laws",
          "algebra.norm_multiplicativity", "algebra.reversal")


def _scalar(c, i):
    """Sample i of a batch scalar as a Gaussian rational."""
    return gr(Fraction(int(c.re[i]), c.scale), Fraction(int(c.im[i]), c.scale))


def _sample(q, i):
    return Biquaternion(*(_scalar(c, i) for c in q.components()))


# -- the draws -------------------------------------------------------------------


class _WordCounting(random.Random):
    """A generator that counts the 32-bit words its draws read."""

    words = 0

    def getrandbits(self, k):
        self.words += (k + 31) // 32
        return super().getrandbits(k)


# 1200 elements of 16 draws read about 47 000 words: a dozen chunks at every span
@pytest.mark.parametrize("span", [0, 1, 2, 6, 9, 12, 2 ** 20])
@pytest.mark.parametrize("n, k", [(1, 1), (40, 2), (50, 3), (400, 3)])
def test_batch_sample_is_the_scalar_draw(n, k, span):
    rng = random.Random(7)
    batch = random_rational_batch(rng, n, k, span)
    scalar = random.Random(7)
    for i in range(n):
        for element in batch:
            assert _sample(element, i) == random_rational_biquaternion(scalar, span)
    # the batch consumed the generator exactly as the scalar draws did
    assert rng.getstate() == scalar.getstate()


def test_a_chunk_can_end_between_a_numerator_and_its_denominator():
    # the first chunk of the (400, 3, span 6) draw from seed 7 ends after an
    # odd count of draws, so the batch must carry a numerator into the next chunk
    rng = _WordCounting(7)
    done = 0
    while rng.words < biquaternion._CHUNK:
        if done % 2 == 0:
            rng.randint(-6, 6)
        else:
            rng.randint(1, 3)
        done += rng.words <= biquaternion._CHUNK
    assert done % 2 == 1


def test_the_draw_never_calls_randint(monkeypatch):
    want = random_rational_batch(random.Random(2), 30, 2, 9)

    def refuse(self, a, b):
        raise AssertionError("randint called")

    monkeypatch.setattr(random.Random, "randint", refuse)
    got = random_rational_batch(random.Random(2), 30, 2, 9)
    for g, w in zip(got, want):
        for cg, cw in zip(g.components(), w.components()):
            assert cg.re.tolist() == cw.re.tolist() and cg.im.tolist() == cw.im.tolist()


def test_a_span_wider_than_one_word_is_refused():
    # width 2**32 - 1 still fits in one 32-bit word
    rng, scalar = random.Random(4), random.Random(4)
    (q,) = random_rational_batch(rng, 3, 1, 2 ** 31 - 1)
    for i in range(3):
        assert _sample(q, i) == random_rational_biquaternion(scalar, 2 ** 31 - 1)
    assert rng.getstate() == scalar.getstate()
    for span in (2 ** 31, -1):
        with pytest.raises(ValueError):
            random_rational_batch(random.Random(4), 3, 1, span)


def test_batch_operations_agree_with_gaussian_rationals():
    a, b = random_rational_batch(random.Random(11), 100, 2)
    rng = random.Random(11)
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
        qa = random_rational_biquaternion(rng)
        qb = random_rational_biquaternion(rng)
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
    # the witness is the first sample on which the scalar check fails
    (row,) = harness.run("algebra.associativity", seed=0)
    rng = harness._rng_for(0, "algebra.associativity")
    for i in range(row.witness_payload["sample_index"] + 1):
        a, b, c = (random_rational_biquaternion(rng, span=9) for _ in range(3))
        assert ((a * b) * c - a * (b * c)).is_zero() == (i < row.witness_payload["sample_index"])


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
