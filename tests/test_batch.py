"""Exact draws and batched exact sweeps: one draw, its rows and batches,
and the Gaussian-integer array scalar.

Every exact sample is decoded by one draw from 32-bit ``getrandbits``
words: ``random_rational_rows`` gives coefficient rows of ints over 6,
``random_rational_biquaternion`` is its first row, ``random_rational_batch``
lays its rows out as batches, and ``random_poly_field`` puts its rows
straight into a Poly.  These tests check the draw's support and
distribution, that the three forms agree, that exponents are uniform over
the admissible ones, and that neither the field draw nor the rank of an
integer matrix builds a Fraction.  A ``GaussianIntArray`` holds one exact
Gaussian rational per sample, so the unchanged biquaternion code checks an
identity on a whole batch at once: the batch gives the same products on
every decoded sample, and a sweep fails when the product is wrong.  The
Peirce roundtrip runs the same way, on a frame whose members are one-entry
batches.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bqspin import biquaternion, exactlinalg, fields, harness, rs
from bqspin.biquaternion import (
    DEFAULT_FRAME,
    Biquaternion,
    _batch_frame,
    _element,
    peirce_compose,
    peirce_decompose,
    random_rational_batch,
    random_rational_biquaternion,
    random_rational_frame,
    random_rational_rows,
    random_real_quaternion,
)
from bqspin.errors import MixedBackend
from bqspin.fields import random_poly_field
from bqspin.scalars import GaussianIntArray, gr, is_exact
from test_harness import _rebind_everywhere

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


def _batch_parts(rng):
    return _parts(random_rational_batch(rng, 2000, 3, 2))


def _row_parts(rng):
    return np.array(random_rational_rows(rng, 6000, 2)).ravel()


def _support_defects(draw):
    """How a large span-2 draw departs from the scalar draw's distribution.

    ``draw(rng)`` gives the 48000 parts of 6000 span-2 biquaternions.  The
    15 (numerator, denominator) pairs are equally likely; pairs with the
    same quotient, such as 0/1, 0/2 and 0/3, give one stored value, so each
    of the 11 values is expected in proportion to its count of pairs.  Every
    value must appear, and the chi-square statistic of the value counts
    (10 degrees of freedom) must stay below 29.59, its 0.1 % upper tail.
    """
    parts = draw(random.Random(2024))
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
    for draw in (_batch_parts, _row_parts):
        assert _support_defects(draw) == [], draw


def test_a_draw_that_never_yields_denominator_3_fails_the_support_test(monkeypatch):
    # denominator 3 read as 2: the factor 6 // 3 becomes 6 // 2
    monkeypatch.setattr(biquaternion, "_DEN_FACTOR", np.array([6, 3, 3], dtype=np.int64))
    for draw in (_batch_parts, _row_parts):
        defects = _support_defects(draw)
        assert {"value -4/6 never drawn", "value -2/6 never drawn",
                "value 2/6 never drawn", "value 4/6 never drawn"} <= set(defects), draw
        assert defects[-1].startswith("chi-square"), draw


# 1000 rows need 8000 parts: more than one pass of 4096 words at every span
@pytest.mark.parametrize("span", [0, 2, 4, 6, 9])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 31])
def test_the_three_draws_are_one_draw(seed, span):
    # the first rows of a draw do not depend on how many rows it makes,
    # random_rational_biquaternion is row 0 and a batch lays the rows out
    # sample by sample, element by element
    rows = random_rational_rows(random.Random(seed), 1000, span)
    assert random_rational_rows(random.Random(seed), 7, span) == rows[:7]
    assert all(type(x) is int for row in rows for x in row)
    assert random_rational_biquaternion(random.Random(seed), span) == \
        biquaternion._element(rows[0], 6)
    a, b = random_rational_batch(random.Random(seed), 500, 2, span)
    for i in (0, 1, 250, 499):
        assert _sample(a, i) == biquaternion._element(rows[2 * i], 6)
        assert _sample(b, i) == biquaternion._element(rows[2 * i + 1], 6)


def test_a_real_quaternion_is_four_parts_of_the_draw():
    parts = biquaternion._draw_parts(random.Random(9), 4, 4).tolist()
    q = random_real_quaternion(random.Random(9), 4)
    assert q == Biquaternion(*(gr(Fraction(p, 6)) for p in parts))


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
    for draw in (lambda rng: random_rational_rows(rng, 40, 4), random_rational_biquaternion,
                 random_real_quaternion):
        assert draw(_GetrandbitsOnly(5)) == draw(random.Random(5))


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


_WIDEST = ((1 << 32) // 3 - 1) // 2

# sha256 of the little-endian int64 bytes of _draw_parts(random.Random(span +
# count), count, span).  A count below 3 * (2*span + 1) decodes each kept value
# on its own, a count at or above it indexes the decoded table; 9000 parts take
# at least three passes of 4096 words.  A change to the decode, the words read
# or the draw order changes these digests, and with them every exact sample.
_DRAW_DIGESTS = {
    (0, 2): "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    (0, 3): "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
    (0, 9000): "36438cefa7206dac9ef150b613418d5912c3eb69ed4e0084798602985b43470d",
    (2, 14): "487ee3a6965e8e2065b02c63bb96d7d04924fe5677fe96e809f7f88ef46e280f",
    (2, 15): "6f25bea84b9642884e00c52a30f2149734f45fe3da3a1592cdef8a255d5d7cb1",
    (2, 9000): "5f5df959b9dfd7cd686b64db274c66dad5ed40bc2639971045fb0c8a718d2932",
    (4, 26): "af5736114cbf1f49453fcb6468529d75c3f50c4d49a7b109a09ccb6743237652",
    (4, 27): "ca43cf236f8fd2889f0e49963026f10660b12eecbc54643dbd32752db3ac5340",
    (4, 9000): "0f9f1448de195b2839ca02d0230c3190ba98d8a2bddfa4c60d54ff4a957e9e2c",
    (6, 38): "563c56b52aef89b7d064032914e9517d7ef9c93c16e6dabfa750c09f05181d7a",
    (6, 39): "b3e1a89b36285f5f6b6c6ffdc76c622be02cfa946478481b964188b7b828dbbc",
    (6, 9000): "527d9228870cd3a560bbc0f84c2156a03d4b77ef2a0f0131e0b36b110ff2b405",
    (9, 56): "725b2e012530ca81d629cbee93f6ebee6357002926d8c8a3c8d37340af912cac",
    (9, 57): "c0718973312bd85df841f9feee4a16bd7348f675c1bc2dbc78aff536f4f6079a",
    (9, 9000): "18475efae2a1334f0759c3c9bde57f079f93ed4691de90853ed4622513c56aed",
    (12, 74): "8ed35a07a064fa3a9c1d2b7b5668da41124f20141e9ff1363fdb25b54f258ae1",
    (12, 75): "0ed4bfeb7dcb41ce75e65dd4d0457391fe42c5f2e1d4f045738c313c5acc6b55",
    (12, 9000): "c060023155800e6592194adfb2c60fc51c9fac50260a18bed193c16eaa0ef7ab",
    (2 ** 20, 7): "808399b0a9542cb97dc949ef8160e3048f1c43f39a7c507b498135d2504f82bc",
    (2 ** 20, 9000): "2444a1ae4866c73680fde6bc15ac681273ba5073bb9bcd5e41743eaa475fc089",
    (_WIDEST, 7): "cf5312870ba7f0ae87ebb1b5c70a9519b7f531fe6764e425e344c36225a63cad",
    (_WIDEST, 9000): "709a6f8c0062041cd8740cbadfb5086348b5aa1a3a016dd0a06ae5b768da8102",
}


@pytest.mark.parametrize("span, count", sorted(_DRAW_DIGESTS))
def test_the_draw_is_pinned(span, count):
    parts = biquaternion._draw_parts(random.Random(span + count), count, span)
    assert parts.dtype == np.int64 and parts.shape == (count,)
    assert hashlib.sha256(parts.astype("<i8").tobytes()).hexdigest() == \
        _DRAW_DIGESTS[span, count]


def test_the_table_and_the_direct_decode_agree():
    # both routes of _draw_parts apply _decode: to every value, or to the kept ones
    for span in (0, 2, 9, 2 ** 20, _WIDEST):
        pairs = 3 * (2 * span + 1)
        v = np.array(sorted({0, 1, pairs // 2, pairs - 2, pairs - 1}), dtype=np.uint32)
        want = [(int(x) % (2 * span + 1) - span) * 6 // (int(x) // (2 * span + 1) + 1)
                for x in v]
        assert biquaternion._decode(v, span).tolist() == want
    table = biquaternion._decode(np.arange(15), 2)
    v = np.array([14, 0, 7, 7, 3], dtype=np.uint32)
    assert np.array_equal(np.take(table, v), biquaternion._decode(v, 2))


@pytest.mark.parametrize("n, k", [(1, 1), (37, 2), (2000, 3)])
def test_every_batch_component_is_contiguous_int64(n, k):
    for q in random_rational_batch(random.Random(n), n, k, 9):
        for c in q.components():
            for part in (c.re, c.im):
                assert part.dtype == np.int64 and part.shape == (n,)
                assert part.flags.c_contiguous


def _exponent_defects(exps, max_deg, chi2_bound):
    """How drawn exponents depart from the uniform draw over the exponents
    of degree at most max_deg: an exponent above it, an admissible exponent
    never drawn, or a chi-square statistic at or above its 0.1 % tail."""
    admissible = fields._exponents(max_deg)
    seen = Counter(exps)
    defects = [f"{e} exceeds degree {max_deg}" for e in seen if sum(e) > max_deg]
    defects += [f"{e} never drawn" for e in admissible if not seen[e]]
    mean = len(exps) / len(admissible)
    chi2 = sum((seen[e] - mean) ** 2 / mean for e in admissible)
    if chi2 >= chi2_bound:
        defects.append(f"chi-square {chi2:.1f}")
    return defects


def _one_term_exponents(rng, n, max_deg):
    """The exponent of each of n one-term fields."""
    return [e for _ in range(n) for e in random_poly_field(rng, 1, max_deg).modes[(0, 0, 0, 0)][0]._rows]


def test_poly_field_exponents_are_uniform_below_the_degree():
    # 15 exponents of degree at most 2 (14 degrees of freedom, 0.1 % tail
    # 36.12) and 35 of degree at most 3 (34, 65.25)
    rng = random.Random(77)
    assert _exponent_defects(_one_term_exponents(rng, 3000, 2), 2, 36.12) == []
    assert _exponent_defects(_one_term_exponents(rng, 7000, 3), 3, 65.25) == []
    for max_deg in range(5):
        for _ in range(50):
            f = random_poly_field(rng, 4, max_deg)
            assert all(sum(e) <= max_deg for e in f.modes[(0, 0, 0, 0)][0]._rows)
    assert random_poly_field(rng, 0).is_zero()


def test_a_degree_by_degree_exponent_draw_fails_the_uniformity_test(monkeypatch):
    # each degree equally likely: the 10 exponents of degree 2 are drawn
    # as often as the 1 of degree 0 and the 4 of degree 1 together
    by_degree = [[e for e in fields._exponents(2) if sum(e) == d] for d in range(3)]

    class Skewed(random.Random):
        def randrange(self, n):
            group = by_degree[super().randrange(3)]
            return fields._exponents(2).index(group[super().randrange(len(group))])

    defects = _exponent_defects(_one_term_exponents(Skewed(77), 3000, 2), 2, 36.12)
    assert defects and defects[-1].startswith("chi-square")


def test_field_draws_and_integer_ranks_build_no_fraction(monkeypatch):
    # the constraint-counting symbol is all ints, and its rank, like the
    # draw of a polynomial field, takes the integers as they are
    m = harness.ONSHELL.m
    dl, alg, diff = rs._free_symbol(harness.ONSHELL, m, biquaternion.DEFAULT_FRAME)
    assert all(type(x) is int for row in dl + alg + diff for x in row)

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2)
    assert [exactlinalg.rank(rows) for rows in (dl, alg, diff, alg + diff)] == [16, 8, 8, 16]
    assert not random_poly_field(random.Random(3), n_terms=6, max_deg=4).is_zero()


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


# -- the Peirce roundtrip ----------------------------------------------------------


def test_a_batch_frame_is_the_frame_within_its_bound():
    # every member is the frame's own, one entry over one scale, within the
    # kept bound; decomposing a batch on it gives each sample's coordinates,
    # and recomposing gives the batch back
    rng = random.Random(21)
    (q,) = random_rational_batch(rng, 30, 1)
    for f in [DEFAULT_FRAME] + [random_rational_frame(rng) for _ in range(30)]:
        fb = _batch_frame(f)
        d = fb.sigma.w.scale
        for name in ("nu", "tau", "sigma", "sigma_bar", "tau_sigma", "tau_sigma_bar"):
            batch = getattr(fb, name)
            assert _sample(batch, 0) == getattr(f, name), name
            for c in batch.components():
                assert c.scale == d and c.re.shape == c.im.shape == (1,)
                assert max(abs(int(c.re[0])), abs(int(c.im[0]))) <= c._bound
        coords = peirce_decompose(q, fb)
        back = peirce_compose(coords, fb)
        for i in (0, 17, 29):
            qi = _sample(q, i)
            assert tuple(_scalar(x, i) for x in coords) == peirce_decompose(qi, f)
            assert _sample(back, i) == qi
    assert _batch_frame(DEFAULT_FRAME).sigma.w.scale == 2


def _swapped_nilpotents(coords, f):
    # peirce_compose with tau*sigma and tau*sigma.bar() exchanged
    x1, x2, x3, x4 = coords
    return (f.sigma * x1 + f.tau_sigma_bar * x2
            + f.sigma_bar * x3 + f.tau_sigma * x4)


def _first_failing(qs, f):
    """The index of the first exact element whose scalar roundtrip on f,
    under the swapped composition, does not give it back."""
    return next(i for i, q in enumerate(qs) if _swapped_nilpotents(peirce_decompose(q, f), f) != q)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_wrong_peirce_compose_fails_the_roundtrip(monkeypatch, seed):
    _rebind_everywhere(monkeypatch, peirce_compose, _swapped_nilpotents)
    (row,) = harness.run("peirce.roundtrip", seed=seed)
    assert row.status == "fail"
    # the witness is the first sample, in draw order, on which the scalar
    # roundtrip of the decoded sample fails; the random frame is drawn
    # before the samples of either frame
    rng = harness._rng_for(seed, "peirce.roundtrip")
    random_rational_frame(rng)
    qs = [_element(r, 6) for r in random_rational_rows(rng, 100)]
    assert row.witness_payload == {"sample_index": _first_failing(qs, DEFAULT_FRAME)}


def test_the_unit_rows_alone_fail_a_wrong_peirce_compose(monkeypatch):
    # with the sampled check switched off, the claim on the eight unit
    # rows still fails, at the first unit whose scalar roundtrip fails
    _rebind_everywhere(monkeypatch, peirce_compose, _swapped_nilpotents)
    monkeypatch.setattr(harness, "_sweep", lambda *args, **kwargs: None)
    (row,) = harness.run("peirce.roundtrip", seed=0)
    units = [_element(tuple(int(i == j) for j in range(8)), 1) for i in range(8)]
    assert row.status == "fail"
    assert row.witness_payload == {"unit_row": _first_failing(units, DEFAULT_FRAME)}
