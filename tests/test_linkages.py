"""Per-instance Betti computation.

Core claims exercised here:
  * anchored short/median subset counts match a brute-force enumeration oracle
    on random rational vectors, and match the Gray-code oracle size by size
    (property test up to 14 bars, one small-integer vector of 20 bars);
  * equilateral and near-degenerate closed forms come out exactly;
  * the middle degree double-counts its short subsets (pentagon profile (1,8,1));
  * results are invariant under permutation, positive scaling, and the choice
    of maximal anchor;
  * the anchor is the first longest bar, however the tied lengths are written;
  * genericity detection is exact and agrees with "no median counts";
  * more than MAX_BARS bars, or half sums past MAX_SUM_BITS bits, are
    refused at once instead of hanging or running out of memory.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkage_betti import DomainError, LengthVector, betti, betti_profile, is_generic
from linkage_betti import linkages
from linkage_betti.linkages import MAX_BARS, _anchored_class_counts, _checked_weights
from oracles import brute_profile, gray_code_class_counts


def _random_vector(rnd: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rnd.randint(1, 12), rnd.randint(1, 4)) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_anchor_is_the_first_longest_bar(data):
    # two or more longest bars, each bar written over its own multiple of its
    # denominator: "1/2" and "2/4" tie next to "1/3"
    top = Fraction(data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6)))
    shares = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=7))
    for _ in range(2):
        shares.insert(data.draw(st.integers(0, len(shares))), 9)
    lengths = [top * Fraction(s, 9) for s in shares]
    scales = data.draw(st.lists(st.integers(1, 5), min_size=len(lengths), max_size=len(lengths)))
    written = [f"{l.numerator * k}/{l.denominator * k}" for l, k in zip(lengths, scales)]
    assert betti_profile(LengthVector.of(*written)).anchor == 1 + lengths.index(max(lengths))


def test_is_generic_examples():
    assert is_generic(LengthVector.of(1, 1, 1))
    assert not is_generic(LengthVector.of(1, 1, 2))
    assert not is_generic(LengthVector.of(1, 2, 3, 4))


def test_is_generic_matches_exhaustive_signed_sums():
    rnd = random.Random(101)
    for _ in range(300):
        n = rnd.randint(1, 10)
        ell = _random_vector(rnd, n)
        naive = all(
            sum(s * l for s, l in zip(signs, ell)) != 0
            for signs in _sign_patterns(n)
        )
        assert is_generic(LengthVector(tuple(ell))) == naive


def _sign_patterns(n: int):
    for mask in range(1 << n):
        yield [1 if mask >> i & 1 else -1 for i in range(n)]


def _count_short(ell: LengthVector, cardinality: int, anchor: int) -> int:
    return _anchored_class_counts(_checked_weights(ell), anchor)[0][cardinality]


def _count_median(ell: LengthVector, cardinality: int, anchor: int) -> int:
    return _anchored_class_counts(_checked_weights(ell), anchor)[1][cardinality]


def test_count_short_examples():
    assert _count_short(LengthVector.of(1, 1, 1), 1, 1) == 1
    assert _count_short(LengthVector.of(3, 1, 1, 1), 1, 1) == 0
    assert _count_short(LengthVector.of(1, 1, 1, 1, 1), 2, 1) == 4
    assert _count_short(LengthVector.of(1, 2, 3), 0, 1) == 0


def test_count_median_examples():
    assert _count_median(LengthVector.of(3, 1, 1, 1), 1, 1) == 1
    assert _count_median(LengthVector.of(1, 1, 1), 1, 1) == 0
    assert _count_median(LengthVector.of(1, 1, 1, 1), 2, 1) == 3


def test_short_median_long_partition_counts():
    rnd = random.Random(55)
    import itertools

    for _ in range(60):
        n = rnd.randint(3, 8)
        ell = _random_vector(rnd, n)
        lv = LengthVector(tuple(ell))
        total = sum(ell)
        anchor = betti_profile(lv).anchor
        for cardinality in range(1, n + 1):
            longs = 0
            for subset in itertools.combinations(range(1, n + 1), cardinality):
                if anchor not in subset:
                    continue
                if 2 * sum(ell[i - 1] for i in subset) > total:
                    longs += 1
            assert (
                _count_short(lv, cardinality, anchor)
                + _count_median(lv, cardinality, anchor)
                + longs
                == math.comb(n - 1, cardinality - 1)
            )


def test_betti_equilateral_low_degrees():
    for n in (7, 9, 11):
        ones = LengthVector.of(*[1] * n)
        for p in range(n - 2):
            if 2 * p < n - 3:
                assert betti(ones, p) == math.comb(n - 1, p)


def test_betti_near_degenerate():
    eps = Fraction(1, 100)
    ell = LengthVector.of(1, 1, 1, *[eps] * 5)
    for p in (0, 1, 2):
        assert betti(ell, p) == 2 * math.comb(5, p)


def test_betti_small_hand_counts():
    assert betti(LengthVector.of(3, 1, 1, 1), 0) == 1
    assert betti(LengthVector.of(1, 1, 1), 0) == 2


def test_betti_degree_validation():
    ell = LengthVector.of(1, 1, 1, 1)
    with pytest.raises(DomainError):
        betti(ell, -1)
    with pytest.raises(DomainError):
        betti(ell, 2)
    with pytest.raises(DomainError):
        betti(LengthVector.of(1, 1), 0)


def test_profile_pentagon_doubles_middle_degree():
    profile = betti_profile(LengthVector.of(1, 1, 1, 1, 1))
    assert profile.values == (1, 8, 1)
    assert profile.short_counts == (1, 4, 0)
    assert profile.median_counts == (0, 0, 0)
    assert profile.values == brute_profile([Fraction(1)] * 5)


def test_profile_equilateral_nonagon_prefix():
    profile = betti_profile(LengthVector.of(*[1] * 9))
    assert profile.values[:3] == (1, 8, 28)


def test_profile_empty_space():
    profile = betti_profile(LengthVector.of(10, 1, 1, 1))
    assert profile.values == (0, 0)
    assert not any(profile.values)


def test_profile_rebuilds_from_counts():
    rnd = random.Random(7)
    for _ in range(100):
        n = rnd.randint(3, 9)
        profile = betti_profile(LengthVector(tuple(_random_vector(rnd, n))))
        for p, value in enumerate(profile.values):
            assert value == (
                profile.short_counts[p]
                + profile.median_counts[p]
                + profile.short_counts[n - 3 - p]
            )


def test_profile_matches_brute_oracle():
    rnd = random.Random(7001)
    for _ in range(200):
        n = rnd.randint(3, 9)
        ell = _random_vector(rnd, n)
        assert betti_profile(LengthVector(tuple(ell))).values == brute_profile(ell)


def test_permutation_invariance():
    rnd = random.Random(13)
    for _ in range(100):
        n = rnd.randint(3, 8)
        ell = _random_vector(rnd, n)
        shuffled = ell[:]
        rnd.shuffle(shuffled)
        assert (
            betti_profile(LengthVector(tuple(ell))).values
            == betti_profile(LengthVector(tuple(shuffled))).values
        )


def test_scaling_invariance():
    rnd = random.Random(17)
    for _ in range(60):
        n = rnd.randint(3, 8)
        lv = LengthVector(tuple(_random_vector(rnd, n)))
        factor = Fraction(rnd.randint(1, 9), rnd.randint(1, 9))
        scaled = LengthVector(tuple(l * factor for l in lv.lengths))
        assert betti_profile(lv).values == betti_profile(scaled).values


def test_anchor_choice_is_irrelevant_on_ties():
    rnd = random.Random(23)
    for _ in range(60):
        n = rnd.randint(3, 7)
        ell = _random_vector(rnd, n)
        peak = max(ell)
        for i in rnd.sample(range(n), rnd.randint(1, n)):
            ell[i] = peak
        lv = LengthVector(tuple(ell))
        maximal = [i + 1 for i, l in enumerate(ell) if l == peak]
        for p in range(n - 2):
            results = set()
            for a in maximal:
                short, median = _anchored_class_counts(_checked_weights(lv), a)
                results.add(short[p + 1] + median[p + 1] + short[n - 2 - p])
            assert len(results) == 1
            assert results.pop() == betti(lv, p)


def test_generic_vectors_have_no_medians():
    rnd = random.Random(29)
    found = 0
    while found < 50:
        n = rnd.randint(3, 8)
        lv = LengthVector(tuple(_random_vector(rnd, n)))
        if not is_generic(lv):
            continue
        found += 1
        assert all(m == 0 for m in betti_profile(lv).median_counts)


def test_no_median_counts_iff_generic():
    rnd = random.Random(31)
    vectors = [_random_vector(rnd, rnd.randint(3, 10)) for _ in range(100)]
    vectors += [[Fraction(rnd.randint(1, 9), rnd.randint(1, 4))] * n for n in range(3, 12)]
    vectors += [
        [Fraction(rnd.randint(1, 4)) for _ in range(rnd.randint(3, 10))]
        for _ in range(100)
    ]
    seen = set()
    for ell in vectors:
        lv = LengthVector(tuple(ell))
        generic = is_generic(lv)
        seen.add(generic)
        assert (not any(betti_profile(lv).median_counts)) == generic
    assert seen == {True, False}


_positive_rationals = st.builds(Fraction, st.integers(1, 60), st.integers(1, 6))


@st.composite
def _length_vectors(draw) -> list[Fraction]:
    """3-14 bars: random rationals, equilateral, small integers (many median
    subsets) or small integers with a tied maximum."""
    n = draw(st.integers(3, 14))
    kind = draw(st.sampled_from(("rational", "equilateral", "small", "tied")))
    if kind == "rational":
        return draw(st.lists(_positive_rationals, min_size=n, max_size=n))
    if kind == "equilateral":
        return [draw(_positive_rationals)] * n
    lengths = draw(st.lists(st.integers(1, 4).map(Fraction), min_size=n, max_size=n))
    if kind == "tied":
        top = max(lengths) + draw(st.integers(0, 2))
        for i in draw(st.sets(st.integers(0, n - 1), min_size=2)):
            lengths[i] = top
    return lengths


@settings(max_examples=120, deadline=None)
@given(lengths=_length_vectors(), data=st.data())
def test_counts_match_gray_code_oracle(lengths, data):
    lv = LengthVector(tuple(lengths))
    n = lv.n
    profile = betti_profile(lv)
    short, median = gray_code_class_counts(lengths, profile.anchor)
    assert profile.short_counts == tuple(short[1 : n - 1])
    assert profile.median_counts == tuple(median[1 : n - 1])
    anchor = data.draw(st.integers(1, n), label="anchor")
    short, median = gray_code_class_counts(lengths, anchor)
    assert _anchored_class_counts(_checked_weights(lv), anchor) == (short, median)


def test_counts_match_gray_code_oracle_at_20_bars():
    rnd = random.Random(2020)
    lengths = [Fraction(rnd.randint(1, 20)) for _ in range(20)]
    if sum(lengths) % 2:
        lengths[0] += 1
    profile = betti_profile(LengthVector(tuple(lengths)))
    short, median = gray_code_class_counts(lengths, profile.anchor)
    assert profile.short_counts == tuple(short[1:19])
    assert profile.median_counts == tuple(median[1:19])
    assert any(profile.median_counts)


def test_bar_count_ceiling_fails_fast():
    # distinct powers of two: generic with an even total, the costliest case
    lv = LengthVector.of(*(2**i for i in range(1, MAX_BARS + 2)))
    calls = (
        betti_profile,
        lambda ell: betti(ell, 0),
        is_generic,
    )
    start = time.perf_counter()
    for call in calls:
        with pytest.raises(DomainError, match="limit"):
            call(lv)
    assert time.perf_counter() - start < 0.25


def test_subset_sum_bits_ceiling_counts_the_half_sums(monkeypatch):
    # a 3-bit total (3+1+1+1+1 = 7) times the 2^2 + 2^2 half sums of 4 bars
    lv = LengthVector.of(3, 1, 1, 1, 1)
    monkeypatch.setattr(linkages, "MAX_SUM_BITS", 24)
    assert betti_profile(lv).values == (1, 0, 1)
    monkeypatch.setattr(linkages, "MAX_SUM_BITS", 23)
    for call in (betti_profile, is_generic):
        with pytest.raises(DomainError, match="subset-sum limit"):
            call(lv)


def test_length_vector_validation():
    with pytest.raises(DomainError):
        LengthVector.of()
    with pytest.raises(DomainError):
        LengthVector.of(1, 0, 2)
    with pytest.raises(DomainError):
        LengthVector.of(1, "-1/2")
    with pytest.raises(TypeError):
        LengthVector.of(0.5)
    # the constructor itself checks, not only ``of``
    with pytest.raises(DomainError):
        LengthVector(())
    with pytest.raises(TypeError):
        LengthVector((Fraction(1), 2))
    with pytest.raises(DomainError):
        LengthVector((Fraction(1), Fraction(-1, 2)))
    assert LengthVector.of("1/3", "0.25").lengths == (Fraction(1, 3), Fraction(1, 4))


def test_checked_weights_clear_denominators():
    lv = LengthVector.of("1/3", "1/4", 2)
    assert _checked_weights(lv) == (4, 3, 24)
