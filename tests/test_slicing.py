"""Exact simplex cut-volume fractions.

Core claims exercised here:
  * the residue kernel agrees with an exact polygon-clipping oracle in 2D and
    an interval oracle in 1D on random rational inputs;
  * it equals the partial-fraction oracle on distinct values and the
    weak-composition oracle on repeated ones (examples, simple-value
    reduction, homogeneity, perturbation limits, a hypothesis property test);
  * ``slice_ratio`` of the shifted values q - x is a genuine distribution
    function of x, the vertex values repeated or not;
  * the sums over the two sides of the cut agree exactly: the residues at the
    positive poles are 1 minus those at the negative ones, zeros and repeats
    included; complement and partition-of-unity identities hold exactly;
  * each ``slice_ratio`` call is one lookup of the module's one cached
    function;
  * a sweep whose cost estimate passes the limit is refused at once, whichever
    side of the cut is summed; the estimate is pinned on a few inputs, each
    admitted at a limit equal to it and refused one below, and printed in the
    refusal message.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkage_betti import DomainError, Measure, slice_ratio, slicing
from linkage_betti.simplexes import functional_values
from linkage_betti.slicing import _ratio, _residue, group_values
from oracles import (
    confluent_factor,
    distinct_slice_ratio,
    members,
    segment_negative_fraction,
    triangle_negative_fraction,
    weak_composition_slice_ratio,
    weak_compositions,
)


def _random_distinct(rnd: random.Random, count: int) -> list[Fraction]:
    pool = [Fraction(k, d) for k in range(-60, 61) for d in (1, 2, 3, 4)]
    values = []
    seen = set()
    while len(values) < count:
        v = rnd.choice(pool)
        if v not in seen:
            seen.add(v)
            values.append(v)
    return values


def _random_grouped(
    rnd: random.Random, mixed_sign: bool = False
) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """Decreasing distinct values and multiplicities, at least one above 1."""
    while True:
        groups = rnd.randint(2, 5)
        distinct = sorted(
            rnd.sample([Fraction(k, 8) for k in range(-48, 49)], groups), reverse=True
        )
        mults = [rnd.randint(1, 3) for _ in range(groups)]
        if all(m == 1 for m in mults):
            continue
        if mixed_sign and not (distinct[0] > 0 and distinct[-1] < 0):
            continue
        return tuple(distinct), tuple(mults)


def _expand(distinct, mults) -> list[Fraction]:
    """The vertex values a (distinct, multiplicities) pair groups."""
    return [v for v, m in zip(distinct, mults) for _ in range(m)]


def _cdf(values, x) -> Fraction:
    """Volume fraction where the functional is below x."""
    return slice_ratio([Fraction(v) - x for v in values])


def test_group_values_examples():
    assert group_values([0, 1, 0, Fraction(-1, 3), Fraction(-1, 2)]) == (
        (1, 0, Fraction(-1, 3), Fraction(-1, 2)), (1, 2, 1, 1))
    assert group_values([Fraction(3), Fraction(3), Fraction(3)]) == ((3,), (3,))
    assert group_values([0, 1, 0, 1, 0]) == ((1, 0), (2, 3))
    with pytest.raises(DomainError):
        group_values([])


def test_grouped_values_invariants():
    rnd = random.Random(61)
    for _ in range(100):
        n = rnd.randint(1, 10)
        values = [Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(n + 1)]
        distinct, mults = group_values(values)
        assert len(distinct) == len(mults)
        assert sum(mults) == n + 1
        assert all(m >= 1 for m in mults)
        assert all(a > b for a, b in zip(distinct, distinct[1:]))
        assert sorted(_expand(distinct, mults)) == sorted(values)


def test_weak_compositions():
    assert set(weak_compositions(2, 1)) == {(1, 0), (0, 1)}
    assert list(weak_compositions(5, 0)) == [(0, 0, 0, 0, 0)]
    assert len(list(weak_compositions(3, 2))) == 6
    rnd = random.Random(67)
    for _ in range(20):
        parts = rnd.randint(1, 5)
        total = rnd.randint(0, 6)
        items = list(weak_compositions(parts, total))
        assert len(items) == math.comb(parts - 1 + total, total)
        assert len(set(items)) == len(items)
        assert all(sum(d) == total and len(d) == parts for d in items)


def test_slice_ratio_distinct_examples():
    for q, expected in (
        ([-1, 1], Fraction(1, 2)),
        ([-1, 1, 2], Fraction(1, 6)),
        ([1, 2, 3], 0),
        ([-1, -2, -3], 1),
    ):
        assert slice_ratio(q) == expected
        assert distinct_slice_ratio(q) == expected
    with pytest.raises(ValueError):
        distinct_slice_ratio([1, 1, 2])
    with pytest.raises(DomainError):
        slice_ratio([1])


def test_distinct_matches_geometry_oracles():
    rnd = random.Random(71)
    for _ in range(200):
        q = _random_distinct(rnd, 3)
        assert slice_ratio(q) == triangle_negative_fraction(*q)
        assert distinct_slice_ratio(q) == triangle_negative_fraction(*q)
    for _ in range(200):
        q = _random_distinct(rnd, 2)
        assert slice_ratio(q) == segment_negative_fraction(*q)


def test_confluent_matches_triangle_oracle_with_repeats():
    rnd = random.Random(73)
    for _ in range(200):
        q = [Fraction(rnd.randint(-6, 6), rnd.randint(1, 3)) for _ in range(3)]
        assert slice_ratio(q) == triangle_negative_fraction(*q)


def test_shifted_slice_ratio_examples():
    assert _cdf([0, 1], Fraction(1, 3)) == Fraction(1, 3)
    assert _cdf([-1, 1, 2], 0) == Fraction(1, 6)
    assert _cdf([-1, 1, 2], 2) == 1
    assert _cdf([-1, 1, 2], -1) == 0


def test_shifted_slice_ratio_is_a_distribution_function():
    rnd = random.Random(79)
    for _ in range(40):
        q = _random_distinct(rnd, rnd.randint(2, 7))
        lo, hi = min(q), max(q)
        assert _cdf(q, lo) == 0
        assert _cdf(q, hi) == 1
        grid = [lo + (hi - lo) * Fraction(t, 24) for t in range(25)]
        values = [_cdf(q, x) for x in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert _cdf(q, 0) == distinct_slice_ratio(q)


def test_shifted_slice_ratio_with_repeated_values():
    rnd = random.Random(81)
    for _ in range(40):
        q = _expand(*_random_grouped(rnd))
        lo, hi = min(q), max(q)
        grid = [lo + (hi - lo) * Fraction(t, 24) for t in range(25)]
        values = [_cdf(q, x) for x in grid]
        assert values[0] == 0 and values[-1] == 1
        assert all(a <= b for a, b in zip(values, values[1:]))
        for x, y in zip(grid, values):
            shifted = [v - x for v in q]
            assert y == slice_ratio(shifted) == weak_composition_slice_ratio(shifted)


def test_each_slice_ratio_call_is_one_lookup_of_the_one_cache():
    cached = [name for name, value in vars(slicing).items() if hasattr(value, "cache_info")]
    assert cached == ["_ratio"]
    q = [Fraction(-3, 7), Fraction(2, 7), Fraction(2, 7), Fraction(5, 7)]
    for t in range(-50, 80):
        before = _ratio.cache_info()
        slice_ratio([v - Fraction(t, 97) for v in q])
        slice_ratio(q)
        after = _ratio.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 2


def test_partition_of_unity():
    rnd = random.Random(83)
    for _ in range(100):
        q = _random_distinct(rnd, rnd.randint(3, 10))
        total = Fraction(0)
        for i, qi in enumerate(q):
            term = Fraction(1)
            for j, qj in enumerate(q):
                if j != i:
                    term *= qi / (qi - qj)
            total += term
        assert total == 1
        shift = max(q) + 1
        assert slice_ratio([v - shift for v in q]) == 1


def test_complement_identity():
    rnd = random.Random(89)
    for _ in range(150):
        n = rnd.randint(2, 9)
        values = [Fraction(rnd.randint(-8, 8), rnd.randint(1, 3)) for _ in range(n + 1)]
        assert slice_ratio(values) + slice_ratio([-v for v in values]) == 1


def test_confluent_examples():
    for q, expected in (([-1, 1, 1], Fraction(1, 4)), ([-1, -1, 1], Fraction(3, 4))):
        assert slice_ratio(q) == expected
        assert weak_composition_slice_ratio(q) == expected
        assert triangle_negative_fraction(*q) == expected
    assert slice_ratio([-2, -2, -5]) == 1
    assert weak_composition_slice_ratio([-2, -2, -5]) == 1


def test_confluent_reduces_to_distinct():
    rnd = random.Random(97)
    for _ in range(100):
        q = _random_distinct(rnd, rnd.randint(2, 8))
        assert weak_composition_slice_ratio(q) == distinct_slice_ratio(q)
        assert slice_ratio(q) == distinct_slice_ratio(q)


def test_confluent_factor_is_one_for_simple_groups():
    # a simple value's residue is its partial-fraction term alone
    rnd = random.Random(103)
    for _ in range(50):
        distinct, mults = _random_grouped(rnd)
        for i, (q_i, mult) in enumerate(zip(distinct, mults)):
            if mult == 1:
                assert confluent_factor(distinct, mults, i) == 1
                if q_i != 0:
                    term = Fraction(1)
                    for q_j, m_j in zip(distinct, mults):
                        if q_j != q_i:
                            term *= (q_i / (q_i - q_j)) ** m_j
                    assert _residue(distinct, mults, i) == term


def test_confluent_homogeneity():
    rnd = random.Random(107)
    for _ in range(60):
        distinct, mults = _random_grouped(rnd)
        factor = Fraction(rnd.randint(1, 9), rnd.randint(1, 9))
        scaled = _expand([v * factor for v in distinct], mults)
        assert slice_ratio(scaled) == slice_ratio(_expand(distinct, mults))


def test_perturbation_limit_monotone():
    rnd = random.Random(109)
    done = 0
    while done < 25:
        grouped = _random_grouped(rnd, mixed_sign=True)
        target = slice_ratio(_expand(*grouped))
        distances = []
        collided = False
        for eps in (Fraction(1, 10**3), Fraction(1, 10**4), Fraction(1, 10**5)):
            values = []
            for q, mult in zip(*grouped):
                values.extend(q + eps * t for t in range(mult))
            if len(set(values)) != len(values):
                collided = True
                break
            distances.append(abs(distinct_slice_ratio(values) - target))
        if collided:
            continue
        assert distances[0] > distances[1] > distances[2], (
            grouped,
            [float(d) for d in distances],
        )
        done += 1


def test_both_pole_sides_agree():
    rnd = random.Random(113)
    for _ in range(100):
        n = rnd.randint(2, 9)
        subset = members(
            {i for i in range(1, n + 1) if rnd.random() < 0.5} or {1}, n
        )
        for measure in Measure:
            values = functional_values(subset, measure)
            distinct, mults = group_values(values)
            flipped = group_values([-v for v in values])
            direct, other = (
                sum((_residue(d, m, i) for i, q in enumerate(d) if q < 0), Fraction(0))
                for d, m in ((distinct, mults), flipped)
            )
            assert direct == 1 - other
            assert slice_ratio(values) == direct
            assert weak_composition_slice_ratio(values) == direct


def test_one_signed_zero_and_single_value_inputs():
    assert slice_ratio([0, 0, 0]) == 0
    assert slice_ratio([2, 0, 1]) == 0
    assert slice_ratio([-2, 0, -1]) == 1
    assert slice_ratio([Fraction(-1), Fraction(-2)]) == 1
    with pytest.raises(DomainError):
        slice_ratio([Fraction(1)])
    # 3,201 one-signed values: the side with no value is an empty pole set,
    # which costs nothing, however costly the other side's sweep would be
    for sign, expected in ((1, 0), (-1, 1)):
        q = [Fraction(sign * v) for v in (1, 2, 3) for _ in range(1067)]
        start = time.perf_counter()
        assert slice_ratio(q) == expected
        assert time.perf_counter() - start < 1.0


def test_costly_sweeps_are_refused_before_the_first_residue():
    # 3,200 values in three groups; sign = 1 charges the negative pole, and
    # sign = -1, with two negative distinct values to one positive, the
    # positive pole; without the check each sweep takes about 25 s
    for sign in (1, -1):
        q = [Fraction(sign * v) for v in (-1, 1, 2) for _ in range(1067)]
        start = time.perf_counter()
        with pytest.raises(DomainError, match="slice cost limit"):
            slice_ratio(q)
        assert time.perf_counter() - start < 1.0


def test_cost_refusal_prints_the_estimate():
    q = [Fraction(v) for v in (1, -1, -2) for _ in range(1067)]
    with pytest.raises(DomainError) as refused:
        slice_ratio(q)
    assert str(refused.value) == (
        "3201 vertex values (3 distinct, 7469 bits in all) exceed the slice cost "
        "limit (2.5e+14 > 3e+13)"
    )


_FIVE_DISTINCT = [3, 3, 3, Fraction(5, 7), -1, -1, Fraction(-4, 9), -2, -2, -2, -2]


# (values, pole indices among the grouped values, the estimate for them)
@pytest.mark.parametrize("values, poles, estimate", [
    ([1] * 1067 + [-1] * 1067 + [-2] * 1067, [0], 254761095256360),
    ([1] * 1067 + [-1] * 1067 + [-2] * 1067, [1, 2], 509522190512720),
    (_FIVE_DISTINCT, [2, 3, 4], 646310),
    (_FIVE_DISTINCT, [0, 1], 265710),
    ([-1, 1, 2], [2], 784),
])
def test_the_cost_check_admits_its_own_estimate_and_nothing_more(
    values, poles, estimate, monkeypatch
):
    distinct, mults = group_values(values)
    monkeypatch.setattr(slicing, "MAX_SLICE_WORK", estimate)
    slicing._check_cost(distinct, mults, poles)
    monkeypatch.setattr(slicing, "MAX_SLICE_WORK", estimate - 1)
    with pytest.raises(DomainError, match="slice cost limit"):
        slicing._check_cost(distinct, mults, poles)


_VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _grouped_draws(draw):
    """Up to 6 distinct values (zero often among them), multiplicities 1-5."""
    distinct = draw(st.lists(st.one_of(st.just(Fraction(0)), _VALUES), min_size=1,
                             max_size=6, unique=True))
    mults = draw(st.lists(st.integers(1, 5), min_size=len(distinct),
                          max_size=len(distinct)))
    if sum(mults) < 2:
        mults[0] = 2
    return [v for v, m in zip(distinct, mults) for _ in range(m)]


@settings(max_examples=150, deadline=None)
@given(_grouped_draws(), st.fractions(min_value=Fraction(1, 9), max_value=9,
                                      max_denominator=9))
def test_kernel_properties_on_random_grouped_values(q, factor):
    ratio = slice_ratio(q)
    assert ratio == weak_composition_slice_ratio(q)
    if len(set(q)) == len(q):
        assert ratio == distinct_slice_ratio(q)
    if any(q):  # an all-zero functional leaves both open sides empty
        assert ratio + slice_ratio([-v for v in q]) == 1
        # the residues at all the poles add up to 1; zero is never a pole
        distinct, mults = group_values(q)
        negative, positive = (
            sum((_residue(distinct, mults, i) for i, v in enumerate(distinct) if sign * v > 0),
                Fraction(0))
            for sign in (-1, 1)
        )
        assert positive == 1 - negative == 1 - ratio
    assert slice_ratio([v * factor for v in q]) == ratio
