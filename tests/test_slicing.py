"""Exact simplex cut-volume fractions.

Core claims exercised here:
  * the residue kernel agrees with an exact polygon-clipping oracle in 2D and
    an interval oracle in 1D on random rational inputs;
  * it equals the partial-fraction oracle on distinct values and the
    weak-composition oracle on repeated ones (examples, simple-value
    reduction, homogeneity, perturbation limits, a hypothesis property test);
  * the CDF is a genuine distribution function of the vertex values, repeated
    or not, and does not fill the slice cache;
  * the dispatcher's two evaluation routes agree exactly, complement and
    partition-of-unity identities hold exactly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkage_betti import (
    DomainError,
    GroupedValues,
    IndexSubset,
    Measure,
    functional_values,
    group_values,
    slice_cdf,
    slice_ratio,
)
from linkage_betti.slicing import _cached_ratio, _negative_side_sum, _residue
from oracles import (
    confluent_factor,
    distinct_slice_ratio,
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


def _random_grouped(rnd: random.Random, mixed_sign: bool = False) -> GroupedValues:
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
        return GroupedValues(tuple(distinct), tuple(mults))


def test_group_values_examples():
    g = group_values([0, 1, 0, Fraction(-1, 3), Fraction(-1, 2)])
    assert g.distinct == (1, 0, Fraction(-1, 3), Fraction(-1, 2))
    assert g.multiplicities == (1, 2, 1, 1)
    g = group_values([Fraction(3), Fraction(3), Fraction(3)])
    assert (g.distinct, g.multiplicities) == ((3,), (3,))
    g = group_values([0, 1, 0, 1, 0])
    assert (g.distinct, g.multiplicities) == ((1, 0), (2, 3))


def test_grouped_values_invariants():
    rnd = random.Random(61)
    for _ in range(100):
        n = rnd.randint(1, 10)
        values = [Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(n + 1)]
        g = group_values(values)
        assert sum(g.multiplicities) == n + 1
        assert g.ambient_dim == n
        assert all(a > b for a, b in zip(g.distinct, g.distinct[1:]))
    with pytest.raises(DomainError):
        GroupedValues((Fraction(1), Fraction(2)), (1, 1))
    with pytest.raises(DomainError):
        GroupedValues((Fraction(2), Fraction(1)), (0, 1))


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


def test_slice_cdf_examples():
    assert slice_cdf([0, 1], Fraction(1, 3)) == Fraction(1, 3)
    assert slice_cdf([-1, 1, 2], 0) == Fraction(1, 6)
    assert slice_cdf([-1, 1, 2], 2) == 1
    assert slice_cdf([-1, 1, 2], -1) == 0


def test_slice_cdf_is_a_distribution_function():
    rnd = random.Random(79)
    for _ in range(40):
        q = _random_distinct(rnd, rnd.randint(2, 7))
        lo, hi = min(q), max(q)
        assert slice_cdf(q, lo) == 0
        assert slice_cdf(q, hi) == 1
        grid = [lo + (hi - lo) * Fraction(t, 24) for t in range(25)]
        values = [slice_cdf(q, x) for x in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert slice_cdf(q, 0) == distinct_slice_ratio(q)


def test_slice_cdf_with_repeated_values():
    rnd = random.Random(81)
    for _ in range(40):
        grouped = _random_grouped(rnd)
        q = [v for v, m in zip(grouped.distinct, grouped.multiplicities) for _ in range(m)]
        lo, hi = min(q), max(q)
        grid = [lo + (hi - lo) * Fraction(t, 24) for t in range(25)]
        values = [slice_cdf(q, x) for x in grid]
        assert values[0] == 0 and values[-1] == 1
        assert all(a <= b for a, b in zip(values, values[1:]))
        for x, y in zip(grid, values):
            shifted = [v - x for v in q]
            assert y == slice_ratio(shifted) == weak_composition_slice_ratio(shifted)


def test_slice_cdf_leaves_the_cache_alone():
    q = [Fraction(-3, 7), Fraction(2, 7), Fraction(2, 7), Fraction(5, 7)]
    before = _cached_ratio.cache_info()
    values = [slice_cdf(q, Fraction(t, 97)) for t in range(-50, 80)]
    after = _cached_ratio.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses, before.currsize)
    assert values[0] == 0 and values[-1] == 1


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
        grouped = _random_grouped(rnd)
        distinct, mults = grouped.distinct, grouped.multiplicities
        for i, (q_i, mult) in enumerate(zip(distinct, mults)):
            if mult == 1:
                assert confluent_factor(distinct, mults, i) == 1
                if q_i != 0:
                    term = Fraction(1)
                    for q_j, m_j in zip(distinct, mults):
                        if q_j != q_i:
                            term *= (q_i / (q_i - q_j)) ** m_j
                    assert _residue(grouped, i) == term


def test_confluent_homogeneity():
    rnd = random.Random(107)
    for _ in range(60):
        grouped = _random_grouped(rnd)
        factor = Fraction(rnd.randint(1, 9), rnd.randint(1, 9))
        scaled = GroupedValues(
            tuple(v * factor for v in grouped.distinct), grouped.multiplicities
        )
        assert slice_ratio(scaled) == slice_ratio(grouped)


def test_perturbation_limit_monotone():
    rnd = random.Random(109)
    done = 0
    while done < 25:
        grouped = _random_grouped(rnd, mixed_sign=True)
        target = slice_ratio(grouped)
        distances = []
        collided = False
        for eps in (Fraction(1, 10**3), Fraction(1, 10**4), Fraction(1, 10**5)):
            values = []
            for q, mult in zip(grouped.distinct, grouped.multiplicities):
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


def test_dispatcher_routes_agree():
    rnd = random.Random(113)
    for _ in range(100):
        n = rnd.randint(2, 9)
        subset = IndexSubset.of(
            {i for i in range(1, n + 1) if rnd.random() < 0.5} or {1}, n
        )
        for measure in Measure:
            grouped = group_values(functional_values(subset, measure))
            direct = _negative_side_sum(grouped)
            complemented = 1 - _negative_side_sum(grouped.negated())
            assert direct == complemented
            assert slice_ratio(grouped) == direct
            assert weak_composition_slice_ratio(functional_values(subset, measure)) == direct


def test_dispatcher_edge_cases():
    assert slice_ratio([0, 0, 0]) == 0
    assert slice_ratio([2, 0, 1]) == 0
    assert slice_ratio([-2, 0, -1]) == 1
    assert slice_ratio([Fraction(-1), Fraction(-2)]) == 1
    with pytest.raises(DomainError):
        slice_ratio([Fraction(1)])


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
    assert slice_ratio([v * factor for v in q]) == ratio
