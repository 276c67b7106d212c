"""Vertex families, density sequences, and vertex-value sequences.

Core claims exercised here:
  * the two vertex families are the exact prefix-average and prefix-indicator
    points;
  * density sequences satisfy their definition and recurrence exactly;
  * vertex values equal the signed-sum coefficients dotted with the vertices;
  * complementing the subset negates every vertex value;
  * the structural bounds of lemma_checks hold on a seeded corpus.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lemma_checks import check_all
from linkage_betti import (
    DomainError,
    IndexSubset,
    Measure,
    density_sequence,
    functional_values,
)
from oracles import (
    evaluate_on_vertices,
    prefix_average_vertices,
    prefix_indicator_vertices,
    sorted_region_vertices,
)


def test_prefix_average_vertices():
    assert prefix_average_vertices(2) == [
        (0, 0),
        (1, 0),
        (Fraction(1, 2), Fraction(1, 2)),
    ]
    assert prefix_average_vertices(3)[2] == (Fraction(1, 2), Fraction(1, 2), 0)
    assert prefix_average_vertices(1) == [(0,), (1,)]


def test_prefix_indicator_vertices():
    assert prefix_indicator_vertices(2) == [(0, 0), (1, 0), (1, 1)]
    assert prefix_indicator_vertices(4)[3] == (1, 1, 1, 0)
    for n in (1, 3, 6):
        assert prefix_indicator_vertices(n)[0] == tuple([0] * n)


def test_vertices_validation_and_dispatch():
    with pytest.raises(DomainError):
        prefix_average_vertices(0)
    with pytest.raises(DomainError):
        prefix_indicator_vertices(0)
    assert sorted_region_vertices(3, Measure.SIMPLEX) == prefix_average_vertices(3)
    assert sorted_region_vertices(3, Measure.CUBE) == prefix_indicator_vertices(3)


def test_density_sequence_example():
    seq = density_sequence(IndexSubset.of({2, 4}, 5))
    assert seq.alphas == (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5))
    assert seq.alpha(2) == Fraction(1, 2)
    with pytest.raises(DomainError):
        seq.alpha(0)
    with pytest.raises(DomainError):
        seq.alpha(6)


def test_density_prefix_subsets_saturate():
    for p in (1, 2, 4):
        seq = density_sequence(IndexSubset.of(range(1, p + 1), 10))
        assert all(seq.alpha(i) == 1 for i in range(1, p + 1))
        assert all(seq.alpha(i) < 1 for i in range(p + 1, 11))


def test_density_odd_subsets_hit_half_exactly_p_times():
    for p in (1, 2, 3):
        seq = density_sequence(IndexSubset.of(range(1, 2 * p, 2), 12))
        assert sum(1 for a in seq.alphas if a == Fraction(1, 2)) == p


def test_density_recurrence():
    rnd = random.Random(41)
    for _ in range(100):
        n = rnd.randint(1, 20)
        subset = IndexSubset.of(
            {i for i in range(1, n + 1) if rnd.random() < 0.5}, n
        )
        seq = density_sequence(subset)
        for i in range(1, n):
            expected = Fraction(i, i + 1) * seq.alpha(i) + Fraction(
                1 if i + 1 in subset else 0, i + 1
            )
            assert seq.alpha(i + 1) == expected


def test_functional_values_examples():
    simplex = functional_values(IndexSubset.of({1}, 4), Measure.SIMPLEX)
    assert simplex.values == (0, 1, 0, Fraction(-1, 3), Fraction(-1, 2))
    cube = functional_values(IndexSubset.of({1, 3}, 4), Measure.CUBE)
    assert cube.values == (0, 1, 0, 1, 0)
    empty = functional_values(IndexSubset.of(set(), 3), Measure.SIMPLEX)
    assert empty.values == (0, -1, -1, -1)


def test_functional_values_match_vertex_evaluation():
    rnd = random.Random(43)
    for _ in range(80):
        n = rnd.randint(1, 9)
        subset = IndexSubset.of(
            {i for i in range(1, n + 1) if rnd.random() < 0.5}, n
        )
        coefficients = [Fraction(1 if i in subset else -1) for i in range(1, n + 1)]
        for measure in Measure:
            expected = evaluate_on_vertices(
                coefficients, sorted_region_vertices(n, measure)
            )
            assert functional_values(subset, measure).values == expected


def test_complement_negates_values():
    rnd = random.Random(47)
    for _ in range(80):
        n = rnd.randint(1, 12)
        subset = IndexSubset.of(
            {i for i in range(1, n + 1) if rnd.random() < 0.5}, n
        )
        for measure in Measure:
            direct = functional_values(subset, measure)
            flipped = functional_values(subset.complement(), measure)
            assert direct.negated().values == flipped.values


def test_cube_values_scale_simplex_values():
    rnd = random.Random(53)
    for _ in range(60):
        n = rnd.randint(1, 12)
        subset = IndexSubset.of(
            {i for i in range(1, n + 1) if rnd.random() < 0.5}, n
        )
        a = functional_values(subset, Measure.SIMPLEX).values
        b = functional_values(subset, Measure.CUBE).values
        assert all(b[i] == i * a[i] for i in range(n + 1))


def test_index_subset_validation():
    with pytest.raises(DomainError):
        IndexSubset.of({0}, 3)
    with pytest.raises(DomainError):
        IndexSubset.of({4}, 3)
    subset = IndexSubset.of({1, 3}, 4)
    assert list(subset) == [1, 3]
    assert len(subset) == 2
    assert sorted(subset.complement()) == [2, 4]


def test_lemma_bounds_on_seeded_corpus():
    rnd = random.Random(59)
    for _ in range(300):
        n = rnd.randint(1, 40)
        p = rnd.randint(1, min(6, n))
        check_all(IndexSubset.of(rnd.sample(range(1, n + 1), p), n))
