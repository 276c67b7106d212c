"""Exact expected Betti numbers and their Monte Carlo cross-checks.

Core claims exercised here:
  * subset classes enumerate exactly the contributing families, with the
    middle-degree coincidence double-counted;
  * the closed forms equal the enumerated subset sum of ``tests/oracles.py``
    (a ``hypothesis`` property test over every n <= 11), and the simplex
    T(k) equals the earlier three-value slice-kernel form (every k at
    n <= 20, and the central k at n = 40 and 44) without calling the kernel;
  * the n = 3 expectations reproduce the classical stick-breaking values
    exactly (1/2 on the simplex, 1 on the cube);
  * engine regression values are pinned with full rational precision and
    validated against the seeded Monte Carlo path at 3 standard errors;
  * convergence tables expose signed gaps and shrink ratios, with None after
    an exactly-zero gap;
  * per-term bounds and anchor-relabeling invariance hold on the computed
    range;
  * size ceilings refuse oversized exact and Monte Carlo requests at once;
  * the tiled Monte Carlo count reproduces pinned estimates and the earlier
    blockwise kernel of ``tests/oracles.py`` exactly, chunk stream by chunk
    stream, within bounded allocation peaks.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkage_betti import (
    DomainError,
    IndexSubset,
    Measure,
    average_betti_exact,
    average_betti_mc,
    convergence_table,
    subset_classes,
)
from linkage_betti import averages, cli
from linkage_betti.averages import EXACT_MAX_BARS, MC_SETUP_BUDGET_BYTES
from linkage_betti.sampling import (
    CHUNK_SIZE,
    MonteCarloEstimate,
    _chunks,
    chunk_rng,
    sample_unit_cube,
    sample_unit_simplex,
)
from linkage_betti.slicing import _cached_ratio

from oracles import (
    blockwise_mc_counts,
    enumerated_class_sums,
    subset_volume_term,
    three_value_class_sum,
)

PIN_7_1_SIMPLEX = Fraction(131441, 27648)
PIN_10_0_CUBE = Fraction(10369, 10368)
PIN_14_1_SIMPLEX = Fraction(3185271128689, 247669456896)


def test_subset_classes_examples():
    first, second = subset_classes(3, 0)
    assert [sorted(s) for s in first] == [[1]]
    assert [sorted(s) for s in second] == [[1]]

    first, second = subset_classes(5, 1)
    family1 = {frozenset(s.members) for s in first}
    family2 = {frozenset(s.members) for s in second}
    assert len(family1) == 4
    assert family1 == family2

    first, second = subset_classes(6, 1)
    assert len(list(first)) == 5
    assert len(list(second)) == 10

    with pytest.raises(DomainError):
        subset_classes(5, 3)


def test_subset_volume_term_examples():
    assert subset_volume_term(IndexSubset.of({1}, 3), Measure.SIMPLEX) == Fraction(1, 4)
    assert subset_volume_term(IndexSubset.of({1}, 3), Measure.CUBE) == Fraction(1, 2)
    for n in (3, 5, 8):
        full = IndexSubset.of(range(1, n + 1), n)
        assert subset_volume_term(full, Measure.SIMPLEX) == 0
        assert subset_volume_term(full, Measure.CUBE) == 0
    with pytest.raises(DomainError):
        subset_volume_term(IndexSubset.of(set(), 3), Measure.SIMPLEX)


def test_terms_lie_in_unit_interval():
    for measure in Measure:
        for n in (4, 6, 8):
            for p in range(n - 2):
                for family in subset_classes(n, p):
                    for subset in family:
                        term = subset_volume_term(subset, measure)
                        assert 0 <= term <= 1


def test_classical_triangle_averages():
    simplex = average_betti_exact(3, 0, Measure.SIMPLEX)
    cube = average_betti_exact(3, 0, Measure.CUBE)
    assert simplex.exact == Fraction(1, 2)
    assert cube.exact == 1
    assert simplex.term_count == 2
    assert cube.term_count == 2
    assert simplex.gap == Fraction(1, 2)
    assert cube.gap == 0


def test_middle_degree_double_count():
    report = average_betti_exact(5, 1, Measure.SIMPLEX)
    assert report.term_count == 8
    assert report.class_sums[0] == report.class_sums[1]
    assert report.exact == 2 * report.class_sums[0]


@st.composite
def _degrees(draw):
    n = draw(st.integers(3, 11))
    return n, draw(st.integers(0, n - 3)), draw(st.sampled_from(list(Measure)))


@settings(max_examples=100, deadline=None)
@given(case=_degrees())
def test_closed_forms_match_the_enumerated_subset_sum(case):
    n, p, measure = case
    report = average_betti_exact(n, p, measure)
    assert report.class_sums == enumerated_class_sums(n, p, measure)
    assert report.term_count == math.comb(n - 1, p) + math.comb(n - 1, n - 3 - p)


@st.composite
def _anchored_sizes(draw):
    n = draw(st.integers(3, 20))
    return n, draw(st.integers(1, n - 2))


@settings(max_examples=60, deadline=None)
@given(case=_anchored_sizes())
def test_simplex_closed_form_matches_the_three_value_oracle(case):
    n, k = case
    assert averages._anchored_short_simplex(n, k) == three_value_class_sum(n, k)


@pytest.mark.parametrize("n", [40, 44])
def test_simplex_closed_form_matches_the_three_value_oracle_at_scale(n):
    k = n // 2
    assert averages._anchored_short_simplex(n, k) == three_value_class_sum(n, k)


def test_exact_paths_make_no_slice_kernel_call():
    imports = [node for node in ast.walk(ast.parse(inspect.getsource(averages)))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {getattr(node, "module", None) for node in imports}
    names = {alias.name for node in imports for alias in node.names}
    assert "slicing" not in modules and "slice_ratio" not in names
    assert "functional_values" not in names
    before = _cached_ratio.cache_info()
    average_betti_exact(30, 13, Measure.SIMPLEX)
    convergence_table(2, 5, 24, Measure.SIMPLEX)
    assert _cached_ratio.cache_info() == before


def test_regression_pins():
    assert average_betti_exact(7, 1, Measure.SIMPLEX).exact == PIN_7_1_SIMPLEX
    report = average_betti_exact(10, 0, Measure.CUBE)
    assert report.exact == PIN_10_0_CUBE
    assert abs(report.gap) < Fraction(5, 100)
    report = average_betti_exact(14, 1, Measure.SIMPLEX)
    assert report.exact == PIN_14_1_SIMPLEX
    assert abs(report.exact - 13) < 1


def test_report_bounds():
    for measure in Measure:
        for n in range(3, 9):
            for p in range(n - 2):
                report = average_betti_exact(n, p, measure)
                assert 0 < report.exact <= (
                    math.comb(n - 1, p) + math.comb(n - 1, n - 3 - p)
                )
                assert report.binomial == math.comb(n - 1, p)
                assert report.gap == report.binomial - report.exact


def test_workers_do_not_change_exact_result():
    for workers in (1, 4):
        assert (
            average_betti_exact(8, 1, Measure.CUBE, workers=workers).exact
            == average_betti_exact(8, 1, Measure.CUBE).exact
        )


def test_no_scale_warning_past_the_old_tuned_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        average_betti_exact(17, 0, Measure.CUBE)
        average_betti_exact(17, 7, Measure.SIMPLEX)


def test_exact_size_ceiling_refuses_before_any_work(capsys):
    for measure in Measure:
        ceiling = EXACT_MAX_BARS[measure]
        start = time.perf_counter()
        with pytest.raises(DomainError):
            average_betti_exact(ceiling + 1, (ceiling - 2) // 2, measure)
        with pytest.raises(DomainError):
            convergence_table(0, 3, ceiling + 1, measure)
        assert time.perf_counter() - start < 0.25
    assert average_betti_exact(EXACT_MAX_BARS[Measure.CUBE], 0, Measure.CUBE).exact > 0
    # the simplex ceiling's central degree prints in full, under the
    # 4,300-digit int-to-str limit
    ceiling = str(EXACT_MAX_BARS[Measure.SIMPLEX])
    central = str((EXACT_MAX_BARS[Measure.SIMPLEX] - 3) // 2)
    assert cli.main(["average", "--n", ceiling, "--p", central, "--measure",
                     "simplex", "--format", "csv"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[:3] == [ceiling, central, "simplex"]
    assert Fraction(row[3]) > 0
    assert max(len(part) for part in row[3].split("/")) < 4300


def test_mc_setup_budget_refuses_before_allocating():
    # (C(29, 13) + C(29, 14)) * 29 rows of 8 bytes: about 34 GB of subset rows
    start = time.perf_counter()
    with pytest.raises(DomainError):
        average_betti_mc(30, 13, Measure.SIMPLEX, 1, 0)
    assert time.perf_counter() - start < 0.25
    # every degree up to 21 bars fits; n = 21, p = 9 is the largest
    rows = math.comb(20, 9) + math.comb(20, 10)
    assert rows * 20 * 8 <= MC_SETUP_BUDGET_BYTES


@pytest.mark.parametrize(
    "samples, seed, workers", [(0, 0, 1), (10, -1, 1), (10, 0, 0)]
)
def test_mc_refuses_bad_budgets_before_allocating(samples, seed, workers):
    # n = 21, p = 9 fits the set-up budget but builds about 51 MiB of rows
    start = time.perf_counter()
    with pytest.raises(DomainError):
        average_betti_mc(21, 9, Measure.SIMPLEX, samples, seed, workers=workers)
    assert time.perf_counter() - start < 0.25


def test_convergence_table_shape_and_ratios():
    rows = convergence_table(0, 3, 10, Measure.SIMPLEX)
    assert [r.report.n for r in rows] == list(range(3, 11))
    gaps = [abs(r.report.gap) for r in rows]
    assert all(g > 0 for g in gaps)
    assert rows[0].gap_ratio is None
    for prev, row in zip(rows, rows[1:]):
        assert row.gap_ratio == abs(row.report.gap) / abs(prev.report.gap)
        assert row.gap_ratio < 1


def test_convergence_zero_gap_yields_none_ratio():
    rows = convergence_table(1, 4, 8, Measure.CUBE)
    by_n = {r.report.n: r for r in rows}
    assert by_n[5].report.gap == 0
    assert by_n[5].gap_ratio == 0
    assert by_n[6].gap_ratio is None
    assert by_n[7].gap_ratio is not None


def test_convergence_validation():
    with pytest.raises(DomainError):
        convergence_table(1, 3, 10, Measure.SIMPLEX)
    assert convergence_table(0, 5, 4, Measure.SIMPLEX) == []


def test_degree_validation():
    with pytest.raises(DomainError):
        average_betti_exact(2, 0, Measure.SIMPLEX)
    with pytest.raises(DomainError):
        average_betti_exact(5, 3, Measure.SIMPLEX)
    with pytest.raises(DomainError):
        average_betti_mc(5, -1, Measure.CUBE, 10, 1)


def test_mc_cross_validation_small():
    for measure in Measure:
        for n, p in ((5, 0), (6, 1)):
            exact = float(average_betti_exact(n, p, measure).exact)
            estimate = average_betti_mc(n, p, measure, 60000, 500 + n + p)
            assert abs(estimate.estimate - exact) <= 3 * estimate.stderr


def test_mc_single_sample_is_integer_valued():
    estimate = average_betti_mc(6, 0, Measure.CUBE, 1, 3)
    assert estimate.estimate == int(estimate.estimate)
    assert estimate.stderr == 0.0
    assert estimate.samples == 1


def test_mc_deterministic_across_workers():
    baseline = average_betti_mc(6, 1, Measure.SIMPLEX, 70000, 5, workers=1)
    assert average_betti_mc(6, 1, Measure.SIMPLEX, 70000, 5, workers=3) == baseline


# (n, p, measure, samples, seed) -> (estimate, stderr), recorded from the
# blockwise kernel that the tiled one replaced
MC_PINS = [
    ((5, 0, Measure.SIMPLEX, 200_000, 7), (0.84277, 0.0014915779428255828)),
    ((12, 4, Measure.SIMPLEX, 40_000, 2024), (215.9573, 0.48417248088107095)),
    ((14, 3, Measure.CUBE, 40_000, 2025), (293.558425, 0.04623024544466705)),
    ((7, 0, Measure.CUBE, 33_001, 11), (1.019726674949244, 0.000835471032370008)),
    ((9, 3, Measure.SIMPLEX, 33_001, 12), (30.54701372685676, 0.09714267666706179)),
    ((3, 0, Measure.CUBE, 5, 1), (0.4, 0.4)),
    ((8, 2, Measure.CUBE, 70_001, 13), (24.6312766960472, 0.01913872152798045)),
    # recorded before the count compared against the exact cut
    ((19, 7, Measure.SIMPLEX, 400, 3), (22863.3025, 345.91106893102864)),
    ((21, 9, Measure.SIMPLEX, 8, 2), (88065.5, 10528.13281335842)),
    ((4, 0, Measure.CUBE, 5000, 9), (1.3296, 0.010600718987342779)),
]


def test_mc_regression_pins():
    # the README example, the benchmark's two sizes, p = 0 (a zero pick
    # column), n = 2p + 3 (one family twice; n = 3 is both) and budgets that
    # are multiples of neither CHUNK_SIZE nor the tile rows; then one-row
    # tiles (n = 19), a mean count above 2^16 (n = 21) and 852 of 5,000 rows
    # whose anchor reaches half the total, so their cut is 0 (n = 4)
    for args, (estimate, stderr) in MC_PINS:
        n, p, measure, samples, seed = args
        assert average_betti_mc(*args) == MonteCarloEstimate(
            estimate=estimate, stderr=stderr, samples=samples, seed=seed
        )


@pytest.mark.parametrize(
    "n, p, measure, samples",
    [
        (12, 4, Measure.SIMPLEX, CHUNK_SIZE + 1001),
        (14, 3, Measure.CUBE, 3000),
        (7, 0, Measure.CUBE, 3000),
        (9, 3, Measure.SIMPLEX, 3000),
        (21, 9, Measure.SIMPLEX, 5),
    ],
)
def test_mc_matches_the_blockwise_oracle(n, p, measure, samples):
    seed = 17
    sampler = sample_unit_simplex if measure is Measure.SIMPLEX else sample_unit_cube
    total = total_sq = 0
    for index, count in _chunks(samples):
        counts = blockwise_mc_counts(sampler, n, p, chunk_rng(seed, index), count)
        total += int(counts.sum())
        total_sq += int(counts @ counts)
    variance = max(total_sq - total * total / samples, 0.0) / (samples - 1)
    expected = MonteCarloEstimate(
        estimate=total / samples,
        stderr=math.sqrt(variance / samples),
        samples=samples,
        seed=seed,
    )
    assert average_betti_mc(n, p, measure, samples, seed) == expected
    if n == 21:
        # one subset-sum row fills a tile, so each tile is a single sample
        columns = math.comb(n - 1, p) + math.comb(n - 1, n - 3 - p)
        assert averages._TILE_BYTES // (8 * columns) == 0


_FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _cut_case(draw):
    """(anchor, half, x): anchor >= 0, half > 0, x >= 0 drawn near the cut."""
    anchor = draw(st.floats(0, 1e300, **_FINITE))
    kind = draw(st.sampled_from(["any", "ulps above", "far above", "at most"]))
    if kind == "any":
        half = draw(st.floats(0, 1e300, **_FINITE))
    elif kind == "ulps above":
        half = anchor
        for _ in range(draw(st.integers(1, 8))):
            half = math.nextafter(half, math.inf)
    elif kind == "far above":  # anchor much larger than half - anchor
        half = anchor * (1 + draw(st.floats(2**-52, 2**-20)))
    else:
        half = draw(st.floats(0, anchor, **_FINITE))
    assume(half > 0)
    return anchor, half, draw(st.sampled_from(["cut", "prev", "next", "zero", "any"]))


@settings(max_examples=300, deadline=None)
@given(cases=st.lists(_cut_case(), min_size=1, max_size=20), data=st.data())
def test_exact_cut_splits_the_sums_like_the_rounded_sum(cases, data):
    anchor = np.array([a for a, _, _ in cases])
    half = np.array([h for _, h, _ in cases])
    for (a, h, which), t in zip(cases, averages._exact_cut(anchor, half)):
        assert t >= 0 and (t == 0) == (a >= h)
        x = {
            "cut": t,
            "prev": np.nextafter(t, 0.0),
            "next": np.nextafter(t, np.inf),
            "zero": np.float64(0.0),
            "any": np.float64(data.draw(st.floats(0, h, **_FINITE))),
        }[which]
        assert (a + x < h) == (x < t)


def _allocation_peak(*args) -> int:
    average_betti_mc(6, 1, Measure.SIMPLEX, 10, 0)  # numpy imported and warm
    tracemalloc.start()
    try:
        average_betti_mc(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_allocation_peaks():
    # one whole chunk of the benchmark's simplex case; the blockwise kernel
    # peaked at 99.7 MiB, three chunk-sized float64 arrays per block
    assert _allocation_peak(12, 4, Measure.SIMPLEX, CHUNK_SIZE, 0) < 32 * 2**20
    # set-up dominated: the blockwise kernel peaked at 35.36 MiB here
    assert _allocation_peak(20, 8, Measure.SIMPLEX, 64, 0) <= 35.36 * 2**20


def test_class_term_weak_monotonicity():
    for measure in Measure:
        for p in (0, 1):
            minima, maxima = [], []
            for n in range(p + 4, 12):
                first, second = subset_classes(n, p)
                minima.append(min(subset_volume_term(s, measure) for s in first))
                maxima.append(max(subset_volume_term(s, measure) for s in second))
            assert all(a <= b for a, b in zip(minima, minima[1:]))
            assert all(a >= b for a, b in zip(maxima, maxima[1:]))
            assert minima[-1] > Fraction(1, 2)
            assert maxima[-1] < Fraction(1, 2)


def test_anchor_relabeling_invariance():
    def relabeled_sum(n: int, p: int, measure: Measure, anchor: int) -> Fraction:
        others = [i for i in range(1, n + 1) if i != anchor]
        relabel = {anchor: 1, **{o: i + 2 for i, o in enumerate(others)}}
        total = Fraction(0)
        for cardinality in (p + 1, n - 2 - p):
            for extra in itertools.combinations(others, cardinality - 1):
                members = frozenset(relabel[i] for i in (anchor,) + extra)
                total += subset_volume_term(IndexSubset.of(members, n), measure)
        return total

    for measure in Measure:
        expected = average_betti_exact(6, 1, measure).exact
        for anchor in (2, 4, 6):
            assert relabeled_sum(6, 1, measure, anchor) == expected
