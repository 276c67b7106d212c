"""Exact expected Betti numbers and their Monte Carlo cross-checks.

Core claims exercised here:
  * subset classes enumerate exactly the contributing families, with the
    middle-degree coincidence double-counted;
  * the closed forms equal the enumerated subset sum of ``tests/oracles.py``
    (a ``hypothesis`` property test over every n <= 11), and the simplex
    T(k) equals the earlier three-value slice-kernel form (every k at
    n <= 20, and the central k at n = 40 and 44) without calling the kernel,
    and the per-term Gamma-race form of ``tests/oracles.py`` up to the
    simplex ceiling (a ``hypothesis`` test, pinned at 100 bars);
  * the two identities the simplex closed form rests on hold for n <= 30:
    its terms' weights integrate to 1/n, and the Gamma race's arrival weights
    add up to a binomial tail;
  * the n = 3 expectations reproduce the classical stick-breaking values
    exactly (1/2 on the simplex, 1 on the cube);
  * engine regression values are pinned with full rational precision and
    validated against the seeded Monte Carlo path at 3 standard errors;
  * a convergence table is the list of ``average_betti_exact`` reports over
    its range of n (a ``hypothesis`` test, empty ranges too), and keeps an
    exactly-zero gap;
  * up to both exact ceilings (``hypothesis`` tests), the complement identity
    T(k) - T(n-k) = E[S_k] - C(n-1, k) holds and the cube gap equals
    (C(n-1,p) - C(n-1,p+2)) P(IH_{n-1} <= p+1), with E[S_k] and the
    Irwin-Hall CDF from the oracles (Eulerian numbers for the cube); the cube
    gap is exactly 0 at n = 2p + 3, and the simplex gap lies between 0 and
    the expected number of long (p+1)-subsets, C(n, p+1) - E[S_{p+1}];
  * for p <= 5 and every n up to the cube ceiling, the cube gap's relative
    distance to its leading term L = -C(n-1, p+2) (p+1)^(n-1) / (n-1)!
    strictly decreases and stays within its Bonferroni bound;
  * per-term bounds and anchor-relabeling invariance hold on the computed
    range;
  * size ceilings refuse oversized exact and Monte Carlo requests at once;
  * every engine reads a measure's name as its member and refuses any other
    value with ValueError, the Monte Carlo path before its set-up;
  * the tiled Monte Carlo count reproduces pinned estimates and the earlier
    blockwise kernel of ``tests/oracles.py`` exactly, chunk stream by chunk
    stream, gives the same estimate whatever its tile and block sizes, counts
    each sample's short subsets as the exact ``Fraction`` oracle does, at
    and next to exact medians too, also when the tile product errs by as much
    as any summation order may, and stays within bounded allocation peaks.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import math
import time
import tracemalloc
import warnings
from collections import Counter
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkage_betti import (
    AverageReport,
    DomainError,
    Measure,
    average_betti_exact,
    average_betti_mc,
    convergence_table,
)
from linkage_betti import averages, cli
from linkage_betti.averages import EXACT_MAX_BARS, MC_SETUP_BUDGET_BYTES, subset_classes
from linkage_betti.sampling import (
    CHUNK_SIZE,
    MonteCarloEstimate,
    chunk_rng,
    sample_unit_cube,
    sample_unit_simplex,
)
from linkage_betti.simplexes import functional_values
from linkage_betti.slicing import _ratio

from oracles import (
    blockwise_mc_counts,
    enumerated_class_sums,
    eulerian_numbers,
    exact_mc_counts,
    expected_short_subsets,
    irwin_hall_cdf,
    members,
    race_class_sum,
    subset_volume_term,
    three_value_class_sum,
)

PIN_7_1_SIMPLEX = Fraction(131441, 27648)
PIN_10_0_CUBE = Fraction(10369, 10368)
PIN_14_1_SIMPLEX = Fraction(3185271128689, 247669456896)


def test_subset_classes_examples():
    first, second = subset_classes(3, 0)
    assert list(first) == [(1, 0, 0)]
    assert list(second) == [(1, 0, 0)]

    first, second = subset_classes(5, 1)
    family1 = set(first)
    family2 = set(second)
    assert len(family1) == 4
    assert family1 == family2

    first, second = subset_classes(6, 1)
    assert len(list(first)) == 5
    assert len(list(second)) == 10

    with pytest.raises(DomainError):
        subset_classes(5, 3)


def test_subset_volume_term_examples():
    assert subset_volume_term(members({1}, 3), Measure.SIMPLEX) == Fraction(1, 4)
    assert subset_volume_term(members({1}, 3), Measure.CUBE) == Fraction(1, 2)
    for n in (3, 5, 8):
        full = members(range(1, n + 1), n)
        assert subset_volume_term(full, Measure.SIMPLEX) == 0
        assert subset_volume_term(full, Measure.CUBE) == 0
    with pytest.raises(DomainError):
        subset_volume_term(members(set(), 3), Measure.SIMPLEX)


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


@st.composite
def _simplex_class_sizes(draw):
    n = draw(st.integers(3, EXACT_MAX_BARS[Measure.SIMPLEX]))
    return n, draw(st.integers(1, n - 1))


@settings(max_examples=40, deadline=None)
@given(case=_simplex_class_sizes())
@example(case=(100, 1))
@example(case=(100, 50))
@example(case=(100, 99))
def test_simplex_closed_form_matches_the_race_oracle_up_to_the_ceiling(case):
    n, k = case
    assert averages._anchored_short_simplex(n, k) == race_class_sum(n, k)


def test_simplex_terms_integrate_to_one_over_n():
    # sum_ab (-1)^(a+b) C(K, a) C(m, b) / (1+a+b) = int_0^1 (1-x)^(K+m) dx,
    # which lets the closed form collect every term's W into one tail
    for n in range(3, 31):
        for k in range(1, n):
            K, m = k - 1, n - k
            total = sum(Fraction((-1) ** (a + b) * math.comb(K, a) * math.comb(m, b), 1 + a + b)
                        for a in range(K + 1) for b in range(m + 1))
            assert total == Fraction(1, n), (n, k)


def test_gamma_race_arrival_weights_sum_to_a_binomial_tail():
    # exactly i < m of the second process's arrivals precede the K-th of the
    # first with probability C(K-1+i, i) / 2^(K+i); together, K heads come
    # before m tails in n - 2 fair flips
    for n in range(3, 31):
        for K in range(1, n - 1):
            m = n - 1 - K
            race = sum(Fraction(math.comb(K - 1 + i, i), 2 ** (K + i)) for i in range(m))
            tail = Fraction(sum(math.comb(n - 2, j) for j in range(K, n - 1)), 2 ** (n - 2))
            assert race == tail, (n, K)


@st.composite
def _simplex_degrees(draw):
    n = draw(st.integers(3, EXACT_MAX_BARS[Measure.SIMPLEX]))
    return n, draw(st.integers(0, n - 3))


@settings(max_examples=20, deadline=None)
@given(case=_simplex_degrees())
@example(case=(EXACT_MAX_BARS[Measure.SIMPLEX], 48))
def test_simplex_gap_lies_below_the_expected_long_subsets(case):
    # a long (p+1)-subset is the complement of a short one, so
    # E[L_{p+1}] = C(n, p+1) - E[S_{p+1}] bounds the gap from above
    n, p = case
    gap = average_betti_exact(n, p, Measure.SIMPLEX).gap
    assert 0 <= gap <= math.comb(n, p + 1) - expected_short_subsets(n, p + 1, Measure.SIMPLEX)


def test_exact_paths_make_no_slice_kernel_call():
    imports = [node for node in ast.walk(ast.parse(inspect.getsource(averages)))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {getattr(node, "module", None) for node in imports}
    names = {alias.name for node in imports for alias in node.names}
    assert "slicing" not in modules and "slice_ratio" not in names
    assert "functional_values" not in names
    before = _ratio.cache_info()
    average_betti_exact(30, 13, Measure.SIMPLEX)
    convergence_table(2, 5, 24, Measure.SIMPLEX)
    assert _ratio.cache_info() == before


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
    # central degrees at 22 bars do not: 104 MiB of member rows
    for p in (9, 10):
        with pytest.raises(DomainError, match="needs 104 MiB of subset rows"):
            average_betti_mc(22, p, Measure.SIMPLEX, 1, 0)


def test_mc_bar_counts_past_every_degree_are_refused_on_n_alone():
    def need(n, p):
        return (math.comb(n - 1, p) + math.comb(n - 1, n - 3 - p)) * (n - 1) * 8

    # 257 bars is the last count with a degree that fits
    assert min(need(257, p) for p in range(255)) <= MC_SETUP_BUDGET_BYTES
    assert min(need(258, p) for p in range(256)) > MC_SETUP_BUDGET_BYTES
    with pytest.raises(DomainError, match="every degree at 258 bars"):
        average_betti_mc(258, 0, Measure.CUBE, 1, 0)
    with pytest.raises(DomainError) as refused:
        average_betti_mc(257, 1, Measure.CUBE, 1, 0)
    assert str(refused.value) == (
        "Monte Carlo at n=257, p=1 needs 5398 MiB of subset rows, above the 64 MiB budget")
    # the budget counts member rows alone: with its anchor row and padding
    # columns the n = 257, p = 0 matrix passes 64 MiB, and it is admitted
    assert average_betti_mc(257, 0, Measure.CUBE, 1, 0).estimate == 1.0
    start = time.perf_counter()
    with pytest.raises(DomainError, match="64 MiB budget"):
        average_betti_mc(10**6, 5 * 10**5, Measure.SIMPLEX, 1, 0)
    assert time.perf_counter() - start < 0.25


@pytest.mark.parametrize(
    "samples, seed, workers", [(0, 0, 1), (10, -1, 1)]
)
def test_mc_refuses_bad_budgets_before_allocating(samples, seed, workers):
    # n = 21, p = 9 fits the set-up budget but builds about 51 MiB of rows
    start = time.perf_counter()
    with pytest.raises(DomainError):
        average_betti_mc(21, 9, Measure.SIMPLEX, samples, seed, workers=workers)
    assert time.perf_counter() - start < 0.25


def test_a_measure_name_reads_as_its_member(monkeypatch):
    engines = {
        "average_betti_exact": lambda m: average_betti_exact(7, 2, m),
        "convergence_table": lambda m: convergence_table(1, 4, 9, m),
        "average_betti_mc": lambda m: average_betti_mc(6, 1, m, 4096, 3),
        "functional_values": lambda m: functional_values((1, 0, 1, 1), m),
    }
    for name, call in engines.items():
        for measure in Measure:
            assert call(measure.value) == call(measure), (name, measure)
        for bad in ("both", "Simplex", None):
            with pytest.raises(ValueError, match="not a valid Measure"):
                call(bad)

    def no_set_up(n, p):
        raise AssertionError("the signed matrix was built for an unknown measure")

    monkeypatch.setattr(averages, "_signed_matrix", no_set_up)
    with pytest.raises(ValueError, match="not a valid Measure"):
        average_betti_mc(6, 1, "bogus", 10, 1)


def test_convergence_table_shape_and_decay():
    # the CLI's gap_ratio column, |gap(n) / gap(n-1)|, is checked in test_cli
    reports = convergence_table(0, 3, 10, Measure.SIMPLEX)
    assert [r.n for r in reports] == list(range(3, 11))
    assert all(type(r) is AverageReport and r.p == 0 for r in reports)
    gaps = [abs(r.gap) for r in reports]
    assert all(g > 0 for g in gaps)
    assert all(g < last for last, g in zip(gaps, gaps[1:]))


def test_convergence_table_keeps_a_zero_gap():
    gaps = {r.n: r.gap for r in convergence_table(1, 4, 8, Measure.CUBE)}
    assert gaps[5] == 0
    assert all(gaps[n] != 0 for n in (4, 6, 7, 8))


@st.composite
def _table_ranges(draw):
    """A degree, a measure as member or name, and a range of n, maybe empty."""
    measure = draw(st.sampled_from([*Measure, *(m.value for m in Measure)]))
    p = draw(st.integers(0, 6))
    n_min = draw(st.integers(p + 3, 30))
    return p, n_min, draw(st.integers(n_min - 3, n_min + 6)), measure


@settings(max_examples=40, deadline=timedelta(seconds=3))
@given(case=_table_ranges())
@example(case=(0, 5, 4, "simplex"))
@example(case=(2, 5, 5, Measure.CUBE))
def test_convergence_table_is_the_list_of_reports(case):
    p, n_min, n_max, measure = case
    expected = [average_betti_exact(n, p, measure) for n in range(n_min, n_max + 1)]
    assert convergence_table(p, n_min, n_max, measure) == expected


def test_eulerian_oracle_counts_descents():
    for m in range(1, 7):
        descents = Counter(
            sum(a > b for a, b in zip(perm, perm[1:]))
            for perm in itertools.permutations(range(m))
        )
        row = [descents[j] for j in range(m)]
        assert eulerian_numbers(m, m) == row
        assert eulerian_numbers(m, 2) == row[:2]
    assert irwin_hall_cdf(3, 1) == Fraction(1, 6)
    assert irwin_hall_cdf(3, 2) == Fraction(5, 6)


@st.composite
def _ceiling_sizes(draw):
    """A measure, n up to its exact ceiling and a size 2 <= k <= n - 2."""
    measure = draw(st.sampled_from(list(Measure)))
    n = draw(st.integers(4, EXACT_MAX_BARS[measure]))
    return measure, n, draw(st.integers(2, n - 2))


@settings(max_examples=8, deadline=timedelta(seconds=3))
@given(case=_ceiling_sizes())
@example(case=(Measure.SIMPLEX, EXACT_MAX_BARS[Measure.SIMPLEX], 50))
@example(case=(Measure.CUBE, EXACT_MAX_BARS[Measure.CUBE], 450))
def test_complement_identity_up_to_the_ceilings(case):
    # T(k) - T(n - k) = E[S_k] - C(n - 1, k): a short k-subset that misses
    # the longest bar is the complement of a long (n - k)-subset through it
    measure, n, k = case
    t_k = average_betti_exact(n, k - 1, measure).class_sums[0]
    t_rest = average_betti_exact(n, k - 2, measure).class_sums[1]
    assert t_k - t_rest == expected_short_subsets(n, k, measure) - math.comb(n - 1, k)


@st.composite
def _cube_degrees(draw):
    n = draw(st.integers(3, EXACT_MAX_BARS[Measure.CUBE]))
    return n, draw(st.integers(0, n - 3))


@settings(max_examples=8, deadline=timedelta(seconds=3))
@given(case=_cube_degrees())
@example(case=(EXACT_MAX_BARS[Measure.CUBE], 0))
@example(case=(EXACT_MAX_BARS[Measure.CUBE], 448))
def test_cube_gap_is_one_irwin_hall_cdf(case):
    # U -> 1 - U on the other n - 1 bars gives T(n - 2 - p) =
    # C(n-1, p+2) P(IH_{n-1} <= p+1) and T(p + 1) = C(n-1, p) (1 - that)
    n, p = case
    below = irwin_hall_cdf(n - 1, p + 1)
    report = average_betti_exact(n, p, Measure.CUBE)
    low, high = math.comb(n - 1, p), math.comb(n - 1, p + 2)
    assert report.class_sums == (low * (1 - below), high * below)
    assert report.gap == (low - high) * below


def test_cube_gap_nears_its_leading_term_up_to_the_ceiling():
    # L is -C(n-1, p+2) times the j = 0 term of F = P(IH_{n-1} <= p+1); the
    # j = 1 term and the C(n-1, p) part of the gap's weight bound the rest
    ceiling = EXACT_MAX_BARS[Measure.CUBE]
    for p in range(6):
        errors = []
        for report in convergence_table(p, p + 3, ceiling, Measure.CUBE):
            n = report.n
            lead = Fraction(-math.comb(n - 1, p + 2) * (p + 1) ** (n - 1), math.factorial(n - 1))
            error = abs(1 - report.gap / lead)
            weight = Fraction(math.comb(n - 1, p), math.comb(n - 1, p + 2))
            assert error <= weight + (n - 1) * Fraction(p, p + 1) ** (n - 1), (p, n)
            # past n = 2p + 3, where that weight is below 1, it alone bounds the error below
            assert n <= 2 * p + 3 or weight <= error, (p, n)
            errors.append(error)
        assert all(e < last for last, e in zip(errors, errors[1:])), p


def test_cube_gap_vanishes_at_n_equal_2p_plus_3():
    # C(2p + 2, p) = C(2p + 2, p + 2) zeroes the weight of the identity above
    for p in (2, 3, 10, 57, 200, (EXACT_MAX_BARS[Measure.CUBE] - 3) // 2):
        assert average_betti_exact(2 * p + 3, p, Measure.CUBE).gap == 0


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
    # the README example, the benchmark's two sizes, p = 0 (a column whose
    # subset is the anchor alone), n = 2p + 3 (one family twice; n = 3 is
    # both) and budgets that are multiples of neither CHUNK_SIZE nor the
    # tile rows; then one-row tiles (n = 19), a mean count above 2^16
    # (n = 21) and 852 of 5,000 rows whose anchor reaches half the total, so
    # no subset is short (n = 4)
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
        (6, 1, Measure.CUBE, 10_000),
        # one block of 49 82-row tiles, one whole tile, then a one-row tile
        (12, 4, Measure.SIMPLEX, 49 * 82 + 82 + 1),
    ],
)
def test_mc_matches_the_blockwise_oracle(n, p, measure, samples):
    seed = 17
    sampler = sample_unit_simplex if measure is Measure.SIMPLEX else sample_unit_cube
    # chunk k holds CHUNK_SIZE samples, the last one what is left
    chunks = [(k, min(CHUNK_SIZE, samples - k * CHUNK_SIZE))
              for k in range(-(-samples // CHUNK_SIZE))]
    total = total_sq = 0
    for index, count in chunks:
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


@pytest.mark.parametrize(
    "n, p, measure, samples",
    [
        (12, 4, Measure.SIMPLEX, CHUNK_SIZE + 1001),
        (14, 3, Measure.CUBE, 5000),
        (6, 1, Measure.CUBE, 10_000),
        # one subset-sum row fills a tile at the default _TILE_BYTES
        (19, 7, Measure.SIMPLEX, 40),
    ],
)
def test_mc_estimate_is_independent_of_tiles_and_blocks(n, p, measure, samples, monkeypatch):
    expected = average_betti_mc(n, p, measure, samples, 29)
    # _TILE_BYTES = 8 makes every tile one row (a matrix-vector product);
    # _BLOCK_ROWS = 77 cuts blocks that are neither tiles nor chunks, and
    # 2**20 bytes with 77 rows makes tiles longer than a block
    for tile_bytes, block_rows in ((8, 4096), (8, 77), (2**16, 77), (2**20, 77), (2**20, 10**5)):
        monkeypatch.setattr(averages, "_TILE_BYTES", tile_bytes)
        monkeypatch.setattr(averages, "_BLOCK_ROWS", block_rows)
        assert average_betti_mc(n, p, measure, samples, 29) == expected, (tile_bytes, block_rows)


def _counts_per_row(n, p, measure, rows, monkeypatch) -> list[int]:
    """The counts ``average_betti_mc`` makes of the given length vectors, one
    chunk of one row each, drawn in order from the measure's sampler."""
    feed = iter(rows)
    name = "sample_unit_simplex" if measure is Measure.SIMPLEX else "sample_unit_cube"
    monkeypatch.setattr(averages, name, lambda rng, count, n: np.array([next(feed)]))
    counts: list[int] = []

    def one_row_chunks(worker, samples, seed):
        parts = [worker(None, 1) for _ in range(samples)]
        counts.extend(total for total, _ in parts)
        return parts

    monkeypatch.setattr(averages, "map_chunks", one_row_chunks)
    average_betti_mc(n, p, measure, len(rows), 0)
    return counts


@pytest.mark.parametrize("measure", list(Measure))
@pytest.mark.parametrize("n, p", [(4, 0), (6, 1), (8, 2)])
def test_mc_counts_match_the_exact_oracle(n, p, measure, monkeypatch):
    sampler = sample_unit_simplex if measure is Measure.SIMPLEX else sample_unit_cube
    rows = sampler(np.random.default_rng([n, p]), 300, n)
    assert _counts_per_row(n, p, measure, rows, monkeypatch) == exact_mc_counts(rows, p)


def _near_median_rows(rng: np.random.Generator, n: int, p: int, count: int) -> np.ndarray:
    """Rows of sixteenths, full of exact medians, then as many rows in which
    one anchored subset J misses a median by a bar of 2^-70 alone.  There
    the other bars lie in [1/4, 1/2), one non-member is moved so that the
    anchor is exactly the rest's sum less J's other members, and the tiny
    bar joins J or the rest; float sums of such a row round by about 2^-53."""
    rows = [rng.integers(1, 16, n) / 16 for _ in range(count)]
    while len(rows) < 2 * count:
        others = [Fraction(x) for x in 0.25 + rng.random(n - 2) / 4]
        size = int(rng.choice([p, n - 3 - p]))
        tiny_in_j = min(size, int(rng.integers(2)))
        members = size - tiny_in_j  # J's bars in [1/4, 1/2)
        target = sum(others[members:]) - sum(others[:members])
        others[-1] -= target - Fraction(float(target))
        if target > 0.5:
            rows.append(np.array([float(target), *map(float, others), 2.0**-70]))
    return np.array(rows)


@pytest.mark.parametrize("n, p", [(5, 0), (6, 1), (7, 1)])
def test_mc_settles_near_medians_by_exact_sums(n, p, monkeypatch):
    rows = _near_median_rows(np.random.default_rng(n), n, p, 60)
    expected = exact_mc_counts(rows, p)
    fsum, rechecks = math.fsum, []

    def counting_fsum(values):
        rechecks.append(1)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    # through one estimate, in one tile of every row and then in tiles of one
    # to four rows and blocks of about ten ...
    for tile_bytes, block_rows in ((averages._TILE_BYTES, averages._BLOCK_ROWS), (256, 10)):
        monkeypatch.setattr(averages, "_TILE_BYTES", tile_bytes)
        monkeypatch.setattr(averages, "_BLOCK_ROWS", block_rows)
        feed = iter(rows)
        monkeypatch.setattr(averages, "sample_unit_cube", lambda rng, count, n: np.array(
            [next(feed) for _ in range(count)]))
        estimate = average_betti_mc(n, p, Measure.CUBE, len(rows), 0)
        assert estimate.estimate == sum(expected) / len(rows)
    assert rechecks
    # ... and row by row
    assert _counts_per_row(n, p, Measure.CUBE, rows, monkeypatch) == expected


@pytest.mark.parametrize("n, p, row", [(6, 1, (5, 4, 3, 3, 2, 1)),
                                       (8, 2, (7, 5, 4, 3, 3, 2, 1, 1))])
def test_mc_bound_covers_the_worst_product_error(n, p, row, monkeypatch):
    """Each row is a permutation of one row of sixteenths with exact median
    subsets, so every block has the one total T.  The tile product is exact
    but then reads each median or long sum within 0.99 gamma_n T of zero as
    -0.99 gamma_n T, an error a BLAS may make in any summation order; the
    bound B = 2 gamma_n T must still send those sums to the exact recount."""
    rows = np.array([np.random.default_rng([n, i]).permutation(row) for i in range(40)]) / 16
    expected = exact_mc_counts(rows, p)
    shift = 0.99 * n * 2.0**-53 / (1 - n * 2.0**-53) * sum(row) / 16
    exact_matmul, moved = np.matmul, []

    def loose_matmul(a, b, out=None):
        out = exact_matmul(a, b, out=out)
        near = (out >= 0) & (out <= shift)
        moved.append(np.count_nonzero(near))
        out[near] = -shift
        return out

    monkeypatch.setattr(np, "matmul", loose_matmul)
    # in one tile of every row ...
    feed = iter(rows)
    monkeypatch.setattr(averages, "sample_unit_cube", lambda rng, count, n: np.array(
        [next(feed) for _ in range(count)]))
    estimate = average_betti_mc(n, p, Measure.CUBE, len(rows), 0)
    assert estimate.estimate == sum(expected) / len(rows)
    assert sum(moved) > 0
    # ... and row by row
    assert _counts_per_row(n, p, Measure.CUBE, rows, monkeypatch) == expected


def _allocation_peak(*args, **kwargs) -> int:
    average_betti_mc(6, 1, Measure.SIMPLEX, 10, 0)  # numpy imported and warm
    tracemalloc.start()
    try:
        average_betti_mc(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_allocation_peaks():
    # one whole chunk of the benchmark's simplex case (1.5 MiB): one block of
    # rows is live, not the chunk (a whole sorted chunk peaked at 9.07 MiB)
    assert _allocation_peak(12, 4, Measure.SIMPLEX, CHUNK_SIZE, 0) < 4 * 2**20
    # the benchmark's cube case, four chunks one after another with one block
    # live at a time (1.64 MiB, as for one chunk; 3.1-3.7 MiB on two threads)
    assert _allocation_peak(14, 3, Measure.CUBE, 4 * CHUNK_SIZE, 0) < 2 * 2**20
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
                labels = [relabel[i] for i in (anchor,) + extra]
                total += subset_volume_term(members(labels, n), measure)
        return total

    for measure in Measure:
        expected = average_betti_exact(6, 1, measure).exact
        for anchor in (2, 4, 6):
            assert relabeled_sum(6, 1, measure, anchor) == expected
