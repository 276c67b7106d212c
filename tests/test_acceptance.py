"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s``) and enforcing a wall-clock
budget.

The criteria, in order:

 1. equilateral odd polygons match the binomial closed form exactly;
 2. a three-long-bars-plus-short-bars polygon matches its doubled
    binomial closed form exactly;
 3. triangle expectations equal the classical broken-stick values
    exactly, and Monte Carlo agrees within three standard errors;
 4. exact expectations and Monte Carlo agree within three standard
    errors across a grid of small polygons, both measures;
 5. the gap between the expected Betti number and its binomial limit
    decays geometrically in the bar count, for both measures;
 6. algebraic identities of the slice kernel hold exactly on seeded
    random corpora (partition of unity, complementation, agreement with
    the partial-fraction and weak-composition closed forms, perturbation
    limits);
 7. slice formulas match an independent planar-clipping oracle exactly
    and a Monte Carlo oracle within three standard errors;
 8. the structural bounds on density and vertex-value sequences hold on
    a large random corpus of subsets;
 9. the cut distribution function is a genuine distribution function:
    monotone, pinned at the extreme vertex values, and continuous
    across the knots between its polynomial pieces;
10. the cube-measure degree-0 gap equals (1 - C(n-1, 2)) / (n-1)! exactly
    for 4 <= n <= 200;
11. the cube-measure |gap| strictly decreases out to n = 200 for
    p = 0..3;
12. the simplex-measure |gap| strictly decreases for p = 0..3 out to
    n = 100, the exact simplex ceiling;
13. the simplex-measure degree-0 gap approaches n / 2^(n-1): the ratio
    rises toward 1 out to n = 40.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from linkage_betti import (
    LengthVector,
    Measure,
    average_betti_exact,
    average_betti_mc,
    betti_profile,
    convergence_table,
    slice_ratio,
)

from lemma_checks import check_all
from oracles import (
    distinct_slice_ratio,
    mc_slice_ratio,
    members,
    triangle_negative_fraction,
    weak_composition_slice_ratio,
)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(
            f"criterion {number} ({label}): FAIL "
            f"(took {elapsed:.2f}s, budget {budget_seconds:g}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds:g}s budget: {elapsed:.2f}s"
        )
    print(
        f"criterion {number} ({label}): PASS ({elapsed:.2f}s, budget {budget_seconds:g}s)"
    )


# ---------------------------------------------------------------------------
# seeded corpora


def _distinct_rationals(rnd: random.Random, count: int, denominator: int = 12):
    pool = [Fraction(k, denominator) for k in range(-5 * denominator, 5 * denominator + 1)]
    return rnd.sample(pool, count)


def _mixed_sign_confluent(rnd: random.Random):
    while True:
        groups = rnd.randint(2, 5)
        distinct = sorted(
            rnd.sample([Fraction(k, 8) for k in range(-48, 49)], groups),
            reverse=True,
        )
        mults = [rnd.randint(1, 3) for _ in range(groups)]
        if all(m == 1 for m in mults):
            continue
        if not (distinct[0] > 0 and distinct[-1] < 0):
            continue
        return tuple(distinct), tuple(mults)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_equilateral_closed_form():
    with criterion(1, "equilateral closed form", 5.0):
        for n in (7, 9, 11):
            profile = betti_profile(LengthVector.of(*[1] * n))
            for p in range((n - 3) // 2):  # below the middle degree
                assert profile.values[p] == math.comb(n - 1, p)


def test_criterion_2_near_degenerate_closed_form():
    with criterion(2, "near-degenerate closed form", 1.0):
        epsilon = Fraction(1, 100)
        profile = betti_profile(LengthVector.of(1, 1, 1, *[epsilon] * 5))
        for p in (0, 1, 2):
            assert profile.values[p] == 2 * math.comb(5, p)


def test_criterion_3_triangle_averages():
    with criterion(3, "classical triangle averages", 10.0):
        # A triangle has two rigid configurations when the triangle
        # inequality holds and none otherwise, so the expectation is twice
        # the classical triangle probability: 1/4 for a broken stick
        # (simplex measure), 1/2 for three independent uniform lengths.
        expectations = {
            Measure.SIMPLEX: 2 * Fraction(1, 4),
            Measure.CUBE: 2 * Fraction(1, 2),
        }
        for measure, expected in expectations.items():
            assert average_betti_exact(3, 0, measure).exact == expected
            estimate = average_betti_mc(3, 0, measure, 100_000, seed=4242)
            assert abs(estimate.estimate - float(expected)) <= 3 * estimate.stderr


def test_criterion_4_exact_vs_monte_carlo_grid():
    with criterion(4, "exact vs Monte Carlo on the small grid", 120.0):
        for n in range(5, 10):
            for p in (0, 1):
                for measure in (Measure.SIMPLEX, Measure.CUBE):
                    exact = float(average_betti_exact(n, p, measure).exact)
                    estimate = average_betti_mc(
                        n, p, measure, 100_000, seed=31_000 + 7 * n + p
                    )
                    assert abs(estimate.estimate - exact) <= 3 * estimate.stderr, (
                        n,
                        p,
                        measure,
                        exact,
                        estimate,
                    )


def test_criterion_5_binomial_gap_geometric_decay():
    with criterion(5, "geometric decay of the binomial gap", 600.0):
        for p in (0, 1):
            for measure in (Measure.SIMPLEX, Measure.CUBE):
                gaps = _gaps(p, 14, measure)
                for n in range(8, 14):
                    assert gaps[n + 1] < gaps[n], (p, measure, n)
                assert gaps[14] < Fraction(2, 100) * math.comb(13, p), (p, measure)


def test_criterion_6_slice_kernel_identities():
    with criterion(6, "slice kernel identities", 60.0):
        rnd = random.Random(20260818)
        for _ in range(200):
            values = _distinct_rationals(rnd, rnd.randint(3, 12))

            unity = Fraction(0)
            for i, qi in enumerate(values):
                term = Fraction(1)
                for j, qj in enumerate(values):
                    if j != i:
                        term *= qi / (qi - qj)
                unity += term
            assert unity == 1, values

            assert slice_ratio(values) + slice_ratio([-v for v in values]) == 1

            # all multiplicities are 1 here, so every closed form must agree
            assert slice_ratio(values) == distinct_slice_ratio(values)
            assert weak_composition_slice_ratio(values) == distinct_slice_ratio(values)

        done = 0
        while done < 50:
            grouped = _mixed_sign_confluent(rnd)
            target = slice_ratio([q for q, m in zip(*grouped) for _ in range(m)])
            distances = []
            collided = False
            for eps in (Fraction(1, 10**3), Fraction(1, 10**4), Fraction(1, 10**5)):
                separated = []
                for q, mult in zip(*grouped):
                    separated.extend(q + eps * t for t in range(mult))
                if len(set(separated)) != len(separated):
                    collided = True
                    break
                distances.append(abs(distinct_slice_ratio(separated) - target))
            if collided:
                continue
            assert distances[0] > distances[1] > distances[2], (
                grouped,
                [float(d) for d in distances],
            )
            done += 1


def test_criterion_7_slice_vs_geometry_and_monte_carlo():
    with criterion(7, "slice formulas vs geometry and Monte Carlo", 60.0):
        third = (Fraction(-1), Fraction(1), Fraction(2))
        assert slice_ratio(third) == Fraction(1, 6)
        assert distinct_slice_ratio(third) == Fraction(1, 6)
        assert triangle_negative_fraction(*third) == Fraction(1, 6)

        repeated_positive = [Fraction(-1), Fraction(1), Fraction(1)]
        assert slice_ratio(repeated_positive) == Fraction(1, 4)
        assert weak_composition_slice_ratio(repeated_positive) == Fraction(1, 4)
        assert triangle_negative_fraction(*repeated_positive) == Fraction(1, 4)

        repeated_negative = [Fraction(-1), Fraction(-1), Fraction(1)]
        assert slice_ratio(repeated_negative) == Fraction(3, 4)
        assert weak_composition_slice_ratio(repeated_negative) == Fraction(3, 4)
        assert triangle_negative_fraction(*repeated_negative) == Fraction(3, 4)

        rnd = random.Random(640)
        for index in range(20):
            count = rnd.randint(3, 8)
            values = [Fraction(rnd.randint(-30, 30), 6) for _ in range(count)]
            exact = slice_ratio(values)
            estimate = mc_slice_ratio(values, 1_000_000, seed=640 + index)
            if estimate.stderr == 0:
                assert estimate.estimate == float(exact), (values, exact, estimate)
            else:
                assert abs(estimate.estimate - float(exact)) <= 3 * estimate.stderr, (
                    values,
                    exact,
                    estimate,
                )


def test_criterion_8_lemma_property_suite():
    with criterion(8, "density and vertex-value bounds", 30.0):
        rnd = random.Random(424242)
        for _ in range(1000):
            n = rnd.randint(1, 40)
            size = rnd.randint(1, min(6, n))
            check_all(members(rnd.sample(range(1, n + 1), size), n))


def test_criterion_9_cut_distribution_function():
    with criterion(9, "cut distribution function", 30.0):
        rnd = random.Random(90909)

        def piece(values, active, x):
            total = Fraction(0)
            for k in active:
                term = Fraction(1)
                for j, qj in enumerate(values):
                    if j != k:
                        term *= (values[k] - x) / (values[k] - qj)
                total += term
            return total

        for _ in range(100):
            values = _distinct_rationals(rnd, rnd.randint(3, 8), denominator=10)
            low, high = min(values), max(values)
            def cdf(x):
                return slice_ratio([q - x for q in values])

            assert cdf(low) == 0
            assert cdf(high) == 1

            previous = None
            for t in range(50):
                x = low + (high - low) * Fraction(t, 49)
                y = cdf(x)
                if previous is not None:
                    assert y >= previous, (values, x)
                previous = y

            # adjacent polynomial pieces meet exactly at every knot: the
            # piece below a knot omits that knot's term, the piece above
            # includes it, and the extra term vanishes there
            for knot in sorted(values):
                below = [k for k, q in enumerate(values) if q < knot]
                above = [k for k, q in enumerate(values) if q <= knot]
                assert piece(values, below, knot) == piece(values, above, knot), (
                    values,
                    knot,
                )


def _gaps(p: int, n_max: int, measure: Measure) -> dict[int, Fraction]:
    return {report.n: abs(report.gap) for report in convergence_table(p, p + 3, n_max, measure)}


def test_criterion_10_cube_degree_zero_gap_closed_form():
    with criterion(10, "cube degree-0 gap in closed form", 10.0):
        for n in range(4, 201):
            expected = Fraction(1 - math.comb(n - 1, 2), math.factorial(n - 1))
            assert average_betti_exact(n, 0, Measure.CUBE).gap == expected, n


def test_criterion_11_cube_gap_decay_to_200_bars():
    with criterion(11, "cube gap decay to 200 bars", 10.0):
        # first n from which |gap| strictly decreases, by degree
        for p, start in ((0, 4), (1, 7), (2, 9), (3, 11)):
            gaps = _gaps(p, 200, Measure.CUBE)
            for n in range(start, 200):
                assert gaps[n + 1] < gaps[n], (p, n)
            assert not gaps[start] < gaps[start - 1], p


def test_criterion_12_simplex_gap_decay():
    # n = 100 is the largest bound that fits: it is EXACT_MAX_BARS for the
    # simplex, and the four tables take about 0.5 s (CPython 3.11, one Xeon
    # vCPU), well inside the budget.
    with criterion(12, "simplex gap decay to 100 bars", 30.0):
        for p, start in ((0, 3), (1, 4), (2, 7), (3, 12)):
            gaps = _gaps(p, 100, Measure.SIMPLEX)
            for n in range(start, 100):
                assert gaps[n + 1] < gaps[n], (p, n)
            if start > p + 3:
                assert not gaps[start] < gaps[start - 1], p


def test_criterion_13_simplex_degree_zero_gap_asymptotics():
    with criterion(13, "simplex degree-0 gap against n / 2^(n-1)", 10.0):
        gaps = _gaps(0, 40, Measure.SIMPLEX)
        ratios = {n: gap * 2 ** (n - 1) / n for n, gap in gaps.items()}
        assert ratios[4] == ratios[5] == Fraction(1, 2)
        for n in range(5, 40):
            assert ratios[n] < ratios[n + 1] < 1, n
        assert ratios[10] == Fraction(29, 32)
        assert 1 - ratios[20] < Fraction(5, 10**4)
        assert 1 - ratios[40] < Fraction(2, 10**9)
