"""Exact expected Betti numbers over random bar lengths, plus a sampling check.

For fixed n and degree p, the expected p-th Betti number under either measure
is a finite sum of simplex slice volumes.  Only subsets containing index 1
matter once lengths are sorted decreasingly, and only two cardinalities
contribute:

    E[b_p] = sum over J containing 1, |J| = p + 1      of  r(J)
           + sum over J containing 1, |J| = n - 2 - p  of  r(J),

where r(J) is the sorted-region volume fraction on which J is short (the
``subset_volume_term`` below).  Median subsets carry probability zero under
both continuous measures.  When the two cardinalities coincide (n = 2p + 3)
the same subsets are summed twice; that matches the per-instance formula,
whose middle degree also counts its short subsets twice.

The exact path is rational arithmetic end to end.  The Monte Carlo path
samples length vectors, evaluates the per-instance count on each, and is the
independent cross-check of choice for the exact values.
"""

from __future__ import annotations

import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import DomainError
from .linkages import IndexSubset
from .sampling import (
    MonteCarloEstimate,
    map_chunks,
    pool_size,
    sample_unit_cube,
    sample_unit_simplex,
)
from .simplexes import Measure, functional_values
from .slicing import slice_ratio

__all__ = [
    "EXACT_SCALE_TARGET",
    "AverageReport",
    "ConvergenceRow",
    "subset_classes",
    "subset_volume_term",
    "average_betti_exact",
    "convergence_table",
    "average_betti_mc",
]

EXACT_SCALE_TARGET = 16


def _check_degree(n: int, p: int) -> None:
    if n < 3:
        raise DomainError("expected Betti numbers need at least 3 bars")
    if not 0 <= p <= n - 3:
        raise DomainError(f"degree {p} outside 0..{n - 3}")


def subset_classes(n: int, p: int) -> tuple[Iterator[IndexSubset], Iterator[IndexSubset]]:
    """The two families of contributing subsets, each containing index 1.

    Returns iterators over the subsets of cardinality p + 1 and n - 2 - p.
    At n = 2p + 3 the cardinalities coincide and both iterators yield the
    same family; callers sum both anyway, which is the intended doubling.
    """
    _check_degree(n, p)

    def anchored(cardinality: int) -> Iterator[IndexSubset]:
        for extra in itertools.combinations(range(2, n + 1), cardinality - 1):
            yield IndexSubset.of((1,) + extra, n)

    return anchored(p + 1), anchored(n - 2 - p)


def subset_volume_term(subset: IndexSubset, measure: Measure) -> Fraction:
    """Sorted-region volume fraction on which the subset is short.

    This is the probability, under the given measure conditioned on the
    decreasing arrangement, that the bars in J sum to less than the rest;
    equivalently the negative-side slice ratio of J's signed-sum functional.
    """
    if len(subset) == 0:
        raise DomainError("the subset must be nonempty")
    return slice_ratio(functional_values(subset, measure))


@dataclass(frozen=True)
class AverageReport:
    """One exact expected Betti number and its binomial reference."""

    n: int
    p: int
    measure: Measure
    exact: Fraction
    binomial: int
    term_count: int
    class_sums: tuple[Fraction, Fraction]

    @property
    def gap(self) -> Fraction:
        """Signed distance binomial - exact; the quantity that should decay."""
        return self.binomial - self.exact


def _sum_terms(subsets: Iterator[IndexSubset], measure: Measure, workers: int) -> tuple[Fraction, int]:
    items = list(subsets)
    size = pool_size(workers, len(items))
    if size <= 1:
        values = [subset_volume_term(s, measure) for s in items]
    else:
        with ThreadPoolExecutor(max_workers=size) as pool:
            values = list(pool.map(lambda s: subset_volume_term(s, measure), items))
    return sum(values, Fraction(0)), len(items)


def average_betti_exact(
    n: int, p: int, measure: Measure, workers: int = 1
) -> AverageReport:
    """Exact expected p-th Betti number for n bars under the given measure."""
    _check_degree(n, p)
    if n > EXACT_SCALE_TARGET:
        warnings.warn(
            f"exact expectation at n={n} exceeds the tuned range "
            f"(n <= {EXACT_SCALE_TARGET}) and may be slow",
            RuntimeWarning,
            stacklevel=2,
        )
    first, second = subset_classes(n, p)
    sum1, count1 = _sum_terms(first, measure, workers)
    sum2, count2 = _sum_terms(second, measure, workers)
    return AverageReport(
        n=n,
        p=p,
        measure=measure,
        exact=sum1 + sum2,
        binomial=math.comb(n - 1, p),
        term_count=count1 + count2,
        class_sums=(sum1, sum2),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    """One convergence-table row: a report plus the gap shrink factor.

    ``gap_ratio`` is |gap(n)| / |gap(n-1)| against the previous row of the
    same measure, None on the first row or when the previous gap was exactly
    zero (division has no meaning there).
    """

    report: AverageReport
    gap_ratio: Fraction | None


def convergence_table(
    p: int, n_min: int, n_max: int, measure: Measure, workers: int = 1
) -> list[ConvergenceRow]:
    """Expected values against the binomial reference for n = n_min..n_max."""
    if n_min < p + 3:
        raise DomainError(f"need n_min >= {p + 3} so degree {p} exists")
    rows: list[ConvergenceRow] = []
    previous_gap: Fraction | None = None
    for n in range(n_min, n_max + 1):
        report = average_betti_exact(n, p, measure, workers=workers)
        gap = abs(report.gap)
        if previous_gap is None or previous_gap == 0:
            ratio = None
        else:
            ratio = gap / previous_gap
        rows.append(ConvergenceRow(report=report, gap_ratio=ratio))
        previous_gap = gap
    return rows


_COMBO_BLOCK = 128


def _combination_blocks(n: int, cardinality: int) -> list[np.ndarray]:
    """0/1 matrices whose rows pick cardinality - 1 of the n - 1 trailing slots."""
    picks = list(itertools.combinations(range(n - 1), cardinality - 1))
    blocks = []
    for start in range(0, len(picks), _COMBO_BLOCK):
        chunk = picks[start : start + _COMBO_BLOCK]
        mat = np.zeros((len(chunk), n - 1), dtype=np.float64)
        for row, cols in enumerate(chunk):
            mat[row, list(cols)] = 1.0
        blocks.append(mat)
    return blocks


def average_betti_mc(
    n: int,
    p: int,
    measure: Measure,
    samples: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Monte Carlo mean of the p-th Betti number over random length vectors.

    Each sample is sorted decreasingly; the largest bar is the anchor and the
    per-instance count reduces to short subsets through it at the two
    contributing cardinalities.  Ties and medians are probability-zero events
    in floating point and are ignored.  Chunk accumulators are exact integer
    sums, so the estimate depends only on (seed, samples).
    """
    _check_degree(n, p)
    sampler = sample_unit_simplex if measure is Measure.SIMPLEX else sample_unit_cube
    blocks = _combination_blocks(n, p + 1) + _combination_blocks(n, n - 2 - p)

    def worker(rng: np.random.Generator, count: int) -> tuple[int, int]:
        points = sampler(rng, count, n)
        points = -np.sort(-points, axis=1)
        anchor = points[:, 0]
        rest = points[:, 1:]
        half = points.sum(axis=1) * 0.5
        per_sample = np.zeros(count, dtype=np.int64)
        for block in blocks:
            sums = anchor[:, None] + rest @ block.T
            per_sample += (sums < half[:, None]).sum(axis=1)
        return int(per_sample.sum()), int(np.dot(per_sample, per_sample))

    parts = map_chunks(worker, samples, seed, workers)
    total = sum(part[0] for part in parts)
    total_sq = sum(part[1] for part in parts)
    mean = total / samples
    if samples > 1:
        variance = max(total_sq - total * total / samples, 0.0) / (samples - 1)
        stderr = math.sqrt(variance / samples)
    else:
        stderr = 0.0
    return MonteCarloEstimate(estimate=mean, stderr=stderr, samples=samples, seed=seed)
