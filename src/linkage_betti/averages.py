"""Exact expected Betti numbers over random bar lengths, plus a sampling check.

For fixed n and degree p, only subsets containing the longest bar matter once
lengths are sorted decreasingly, and only two cardinalities contribute.  Write
T(k) for the expected number of short k-subsets that contain the longest bar;
then

    E[b_p] = T(p + 1) + T(n - 2 - p).

Median subsets carry probability zero under both continuous measures.  When
the two cardinalities coincide (n = 2p + 3) T is counted twice; that matches
the per-instance formula, whose middle degree also counts its short subsets
twice.

Read literally, T(k) is a sum over the C(n-1, k-1) anchored subsets J of the
sorted-region volume fraction r(J) on which J is short (``subset_classes``
and ``subset_volume_term`` below, kept as that definition).  Exchangeability
collapses the sum to O(n^2) terms.  Below, A holds the k - 1 other members
of J and B the n - k non-members.

* cube measure (iid uniform lengths):
      T(k) = C(n-1, k-1) * P(IH_{n-1} > k),
  IH_m the Irwin-Hall sum of m iid U[0, 1], whose tail at an integer k is
  1 - sum_{j <= k} (-1)^j C(m, j) (k - j)^m / m!.  Conditioning on the
  longest bar and rescaling makes the other n - 1 lengths iid U[0, 1]; then
  J short reads 1 + sum_A U < sum_B U, and U -> 1 - U on A (same law) turns
  it into: the sum of all n - 1 exceeds k.
* simplex measure (uniform on the probability simplex):
      T(k) = n C(n-1, k-1) * sum_{a < k, b <= n-k} (-1)^(a+b) C(k-1, a)
             C(n-k, b) / (1+a+b) * slice_ratio(1^(k-1), (-1)^(n-k), c_ab),
  c_ab = (1+a-b)/(1+a+b), with exponents marking multiplicities.  The
  lengths are iid Exp(1) up to scale; condition on the longest bar being t,
  expand "every other bar < t" by inclusion-exclusion over the a members and
  b non-members that exceed t, and by memorylessness those become t plus
  fresh exponentials; the remaining comparison is the sign of a linear form
  in n iid exponentials, a slice ratio on three distinct values.

The exact path is rational arithmetic end to end and starts no threads; its
cost is capped per measure by ``EXACT_MAX_BARS``.  The Monte Carlo path
samples length vectors, evaluates the per-instance count on each, and is the
independent cross-check of choice for the exact values.  Only that path uses
numpy, so ``_combination_blocks`` and ``average_betti_mc`` import it when they
run; the exact path and the CLI commands built on it never load numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .errors import DomainError
from .linkages import IndexSubset
from .sampling import (
    MonteCarloEstimate,
    _check_budget,
    map_chunks,
    sample_unit_cube,
    sample_unit_simplex,
)
from .simplexes import Measure, functional_values
from .slicing import slice_ratio

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EXACT_MAX_BARS",
    "MC_SETUP_BUDGET_BYTES",
    "AverageReport",
    "ConvergenceRow",
    "subset_classes",
    "subset_volume_term",
    "average_betti_exact",
    "convergence_table",
    "average_betti_mc",
]

# Largest bar count per measure, for single values and convergence tables
# alike.  The costliest request it admits is a whole table, n = p + 3 up to
# the ceiling, at its costliest degree; that takes about 5 s (CPython 3.11,
# one Xeon vCPU): simplex p = 16 to 44 bars 5.3 s (45 bars 5.8 s), cube
# p = 0 to 900 bars 4.7 s (1,000 bars 7.0 s).  One central degree at the
# ceiling takes 0.6 s (simplex) and 0.02 s (cube).  The cube rationals have
# about 2,300 digits at 900 bars, within the 4,300 that Python's default
# int-to-str conversion prints.
EXACT_MAX_BARS = {Measure.SIMPLEX: 44, Measure.CUBE: 900}


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
    """One exact expected Betti number and its binomial reference.

    ``class_sums`` holds T(p + 1) and T(n - 2 - p).  ``term_count`` is the
    number of anchored subsets they cover, C(n-1, p) + C(n-1, n-3-p), not the
    number of terms the closed forms evaluate.
    """

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


def _check_exact_size(n: int, measure: Measure) -> None:
    ceiling = EXACT_MAX_BARS[measure]
    if n > ceiling:
        raise DomainError(
            f"exact {measure} expectations take at most {ceiling} bars, got {n}"
        )


def _irwin_hall_tail(m: int, k: int) -> Fraction:
    """P(U_1 + ... + U_m > k) for m iid U[0, 1] and an integer k >= 0."""
    below = sum((-1) ** j * math.comb(m, j) * (k - j) ** m for j in range(k + 1))
    return 1 - Fraction(below, math.factorial(m))


def _anchored_short_cube(n: int, k: int) -> Fraction:
    """T(k) under the cube measure (module docstring)."""
    return math.comb(n - 1, k - 1) * _irwin_hall_tail(n - 1, k)


def _anchored_short_simplex(n: int, k: int) -> Fraction:
    """T(k) under the simplex measure (module docstring)."""
    signs = [Fraction(1)] * (k - 1) + [Fraction(-1)] * (n - k)
    total = Fraction(0)
    for a in range(k):
        for b in range(n - k + 1):
            rate = 1 + a + b
            weight = Fraction(
                (-1) ** (a + b) * math.comb(k - 1, a) * math.comb(n - k, b), rate
            )
            total += weight * slice_ratio(signs + [Fraction(1 + a - b, rate)])
    return n * math.comb(n - 1, k - 1) * total


def average_betti_exact(
    n: int, p: int, measure: Measure, workers: int = 1
) -> AverageReport:
    """Exact expected p-th Betti number for n bars under the given measure.

    Evaluates the closed forms of the module docstring: no kernel call for
    the cube measure, O(n^2) three-value slice ratios for the simplex.
    Refused with DomainError above ``EXACT_MAX_BARS[measure]`` bars.
    ``workers`` is accepted and ignored; the exact path starts no threads.
    """
    _check_degree(n, p)
    _check_exact_size(n, measure)
    anchored_short = (
        _anchored_short_simplex if measure is Measure.SIMPLEX else _anchored_short_cube
    )
    first = anchored_short(n, p + 1)
    second = first if n == 2 * p + 3 else anchored_short(n, n - 2 - p)
    return AverageReport(
        n=n,
        p=p,
        measure=measure,
        exact=first + second,
        binomial=math.comb(n - 1, p),
        term_count=math.comb(n - 1, p) + math.comb(n - 1, n - 3 - p),
        class_sums=(first, second),
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
    p: int, n_min: int, n_max: int, measure: Measure
) -> list[ConvergenceRow]:
    """Expected values against the binomial reference for n = n_min..n_max.

    ``n_max`` is checked against ``EXACT_MAX_BARS`` before the first row.
    """
    if n_min < p + 3:
        raise DomainError(f"need n_min >= {p + 3} so degree {p} exists")
    _check_exact_size(n_max, measure)
    rows: list[ConvergenceRow] = []
    previous_gap: Fraction | None = None
    for n in range(n_min, n_max + 1):
        report = average_betti_exact(n, p, measure)
        gap = abs(report.gap)
        if previous_gap is None or previous_gap == 0:
            ratio = None
        else:
            ratio = gap / previous_gap
        rows.append(ConvergenceRow(report=report, gap_ratio=ratio))
        previous_gap = gap
    return rows


_COMBO_BLOCK = 128

# Bytes of 0/1 float64 subset rows ``average_betti_mc`` may build before its
# first sample: every degree up to 21 bars (51 MiB at n = 21, p = 9, for a
# 71 MiB allocation peak).  Central degrees at 22 bars (104 MiB) and beyond
# are refused.
MC_SETUP_BUDGET_BYTES = 2**26


def _check_mc_setup(n: int, p: int) -> None:
    rows = math.comb(n - 1, p) + math.comb(n - 1, n - 3 - p)
    need = rows * (n - 1) * 8
    if need > MC_SETUP_BUDGET_BYTES:
        raise DomainError(
            f"Monte Carlo at n={n}, p={p} needs {need / 2**20:.0f} MiB of subset "
            f"rows, above the {MC_SETUP_BUDGET_BYTES // 2**20} MiB budget"
        )


def _combination_blocks(n: int, cardinality: int) -> list[np.ndarray]:
    """0/1 matrices whose rows pick cardinality - 1 of the n - 1 trailing slots."""
    import numpy as np

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
    sums, so the estimate depends only on (seed, samples).  Refused with
    DomainError, before any set-up, for a bad sample, seed or worker count,
    and when the subset rows would exceed ``MC_SETUP_BUDGET_BYTES``.
    """
    _check_budget(samples, seed, workers)
    _check_degree(n, p)
    _check_mc_setup(n, p)
    import numpy as np

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
