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
below lists them; ``tests/oracles.py`` sums that definition).  Exchangeability
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
             C(n-k, b) / (1+a+b) * G(k-1, n-k, c_ab),
  c_ab = (1+a-b)/(1+a+b).  The lengths are iid Exp(1) up to scale; condition
  on the longest bar being t, expand "every other bar < t" by
  inclusion-exclusion over the a members and b non-members that exceed t,
  and by memorylessness those become t plus fresh exponentials.  What is
  left is G(K, m, c) = P(Gamma_K + c E < Gamma'_m), E ~ Exp(1), where
  Gamma_K and Gamma'_m are the K-th and m-th arrivals of two independent
  rate-1 Poisson processes.  Their merged arrivals are fair coin flips, so
  with probability C(K-1+i, i) / 2^(K+i) exactly i < m arrivals of the
  second come before the K-th of the first.  By memorylessness the second
  then needs m - i fresh arrivals, all before c E with probability r^(m-i),
  as P(Gamma_j < c E) = (c/(1+c))^j = r^j.  So for c >= 0
      G(K, m, c) = sum_{i < m} C(K-1+i, i) 2^-(K+i) (1 - r^(m-i)),
  which is 1 - r^m when K = 0, and G(K, m, c) = 1 - G(m, K, |c|) for c < 0.
  Each (a, b) term, r = (1+a-b)/(2+2a) or (b-1-a)/(2b), is one integer loop.

The exact path is rational arithmetic end to end and starts no threads; its
cost is capped per measure by ``EXACT_MAX_BARS``.  The Monte Carlo path
samples length vectors and counts each one's short subsets in L2-sized row
tiles of a 0/1 pick matrix product: J is short when fl(a + s) < h, a the
anchor, s the float sum of J's other members, h half the total.  Rounding to
nearest is monotone, so for floats s >= 0 that holds exactly when s < t, the
least float t >= 0 with fl(a + t) >= h; that one cut per sample (not
fl(h - a), wrong at near-ties) gives the same count bit for bit.  Only that
path uses numpy, so ``_pick_matrix`` and ``average_betti_mc`` import it when
they run; the exact path and the CLI commands built on it never load numpy.
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
from .simplexes import Measure

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EXACT_MAX_BARS",
    "MC_SETUP_BUDGET_BYTES",
    "AverageReport",
    "ConvergenceRow",
    "subset_classes",
    "average_betti_exact",
    "convergence_table",
    "average_betti_mc",
]

# Largest bar count per measure, for single values and convergence tables
# alike.  The costliest request it admits is a whole table, n = p + 3 up to
# the ceiling, at its costliest degree.  Timed interleaved, 3 runs each
# (CPython 3.11, one Xeon vCPU): cube p = 0 to 900 bars 11.6-12.3 s, simplex
# p = 34 to 100 bars 6.1-6.2 s.  One central degree at the ceiling takes
# 0.22 s (simplex) and 0.03 s (cube).  The rationals have about 2,300 digits
# (cube) and 1,100 (simplex) at the ceilings, within the 4,300 that Python's
# default int-to-str prints.
EXACT_MAX_BARS = {Measure.SIMPLEX: 100, Measure.CUBE: 900}


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


def _race(K: int, m: int, s: int, t: int) -> tuple[int, int]:
    """G(K, m, s/t) for t > 0 as (numerator, denominator), exactly.

    For s >= 0, r = s/v with v = s + t.  Over the denominator 2^(K+m-1) v^m,
    term i of G is C(K-1+i, i) 2^(m-1-i) (v^m - s^(m-i) v^i); one Horner
    loop adds up the s-parts.
    """
    if s < 0:
        top, bottom = _race(m, K, -s, t)
        return bottom - top, bottom
    whole = horner = 0
    binomial = v_power = 1
    for i in range(m):
        weight = binomial << (m - 1 - i)
        whole += weight
        horner = horner * s + weight * v_power
        v_power *= s + t
        binomial = binomial * (K + i) // (i + 1)
    return whole * v_power - s * horner, v_power << (K + m - 1)


def _anchored_short_simplex(n: int, k: int) -> Fraction:
    """T(k) under the simplex measure (module docstring)."""
    K, m = k - 1, n - k
    total = Fraction(0)
    for a in range(k):
        for b in range(m + 1):
            top, bottom = _race(K, m, 1 + a - b, 1 + a + b)
            weight = (-1) ** (a + b) * math.comb(K, a) * math.comb(m, b)
            total += Fraction(weight * top, (1 + a + b) * bottom)
    return n * math.comb(n - 1, k - 1) * total


def average_betti_exact(
    n: int, p: int, measure: Measure, workers: int = 1
) -> AverageReport:
    """Exact expected p-th Betti number for n bars under the given measure.

    Evaluates the closed forms of the module docstring, neither of which
    calls the slice kernel: an Irwin-Hall tail for the cube measure and
    O(n^2) integer sums G for the simplex.
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


# Bytes of the 0/1 float64 pick matrix ``average_betti_mc`` may build before
# its first sample: every degree up to 21 bars fits (51 MiB at n = 21, p = 9,
# for a 60 MiB allocation peak), central degrees at 22 bars (104 MiB) do not.
MC_SETUP_BUDGET_BYTES = 2**26

# Bytes of float64 sums in one row tile, sized so that they stay in L2.
_TILE_BYTES = 2**19


def _pick_matrix(n: int, p: int) -> np.ndarray:
    """0/1 matrix, n - 1 by S, with one column per contributing subset that
    marks its members among the n - 1 bars after the anchor.  Refused with
    DomainError, before numpy loads, above ``MC_SETUP_BUDGET_BYTES``."""
    sizes = (p, n - 3 - p)
    counts = [math.comb(n - 1, size) for size in sizes]
    need = sum(counts) * (n - 1) * 8
    if need > MC_SETUP_BUDGET_BYTES:
        raise DomainError(
            f"Monte Carlo at n={n}, p={p} needs {need / 2**20:.0f} MiB of subset "
            f"rows, above the {MC_SETUP_BUDGET_BYTES // 2**20} MiB budget"
        )
    import numpy as np

    picks = np.zeros((n - 1, sum(counts)))
    for size, count, start in zip(sizes, counts, (0, counts[0])):
        # int16 holds every slot: n <= 257 under MC_SETUP_BUDGET_BYTES
        combos = itertools.chain.from_iterable(itertools.combinations(range(n - 1), size))
        members = np.fromiter(combos, np.int16, count * size).reshape(count, size)
        columns = np.arange(start, start + count)
        for slot in members.T:
            picks[slot, columns] = 1.0
    return picks


def _exact_cut(anchor: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Per element, the least float t >= 0 with fl(anchor + t) >= half."""
    import numpy as np

    def reaches(bits: np.ndarray) -> np.ndarray:
        return anchor + bits.view(np.float64) >= half  # negative bits are NaN

    # bisect on bits within 2 floats of where sums round up to half, else 0..half
    guess = (half - anchor) - (half - np.nextafter(half, 0.0)) * 0.5
    start = np.maximum(guess, 0.0).view(np.int64)
    lo = np.where(reaches(start - 2), -1, start - 2)
    hi = np.where(reaches(start + 2), start + 2, half.view(np.int64))
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        up = reaches(mid)
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    return hi.view(np.float64)


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
    contributing cardinalities, one ``_pick_matrix`` column each, counted
    against the sample's cut in row tiles of ``_TILE_BYTES`` of sums, per row
    in uint32 (``MC_SETUP_BUDGET_BYTES`` keeps S <= 2^22).  Ties and medians
    are probability-zero events in floating point and are ignored.  Chunk
    accumulators are exact integer sums, so the estimate depends only on
    (seed, samples).  Refused with DomainError, before any set-up, for a bad
    sample, seed or worker count, and when the pick matrix would exceed
    ``MC_SETUP_BUDGET_BYTES``.
    """
    _check_budget(samples, seed, workers)
    _check_degree(n, p)
    picks = _pick_matrix(n, p)
    import numpy as np

    sampler = sample_unit_simplex if measure is Measure.SIMPLEX else sample_unit_cube
    tile = max(1, _TILE_BYTES // (8 * picks.shape[1]))

    def worker(rng: np.random.Generator, count: int) -> tuple[int, int]:
        points = sampler(rng, count, n)
        points = -np.sort(-points, axis=1)
        half = points.sum(axis=1) * 0.5
        # 4,096 rows at a time: small work arrays stay in cache, off the peak RSS
        cut = np.concatenate([_exact_cut(points[i:i + 4096, 0], half[i:i + 4096])
                              for i in range(0, count, 4096)])[:, None]
        sums = np.empty((min(tile, count), picks.shape[1]))
        short = np.empty(sums.shape, dtype=bool)
        per_sample = np.empty(count, dtype=np.int64)
        for start in range(0, count, tile):
            m = min(tile, count - start)
            rows = slice(start, start + m)
            np.matmul(points[rows, 1:], picks, out=sums[:m])
            np.less(sums[:m], cut[rows], out=short[:m])
            per_sample[rows] = np.add.reduce(short[:m].view(np.uint8), axis=1, dtype=np.uint32)
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
