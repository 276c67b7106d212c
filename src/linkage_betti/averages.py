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
collapses the sum to O(n) terms (cube) or O(n^2) (simplex).  Below, A holds
the k - 1 other members of J and B the n - k non-members.

* cube measure (iid uniform lengths): with F = P(IH_{n-1} <= p + 1),
      E[b_p] = C(n-1, p) (1 - F) + C(n-1, p+2) F,
  IH_m the Irwin-Hall sum of m iid U[0, 1].  Conditioning on the longest bar
  and rescaling makes the other n - 1 lengths iid U[0, 1], and J short reads
  1 + sum_A U < sum_B U.  U -> 1 - U on A turns that into IH_{n-1} > k, so
  T(p + 1) = C(n-1, p) (1 - F); U -> 1 - U on B instead turns it into
  IH_{n-1} < n - 1 - k, so T(n - 2 - p) = C(n-1, p+2) F.  At an integer k,
  P(IH_m <= k) = sum_{j <= k} (-1)^j C(m, j) (k - j)^m / m!, and m - IH_m has
  the law of IH_m, so min(k, m - k) + 1 terms serve.
* simplex measure (uniform on the probability simplex): with K = k - 1,
  m = n - k and w_ab = (-1)^(a+b) C(K, a) C(m, b),
      T(k) = n C(n-1, K) sum_{a <= K, b <= m} w_ab G(K, m, c_ab) / (1+a+b),
  c_ab = (1+a-b)/(1+a+b).  The lengths are iid Exp(1) up to scale; condition
  on the longest bar being t, expand "every other bar < t" by
  inclusion-exclusion over the a members and b non-members that exceed t,
  and by memorylessness those become t plus fresh exponentials.  What is
  left is G(K, m, c) = P(Gamma_K + c E < Gamma'_m), E ~ Exp(1), where
  Gamma_K and Gamma'_m are the K-th and m-th arrivals of two independent
  rate-1 Poisson processes.  Their merged arrivals are fair coin flips, so
  with probability C(K-1+i, i) / 2^(K+i) exactly i < m arrivals of the
  second come before the K-th of the first, and over i < m these add up to
  W = P(Bin(n-2, 1/2) >= K).  By memorylessness the second then needs m - i
  fresh arrivals, all before c E with probability (c/(1+c))^(m-i).  So, with
  tau(F, N, x) = sum_{i < N} C(F-1+i, i) x^(N-i),
      G = W - 2^(1-n) tau(K, m, (1+a-b)/(1+a))                   for c >= 0,
      G = 1 - G(m, K, |c|) = W + 2^(1-n) tau(m, K, (b-1-a)/b)    for c < 0,
  the latter as P(Bin(n-2, 1/2) < m) = W.  As sum_ab w_ab / (1+a+b) =
  int_0^1 (1-x)^(n-1) dx = 1/n, the terms' W parts collapse to one tail:
      T(k) = C(n-1, K) [W - n 2^(1-n) (sum_{c>=0} - sum_{c<0}) w_ab tau / (1+a+b)].
  The c >= 0 terms with one a share the weights C(K-1+i, i) (1+a)^i and the
  denominator (1+a)^m lcm(1+a+b), the c < 0 terms with one b share
  C(m-1+j, j) b^j and b^K lcm(1+a+b); each group is one integer numerator.

The exact path is rational arithmetic end to end and starts no threads; its
cost is capped per measure by ``EXACT_MAX_BARS``.  The Monte Carlo path draws
and sorts each chunk's length vectors in blocks of whole row tiles
(``_BLOCK_ROWS`` rows or one tile), each draw continuing the chunk's stream,
and counts short subsets in L2-sized row tiles of one product with a signed
matrix, +1 for the anchor a and J's other members and -1 for the rest:
d = a + sum_J x - sum_rest x, and J is short exactly when d < 0 (a median
subset, d = 0, is not).  Each +-1 product is exact, so in any summation order
the rounded d lies within gamma_n T of the exact one, T the row total and
gamma_n = n u / (1 - n u), u = 2^-53.  With B = 2 gamma_n times the largest
total in the block, d < -B counts as short, d > B as not, and each d within
B of zero takes the sign of its ``math.fsum``, which rounds correctly.  So an
estimate depends on the drawn floats alone, not on the tile shape, the block
size or how BLAS groups the terms.  Only that path uses numpy, so
``_signed_matrix`` and ``average_betti_mc`` import it when they run; the
exact path and the CLI commands built on it never load numpy.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import DomainError, check_degree
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
# the ceiling, at its costliest degree (CPython 3.11, one Xeon vCPU): simplex
# p = 34 to 100 bars 0.7-0.9 s in 3 runs, cube p = 350 to 900 bars 2.6-4.1 s
# in 10 runs; one central degree at the ceiling 0.03 s (simplex), 0.02 s
# (cube).  The rationals have about 2,300 digits (cube) and 1,100 (simplex)
# at the ceilings, within the 4,300 that Python's default int-to-str prints.
EXACT_MAX_BARS = {Measure.SIMPLEX: 100, Measure.CUBE: 900}


def subset_classes(
    n: int, p: int
) -> tuple[Iterator[tuple[int, ...]], Iterator[tuple[int, ...]]]:
    """The two families of contributing subsets, each containing index 1.

    Returns iterators over the subsets of cardinality p + 1 and n - 2 - p, as
    0/1 membership tuples of length n with entry 0 set for the anchor.
    At n = 2p + 3 the cardinalities coincide and both iterators yield the
    same family; callers sum both anyway, which is the intended doubling.
    """
    check_degree(n, p)

    def anchored(cardinality: int) -> Iterator[tuple[int, ...]]:
        for extra in itertools.combinations(range(1, n), cardinality - 1):
            yield (1, *(int(i in extra) for i in range(1, n)))

    return anchored(p + 1), anchored(n - 2 - p)


class AverageReport(NamedTuple):
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


def _checked_measure(n: int, measure: Measure | str) -> Measure:
    """``Measure(measure)``, refused with DomainError above its ``EXACT_MAX_BARS``."""
    measure = Measure(measure)
    ceiling = EXACT_MAX_BARS[measure]
    if n > ceiling:
        raise DomainError(f"exact {measure} expectations take at most {ceiling} bars, got {n}")
    return measure


def _irwin_hall_cdf(m: int, k: int) -> Fraction:
    """P(U_1 + ... + U_m <= k) for m iid U[0, 1] and an integer 0 <= k <= m."""
    if 2 * k > m:
        return 1 - _irwin_hall_cdf(m, m - k)
    below = sum((-1) ** j * math.comb(m, j) * (k - j) ** m for j in range(k + 1))
    return Fraction(below, math.factorial(m))


def _horner_group(first: int, count: int, base: int, terms: list[tuple[int, ...]]) -> Fraction:
    """sum w tau(first, count, s/base) / d over terms (w, s, d), over the shared
    denominator base^count lcm(d); each s^count tau is one Horner pass in s."""
    weights, binomial, power = [], 1, 1
    for i in range(count):  # C(first-1+i, i) base^i
        weights.append(binomial * power)
        binomial, power = binomial * (first + i) // (i + 1), power * base
    lcm = math.lcm(*(d for _, _, d in terms))
    top = 0
    for w, s, d in terms:
        h = 0
        for weight in weights:
            h = h * s + weight
        top += w * s * h * (lcm // d)
    return Fraction(top, power * lcm)


def _anchored_short_simplex(n: int, k: int) -> Fraction:
    """T(k) under the simplex measure (module docstring)."""
    K, m = k - 1, n - k
    left = [(-1) ** a * math.comb(K, a) for a in range(k)]
    right = [(-1) ** b * math.comb(m, b) for b in range(m + 1)]
    rest = Fraction(0)
    for a in range(k):  # c >= 0, grouped by a; b = 1 + a has s = 0
        terms = [(left[a] * right[b], 1 + a - b, 1 + a + b) for b in range(min(a, m) + 1)]
        rest += _horner_group(K, m, 1 + a, terms)
    for b in range(2, m + 1):  # c < 0, grouped by b
        terms = [(left[a] * right[b], b - 1 - a, 1 + a + b) for a in range(min(K, b - 2) + 1)]
        rest -= _horner_group(m, K, b, terms)
    tail = Fraction(sum(math.comb(n - 2, i) for i in range(K, n - 1)), 2 ** (n - 2))
    return math.comb(n - 1, K) * (tail - Fraction(n * rest, 2 ** (n - 1)))


def average_betti_exact(
    n: int, p: int, measure: Measure | str, workers: int = 1
) -> AverageReport:
    """Exact expected p-th Betti number for n bars under the given measure.

    Evaluates the closed forms of the module docstring, neither of which
    calls the slice kernel: one Irwin-Hall CDF for the cube measure, and for
    the simplex two T, each one binomial tail plus n + 1 Horner groups.
    ``measure`` is a ``Measure`` or its name; any other value raises
    ValueError before any work.  Refused with DomainError above
    ``EXACT_MAX_BARS[measure]`` bars.  ``workers`` is accepted and ignored;
    the exact path starts no threads.
    """
    check_degree(n, p)
    measure = _checked_measure(n, measure)
    if measure is Measure.CUBE:
        below = _irwin_hall_cdf(n - 1, p + 1)
        first = math.comb(n - 1, p) * (1 - below)
        second = math.comb(n - 1, p + 2) * below
    else:
        first, second = (_anchored_short_simplex(n, k) for k in (p + 1, n - 2 - p))
    return AverageReport(
        n=n,
        p=p,
        measure=measure,
        exact=first + second,
        binomial=math.comb(n - 1, p),
        term_count=math.comb(n - 1, p) + math.comb(n - 1, n - 3 - p),
        class_sums=(first, second),
    )


class ConvergenceRow(NamedTuple):
    """One convergence-table row: a report plus the gap shrink factor.

    ``gap_ratio`` is |gap(n)| / |gap(n-1)| against the previous row of the
    same measure, None on the first row or when the previous gap was exactly
    zero (division has no meaning there).
    """

    report: AverageReport
    gap_ratio: Fraction | None


def convergence_table(
    p: int, n_min: int, n_max: int, measure: Measure | str
) -> list[ConvergenceRow]:
    """Expected values against the binomial reference for n = n_min..n_max.

    ``measure`` is a ``Measure`` or its name, else ValueError.  It, the
    degree, ``n_min`` and ``n_max`` (against ``EXACT_MAX_BARS``) are checked
    before the first row, so an empty range is checked too.
    """
    check_degree(n_min, p)
    measure = _checked_measure(n_max, measure)
    rows: list[ConvergenceRow] = []
    previous_gap: Fraction | None = None
    for n in range(n_min, n_max + 1):
        report = average_betti_exact(n, p, measure)
        gap = abs(report.gap)
        ratio = gap / previous_gap if previous_gap else None  # None after a zero gap too
        rows.append(ConvergenceRow(report=report, gap_ratio=ratio))
        previous_gap = gap
    return rows


# Bytes of the signed matrix's n - 1 member rows ``average_betti_mc`` may
# build before its first sample (plus the anchor row and up to 7 padding
# columns): every degree up to 21 bars fits (51 MiB at n = 21, p = 9, a
# 62 MiB allocation peak), central degrees at 22 bars (104 MiB) do not.
MC_SETUP_BUDGET_BYTES = 2**26

# Bytes of float64 sums in one row tile, sized so that they stay in L2.
_TILE_BYTES = 2**19
# Rows drawn, sorted and counted at a time, rounded down to whole tiles.
_BLOCK_ROWS = 4096


def _signed_matrix(n: int, p: int) -> np.ndarray:
    """n rows of +-1, one column per contributing subset with +1 for the anchor
    and the subset's members, then all-+1 columns up to a multiple of 8.
    Refused with DomainError, before numpy loads, when its n - 1 member rows
    pass ``MC_SETUP_BUDGET_BYTES``."""
    # p = 0 and p = n - 3 are the cheapest degrees, past the budget from 258
    # bars on; refusing there on n alone spares C(n - 1, p) at large n
    cheapest = (1 + (n - 1) * (n - 2) // 2) * (n - 1) * 8
    if cheapest > MC_SETUP_BUDGET_BYTES:
        raise DomainError(
            f"Monte Carlo at n={n}, p={p} needs subset rows above the "
            f"{MC_SETUP_BUDGET_BYTES // 2**20} MiB budget, as every degree at {n} bars does"
        )
    sizes = (p, n - 3 - p)
    counts = [math.comb(n - 1, size) for size in sizes]
    need = sum(counts) * (n - 1) * 8
    if need > MC_SETUP_BUDGET_BYTES:
        raise DomainError(
            f"Monte Carlo at n={n}, p={p} needs {need / 2**20:.0f} MiB of subset "
            f"rows, above the {MC_SETUP_BUDGET_BYTES // 2**20} MiB budget"
        )
    import numpy as np

    subsets = sum(counts)
    signed = np.full((n, -(-subsets // 8) * 8), -1.0)
    signed[0] = 1.0
    signed[:, subsets:] = 1.0
    for size, count, start in zip(sizes, counts, (0, counts[0])):
        # int16 holds every slot: n <= 257 under MC_SETUP_BUDGET_BYTES
        combos = itertools.chain.from_iterable(itertools.combinations(range(1, n), size))
        members = np.fromiter(combos, np.int16, count * size).reshape(count, size)
        columns = np.arange(start, start + count)
        for slot in members.T:
            signed[slot, columns] = 1.0
    return signed


def average_betti_mc(
    n: int,
    p: int,
    measure: Measure | str,
    samples: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Monte Carlo mean of the p-th Betti number over random length vectors.

    Each sample is sorted decreasingly; the largest bar is the anchor and the
    per-instance count reduces to short subsets through it at the two
    contributing cardinalities, one ``_signed_matrix`` column each, counted by
    the sign of their exact sums (module docstring) in row tiles of
    ``_TILE_BYTES`` of sums.  A median subset is not short.  Chunk
    accumulators are exact integer sums, so the estimate depends only on
    (seed, samples).  ``measure`` is a ``Measure`` or its name; any other
    value raises ValueError before any set-up.  Refused with DomainError,
    before any set-up, for a bad sample count or seed, and when the signed
    matrix's member rows would pass ``MC_SETUP_BUDGET_BYTES``.  ``workers`` is
    accepted and ignored; the chunks run one after another on this thread.
    """
    _check_budget(samples, seed)
    check_degree(n, p)
    sampler = sample_unit_simplex if Measure(measure) is Measure.SIMPLEX else sample_unit_cube
    signed = _signed_matrix(n, p)
    import numpy as np

    tile = max(1, _TILE_BYTES // (8 * signed.shape[1]))
    block = tile * max(1, _BLOCK_ROWS // tile)
    gamma = n * 2.0**-53 / (1 - n * 2.0**-53)
    # a row's 0/1 flag bytes as words, summed in runs of at most 255 words so
    # that no byte carries; each sum's bytes then add up through 16-bit lanes
    runs = np.arange(0, signed.shape[1] // 8, 255)
    low, ones16 = np.uint64(0x00FF00FF00FF00FF), np.uint64(0x0001000100010001)

    def worker(rng: np.random.Generator, count: int) -> tuple[int, int]:
        d = np.empty((min(tile, count), signed.shape[1]))
        flags = np.empty(d.shape, dtype=bool)
        total = total_sq = 0
        for first in range(0, count, block):
            size = min(block, count - first)
            points = sampler(rng, size, n)  # block draws continue the chunk's stream
            np.negative(points, out=points)
            points.sort(axis=1)
            np.negative(points, out=points)
            bound = 2 * gamma * float(points.sum(axis=1).max())
            lanes, not_long = np.empty((size, len(runs)), dtype=np.uint64), 0
            for start in range(0, size, tile):
                m = min(tile, size - start)
                rows = slice(start, start + m)
                np.matmul(points[rows], signed, out=d[:m])
                np.less(d[:m], -bound, out=flags[:m])
                np.add.reduceat(flags[:m].view(np.uint64), runs, axis=1, out=lanes[rows])
                not_long += np.count_nonzero(np.less_equal(d[:m], bound, out=flags[:m]))
            lanes = (lanes & low) + ((lanes >> 8) & low)
            per_sample = ((lanes * ones16) >> 48).sum(axis=1).view(np.int64)
            if not_long > per_sample.sum():  # some d within B of zero: recount the block
                for start in range(0, size, tile):
                    rows = slice(start, min(start + tile, size))
                    sums = points[rows] @ signed
                    per_sample[rows] = np.count_nonzero(sums < -bound, axis=1)
                    for i, j in np.argwhere(np.abs(sums) <= bound):
                        per_sample[start + i] += math.fsum(points[start + i] * signed[:, j]) < 0
            total += int(per_sample.sum())
            total_sq += int(np.dot(per_sample, per_sample))
        return total, total_sq

    parts = map_chunks(worker, samples, seed)
    total = sum(part[0] for part in parts)
    total_sq = sum(part[1] for part in parts)
    mean = total / samples
    if samples > 1:
        variance = max(total_sq - total * total / samples, 0.0) / (samples - 1)
        stderr = math.sqrt(variance / samples)
    else:
        stderr = 0.0
    return MonteCarloEstimate(estimate=mean, stderr=stderr, samples=samples, seed=seed)
