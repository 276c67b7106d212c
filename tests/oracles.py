"""Independent oracles the test suite checks the library against.

Nothing in this module calls the closed-form machinery under test.  The
exact-average oracle is the literal sum the closed forms replace: one slice
ratio per anchored subset, from vertex values built here (the slice kernel
itself is checked against the oracles below).  ``subset_volume_term`` is one
term of that sum for a given subset, and ``three_value_class_sum`` is the
earlier simplex closed form, which sends each Gamma race of the ``averages``
docstring through the slice kernel as a cut on three distinct values.
``race_class_sum`` is the closed form that replaced it and was replaced in
turn: each Gamma race its own integer sum, one ``Fraction`` per term.
``expected_short_subsets`` is E[S_k], the expected number of short k-subsets
(anchored or not), from a binomial tail for the simplex and, for the cube,
an Irwin-Hall distribution function summed from Eulerian numbers rather
than from the alternating sum in ``averages``.  The
slice oracles integrate geometrically (exact polygon clipping in 2D, direct
interval arithmetic in 1D) or evaluate the older closed forms the residue
kernel replaced: the partial-fraction sum for distinct values and the
weak-composition sum for repeated ones.  The Betti oracles re-derive subset
counts by the most naive enumeration possible and by a Gray-code walk over
every subset.  ``blockwise_mc_counts`` is the Monte Carlo count that the
tiled kernel of ``average_betti_mc`` replaced: 128-subset blocks, each summed
over a whole chunk at once.  ``mc_slice_ratio`` estimates a slice ratio by
sampling the simplex in the package's seeded chunks.  The vertex helpers
spell out the sorted-region picture that ``simplexes.functional_values``
condenses, and ``members`` builds the 0/1 subset tuples it takes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from linkage_betti import DomainError, Measure, MonteCarloEstimate, slice_ratio
from linkage_betti.sampling import map_chunks, sample_unit_simplex
from linkage_betti.simplexes import functional_values

Point = tuple[Fraction, Fraction]


def _shoelace_area(polygon: Sequence[Point]) -> Fraction:
    total = Fraction(0)
    m = len(polygon)
    for i in range(m):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % m]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def _clip_negative(polygon: list[Point], f) -> list[Point]:
    """Sutherland-Hodgman clip of a convex polygon to {f < 0}, exactly."""
    out: list[Point] = []
    m = len(polygon)
    for i in range(m):
        cur, nxt = polygon[i], polygon[(i + 1) % m]
        fc, fn = f(cur), f(nxt)
        if fc <= 0:
            out.append(cur)
        if (fc < 0 < fn) or (fn < 0 < fc):
            t = fc / (fc - fn)
            out.append(
                (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    return out


def triangle_negative_fraction(q0: Fraction, q1: Fraction, q2: Fraction) -> Fraction:
    """Area fraction of a triangle where the linear interpolant of the three
    vertex values is negative.  Affine invariance lets us fix the reference
    triangle (0,0), (1,0), (0,1)."""
    q0, q1, q2 = Fraction(q0), Fraction(q1), Fraction(q2)

    def f(pt: Point) -> Fraction:
        return q0 + (q1 - q0) * pt[0] + (q2 - q0) * pt[1]

    reference: list[Point] = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    clipped = _clip_negative(reference, f)
    if len(clipped) < 3:
        return Fraction(0)
    return _shoelace_area(clipped) / Fraction(1, 2)


def segment_negative_fraction(q0: Fraction, q1: Fraction) -> Fraction:
    """Length fraction of a segment where the linear interpolant is negative."""
    q0, q1 = Fraction(q0), Fraction(q1)
    if q0 >= 0 and q1 >= 0:
        return Fraction(0)
    if q0 <= 0 and q1 <= 0:
        return Fraction(1) if (q0 < 0 or q1 < 0) else Fraction(0)
    root = q0 / (q0 - q1)
    return root if q0 < 0 else 1 - root


def brute_betti(lengths: Sequence[Fraction], p: int) -> int:
    """Anchored subset counting done the slow, obviously-correct way.

    Enumerates every subset of every relevant size and filters, with no
    shared code or shortcuts; anchor is the first index of maximal length.
    """
    n = len(lengths)
    total = sum(lengths)
    anchor = max(range(n), key=lambda i: (lengths[i], -i))

    def count(cardinality: int, median: bool) -> int:
        hits = 0
        for subset in itertools.combinations(range(n), cardinality):
            if anchor not in subset:
                continue
            doubled = 2 * sum(lengths[i] for i in subset)
            if (doubled == total) if median else (doubled < total):
                hits += 1
        return hits

    return count(p + 1, False) + count(p + 1, True) + count(n - 2 - p, False)


def brute_profile(lengths: Sequence[Fraction]) -> tuple[int, ...]:
    n = len(lengths)
    return tuple(brute_betti(lengths, p) for p in range(n - 2))


def gray_code_class_counts(
    lengths: Sequence[Fraction], anchor: int
) -> tuple[list[int], list[int]]:
    """Short and median subset counts through ``anchor`` (1-based), by size.

    One Gray-code walk over the 2^(n-1) subsets of the non-anchor indices;
    each step flips a single membership bit, so the running sum updates in
    O(1).  Returns (short, median) with index = subset size.
    """
    common = math.lcm(*(Fraction(l).denominator for l in lengths))
    weights = [int(Fraction(l) * common) for l in lengths]
    n = len(weights)
    total = sum(weights)
    rest = [w for i, w in enumerate(weights) if i != anchor - 1]
    k = n - 1
    short = [0] * (n + 1)
    median = [0] * (n + 1)

    current = weights[anchor - 1]
    size = 1
    doubled = 2 * current
    if doubled < total:
        short[size] += 1
    elif doubled == total:
        median[size] += 1

    in_set = [False] * k
    for m in range(1, 1 << k):
        bit = (m & -m).bit_length() - 1
        if in_set[bit]:
            current -= rest[bit]
            size -= 1
        else:
            current += rest[bit]
            size += 1
        in_set[bit] = not in_set[bit]
        doubled = 2 * current
        if doubled < total:
            short[size] += 1
        elif doubled == total:
            median[size] += 1
    return short, median


def enumerated_class_sums(n: int, p: int, measure: Measure) -> tuple[Fraction, Fraction]:
    """Sums of sorted-region short fractions over the anchored subsets of
    cardinality p + 1 and n - 2 - p, one ``slice_ratio`` call per subset.

    The vertex values of subset J are those of the ``simplexes`` docstring:
    with h_i = |J intersect {1..i}|, (2 h_i - i) / i at vertex i for the
    simplex measure, 2 h_i - i for the cube, and 0 at vertex 0.
    """
    if n < 3 or not 0 <= p <= n - 3:
        raise DomainError(f"no degree {p} for {n} bars")

    def class_sum(cardinality: int) -> Fraction:
        total = Fraction(0)
        for extra in itertools.combinations(range(2, n + 1), cardinality - 1):
            members = {1, *extra}
            values = [Fraction(0)]
            hits = 0
            for i in range(1, n + 1):
                hits += i in members
                value = Fraction(2 * hits - i)
                values.append(value / i if measure is Measure.SIMPLEX else value)
            total += slice_ratio(values)
        return total

    return class_sum(p + 1), class_sum(n - 2 - p)


def members(indices: Iterable[int], n: int) -> tuple[int, ...]:
    """The 0/1 membership tuple of a subset of {1..n}: entry i - 1 is 1 when i is in it."""
    chosen = set(indices)
    return tuple(int(i in chosen) for i in range(1, n + 1))


def subset_volume_term(subset: tuple[int, ...], measure: Measure) -> Fraction:
    """Sorted-region volume fraction on which the subset is short.

    This is the probability, under the given measure conditioned on the
    decreasing arrangement, that the bars in J sum to less than the rest;
    equivalently the negative-side slice ratio of J's signed-sum functional.
    """
    if not any(subset):
        raise DomainError("the subset must be nonempty")
    return slice_ratio(functional_values(subset, measure))


def three_value_class_sum(n: int, k: int) -> Fraction:
    """T(k) under the simplex measure, one slice ratio per (a, b) term.

    P(Gamma_{k-1} + c E < Gamma'_{n-k}) is the negative-side fraction of the
    values 1 (k - 1 times), -1 (n - k times) and c = (1+a-b)/(1+a+b).
    """
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


def race_class_sum(n: int, k: int) -> Fraction:
    """T(k) under the simplex measure, one exact Gamma race G per (a, b) term.

    The sum of the ``averages`` docstring term by term, each G its own
    integer sum (``_race``), before the W parts were collapsed and the terms
    grouped by shared denominator.
    """
    K, m = k - 1, n - k
    total = Fraction(0)
    for a in range(k):
        for b in range(m + 1):
            top, bottom = _race(K, m, 1 + a - b, 1 + a + b)
            weight = (-1) ** (a + b) * math.comb(K, a) * math.comb(m, b)
            total += Fraction(weight * top, (1 + a + b) * bottom)
    return n * math.comb(n - 1, k - 1) * total


def eulerian_numbers(m: int, count: int) -> list[int]:
    """Eulerian numbers A(m, 0), ..., A(m, count - 1) for m >= 1.

    A(m, j) counts the permutations of m items with j descents.  Row by row,
    A(m, j) = (j + 1) A(m - 1, j) + (m - j) A(m - 1, j - 1); column j needs
    only columns j and j - 1 of the row before, so the first ``count``
    columns cost O(m * count) additions of positive integers.
    """
    row = [1]
    for k in range(2, m + 1):
        row = [
            (j + 1) * (row[j] if j < len(row) else 0) + (k - j) * (row[j - 1] if j else 0)
            for j in range(min(k, count))
        ]
    return row[:count]


def irwin_hall_cdf(m: int, k: int) -> Fraction:
    """P(U_1 + ... + U_m <= k) for m >= 1 iid U[0, 1] and an integer k.

    P(j < IH_m <= j + 1) = A(m, j) / m!, and m - IH_m has the law of IH_m,
    so the shorter prefix of the Eulerian row serves.
    """
    if k <= 0:
        return Fraction(0)
    if k >= m:
        return Fraction(1)
    if 2 * k > m:
        return 1 - irwin_hall_cdf(m, m - k)
    return Fraction(sum(eulerian_numbers(m, k)), math.factorial(m))


def expected_short_subsets(n: int, k: int, measure: Measure) -> Fraction:
    """E[S_k]: the expected number of short k-subsets of n random bars, anchored or not.

    Simplex: a sum of k coordinates is Beta(k, n - k), below 1/2 with
    probability P(Bin(n - 1, 1/2) >= k).  Cube: U -> 1 - U on the subset
    turns "the subset weighs less than the rest" into IH_n > k.
    """
    if measure is Measure.SIMPLEX:
        tail = Fraction(sum(math.comb(n - 1, i) for i in range(k, n)), 2 ** (n - 1))
    else:
        tail = 1 - irwin_hall_cdf(n, k)
    return math.comb(n, k) * tail


def blockwise_mc_counts(
    sampler: Callable[[np.random.Generator, int, int], np.ndarray],
    n: int,
    p: int,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Per-sample counts of short subsets through the longest bar, as int64.

    Draws ``count`` length vectors from ``sampler`` and, for each block of 128
    contributing subsets (cardinality p + 1, then n - 2 - p), forms the
    float64 sums anchor + picked bars of the whole chunk and counts those
    below half the total.
    """
    points = sampler(rng, count, n)
    points = -np.sort(-points, axis=1)
    anchor = points[:, 0]
    rest = points[:, 1:]
    half = points.sum(axis=1) * 0.5
    per_sample = np.zeros(count, dtype=np.int64)
    for cardinality in (p + 1, n - 2 - p):
        picks = list(itertools.combinations(range(n - 1), cardinality - 1))
        for start in range(0, len(picks), 128):
            rows = picks[start : start + 128]
            block = np.zeros((len(rows), n - 1))
            for row, cols in enumerate(rows):
                block[row, list(cols)] = 1.0
            sums = anchor[:, None] + rest @ block.T
            per_sample += (sums < half[:, None]).sum(axis=1)
    return per_sample


def mc_slice_ratio(
    values: Sequence[Fraction] | Sequence[float],
    samples: int,
    seed: int,
) -> MonteCarloEstimate:
    """Empirical negative-side volume fraction of a simplex cut.

    Draws uniform barycentric weights over the n+1 vertices (a flat Dirichlet)
    and counts samples whose interpolated functional value is negative.  The
    reported standard error is the binomial one; it is 0 when the empirical
    rate is 0 or 1, so compare against exact values with a floor in mind.
    """
    vertex_values = np.array([float(v) for v in values], dtype=np.float64)
    if vertex_values.size < 2:
        raise DomainError("need an ambient simplex dimension of at least 1")

    def worker(rng: np.random.Generator, count: int) -> int:
        weights = sample_unit_simplex(rng, count, vertex_values.size)
        return int(np.count_nonzero(weights @ vertex_values < 0.0))

    hits = sum(map_chunks(worker, samples, seed))
    rate = hits / samples
    stderr = math.sqrt(rate * (1.0 - rate) / samples)
    return MonteCarloEstimate(estimate=rate, stderr=stderr, samples=samples, seed=seed)


def distinct_slice_ratio(values: Sequence[Fraction]) -> Fraction:
    """Negative-side volume fraction of a simplex cut, all values distinct.

    The classic partial-fraction sum over the negative values q_i of
    prod_{j != i} q_i / (q_i - q_j).
    """
    vals = [Fraction(v) for v in values]
    if len(vals) < 2 or len(set(vals)) != len(vals):
        raise ValueError("need at least two pairwise distinct values")
    total = Fraction(0)
    for i, qi in enumerate(vals):
        if qi >= 0:
            continue
        term = Fraction(1)
        for j, qj in enumerate(vals):
            if j != i:
                term *= qi / (qi - qj)
        total += term
    return total


def weak_compositions(parts: int, total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``.

    Stars and bars: there are C(parts - 1 + total, total) of them.
    """
    slots = parts - 1 + total
    for cuts in itertools.combinations(range(slots), parts - 1):
        extended = (-1,) + cuts + (slots,)
        yield tuple(extended[i + 1] - extended[i] - 1 for i in range(parts))


def confluent_factor(
    distinct: Sequence[Fraction], multiplicities: Sequence[int], i: int
) -> Fraction:
    """Correction factor F_i of the value distinct[i], a weak-composition sum.

    With k_j = m_j - 1, n = sum m_j - 1 and s + 1 distinct values,

        F_i = sum over weak compositions delta of k_i into s+1 parts of
              C(n, delta_i) * (-Q_i)^(k_i - delta_i)
              * prod_{j != i} C(k_j + delta_j, delta_j) / (Q_i - Q_j)^delta_j,

    which is 1 for a simple value (k_i = 0).
    """
    k_i = multiplicities[i] - 1
    n = sum(multiplicities) - 1
    q_i = distinct[i]
    acc = Fraction(0)
    for delta in weak_compositions(len(distinct), k_i):
        term = Fraction(math.comb(n, delta[i])) * (-q_i) ** (k_i - delta[i])
        for j, q_j in enumerate(distinct):
            if j == i or delta[j] == 0:
                continue
            k_j = multiplicities[j] - 1
            term *= Fraction(math.comb(k_j + delta[j], delta[j])) * (q_i - q_j) ** (-delta[j])
        acc += term
    return acc


def weak_composition_slice_ratio(values: Sequence[Fraction]) -> Fraction:
    """Negative-side volume fraction with repeats, by the weak-composition form.

    r = sum over negative distinct values Q_i of
        F_i * prod_{j != i} (Q_i / (Q_i - Q_j))^m_j,

    evaluated on the negative side only, with no complement.  Its cost grows
    like C(s - 1 + k, k) per value of multiplicity k + 1.
    """
    counts = Counter(Fraction(v) for v in values)
    distinct = sorted(counts, reverse=True)
    multiplicities = [counts[v] for v in distinct]
    if sum(multiplicities) < 2:
        raise ValueError("need at least two values")
    total = Fraction(0)
    for i, q_i in enumerate(distinct):
        if q_i >= 0:
            continue
        product = Fraction(1)
        for j, q_j in enumerate(distinct):
            if j != i:
                product *= (q_i / (q_i - q_j)) ** multiplicities[j]
        total += confluent_factor(distinct, multiplicities, i) * product
    return total


def prefix_average_vertices(n: int) -> list[tuple[Fraction, ...]]:
    """Vertices 0, e1, (e1+e2)/2, ..., (e1+...+en)/n of the simplex measure's sorted region."""
    if n < 1:
        raise DomainError("need at least one coordinate")
    return [
        tuple(Fraction(1, i) if j < i else Fraction(0) for j in range(n))
        for i in range(n + 1)
    ]


def prefix_indicator_vertices(n: int) -> list[tuple[Fraction, ...]]:
    """Vertices 0, e1, e1+e2, ..., e1+...+en of the sorted part of the cube."""
    if n < 1:
        raise DomainError("need at least one coordinate")
    return [
        tuple(Fraction(1) if j < i else Fraction(0) for j in range(n))
        for i in range(n + 1)
    ]


def sorted_region_vertices(n: int, measure: Measure) -> list[tuple[Fraction, ...]]:
    if measure is Measure.SIMPLEX:
        return prefix_average_vertices(n)
    return prefix_indicator_vertices(n)


def evaluate_on_vertices(
    coefficients: Sequence[Fraction], vertices: Sequence[tuple[Fraction, ...]]
) -> tuple[Fraction, ...]:
    """Dot the coefficient vector against each vertex."""
    return tuple(
        sum((c * x for c, x in zip(coefficients, v)), Fraction(0)) for v in vertices
    )
