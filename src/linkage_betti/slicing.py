"""Exact volume fraction of a simplex on one side of a linear cut.

Let q_0, ..., q_n be the values of a linear functional at the n+1 vertices of
a nondegenerate n-simplex, grouped into distinct values Q_j of multiplicity
m_j (so n = sum m_j - 1).  The fraction of the simplex's volume lying where
the functional is negative depends only on these values: it is the
distribution function at 0 of a B-spline with knots q_0..q_n (Curry and
Schoenberg, 1966), the divided difference of t -> (t)_-^n over the knots.
Written as a contour integral, that is a sum of residues

    r = sum over i with Q_i < 0 of  Res_{t = Q_i}  t^n / prod_j (t - Q_j)^m_j,

one formula for distinct and repeated values alike.  For a pole Q = Q_i of
order m = m_i, put d_j = Q - Q_j and expand the other factors around Q:

    residue = lead * h[m-1],   lead = Q^(m-1) * prod_{j != i} (Q / d_j)^m_j,

where h[k] are the Taylor coefficients of (1 + u/Q)^n prod_{j != i}
(1 + u/d_j)^(-m_j).  Their logarithmic derivative is the power series with
coefficients

    c_l = sum over (w, x) of w * x^(l+1),   (w, x) = (-n, -1/Q) and (m_j, -1/d_j),

so h[0] = 1 and h[k+1] = (1/(k+1)) sum_{l <= k} c_l h[k-l]: O(s*m + m^2)
rational operations per pole, s the number of distinct values.  A simple
value (m = 1) contributes lead alone, the classic partial-fraction term
prod_{j != i} q_i / (q_i - q_j).  A zero value sits on the cut and is never
a pole of the sum, but it counts in n and enters every other pole's
expansion like any Q_j.

``slice_ratio`` is the one door into the kernel: it groups the values and
looks the pair (distinct values, multiplicities) up in one LRU-cached
function.  That function sums the residues at the poles of whichever sign
has fewer distinct values.  The residues at all the poles add up to 1, as
the numerator's degree is one less than the denominator's, so when the
positive poles are summed the fraction is 1 minus their sum.  On the
vertex values of every anchored subset at n=14 (simplex) and n=16 (cube),
the benchmark's slice corpora, summing the negative poles alone costs
1.4-1.6x as much.  No code in the package repeats a kernel call: neither
exact expectation in ``averages`` calls the kernel, and the ``slice``
command makes one call per process.  The cache stays because the benchmark
reads its ``cache_info()``.  All arithmetic is exact rational arithmetic.

A sweep whose cost estimate (``_check_cost``) passes MAX_SLICE_WORK is
refused with DomainError before its first residue.  At an estimate of 3e13,
twelve input shapes, from 675 distinct small integers and 1,652 values in
two groups to 30 integers of 1,274 digits, took 1.4-7.0 s of CPU (CPython
3.11, one Xeon vCPU); the tests and the benchmark's slice corpora reach 9.4e9.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from typing import Iterable

from .errors import DomainError

__all__ = [
    "group_values",
    "slice_ratio",
]

# Largest ``_check_cost`` estimate the kernel starts on (module docstring).
MAX_SLICE_WORK = 3 * 10**13


def group_values(values: Iterable[Fraction]) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """Distinct vertex values in strictly decreasing order, and their multiplicities."""
    vals = tuple(Fraction(v) for v in values)
    if not vals:
        raise DomainError("need at least one value")
    counts = Counter(vals)
    distinct = tuple(sorted(counts, reverse=True))
    return distinct, tuple(counts[v] for v in distinct)


def _residue(distinct: tuple[Fraction, ...], mults: tuple[int, ...], i: int) -> Fraction:
    """Residue of t^n / prod_j (t - Q_j)^m_j at t = Q_i, which must be nonzero."""
    q = distinct[i]
    m = mults[i]
    others = [(q - v, k) for j, (v, k) in enumerate(zip(distinct, mults)) if j != i]
    lead = q ** (m - 1)
    for d, k in others:
        lead *= (q / d) ** k
    if m == 1:
        return lead
    weights = [-(sum(mults) - 1)] + [k for _, k in others]
    bases = [-1 / q] + [-1 / d for d, _ in others]
    powers = bases
    c = []
    for _ in range(m - 1):
        c.append(sum(w * x for w, x in zip(weights, powers)))
        powers = [x * b for x, b in zip(powers, bases)]
    h = [Fraction(1)]
    for k in range(m - 1):
        h.append(sum(c[l] * h[k - l] for l in range(k + 1)) / (k + 1))
    return lead * h[m - 1]


def _check_cost(distinct: tuple[Fraction, ...], mults: tuple[int, ...], poles: list[int]) -> None:
    """Refuse, before any residue, a sum over the indices ``poles`` estimated
    past MAX_SLICE_WORK.

    A pole of order m costs (s + m) m rational operations, each charged the
    square of the bits its operands reach: about D + m S, D the bits of all
    the values with multiplicity and S those of the distinct values, as the
    expansion raises each 1/d_j to powers up to m.
    """
    sizes = [q.numerator.bit_length() + q.denominator.bit_length() for q in distinct]
    total = sum(m * b for m, b in zip(mults, sizes))
    spread = sum(sizes)
    orders = [mults[i] for i in poles]
    work = sum((len(distinct) + m) * m * (total + m * spread) ** 2 for m in orders)
    if work > MAX_SLICE_WORK:
        raise DomainError(
            f"{sum(mults)} vertex values ({len(distinct)} distinct, {total} bits in "
            f"all) exceed the slice cost limit ({work:.1e} > {MAX_SLICE_WORK:.0e})"
        )


@functools.lru_cache(maxsize=65536)
def _ratio(distinct: tuple[Fraction, ...], mults: tuple[int, ...]) -> Fraction:
    """Negative-side fraction of grouped values, summed over the poles of the
    sign with fewer distinct values."""
    if sum(mults) - 1 < 1:
        raise DomainError("need an ambient simplex dimension of at least 1")
    # Zero vertex values sit on the cut itself and carry no volume, so "all
    # values >= 0" still means the negative side is empty and "all <= 0" means
    # it is everything.
    negatives = [i for i, q in enumerate(distinct) if q < 0]
    positives = [i for i, q in enumerate(distinct) if q > 0]
    if not negatives:
        return Fraction(0)
    if not positives:
        return Fraction(1)
    flipped = len(negatives) > len(positives)
    poles = positives if flipped else negatives
    _check_cost(distinct, mults, poles)
    side = sum((_residue(distinct, mults, i) for i in poles), Fraction(0))
    return 1 - side if flipped else side


def slice_ratio(values: Iterable[Fraction]) -> Fraction:
    """Fraction of the simplex's volume where the functional is negative.

    ``slice_ratio([q - x for q in values])`` is the distribution function at x
    of the functional under the uniform law on the simplex.
    """
    return _ratio(*group_values(values))
