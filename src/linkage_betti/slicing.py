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

Two measured choices sit around the kernel.  The dispatcher evaluates
whichever side of the cut has fewer distinct values and complements, since
the fractions of the two open sides add to 1; on the vertex values of every
anchored subset at n=14 (simplex) and n=16 (cube), the benchmark's slice
corpora, evaluating the negative side alone costs 1.4-1.6x as much.  An LRU
cache keys on the grouped values.  No code in the package repeats a kernel
call any more: neither exact expectation in ``averages`` calls the kernel,
and the ``slice`` command makes one call per process.  The cache stays
because the benchmark reads its ``cache_info()``.  All arithmetic is exact
rational arithmetic.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError

__all__ = [
    "GroupedValues",
    "group_values",
    "slice_cdf",
    "slice_ratio",
]


@dataclass(frozen=True)
class GroupedValues:
    """Distinct vertex values in strictly decreasing order, with multiplicities."""

    distinct: tuple[Fraction, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.distinct) != len(self.multiplicities):
            raise DomainError("one multiplicity per distinct value")
        if not self.distinct:
            raise DomainError("need at least one value")
        if any(m < 1 for m in self.multiplicities):
            raise DomainError("multiplicities must be positive")
        if any(a <= b for a, b in zip(self.distinct, self.distinct[1:])):
            raise DomainError("distinct values must strictly decrease")

    @property
    def ambient_dim(self) -> int:
        """Dimension n of the simplex carrying these n+1 vertex values."""
        return sum(self.multiplicities) - 1

    def negated(self) -> "GroupedValues":
        """Grouping of the negated values; order reverses to stay decreasing."""
        return GroupedValues(
            tuple(-v for v in reversed(self.distinct)),
            tuple(reversed(self.multiplicities)),
        )


def group_values(values: Iterable[Fraction]) -> GroupedValues:
    """Collect vertex values into decreasing distinct values with multiplicities."""
    vals = tuple(Fraction(v) for v in values)
    if not vals:
        raise DomainError("need at least one value")
    counts = Counter(vals)
    distinct = tuple(sorted(counts, reverse=True))
    return GroupedValues(distinct, tuple(counts[v] for v in distinct))


def _residue(grouped: GroupedValues, i: int) -> Fraction:
    """Residue of t^n / prod_j (t - Q_j)^m_j at t = Q_i, which must be nonzero."""
    q = grouped.distinct[i]
    m = grouped.multiplicities[i]
    others = [
        (q - v, k)
        for j, (v, k) in enumerate(zip(grouped.distinct, grouped.multiplicities))
        if j != i
    ]
    lead = q ** (m - 1)
    for d, k in others:
        lead *= (q / d) ** k
    if m == 1:
        return lead
    weights = [-grouped.ambient_dim] + [k for _, k in others]
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


def _negative_side_sum(grouped: GroupedValues) -> Fraction:
    return sum(
        (_residue(grouped, i) for i, q in enumerate(grouped.distinct) if q < 0),
        Fraction(0),
    )


def _ratio(grouped: GroupedValues) -> Fraction:
    # Zero vertex values sit on the cut itself and carry no volume, so "all
    # values >= 0" still means the negative side is empty and "all <= 0" means
    # it is everything.
    if grouped.ambient_dim < 1:
        raise DomainError("need an ambient simplex dimension of at least 1")
    negatives = sum(1 for v in grouped.distinct if v < 0)
    positives = sum(1 for v in grouped.distinct if v > 0)
    if negatives == 0:
        return Fraction(0)
    if positives == 0:
        return Fraction(1)
    if negatives <= positives:
        return _negative_side_sum(grouped)
    return 1 - _negative_side_sum(grouped.negated())


@functools.lru_cache(maxsize=65536)
def _cached_ratio(distinct: tuple[Fraction, ...], mults: tuple[int, ...]) -> Fraction:
    return _ratio(GroupedValues(distinct, mults))


def slice_ratio(values: GroupedValues | Iterable[Fraction]) -> Fraction:
    """Negative-side volume fraction for arbitrary vertex values.

    Groups the values, then sums the residues on whichever side of the cut
    has fewer distinct values, complementing if needed; both routes agree
    exactly.
    """
    grouped = values if isinstance(values, GroupedValues) else group_values(values)
    return _cached_ratio(grouped.distinct, grouped.multiplicities)


def slice_cdf(values: Iterable[Fraction], x: Fraction | int) -> Fraction:
    """Volume fraction where the functional is below x.

    As a function of x this is the piecewise-polynomial distribution function
    of the functional under the uniform law on the simplex; it is
    ``slice_ratio`` of the shifted values q - x, so values may repeat.  Shifted
    values rarely recur, so this bypasses the cache.
    """
    x = Fraction(x)
    return _ratio(group_values([Fraction(v) - x for v in values]))
