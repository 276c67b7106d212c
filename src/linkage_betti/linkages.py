"""Exact Betti numbers of planar linkage moduli spaces.

A closed planar chain of n bars with lengths l_1, ..., l_n has a moduli space
of closed configurations modulo orientation-preserving isometry.  For n >= 3
its Betti numbers are determined combinatorially.  Fix an anchor index
carrying a maximal length; call a subset J of bar indices *short* when the
bars in J sum to less than the bars outside J, *median* when the two sums tie,
and *long* otherwise.  With

    a_k = number of short subsets containing the anchor, of size k + 1,
    m_k = number of median subsets containing the anchor, of size k + 1,

the p-th Betti number of the moduli space is

    b_p = a_p + m_p + a_{n-3-p},        0 <= p <= n - 3.

All a_k and m_k come from one meet-in-the-middle count (Horowitz-Sahni
1974) over the n - 1 non-anchor bars, in O(2^(n/2)) memory and
O(n 2^(n/2)) time: about 0.01 s at n = 23 and 7 s at n = 40 under
CPython 3.11 on one Xeon vCPU.  ``betti`` and ``betti_profile`` read that
count, and the vector is generic exactly when it finds no median subset.
Vectors with more than MAX_BARS bars, or whose half sums would hold more than
MAX_SUM_BITS bits, are refused with DomainError before any subset sum.

Everything in this module is exact: lengths are arbitrary-precision rationals
and all comparisons clear denominators before comparing integers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .errors import DomainError, check_degree, exact_rational

__all__ = [
    "LengthVector",
    "BettiProfile",
    "is_generic",
    "betti",
    "betti_profile",
    "MAX_BARS",
]

# Largest bar count whose subset count finishes in about 10 s (14 s at n = 41).
MAX_BARS = 40

# Most bits the half sums of one count may hold: the rescaled total's bit
# length times the 2^floor((n-1)/2) + 2^ceil((n-1)/2) sums.  The peak is
# about 1.2 bytes per 8 such bits: 30 bars of 1,200-digit coprime
# denominators (5.9e9 bits) took 2.1 s and 0.86 GB, and 32 bars of 2,000
# digits (2.1e10) would need about 3 GB.
MAX_SUM_BITS = 6 * 10**9


class LengthVector(namedtuple("LengthVector", "lengths")):
    """Positive bar lengths held exactly as rationals."""

    __slots__ = ()

    def __new__(cls, lengths: tuple[Fraction, ...]) -> "LengthVector":
        if not lengths:
            raise DomainError("a length vector needs at least one bar")
        if any(not isinstance(l, Fraction) for l in lengths):
            raise TypeError("lengths must be Fractions; use LengthVector.of")
        if any(l <= 0 for l in lengths):
            raise DomainError("bar lengths must be positive")
        return super().__new__(cls, lengths)

    @classmethod
    def of(cls, *lengths: Fraction | int | str) -> "LengthVector":
        """Build from ints, Fractions or exact decimal/ratio text, each read by
        ``errors.exact_rational``: pass "0.3" or Fraction(3, 10), not the float 0.3."""
        return cls(tuple(map(exact_rational, lengths)))

    @property
    def n(self) -> int:
        return len(self.lengths)


class BettiProfile(NamedTuple):
    """The full Betti vector of one moduli space plus its counting data.

    ``values[p]`` is b_p for p = 0..n-3.  ``short_counts[k]`` and
    ``median_counts[k]`` hold a_k and m_k for k = 0..n-3, so the profile can
    be rebuilt from the counts alone: values[p] == short_counts[p]
    + median_counts[p] + short_counts[n-3-p].
    """

    n: int
    anchor: int
    values: tuple[int, ...]
    short_counts: tuple[int, ...]
    median_counts: tuple[int, ...]


def _checked_weights(ell: LengthVector) -> tuple[int, ...]:
    """The lengths times their denominators' lcm, which keeps their order and
    every short/median/long class; refused with DomainError past MAX_BARS bars
    or MAX_SUM_BITS bits of half sums, before any subset sum is formed."""
    if ell.n > MAX_BARS:
        raise DomainError(
            f"{ell.n} bars exceed the subset-count limit of {MAX_BARS} "
            "(cost doubles every two bars)"
        )
    common = math.lcm(*(l.denominator for l in ell.lengths))
    weights = tuple(l.numerator * (common // l.denominator) for l in ell.lengths)
    size = sum(weights).bit_length()
    rest = ell.n - 1
    bits = size * (2 ** (rest // 2) + 2 ** (rest - rest // 2))
    if bits > MAX_SUM_BITS:
        raise DomainError(
            f"{ell.n} bars rescaled to {size}-bit integers exceed the subset-sum "
            f"limit ({bits:.1e} > {MAX_SUM_BITS:.0e} bits)"
        )
    return weights


def is_generic(ell: LengthVector) -> bool:
    """True when no signed sum +-l_1 +- l_2 ... +- l_n vanishes.

    Equivalently, no subset of bars weighs exactly half the total.  Decided
    exactly via meet-in-the-middle over the integer rescale, in
    O(2^(n/2)) set operations; refused with DomainError as ``betti_profile`` is.
    """
    weights = _checked_weights(ell)
    total = sum(weights)
    if total % 2:
        return True
    target = total // 2
    half = len(weights) // 2
    lo_sums = {0}
    for w in weights[:half]:
        lo_sums |= {s + w for s in lo_sums}
    hi_sums = {0}
    for w in weights[half:]:
        hi_sums |= {s + w for s in hi_sums}
    return all(target - s not in lo_sums for s in hi_sums)


def betti(ell: LengthVector, p: int) -> int:
    """The p-th Betti number of the moduli space of ``ell``.

    Each call computes the whole profile; a caller wanting several degrees
    should call ``betti_profile`` once.
    """
    check_degree(ell.n, p)
    return betti_profile(ell).values[p]


def _sums_by_size(weights: list[int]) -> list[list[int]]:
    """Subset sums of ``weights``, bucketed by subset size, each bucket sorted."""
    buckets: list[list[int]] = [[0]]
    for w in weights:
        buckets = [
            kept + [s + w for s in grown]
            for kept, grown in zip(buckets + [[]], [[]] + buckets)
        ]
    return [sorted(bucket) for bucket in buckets]


def _anchored_class_counts(weights: tuple[int, ...], anchor: int) -> tuple[list[int], list[int]]:
    """Short and median subset counts through ``anchor``, bucketed by size.

    Meet in the middle (Horowitz-Sahni): the non-anchor weights split into
    two halves whose subset sums are bucketed by size and sorted.  A subset
    made of the anchor, a left subset of sum s and a right subset of sum r is
    short when 2r < total - 2(anchor + s) and median on equality, so for
    each left sum and each right size two bisections count every partner at
    once; a size pair whose sums are all short or all long needs none.
    Returns (short, median) with index = subset size.
    """
    n = len(weights)
    total = sum(weights)
    rest = weights[: anchor - 1] + weights[anchor:]
    left = _sums_by_size(rest[: len(rest) // 2])
    right = _sums_by_size(rest[len(rest) // 2 :])
    short = [0] * (n + 1)
    median = [0] * (n + 1)
    reach = total - 2 * weights[anchor - 1]
    for a, left_sums in enumerate(left):
        # smallest right sum that is not short; a median sum when total is even
        cuts = [(reach - 2 * s + 1) // 2 for s in left_sums]
        for b, right_sums in enumerate(right):
            if right_sums[-1] < cuts[-1]:  # every pair short
                short[1 + a + b] += len(cuts) * len(right_sums)
                continue
            if right_sums[0] > cuts[0]:  # every pair long
                continue
            below = sum(map(bisect_left, repeat(right_sums), cuts))
            short[1 + a + b] += below
            if total % 2 == 0:
                median[1 + a + b] += sum(map(bisect_right, repeat(right_sums), cuts)) - below
    return short, median


def betti_profile(ell: LengthVector) -> BettiProfile:
    """All Betti numbers of the moduli space from one anchored subset count.

    The anchor is the first bar of maximal length.  The count is a
    meet-in-the-middle pass over the other n - 1 bars: O(2^(n/2)) subset
    sums and O(n 2^(n/2)) bisections (times in the module docstring).
    Vectors past MAX_BARS bars or MAX_SUM_BITS bits of half sums are refused
    with DomainError before any subset sum.

    The profile also decides genericity: the vector is generic exactly when
    every ``median_counts`` entry is 0.  Median subsets are closed under
    complement and exactly one of J and its complement holds the anchor, so
    any vanishing signed sum shows up as an anchored median subset.  Sizes n
    and n - 1 are the ones the profile does not list; neither can be median
    for n >= 3 with positive lengths: the full set weighs the whole total,
    and the complement of an anchored set of size n - 1 is one bar, which
    would have to weigh as much as all the others, the longest included.
    """
    n = ell.n
    check_degree(n, 0)
    weights = _checked_weights(ell)
    anchor = weights.index(max(weights)) + 1
    short, median = _anchored_class_counts(weights, anchor)
    short_counts = tuple(short[p + 1] for p in range(n - 2))
    median_counts = tuple(median[p + 1] for p in range(n - 2))
    values = tuple(
        short_counts[p] + median_counts[p] + short_counts[n - 3 - p]
        for p in range(n - 2)
    )
    return BettiProfile(
        n=n,
        anchor=anchor,
        values=values,
        short_counts=short_counts,
        median_counts=median_counts,
    )
