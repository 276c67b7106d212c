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
Vectors with more than MAX_BARS bars are refused with DomainError before any
work starts.

Everything in this module is exact: lengths are arbitrary-precision rationals
and all comparisons clear denominators before comparing integers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator

from .errors import DomainError, check_degree

__all__ = [
    "LengthVector",
    "IndexSubset",
    "BettiProfile",
    "is_generic",
    "betti",
    "betti_profile",
    "MAX_BARS",
]

# Largest bar count whose subset count finishes in about 10 s (14 s at n = 41).
MAX_BARS = 40


@dataclass(frozen=True)
class LengthVector:
    """Positive bar lengths held exactly as rationals."""

    lengths: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.lengths:
            raise DomainError("a length vector needs at least one bar")
        if any(not isinstance(l, Fraction) for l in self.lengths):
            raise TypeError("lengths must be Fractions; use LengthVector.of")
        if any(l <= 0 for l in self.lengths):
            raise DomainError("bar lengths must be positive")

    @classmethod
    def of(cls, *lengths: Fraction | int | str) -> "LengthVector":
        """Build from ints, exact decimal/ratio strings, or Fractions.

        Floats are rejected on purpose: their binary expansions would leak
        rounding into an otherwise exact pipeline.  Pass "0.3" or
        Fraction(3, 10) instead of 0.3.
        """
        converted = []
        for l in lengths:
            if isinstance(l, float):
                raise TypeError("floats are not exact; pass a string or Fraction")
            converted.append(Fraction(l))
        return cls(tuple(converted))

    @property
    def n(self) -> int:
        return len(self.lengths)

    def scaled_integers(self) -> tuple[int, ...]:
        """The lengths rescaled by the denominator lcm, as plain integers.

        Rescaling preserves every short/median/long classification, so all
        comparisons downstream run on integers.
        """
        common = math.lcm(*(l.denominator for l in self.lengths))
        return tuple(int(l * common) for l in self.lengths)


@dataclass(frozen=True)
class IndexSubset:
    """A subset of the 1-based bar index set {1, ..., n}."""

    members: frozenset[int]
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError("ambient size must be nonnegative")
        if any(not (1 <= i <= self.n) for i in self.members):
            raise DomainError(f"members must lie in 1..{self.n}")

    @classmethod
    def of(cls, members: Iterable[int], n: int) -> "IndexSubset":
        return cls(frozenset(members), n)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def complement(self) -> "IndexSubset":
        return IndexSubset(frozenset(range(1, self.n + 1)) - self.members, self.n)


@dataclass(frozen=True)
class BettiProfile:
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


def max_length_index(ell: LengthVector) -> int:
    """1-based index of a maximal length, smallest index on ties."""
    best = 0
    for i in range(1, ell.n):
        if ell.lengths[i] > ell.lengths[best]:
            best = i
    return best + 1


def _check_bar_count(ell: LengthVector) -> None:
    if ell.n > MAX_BARS:
        raise DomainError(
            f"{ell.n} bars exceed the subset-count limit of {MAX_BARS} "
            "(cost doubles every two bars)"
        )


def is_generic(ell: LengthVector) -> bool:
    """True when no signed sum +-l_1 +- l_2 ... +- l_n vanishes.

    Equivalently, no subset of bars weighs exactly half the total.  Decided
    exactly via meet-in-the-middle over the integer rescale, in
    O(2^(n/2)) set operations; refused with DomainError above MAX_BARS bars.
    """
    _check_bar_count(ell)
    weights = ell.scaled_integers()
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


def _anchored_class_counts(ell: LengthVector, anchor: int) -> tuple[list[int], list[int]]:
    """Short and median subset counts through ``anchor``, bucketed by size.

    Meet in the middle (Horowitz-Sahni): the non-anchor weights split into
    two halves whose subset sums are bucketed by size and sorted.  A subset
    made of the anchor, a left subset of sum s and a right subset of sum r is
    short when 2r < total - 2(anchor + s) and median on equality, so for
    each left sum and each right size two bisections count every partner at
    once; a size pair whose sums are all short or all long needs none.
    Returns (short, median) with index = subset size.
    """
    _check_bar_count(ell)
    weights = ell.scaled_integers()
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
    Vectors with more than MAX_BARS bars are refused with DomainError
    before any work.

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
    anchor = max_length_index(ell)
    short, median = _anchored_class_counts(ell, anchor)
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
