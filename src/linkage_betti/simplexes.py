"""Vertex families and vertex-value sequences for the two sampling measures.

Both expected-Betti computations reduce to the same picture.  Sorting the bar
lengths in decreasing order maps either sample space onto an n-simplex of
prefix vectors:

* simplex measure (uniform on the unit probability simplex): vertices are the
  prefix averages (1/i, ..., 1/i, 0, ..., 0), i = 0..n;
* cube measure (iid uniform on [0, 1]): vertices are the prefix indicators
  (1, ..., 1, 0, ..., 0), i = 0..n.

For a subset J of bar indices, the signed-sum functional (members minus
non-members) is linear, so on the sorted region it is pinned down by its
values at these vertices.  Writing alpha_i = |J intersect {1..i}| / i for the
running density of J, the value at vertex i >= 1 is

    2 * alpha_i - 1              (simplex measure, in [-1, 1]),
    i * (2 * alpha_i - 1)        (cube measure, an integer in [-i, i]),

and every vertex-0 value is 0.  The cube-measure sequence steps by exactly
+-1 between consecutive indices, which keeps its repeated-value structure
simple.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    from .linkages import IndexSubset

__all__ = ["Measure", "density_sequence", "functional_values"]


class Measure(enum.Enum):
    """The two random-length models."""

    SIMPLEX = "simplex"
    CUBE = "cube"

    def __str__(self) -> str:
        return self.value


def density_sequence(subset: IndexSubset) -> tuple[Fraction, ...]:
    """Exact running densities of a subset of {1..n}: alpha_i at index i - 1."""
    if subset.n < 1:
        raise DomainError("need a nonempty ambient index set")
    hits = 0
    alphas = []
    for i in range(1, subset.n + 1):
        if i in subset:
            hits += 1
        alphas.append(Fraction(hits, i))
    return tuple(alphas)


def functional_values(subset: IndexSubset, measure: Measure) -> tuple[Fraction, ...]:
    """Values of the subset's signed-sum functional at the n+1 region vertices, exactly.

    With h_i = |J intersect {1..i}|, the value at vertex i >= 1 (index i of
    the tuple) is (2 h_i - i) / i for the simplex measure and 2 h_i - i for
    the cube measure; vertex 0 gives 0 in both.  Taking the complement of
    the subset negates every value.
    """
    if subset.n < 1:
        raise DomainError("need a nonempty ambient index set")
    values = [Fraction(0)]
    hits = 0
    for i in range(1, subset.n + 1):
        if i in subset:
            hits += 1
        if measure is Measure.SIMPLEX:
            values.append(Fraction(2 * hits - i, i))
        else:
            values.append(Fraction(2 * hits - i))
    return tuple(values)
