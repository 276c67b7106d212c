"""Vertex families and vertex-value sequences for the two sampling measures.

Both expected-Betti computations reduce to the same picture.  Sorting the bar
lengths in decreasing order maps either sample space onto an n-simplex of
prefix vectors:

* simplex measure (uniform on the unit probability simplex): vertices are the
  prefix averages (1/i, ..., 1/i, 0, ..., 0), i = 0..n;
* cube measure (iid uniform on [0, 1]): vertices are the prefix indicators
  (1, ..., 1, 0, ..., 0), i = 0..n.

A subset J of the bar indices {1..n} is given as a tuple of n 0/1 ints, entry
i - 1 being 1 when bar i is in J.  J's signed-sum functional (members minus
non-members) is linear, so on the sorted region it is pinned down by its
values at these vertices.  Writing h_i = |J intersect {1..i}| for the running
count of that tuple and alpha_i = h_i / i for J's running density, the value
at vertex i >= 1 is

    2 * alpha_i - 1              (simplex measure, in [-1, 1]),
    i * (2 * alpha_i - 1)        (cube measure, an integer in [-i, i]),

and every vertex-0 value is 0.  The cube-measure sequence steps by exactly
+-1 between consecutive indices, which keeps its repeated-value structure
simple.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError

__all__ = ["Measure", "density_sequence", "functional_values"]


class Measure(enum.Enum):
    """The two random-length models."""

    SIMPLEX = "simplex"
    CUBE = "cube"

    def __str__(self) -> str:
        return self.value


def density_sequence(subset: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Exact running densities of a 0/1 subset tuple: alpha_i at index i - 1."""
    if not subset:
        raise DomainError("need a nonempty ambient index set")
    return tuple(map(Fraction, accumulate(subset), range(1, len(subset) + 1)))


def functional_values(subset: tuple[int, ...], measure: Measure | str) -> tuple[Fraction, ...]:
    """Values of the subset's signed-sum functional at the n+1 region vertices, exactly.

    With h_i = |J intersect {1..i}|, the value at vertex i >= 1 (index i of
    the tuple) is (2 h_i - i) / i for the simplex measure and 2 h_i - i for
    the cube measure; vertex 0 gives 0 in both.  Taking the complement of
    the subset negates every value.  ``measure`` is a ``Measure`` or its
    name; any other value raises ValueError before any work.
    """
    measure = Measure(measure)
    if not subset:
        raise DomainError("need a nonempty ambient index set")
    hits = enumerate(accumulate(subset), 1)
    if measure is Measure.SIMPLEX:
        return (Fraction(0), *(Fraction(2 * h - i, i) for i, h in hits))
    return (Fraction(0), *(Fraction(2 * h - i) for i, h in hits))
