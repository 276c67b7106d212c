"""Structural bounds on density and vertex-value sequences of small subsets.

For a subset J of {1..n} with |J| = p >= 1, the running densities alpha_i and
the two vertex-value sequences obey sharp combinatorial bounds (the engine's
decay analysis rests on them).  Each checker raises AssertionError with
context on the first violation; both the module tests and the acceptance
suite drive them over seeded random corpora.

One clarification is baked in: the value 0 occurs in the simplex-flavor
sequence q_0..q_n up to p + 1 times (q_0 = 0 always, plus up to p interior
indices with density exactly 1/2), while every other value distinct from -1
occurs at most p times; among the interior values q_1..q_n alone, any value
distinct from -1 occurs at most p times.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from linkage_betti import Measure
from linkage_betti.linkages import IndexSubset
from linkage_betti.simplexes import density_sequence, functional_values


def check_density_bounds(subset: IndexSubset) -> None:
    n = subset.n
    p = len(subset)
    assert p >= 1, "checks apply to nonempty subsets"
    alphas = density_sequence(subset)
    half = Fraction(1, 2)

    # ceiling: densities fall to 1/2 or below from index 2p on, strictly after
    for i in range(2 * p, n + 1):
        if i < 1:
            continue
        a = alphas[i - 1]
        assert a <= half, f"alpha_{i}={a} > 1/2 for {sorted(subset)}"
        if i > 2 * p:
            assert a < half, f"alpha_{i}={a} = 1/2 past i=2p for {sorted(subset)}"

    # early separation: distinct densities up to index 2p differ by >= 1/(2p)^2
    sep = Fraction(1, (2 * p) ** 2)
    early = [alphas[i - 1] for i in range(1, min(2 * p, n) + 1)]
    for i, a in enumerate(early):
        for b in early[i + 1 :]:
            if a != b:
                assert abs(a - b) >= sep, (
                    f"early densities {a},{b} closer than {sep} for {sorted(subset)}"
                )

    # strict-below-half quantization
    drop = half - Fraction(1, 2 * (2 * p + 1))
    for i, a in enumerate(alphas, start=1):
        if a < half:
            assert a <= drop, f"alpha_{i}={a} in the forbidden band for {sorted(subset)}"

    # deep tail decay
    for i in range(8 * p**3, n + 1):
        if i < 1:
            continue
        assert alphas[i - 1] <= Fraction(1, 8 * p**2), (
            f"alpha_{i}={alphas[i-1]} too large in the tail for {sorted(subset)}"
        )

    # nonzero density values repeat at most p times
    counts = Counter(a for a in alphas if a != 0)
    for value, count in counts.items():
        assert count <= p, (
            f"density value {value} appears {count} > {p} times for {sorted(subset)}"
        )


def check_simplex_values(subset: IndexSubset) -> None:
    n = subset.n
    p = len(subset)
    assert p >= 1
    values = functional_values(subset, Measure.SIMPLEX)

    assert values[0] == 0
    assert all(-1 <= q <= 1 for q in values)

    # sign: nonpositive from index 2p on, strictly negative after
    for i in range(2 * p, n + 1):
        if i < 1:
            continue
        assert values[i] <= 0, f"q_{i}={values[i]} > 0 for {sorted(subset)}"
        if i > 2 * p:
            assert values[i] < 0, f"q_{i}=0 past i=2p for {sorted(subset)}"

    # early separation, doubled from the density bound
    sep = Fraction(1, 2 * p**2)
    early = [values[i] for i in range(1, min(2 * p, n) + 1)]
    for i, a in enumerate(early):
        for b in early[i + 1 :]:
            if a != b:
                assert abs(a - b) >= sep, (
                    f"early values {a},{b} closer than {sep} for {sorted(subset)}"
                )

    # negative values are uniformly below zero
    floor = Fraction(-1, 2 * p + 1)
    for i in range(1, n + 1):
        if values[i] < 0:
            assert values[i] <= floor, (
                f"q_{i}={values[i]} negative but above {floor} for {sorted(subset)}"
            )

    # deep tail: values collapse toward -1
    for i in range(8 * p**3, n + 1):
        if i < 1:
            continue
        assert values[i] <= -1 + Fraction(1, 4 * p**2), (
            f"q_{i}={values[i]} too large in the tail for {sorted(subset)}"
        )

    # multiplicities: away from -1, at most p interior occurrences; including
    # the leading zero, only the value 0 may reach p + 1
    interior = Counter(values[1:])
    for value, count in interior.items():
        if value != -1:
            assert count <= p, (
                f"value {value} appears {count} > {p} times interior for {sorted(subset)}"
            )
    full = Counter(values)
    for value, count in full.items():
        if value == -1:
            continue
        bound = p + 1 if value == 0 else p
        assert count <= bound, (
            f"value {value} appears {count} > {bound} times overall for {sorted(subset)}"
        )


def check_cube_values(subset: IndexSubset) -> None:
    n = subset.n
    p = len(subset)
    assert p >= 1
    values = functional_values(subset, Measure.CUBE)

    assert values[0] == 0
    for i, q in enumerate(values):
        assert q.denominator == 1, f"q'_{i}={q} not an integer for {sorted(subset)}"
        assert abs(q) <= i, f"|q'_{i}|={q} exceeds {i} for {sorted(subset)}"

    # unit steps, with exactly p up-steps in total
    steps = [values[i + 1] - values[i] for i in range(n)]
    assert all(abs(s) == 1 for s in steps), f"non-unit step for {sorted(subset)}"
    assert sum(1 for s in steps if s == 1) == p, f"up-step count != p for {sorted(subset)}"

    # sign: nonpositive from index 2p on, strictly negative after
    for i in range(2 * p, n + 1):
        if i < 1:
            continue
        assert values[i] <= 0, f"q'_{i}={values[i]} > 0 for {sorted(subset)}"
        if i > 2 * p:
            assert values[i] < 0, f"q'_{i}=0 past i=2p for {sorted(subset)}"

    # integers: distinct values differ by >= 1, negatives are <= -1
    distinct = sorted(set(values))
    for a, b in zip(distinct, distinct[1:]):
        assert b - a >= 1
    for q in values:
        if q < 0:
            assert q <= -1

    # any value occurs at most p + 1 times across the whole sequence
    counts = Counter(values)
    for value, count in counts.items():
        assert count <= p + 1, (
            f"value {value} appears {count} > {p + 1} times for {sorted(subset)}"
        )


def check_all(subset: IndexSubset) -> None:
    check_density_bounds(subset)
    check_simplex_values(subset)
    check_cube_values(subset)
