"""The public API: ``linkage_betti.__all__`` is pinned and every name resolves.

The package source is also pinned to ASCII: the benchmark reads every
``src/*.py`` with the locale's encoding, which under ``LC_ALL=C`` cannot
decode anything else.
"""

from __future__ import annotations

from pathlib import Path

import linkage_betti

PUBLIC = {
    "__version__",
    "DomainError",
    "LengthVector",
    "IndexSubset",
    "BettiProfile",
    "max_length_index",
    "is_generic",
    "count_short",
    "count_median",
    "betti",
    "betti_profile",
    "equilateral_reference",
    "Measure",
    "DensitySequence",
    "VertexValues",
    "density_sequence",
    "functional_values",
    "GroupedValues",
    "group_values",
    "slice_cdf",
    "slice_ratio",
    "MonteCarloEstimate",
    "mc_slice_ratio",
    "AverageReport",
    "ConvergenceRow",
    "subset_classes",
    "average_betti_exact",
    "average_betti_mc",
    "convergence_table",
}


def test_public_names_are_pinned_and_resolve():
    assert len(linkage_betti.__all__) == len(set(linkage_betti.__all__))
    assert set(linkage_betti.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(linkage_betti, name) is not None, name


def test_source_is_ascii():
    sources = sorted((Path(__file__).resolve().parents[1] / "src").rglob("*.py"))
    assert sources
    for path in sources:
        path.read_bytes().decode("ascii")
