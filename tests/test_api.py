"""The public API: ``linkage_betti.__all__`` is pinned and every name resolves."""

from __future__ import annotations

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
    "subset_volume_term",
    "average_betti_exact",
    "average_betti_mc",
    "convergence_table",
}


def test_public_names_are_pinned_and_resolve():
    assert len(linkage_betti.__all__) == len(set(linkage_betti.__all__))
    assert set(linkage_betti.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(linkage_betti, name) is not None, name
