"""The public API: ``linkage_betti.__all__`` is pinned and every name resolves.

Names that only tests and the benchmark use are not exported, but still
import from the module that defines them.

The package source is also pinned to ASCII: the benchmark reads every
``src/*.py`` with the locale's encoding, which under ``LC_ALL=C`` cannot
decode anything else.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import linkage_betti

PUBLIC = {
    "__version__",
    "DomainError",
    "LengthVector",
    "BettiProfile",
    "betti_profile",
    "betti",
    "is_generic",
    "Measure",
    "slice_ratio",
    "slice_cdf",
    "MonteCarloEstimate",
    "AverageReport",
    "ConvergenceRow",
    "average_betti_exact",
    "average_betti_mc",
    "convergence_table",
}

MODULE_ONLY = {
    "linkages": ("IndexSubset", "max_length_index"),
    "simplexes": ("density_sequence", "functional_values"),
    "slicing": ("GroupedValues", "group_values"),
    "averages": ("subset_classes",),
}


def test_public_names_are_pinned_and_resolve():
    assert len(linkage_betti.__all__) == len(set(linkage_betti.__all__))
    assert set(linkage_betti.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(linkage_betti, name) is not None, name


def test_unexported_helpers_import_from_their_module():
    for module, names in MODULE_ONLY.items():
        defining = importlib.import_module(f"linkage_betti.{module}")
        for name in names:
            assert name not in linkage_betti.__all__, name
            assert getattr(defining, name) is not None, name


def test_source_is_ascii():
    sources = sorted((Path(__file__).resolve().parents[1] / "src").rglob("*.py"))
    assert sources
    for path in sources:
        path.read_bytes().decode("ascii")
