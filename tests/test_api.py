"""The public API: ``linkage_betti.__all__`` is pinned and every name resolves.

Names that only tests and the benchmark use are not exported, but still
import from the module that defines them.  The records the engines return
are immutable, and equal inputs give equal, equally hashed records that
survive pickling.

The package source is also pinned to ASCII: the benchmark reads every
``src/*.py`` with the locale's encoding, which under ``LC_ALL=C`` cannot
decode anything else.
"""

from __future__ import annotations

import importlib
import pickle
from pathlib import Path

import pytest

import linkage_betti
from linkage_betti import (
    LengthVector,
    Measure,
    average_betti_exact,
    average_betti_mc,
    betti_profile,
)

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
    "MonteCarloEstimate",
    "AverageReport",
    "average_betti_exact",
    "average_betti_mc",
    "convergence_table",
}

MODULE_ONLY = {
    "simplexes": ("density_sequence", "functional_values"),
    "slicing": ("group_values",),
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


RECORDS = {
    "LengthVector": (lambda: LengthVector.of(3, 1, 1, 1, 1), "lengths"),
    "BettiProfile": (lambda: betti_profile(LengthVector.of(3, 1, 1, 1, 1)), "values"),
    "AverageReport": (lambda: average_betti_exact(7, 1, Measure.CUBE), "exact"),
    "MonteCarloEstimate": (
        lambda: average_betti_mc(5, 0, Measure.CUBE, samples=200, seed=3), "estimate"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    build, field = RECORDS[name]
    record, again = build(), build()
    assert type(record).__name__ == name
    assert record == again and hash(record) == hash(again)
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_source_is_ascii():
    sources = sorted((Path(__file__).resolve().parents[1] / "src").rglob("*.py"))
    assert sources
    for path in sources:
        path.read_bytes().decode("ascii")
