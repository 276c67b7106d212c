"""Betti numbers of planar linkage moduli spaces, exactly and in expectation.

The library has three layers:

* :mod:`linkage_betti.linkages` turns one rational length vector into exact
  Betti numbers of its moduli space via anchored short/median subset counts;
* :mod:`linkage_betti.simplexes` and :mod:`linkage_betti.slicing` compute
  exact volume fractions of a simplex on one side of a linear cut, the
  geometric picture that the averages' closed forms condense;
* :mod:`linkage_betti.averages` computes exact expected Betti numbers under
  two random-length models from closed forms (for the uniform law on the
  probability simplex, one binomial tail plus one Horner sum per shared
  denominator; for iid uniform lengths on the cube, one Irwin-Hall CDF) as
  ``AverageReport``s, a table over n being a list of them, and cross-checks
  them by seeded Monte Carlo (:mod:`linkage_betti.sampling`).

``__all__`` holds the names a caller computes with.  Each is importable from
the package, but the module that defines it loads on first access (PEP 562),
so ``import linkage_betti`` and each CLI command load only the modules they
use.  Helpers that only tests and the benchmark use are imported from their
module, not from the package.

The ``linkage-betti`` console script exposes all of it; see the README.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DomainError",),
    "linkages": ("LengthVector", "BettiProfile", "betti_profile", "betti", "is_generic"),
    "simplexes": ("Measure",),
    "slicing": ("slice_ratio",),
    "sampling": ("MonteCarloEstimate",),
    "averages": (
        "AverageReport",
        "average_betti_exact",
        "average_betti_mc",
        "convergence_table",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
