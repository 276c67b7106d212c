"""Betti numbers of planar linkage moduli spaces, exactly and in expectation.

The library has three layers:

* :mod:`linkage_betti.linkages` turns one rational length vector into exact
  Betti numbers of its moduli space via anchored short/median subset counts;
* :mod:`linkage_betti.simplexes` and :mod:`linkage_betti.slicing` compute
  exact volume fractions of a simplex on one side of a linear cut, the
  geometric kernel behind the averages;
* :mod:`linkage_betti.averages` computes exact expected Betti numbers under
  two random-length models from closed forms (three-value slice ratios for
  the uniform law on the probability simplex, an Irwin-Hall tail for iid
  uniform lengths on the cube) and cross-checks them by seeded Monte Carlo
  (:mod:`linkage_betti.sampling`).

The ``linkage-betti`` console script exposes all of it; see the README.
"""

from .averages import (
    AverageReport,
    ConvergenceRow,
    average_betti_exact,
    average_betti_mc,
    convergence_table,
    subset_classes,
    subset_volume_term,
)
from .errors import DomainError
from .linkages import (
    BettiProfile,
    IndexSubset,
    LengthVector,
    betti,
    betti_profile,
    count_median,
    count_short,
    equilateral_reference,
    is_generic,
    max_length_index,
)
from .sampling import MonteCarloEstimate, mc_slice_ratio
from .simplexes import (
    DensitySequence,
    Measure,
    VertexValues,
    density_sequence,
    functional_values,
)
from .slicing import GroupedValues, group_values, slice_cdf, slice_ratio

__version__ = "0.1.0"

__all__ = [
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
]
