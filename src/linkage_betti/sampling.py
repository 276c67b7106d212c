"""Seeded Monte Carlo sampling behind ``averages.average_betti_mc``.

A sample budget is split into fixed-size chunks, and chunk k is drawn from a
fresh generator seeded by (seed, k).  The chunks run one after another on the
calling thread, and chunk accumulators are exact integers, so results are
bit-identical for a given (seed, samples) pair.  Budgets above MC_MAX_SAMPLES
are refused with DomainError before any work starts.

numpy is imported inside the functions that draw, not at module top:
importing it costs about 0.1 s of CPU and starts OpenBLAS threads, which
every process that never samples would pay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, TypeVar

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CHUNK_SIZE",
    "MonteCarloEstimate",
    "sample_unit_simplex",
    "sample_unit_cube",
]

CHUNK_SIZE = 1 << 15
# 32,768 chunks.  map_chunks builds each chunk's generator when that chunk
# runs and keeps only the finished chunks' results.
MC_MAX_SAMPLES = 2**30

T = TypeVar("T")


class MonteCarloEstimate(NamedTuple):
    """A seeded estimate with its standard error."""

    estimate: float
    stderr: float
    samples: int
    seed: int


def _check_budget(samples: int, seed: int) -> None:
    if samples < 1:
        raise DomainError("need at least one sample")
    if samples > MC_MAX_SAMPLES:
        raise DomainError(f"{samples} samples exceed the limit of {MC_MAX_SAMPLES}")
    if seed < 0:
        raise DomainError("seed must be nonnegative")


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """The generator owned by one chunk; depends only on (seed, index)."""
    import numpy as np

    return np.random.default_rng([seed, index])


def map_chunks(
    worker: Callable[[np.random.Generator, int], T], samples: int, seed: int
) -> list[T]:
    """Run ``worker(rng, count)`` over every chunk, in chunk order, on this thread."""
    _check_budget(samples, seed)
    return [
        worker(chunk_rng(seed, index), min(CHUNK_SIZE, samples - start))
        for index, start in enumerate(range(0, samples, CHUNK_SIZE))
    ]


def sample_unit_simplex(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` uniform points on the open unit simplex in R^n (rows sum to 1).

    Normalized exponential spacings; the non-generic boundary cases have
    probability zero and are ignored downstream.
    """
    gaps = rng.standard_exponential((count, n))
    gaps /= gaps.sum(axis=1, keepdims=True)
    return gaps


def sample_unit_cube(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` iid-uniform points in the open unit cube in R^n."""
    return rng.random((count, n))
