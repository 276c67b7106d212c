"""Seeded Monte Carlo estimators used to cross-check the exact formulas.

Every estimator splits its sample budget into fixed-size chunks and draws
chunk k from a fresh generator seeded by (seed, k).  Results are therefore
bit-identical for a given (seed, samples) pair no matter how many worker
threads process the chunks, and chunk accumulators are exact integers so the
reduction order cannot perturb the estimate either.

numpy and ``concurrent.futures`` are imported inside the functions that draw
or pool, not at module top: importing numpy costs about 0.2 s of CPU and
starts OpenBLAS threads, which every process that never samples would pay.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CHUNK_SIZE",
    "MonteCarloEstimate",
    "sample_unit_simplex",
    "sample_unit_cube",
    "mc_slice_ratio",
]

CHUNK_SIZE = 1 << 15

T = TypeVar("T")


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A seeded estimate with its standard error."""

    estimate: float
    stderr: float
    samples: int
    seed: int


def _check_budget(samples: int, seed: int, workers: int) -> None:
    if samples < 1:
        raise DomainError("need at least one sample")
    if seed < 0:
        raise DomainError("seed must be nonnegative")
    if workers < 1:
        raise DomainError("need at least one worker")


def _chunks(samples: int) -> Iterable[tuple[int, int]]:
    """(chunk index, chunk sample count) pairs covering the budget."""
    index = 0
    remaining = samples
    while remaining > 0:
        take = min(CHUNK_SIZE, remaining)
        yield index, take
        index += 1
        remaining -= take


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """The generator owned by one chunk; depends only on (seed, index)."""
    import numpy as np

    return np.random.default_rng([seed, index])


def pool_size(workers: int, items: int) -> int:
    """Threads for a pool over ``items`` work items: at most one per item and per CPU."""
    return min(workers, items, os.cpu_count() or 1)


def map_chunks(
    worker: Callable[[np.random.Generator, int], T],
    samples: int,
    seed: int,
    workers: int = 1,
) -> list[T]:
    """Run ``worker(rng, count)`` over every chunk, in chunk order.

    The pool has ``pool_size(workers, chunks)`` threads, however many
    ``workers`` are asked for.
    """
    _check_budget(samples, seed, workers)
    jobs = list(_chunks(samples))
    size = pool_size(workers, len(jobs))
    if size == 1:
        return [worker(chunk_rng(seed, i), count) for i, count in jobs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=size) as pool:
        futures = [pool.submit(worker, chunk_rng(seed, i), count) for i, count in jobs]
        return [f.result() for f in futures]


def sample_unit_simplex(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` uniform points on the open unit simplex in R^n (rows sum to 1).

    Normalized exponential spacings; the non-generic boundary cases have
    probability zero and are ignored downstream.
    """
    gaps = rng.standard_exponential((count, n))
    return gaps / gaps.sum(axis=1, keepdims=True)


def sample_unit_cube(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` iid-uniform points in the open unit cube in R^n."""
    return rng.random((count, n))


def mc_slice_ratio(
    values: Sequence[Fraction] | Sequence[float],
    samples: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Empirical negative-side volume fraction of a simplex cut.

    Draws uniform barycentric weights over the n+1 vertices (a flat Dirichlet)
    and counts samples whose interpolated functional value is negative.  The
    reported standard error is the binomial one; it is 0 when the empirical
    rate is 0 or 1, so compare against exact values with a floor in mind.
    """
    import numpy as np

    vertex_values = np.array([float(v) for v in values], dtype=np.float64)
    if vertex_values.size < 2:
        raise DomainError("need an ambient simplex dimension of at least 1")

    def worker(rng: np.random.Generator, count: int) -> int:
        weights = sample_unit_simplex(rng, count, vertex_values.size)
        return int(np.count_nonzero(weights @ vertex_values < 0.0))

    hits = sum(map_chunks(worker, samples, seed, workers))
    rate = hits / samples
    stderr = math.sqrt(rate * (1.0 - rate) / samples)
    return MonteCarloEstimate(estimate=rate, stderr=stderr, samples=samples, seed=seed)
