"""Seeded Monte Carlo sampling behind ``averages.average_betti_mc``.

A sample budget is split into fixed-size chunks, and chunk k is drawn from a
fresh generator seeded by (seed, k).  Results are therefore bit-identical for
a given (seed, samples) pair no matter how many worker threads process the
chunks, and chunk accumulators are exact integers so the reduction order
cannot perturb the estimate either.  Budgets above MC_MAX_SAMPLES are refused
with DomainError before any work starts.

numpy and ``concurrent.futures`` are imported inside the functions that draw
or pool, not at module top: importing numpy costs about 0.1 s of CPU and
starts OpenBLAS threads, which every process that never samples would pay.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, TypeVar

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
# 32,768 chunks.  map_chunks lists every chunk up front (about 92 bytes each)
# and, when it pools, builds every chunk's generator (about 1.3 KiB) before
# the first result comes back.
MC_MAX_SAMPLES = 2**30

T = TypeVar("T")


class MonteCarloEstimate(NamedTuple):
    """A seeded estimate with its standard error."""

    estimate: float
    stderr: float
    samples: int
    seed: int


def _check_budget(samples: int, seed: int, workers: int) -> None:
    if samples < 1:
        raise DomainError("need at least one sample")
    if samples > MC_MAX_SAMPLES:
        raise DomainError(f"{samples} samples exceed the limit of {MC_MAX_SAMPLES}")
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


def map_chunks(
    worker: Callable[[np.random.Generator, int], T],
    samples: int,
    seed: int,
    workers: int = 1,
) -> list[T]:
    """Run ``worker(rng, count)`` over every chunk, in chunk order.

    The pool has ``min(workers, chunks, os.cpu_count() or 1)`` threads,
    however many ``workers`` are asked for.
    """
    _check_budget(samples, seed, workers)
    jobs = list(_chunks(samples))
    size = min(workers, len(jobs), os.cpu_count() or 1)
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
    gaps /= gaps.sum(axis=1, keepdims=True)
    return gaps


def sample_unit_cube(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` iid-uniform points in the open unit cube in R^n."""
    return rng.random((count, n))
