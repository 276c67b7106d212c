"""Seeded Monte Carlo estimators.

Core claims exercised here:
  * samplers produce points in the right domains (simplex rows sum to 1);
  * the slice estimator is unbiased against exact ratios at 3 standard errors;
  * results depend only on (seed, samples): reruns and different worker counts
    are bit-identical, including across chunk boundaries;
  * drawing a chunk's rows in consecutive blocks gives the whole draw bit for
    bit (a ``hypothesis`` property test), which the blockwise Monte Carlo
    count rests on;
  * degenerate cases (certain events, single samples) behave as documented;
  * thread pools hold at most one thread per work item and per CPU, and the
    exact path starts none.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkage_betti import DomainError, Measure, average_betti_exact, slice_ratio
from linkage_betti.sampling import (
    CHUNK_SIZE,
    chunk_rng,
    map_chunks,
    sample_unit_cube,
    sample_unit_simplex,
)

from oracles import mc_slice_ratio


def test_sample_unit_simplex_rows_sum_to_one():
    rng = np.random.default_rng(1)
    points = sample_unit_simplex(rng, 500, 6)
    assert points.shape == (500, 6)
    assert np.all(points > 0)
    assert np.allclose(points.sum(axis=1), 1.0)


def test_sample_unit_cube_in_bounds():
    rng = np.random.default_rng(2)
    points = sample_unit_cube(rng, 500, 4)
    assert points.shape == (500, 4)
    assert np.all((points >= 0) & (points < 1))


def test_mc_slice_symmetric_segment():
    estimate = mc_slice_ratio([Fraction(-1), Fraction(1)], 100000, 11)
    assert abs(estimate.estimate - 0.5) <= 3 * estimate.stderr


def test_mc_slice_matches_exact_ratio():
    values = [Fraction(-1), Fraction(1), Fraction(2)]
    exact = float(slice_ratio(values))
    estimate = mc_slice_ratio(values, 200000, 12)
    assert abs(estimate.estimate - exact) <= 3 * estimate.stderr


def test_mc_slice_certain_events():
    sure_zero = mc_slice_ratio([Fraction(1), Fraction(1), Fraction(1)], 10000, 13)
    assert sure_zero.estimate == 0.0
    assert sure_zero.stderr == 0.0
    sure_one = mc_slice_ratio([Fraction(-1), Fraction(-2)], 10000, 13)
    assert sure_one.estimate == 1.0


def test_mc_slice_deterministic_across_workers():
    values = [Fraction(-1), Fraction(1), Fraction(3)]
    baseline = mc_slice_ratio(values, 3 * CHUNK_SIZE + 17, 99, workers=1)
    for workers in (2, 5):
        assert mc_slice_ratio(values, 3 * CHUNK_SIZE + 17, 99, workers=workers) == baseline
    assert mc_slice_ratio(values, 3 * CHUNK_SIZE + 17, 99) == baseline


def test_mc_slice_chunk_boundaries():
    values = [Fraction(-2), Fraction(1)]
    for samples in (1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1):
        a = mc_slice_ratio(values, samples, 7, workers=1)
        b = mc_slice_ratio(values, samples, 7, workers=3)
        assert a == b
        assert a.samples == samples


def test_chunk_rng_streams_are_stable():
    a = chunk_rng(5, 0).random(4)
    b = chunk_rng(5, 0).random(4)
    c = chunk_rng(5, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 21),
    seed=st.integers(0, 2**32),
    index=st.integers(0, 2**15),
    sizes=st.lists(st.integers(1, 300), min_size=1, max_size=6),
)
def test_consecutive_block_draws_continue_one_stream(n, seed, index, sizes):
    for sampler in (sample_unit_simplex, sample_unit_cube):
        whole = sampler(chunk_rng(seed, index), sum(sizes), n)
        rng = chunk_rng(seed, index)
        blocks = np.concatenate([sampler(rng, size, n) for size in sizes])
        assert blocks.tobytes() == whole.tobytes()


def test_map_chunks_covers_budget_in_order():
    sizes = map_chunks(lambda rng, count: count, 2 * CHUNK_SIZE + 3, 0)
    assert sizes == [CHUNK_SIZE, CHUNK_SIZE, 3]


def test_budget_validation():
    with pytest.raises(DomainError):
        mc_slice_ratio([Fraction(-1), Fraction(1)], 0, 1)
    with pytest.raises(DomainError):
        mc_slice_ratio([Fraction(-1), Fraction(1)], 10, -1)
    with pytest.raises(DomainError):
        map_chunks(lambda rng, count: count, 10, 1, workers=0)
    with pytest.raises(DomainError):
        mc_slice_ratio([Fraction(1)], 10, 1)


def _recording_executor(sizes: list[int]):
    """A ThreadPoolExecutor stand-in that records its size and runs inline."""

    class Executor:
        def __init__(self, max_workers: int) -> None:
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> bool:
            return False

        def map(self, fn, items):
            return map(fn, items)

    return Executor


def test_thread_pools_are_capped_by_work_items_and_cpus(monkeypatch):
    sizes: list[int] = []
    # map_chunks imports the executor when it pools, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _recording_executor(sizes))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    values = [Fraction(-1), Fraction(1), Fraction(3)]
    serial = mc_slice_ratio(values, 5 * CHUNK_SIZE, 11, workers=1)
    assert sizes == []
    assert mc_slice_ratio(values, 5 * CHUNK_SIZE, 11, workers=5000) == serial
    assert sizes == [3]
    assert map_chunks(lambda rng, count: count, 2 * CHUNK_SIZE, 0, workers=5000) == [
        CHUNK_SIZE,
        CHUNK_SIZE,
    ]
    assert sizes == [3, 2]

    monkeypatch.setattr(os, "cpu_count", lambda: None)
    sizes.clear()
    assert mc_slice_ratio(values, 5 * CHUNK_SIZE, 11, workers=5000) == serial
    assert sizes == []

    # the exact path starts no pool and no thread, whatever it is asked for
    exact = average_betti_exact(8, 1, Measure.CUBE, workers=1)

    def no_thread(self):
        raise AssertionError("the exact path started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert average_betti_exact(8, 1, Measure.CUBE, workers=5000) == exact
    assert average_betti_exact(9, 3, Measure.SIMPLEX, workers=5000) == average_betti_exact(
        9, 3, Measure.SIMPLEX
    )
    assert sizes == []
