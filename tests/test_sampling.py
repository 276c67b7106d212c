"""Seeded Monte Carlo estimators.

Core claims exercised here:
  * samplers produce points in the right domains (simplex rows sum to 1);
  * the slice estimator is unbiased against exact ratios at 3 standard errors;
  * results depend only on (seed, samples): reruns are bit-identical, each
    chunk is counted from its own (seed, index) stream, and a budget one
    sample past a chunk boundary adds that one sample;
  * drawing a chunk's rows in consecutive blocks gives the whole draw bit for
    bit (a ``hypothesis`` property test), which the blockwise Monte Carlo
    count rests on;
  * degenerate cases (certain events, single samples) behave as documented;
  * no engine starts a thread, whatever ``workers`` it is given.
"""

from __future__ import annotations

import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkage_betti import (
    DomainError,
    Measure,
    average_betti_exact,
    average_betti_mc,
    slice_ratio,
)
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


def test_mc_slice_counts_each_chunk_from_its_own_stream():
    values = [Fraction(-1), Fraction(1), Fraction(3)]
    samples = 3 * CHUNK_SIZE + 17
    estimate = mc_slice_ratio(values, samples, 99)
    assert mc_slice_ratio(values, samples, 99) == estimate
    hits = 0
    for index, count in enumerate((CHUNK_SIZE, CHUNK_SIZE, CHUNK_SIZE, 17)):
        weights = sample_unit_simplex(chunk_rng(99, index), count, len(values))
        hits += int(np.count_nonzero(weights @ np.array([-1.0, 1.0, 3.0]) < 0.0))
    assert estimate.estimate == hits / samples


def test_mc_slice_chunk_boundaries():
    values = [Fraction(-2), Fraction(1)]
    hits = {}
    for samples in (1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1):
        a = mc_slice_ratio(values, samples, 7)
        assert mc_slice_ratio(values, samples, 7) == a
        assert a.samples == samples
        hits[samples] = round(a.estimate * samples)
    # a budget is a prefix of every larger one: each added sample adds 0 or 1 hit
    assert hits[CHUNK_SIZE] - hits[CHUNK_SIZE - 1] in (0, 1)
    assert hits[CHUNK_SIZE + 1] - hits[CHUNK_SIZE] in (0, 1)


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
        map_chunks(lambda rng, count: count, 10, -1)
    with pytest.raises(DomainError):
        mc_slice_ratio([Fraction(1)], 10, 1)


def test_no_engine_starts_a_thread(monkeypatch):
    values = [Fraction(-1), Fraction(1), Fraction(3)]
    serial = mc_slice_ratio(values, 5 * CHUNK_SIZE, 11)
    mc = average_betti_mc(6, 1, Measure.SIMPLEX, 2 * CHUNK_SIZE + 5, 3)
    exact = average_betti_exact(8, 1, Measure.CUBE)

    def no_thread(self):
        raise AssertionError("an engine started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert mc_slice_ratio(values, 5 * CHUNK_SIZE, 11) == serial
    # ``workers`` is accepted and ignored, however many are asked for
    assert average_betti_mc(6, 1, Measure.SIMPLEX, 2 * CHUNK_SIZE + 5, 3, workers=5000) == mc
    assert average_betti_exact(8, 1, Measure.CUBE, workers=5000) == exact
    assert average_betti_exact(9, 3, Measure.SIMPLEX, workers=5000) == average_betti_exact(
        9, 3, Measure.SIMPLEX
    )
