"""Stream derivation and sparse-sampling helper tests."""

from __future__ import annotations

import concurrent.futures
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meaninglab.rng import (
    MAX_PAIR_NODES,
    index_to_pair,
    pair_count,
    run_tasks,
    skip_sample,
    sparse_pairs,
    stream,
    subseed,
)

from oracles import pair_to_index


def test_streams_are_deterministic():
    a = stream(7, 1, 2).random(5)
    b = stream(7, 1, 2).random(5)
    assert np.array_equal(a, b)


def test_streams_differ_by_path_and_seed():
    base = stream(7, 1).random(8)
    assert not np.array_equal(base, stream(7, 2).random(8))
    assert not np.array_equal(base, stream(8, 1).random(8))
    assert not np.array_equal(base, stream(7, 1, 0).random(8))


def test_subseed_stable():
    assert subseed(3, 1, 4) == subseed(3, 1, 4)
    assert subseed(3, 1, 4) != subseed(3, 1, 5)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its worker count and runs each task inline."""

    made: list[int] = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def run_recorded(monkeypatch, threads: int, n_tasks: int) -> list[int]:
    """Run ``n_tasks`` tasks on a recording pool; the worker counts of the pools it made."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "made", [])
    tasks = [(2, k) for k in range(n_tasks)]
    assert run_tasks(pow, tasks, threads) == [2**k for k in range(n_tasks)]
    return RecordingPool.made


@pytest.mark.parametrize(
    "threads, n_tasks, cpus, workers",
    [
        (10**6, 3, 64, 3),  # never more workers than tasks
        (10**6, 3, 2, 2),  # nor than the CPUs this process may run on
        (4, 10, 64, 4),
        (2, 3, 1, None),  # pinned to one CPU (``taskset -c 1``): no pool
        (10**6, 3, None, None),  # no affinity mask and an unknown CPU count, which counts as one: no pool
        (1, 10, 64, None),
        (8, 1, 64, None),
        (8, 0, 64, None),
    ],
)
def test_run_tasks_bounds_the_pool(monkeypatch, threads, n_tasks, cpus, workers):
    # ``cpus`` is the size of this process's affinity mask on a 64-CPU host.
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert run_recorded(monkeypatch, threads, n_tasks) == ([] if workers is None else [workers])


def test_run_tasks_without_affinity_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run_recorded(monkeypatch, 8, 3) == [2]


def test_pair_index_round_trip_exhaustive():
    for n in range(2, 26):
        ks = np.arange(pair_count(n))
        i, j = index_to_pair(ks, n)
        assert np.all(i < j)
        back = [pair_to_index(int(a), int(b), n) for a, b in zip(i, j)]
        assert back == list(range(pair_count(n)))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=200_000), st.data())
def test_pair_index_round_trip_spot(n: int, data):
    k = data.draw(st.integers(min_value=0, max_value=pair_count(n) - 1))
    i, j = index_to_pair(np.array([k]), n)
    assert 0 <= int(i[0]) < int(j[0]) < n
    assert pair_to_index(int(i[0]), int(j[0]), n) == k


def test_pair_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        index_to_pair(np.array([pair_count(5)]), 5)
    with pytest.raises(ValueError):
        index_to_pair(np.array([0]), MAX_PAIR_NODES + 1)


@st.composite
def pairs_of_large_graphs(draw, lo: int, hi: int):
    n = draw(st.integers(min_value=lo, max_value=hi))
    # The last rows are the short ones, where a float square root of
    # ``(2n - 1)**2 - 8k`` loses the row; draw there as often as anywhere.
    i = draw(st.one_of(st.integers(0, n - 2), st.integers(n - 3000, n - 2)))
    j = draw(st.one_of(st.just(i + 1), st.just(n - 1), st.integers(i + 1, n - 1)))
    return n, i, j


def assert_inverts(n: int, i: int, j: int):
    # pair_to_index is exact integer arithmetic, so it is the reference.
    k = pair_to_index(i, j, n)
    got_i, got_j = index_to_pair(np.array([k]), n)
    assert (int(got_i[0]), int(got_j[0])) == (i, j)


@settings(max_examples=200, deadline=None)
@given(pairs_of_large_graphs(10**8 - 10**4, 10**8 + 10**4))
def test_pair_index_exact_near_1e8(case):
    assert_inverts(*case)


@settings(max_examples=200, deadline=None)
@given(pairs_of_large_graphs(10**8, MAX_PAIR_NODES))
def test_pair_index_exact_up_to_the_node_limit(case):
    assert_inverts(*case)


def test_pair_index_exact_at_1e9():
    n = 10**9
    i, j = index_to_pair(np.array([499999999499999971]), n)
    assert (int(i[0]), int(j[0])) == (999999991, 999999999)
    # First and last pair of each of the last 2000 rows, in one call.
    rows = range(n - 2001, n - 1)
    want = [(r, c) for r in rows for c in (r + 1, n - 1)]
    got_i, got_j = index_to_pair(np.array([pair_to_index(r, c, n) for r, c in want]), n)
    assert list(zip(got_i.tolist(), got_j.tolist())) == want
    assert_inverts(MAX_PAIR_NODES, MAX_PAIR_NODES - 2, MAX_PAIR_NODES - 1)
    assert_inverts(MAX_PAIR_NODES, 0, 1)


def test_skip_sample_edges_of_probability():
    rng = stream(0, 99)
    assert skip_sample(rng, 100, 0.0).size == 0
    assert np.array_equal(skip_sample(rng, 5, 1.0), np.arange(5))
    assert skip_sample(rng, 0, 0.5).size == 0
    with pytest.raises(ValueError):
        skip_sample(rng, 10, 1.5)
    with pytest.raises(ValueError):
        skip_sample(rng, -1, 0.5)


def test_skip_sample_indices_valid_and_sorted():
    hits = skip_sample(stream(1, 5), 10_000, 0.01)
    assert np.all(hits >= 0) and np.all(hits < 10_000)
    assert np.all(np.diff(hits) > 0)


def test_skip_sample_mean_matches_binomial():
    # 4-sigma band around the binomial mean, one long pass.
    n, p = 200_000, 0.005
    hits = skip_sample(stream(42, 6), n, p)
    mean = n * p
    sd = math.sqrt(n * p * (1 - p))
    assert abs(hits.size - mean) <= 4 * sd


def test_skip_sample_tiny_p_terminates():
    # Subnormal p clamps numpy's geometric at INT64_MAX; the pass must
    # still terminate (and, at these odds, come back empty).
    for p in (5e-324, 1e-300, 1e-30):
        assert skip_sample(stream(0, 3), 1_000, p).size == 0


def test_skip_sample_slotwise_frequency():
    # Each individual slot is hit with probability p: check a fixed slot
    # over many seeded passes, 4-sigma band.
    n, p, runs = 40, 0.3, 2000
    count = 0
    for s in range(runs):
        if 17 in set(skip_sample(stream(s, 7), n, p).tolist()):
            count += 1
    sd = math.sqrt(runs * p * (1 - p))
    assert abs(count - runs * p) <= 4 * sd


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=4),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    st.integers(min_value=0, max_value=2**63 - 1),
    st.integers(min_value=0, max_value=12),
)
def test_sparse_pairs_is_the_cross_cluster_slot_pass(n, lam, p, seed, stream_id):
    # A cross-cluster pass written out: one skip-sample pass over lam * lam
    # slots per meaning pair, then each hit split into its pair and slot.
    rng = stream(seed, stream_id)
    pair, slot = np.divmod(skip_sample(rng, pair_count(n) * lam * lam, p), lam * lam)
    m1, m2 = index_to_pair(pair, n)
    got = sparse_pairs(seed, stream_id, n, p, lam * lam)
    for a, b in zip(got, (m1, m2, slot)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
