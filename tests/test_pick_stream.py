"""Batched pair picking consumes the caller's stream exactly as before.

The references below are copies of the one-attempt-at-a-time pickers
that the batched versions replace, with networkx for every distance and
component, so they share no traversal code with the package. Each
comparison shares one Generator across many consecutive picks, so any
difference in how many values a pick draws shifts every later pick and
shows up here. A count pick (one call for a whole heat-map cell) is
compared with as many scalar reference picks from one Generator.
"""

from __future__ import annotations

import functools

import networkx as nx
import numpy as np
import pytest

from meaninglab.graph import Graph
from meaninglab.meaning import (
    MeaningGraph,
    gen_er,
    pick_disconnected_pair,
    pick_pair_at_distance,
)
from meaninglab.rng import stream


@functools.lru_cache(maxsize=None)
def nx_graph(g: Graph) -> nx.Graph:
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    return ref


# Distances and the exhaustive pair list depend only on the graph, so the
# reference caches them; the draws it makes are unchanged.
@functools.lru_cache(maxsize=None)
def nx_levels(g: Graph, u: int, d: int) -> dict[int, int]:
    return nx.single_source_shortest_path_length(nx_graph(g), u, cutoff=d)


@functools.lru_cache(maxsize=None)
def reference_pairs_at_distance(g: Graph, d: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in range(g.n) if nx_levels(g, u, d).get(v) == d]


def reference_pick_pair_at_distance(gm, d, rng, max_attempts=None):
    n = gm.n
    if n < 2:
        return None
    attempts = 10 * n if max_attempts is None else max_attempts
    for _ in range(attempts):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        if nx_levels(gm.graph, u, d).get(v) == d:
            return (u, v)
    pairs = reference_pairs_at_distance(gm.graph, d)
    if not pairs:
        return None
    return pairs[int(rng.integers(len(pairs)))]


def reference_cell(gm, d, rng, count, max_attempts=None):
    """``count`` scalar picks, stopping at the first None as a heat-map cell does."""
    pairs = []
    for _ in range(count):
        pair = reference_pick_pair_at_distance(gm, d, rng, max_attempts)
        if pair is None:
            return None
        pairs.append(pair)
    return pairs


def reference_pick_disconnected_pair(gm, rng):
    n = gm.n
    comps = sorted(sorted(c) for c in nx.connected_components(nx_graph(gm.graph)))
    if len(comps) < 2:
        return None
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for u in comp:
            comp_of[u] = ci
    sizes = [len(c) for c in comps]
    weights = np.array([n - sizes[comp_of[u]] for u in range(n)], dtype=np.int64)
    r = int(rng.integers(int(weights.sum())))
    u = int(np.searchsorted(np.cumsum(weights), r, side="right"))
    k = int(rng.integers(n - sizes[comp_of[u]]))
    for v in range(n):
        if comp_of[v] != comp_of[u]:
            if k == 0:
                return (u, v)
            k -= 1
    raise AssertionError("partner index exhausted")


def state_of(rng: np.random.Generator):
    """The bit generator's full state (counter, key, buffered words), comparable with ==."""

    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x

    return plain(rng.bit_generator.state)


def assert_same_stream_position(a: np.random.Generator, b: np.random.Generator):
    assert state_of(a) == state_of(b)
    assert a.integers(2**40) == b.integers(2**40)


@pytest.fixture(scope="module")
def sparse_graph():
    # Mean degree 3: a giant component with distances up to about 10,
    # small side components and isolated nodes.
    return gen_er(300, 0.01, 3)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_two_hundred_picks_match_scalar_loop(sparse_graph, d):
    new, ref = stream(21, d), stream(21, d)
    got = [pick_pair_at_distance(sparse_graph, d, new) for _ in range(200)]
    want = [reference_pick_pair_at_distance(sparse_graph, d, ref) for _ in range(200)]
    assert got == want
    assert_same_stream_position(new, ref)


@pytest.mark.parametrize("max_attempts", [0, 1, 3, 64, 65, 130])
@pytest.mark.parametrize("d", [1, 4])
def test_exhaustive_fallback_matches_scalar_loop(sparse_graph, d, max_attempts):
    new, ref = stream(5, max_attempts, d), stream(5, max_attempts, d)
    got = [pick_pair_at_distance(sparse_graph, d, new, max_attempts) for _ in range(40)]
    want = [reference_pick_pair_at_distance(sparse_graph, d, ref, max_attempts) for _ in range(40)]
    assert got == want
    assert_same_stream_position(new, ref)


def test_absent_distance_matches_scalar_loop():
    gm = MeaningGraph(Graph(70, [(i, i + 1) for i in range(0, 68, 2)]))
    new, ref = stream(2, 2), stream(2, 2)
    for _ in range(3):
        assert pick_pair_at_distance(gm, 2, new) is None
        assert reference_pick_pair_at_distance(gm, 2, ref) is None
    assert_same_stream_position(new, ref)


@pytest.mark.parametrize("max_attempts", [0, 1, 5, 70, 130, None])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_count_picks_match_scalar_loop(sparse_graph, d, max_attempts):
    key = 10**6 if max_attempts is None else max_attempts
    new, ref = stream(31, d, key), stream(31, d, key)
    got = pick_pair_at_distance(sparse_graph, d, new, max_attempts, count=200)
    assert got == reference_cell(sparse_graph, d, ref, 200, max_attempts)
    assert_same_stream_position(new, ref)


@pytest.mark.parametrize("max_attempts", [0, 5, None])
def test_count_picks_at_and_beyond_the_diameter(max_attempts):
    # A 30-node path plus two isolated nodes: the only pairs at distance 29
    # are its two ends, so most picks fall back to the exhaustive scan, and
    # no pair is at distance 30, so that cell ends with None.
    gm = MeaningGraph(Graph(32, [(i, i + 1) for i in range(29)]))
    for d in (29, 30):
        new, ref = stream(4, d), stream(4, d)
        got = pick_pair_at_distance(gm, d, new, max_attempts, count=50)
        want = reference_cell(gm, d, ref, 50, max_attempts)
        assert got == want
        assert_same_stream_position(new, ref)
    assert want is None


def test_count_zero_and_one(sparse_graph):
    new, ref = stream(6), stream(6)
    assert pick_pair_at_distance(sparse_graph, 3, new, count=0) == []
    assert_same_stream_position(new, ref)
    assert pick_pair_at_distance(sparse_graph, 3, new, count=1) == [pick_pair_at_distance(sparse_graph, 3, ref)]
    assert_same_stream_position(new, ref)
    with pytest.raises(ValueError):
        pick_pair_at_distance(sparse_graph, 3, new, count=-1)


def test_interleaved_picks_share_one_stream(sparse_graph):
    # Disconnected picks and picks at several distances from one stream,
    # as the gamma and heatmap loops make them.
    new, ref = stream(8), stream(8)
    for i in range(150):
        d = 1 + i % 5
        assert pick_pair_at_distance(sparse_graph, d, new) == reference_pick_pair_at_distance(
            sparse_graph, d, ref
        )
        assert pick_disconnected_pair(sparse_graph, new) == reference_pick_disconnected_pair(
            sparse_graph, ref
        )
    assert_same_stream_position(new, ref)


def test_disconnected_picks_match_reference():
    gm = gen_er(200, 0.006, 9)
    new, ref = stream(3, 1), stream(3, 1)
    for _ in range(300):
        assert pick_disconnected_pair(gm, new) == reference_pick_disconnected_pair(gm, ref)
    assert_same_stream_position(new, ref)


def test_components_computed_once_per_meaning_graph(monkeypatch):
    import meaninglab.meaning as meaning

    calls = []
    real = meaning.components
    monkeypatch.setattr(meaning, "components", lambda g: calls.append(1) or real(g))
    gm = gen_er(100, 0.01, 1)
    rng = stream(1)
    for _ in range(25):
        pick_disconnected_pair(gm, rng)
    assert len(calls) == 1


# The rewind in pick_pair_at_distance relies on one array draw of k bounded
# integers consuming the stream exactly as k scalar draws. A numpy release
# that changes this must fail here, by name, rather than shift outputs.
@pytest.mark.parametrize(
    "n",
    [2, 3, 7, 1000, 2**16 + 1, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**62],
)
@pytest.mark.parametrize("offset", [0, 1])
def test_array_draws_equal_scalar_draws(n, offset):
    a, b = stream(17, n % 1000), stream(17, n % 1000)
    # An odd number of prior 32-bit draws leaves half a word buffered.
    for _ in range(offset):
        a.integers(5)
        b.integers(5)
    for k in (1, 2, 9, 128):
        batch = a.integers(n, size=k)
        assert batch.tolist() == [int(b.integers(n)) for _ in range(k)]
        assert state_of(a) == state_of(b)
