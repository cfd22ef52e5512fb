"""Pair picking draws from the caller's stream exactly as the reference does.

``pick_pair_at_distance`` is pinned to ``tests/oracles.py``'s reference:
every ordered pair at distance d by networkx, sorted by (u, v), indexed
by the same ``rng.integers(total, size=count)`` draw. The disconnected
picker is pinned to a copy of its own rule below, with networkx for the
components, so neither shares traversal code with the package. Each
comparison shares one Generator across many consecutive picks, so any
difference in how many values a pick draws shifts every later pick and
shows up here, and so does the position each generator is left at.
"""

from __future__ import annotations

import functools
import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meaninglab.graph as graph
from meaninglab.experiments import heatmap
from meaninglab.graph import Graph, bfs_distances
from meaninglab.meaning import (
    MeaningGraph,
    check_nontrivial,
    gen_er,
    pick_disconnected_pair,
    pick_pair_at_distance,
)
from meaninglab.reasoning import estimate_gamma
from meaninglab.rng import STREAM_PAIR_AT_DISTANCE, stream
from meaninglab.sampler import SampleParams

from oracles import pairs_at_distance, reference_pick_pair_at_distance, to_networkx


nx_graph = functools.lru_cache(maxsize=None)(to_networkx)


@functools.lru_cache(maxsize=None)
def nx_levels(g: Graph, u: int, d: int) -> dict[int, int]:
    return nx.single_source_shortest_path_length(nx_graph(g), u, cutoff=d)


def picks_in_calls(gm, d, rng, count, total, pick):
    """The answers of the calls that make ``total`` picks from ``rng``, ``count`` a call.

    A None ``count`` makes scalar calls, and 0 puts a count-0 call, which
    draws nothing, before each scalar one. ``pick`` is
    ``pick_pair_at_distance`` or the reference.
    """
    answers = []
    while total > 0:
        if count:
            k = min(count, total)
            answers.append(pick(gm, d, rng, count=k))
        else:
            if count == 0:
                answers.append(pick(gm, d, rng, count=0))
            answers.append(pick(gm, d, rng))
            k = 1
        total -= k
    return answers


def package_calls(gm, d, rng, count, total):
    return picks_in_calls(gm, d, rng, count, total, pick_pair_at_distance)


def reference_calls(gm, d, rng, count, total):
    return picks_in_calls(gm, d, rng, count, total, reference_pick_pair_at_distance)


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
    assert all(nx_levels(sparse_graph.graph, u, d).get(v) == d for u, v in got)
    assert_same_stream_position(new, ref)


def tiny(n: int, d: int) -> MeaningGraph:
    """A path through the first min(n, d + 1) of n nodes: its ends are the only pair d apart, if any."""
    return MeaningGraph(Graph(n, [(i, i + 1) for i in range(min(n, d + 1) - 1)]))


@pytest.mark.parametrize("count", [0, 1, 3, 64, 65, 130])
@pytest.mark.parametrize("d", [1, 4])
def test_exhaustive_fallback_matches_scalar_loop(d, count):
    # The rejection picker settled most picks on these graphs with its
    # exhaustive fallback: one draw indexing the sorted list of pairs at
    # distance d. That rule is now every pick's rule. On 2 or 3 nodes no
    # pair is at distance 4, so every call there returns None; elsewhere
    # the path's two ends are the only pairs.
    for n in (2, 3, 6, 7, 13):
        gm = tiny(n, d)
        new, ref = stream(5, count, d, n), stream(5, count, d, n)
        got = package_calls(gm, d, new, count, 200)
        assert got == reference_calls(gm, d, ref, count, 200)
        assert_same_stream_position(new, ref)
        ends = {(0, d), (d, 0)} if n > d else set()
        assert {pair for picks in got if picks for pair in (picks if count else [picks])} <= ends


def test_absent_distance_matches_scalar_loop():
    # No pair is at distance 2, so a call returns None and draws nothing.
    gm = MeaningGraph(Graph(70, [(i, i + 1) for i in range(0, 68, 2)]))
    new, ref = stream(2, 2), stream(2, 2)
    for _ in range(3):
        assert pick_pair_at_distance(gm, 2, new) is None
        assert pick_pair_at_distance(gm, 2, new, count=5) is None
        assert reference_pick_pair_at_distance(gm, 2, ref) is None
    assert_same_stream_position(new, stream(2, 2))
    assert_same_stream_position(stream(2, 2), ref)


@pytest.mark.parametrize("count", [0, 1, 5, 70, 130, None])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_count_picks_match_scalar_loop(sparse_graph, d, count):
    # 200 picks in consecutive calls of ``count`` on one generator.
    key = 10**6 if count is None else count
    new, ref = stream(31, d, key), stream(31, d, key)
    got = package_calls(sparse_graph, d, new, count, 200)
    assert got == reference_calls(sparse_graph, d, ref, count, 200)
    assert_same_stream_position(new, ref)


@pytest.mark.parametrize("count", [0, 5, None])
def test_count_picks_at_and_beyond_the_diameter(count):
    # A 30-node path plus two isolated nodes: the only pairs at distance 29
    # are its two ends, and no pair is at distance 30, so every call there
    # returns None.
    gm = MeaningGraph(Graph(32, [(i, i + 1) for i in range(29)]))
    for d in (29, 30):
        new, ref = stream(4, d), stream(4, d)
        got = package_calls(gm, d, new, count, 50)
        want = reference_calls(gm, d, ref, count, 50)
        assert got == want
        assert_same_stream_position(new, ref)
    assert None in want and all(w in ([], None) for w in want)


def test_counts_past_the_first_empty_distance_run_no_sweep(monkeypatch):
    # A 5-node path has no pair at distance 5, so no distance past it has
    # one either: only the first ask sweeps, and every later d shares its
    # sizes, so ``pairs`` still answers there.
    rings = MeaningGraph(Graph(5, [(i, i + 1) for i in range(4)]))._rings
    sweeps = []
    bound = graph._RingTables.ball_bound
    monkeypatch.setattr(graph._RingTables, "ball_bound", lambda self, d: sweeps.append(d) or bound(self, d))
    assert [rings.count(k) for k in range(5, 201)] == [0] * 196
    assert sweeps == [5]
    u, v = rings.pairs(200, np.arange(0))
    assert u.tolist() == v.tolist() == []
    assert rings.count(4) == 2 and sweeps == [5]  # the sweep to 5 sized every level


def test_count_zero_and_one(sparse_graph):
    new, ref = stream(6), stream(6)
    assert pick_pair_at_distance(sparse_graph, 3, new, count=0) == []
    assert_same_stream_position(new, ref)
    assert pick_pair_at_distance(sparse_graph, 3, new, count=1) == [pick_pair_at_distance(sparse_graph, 3, ref)]
    assert_same_stream_position(new, ref)
    with pytest.raises(ValueError):
        pick_pair_at_distance(sparse_graph, 3, new, count=-1)


def test_count_is_keyword_only(sparse_graph):
    rng = stream(6)
    with pytest.raises(TypeError):
        pick_pair_at_distance(sparse_graph, 3, rng, 5)
    assert_same_stream_position(rng, stream(6))


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


# A pick is one bounded draw, and a call with ``count`` makes its picks as
# one array draw. numpy gives an array draw of k the values and stream
# position of k scalar draws, so a heat-map cell's k picks are those of k
# single picks from its stream. This pins that equality to numpy, by name.
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


# -- ring tables ------------------------------------------------------------
#
# Sizes and rings are read from tables of rings, the nodes at exact distance
# d from each anchor, which a meaning graph keeps within _RING_BYTES in all.
# The budgets below let a table fit ("all") or not ("none"), so both the
# row reads and the per-call anchor passes run. A budget is tried on a
# new MeaningGraph: the module's sparse_graph keeps the tables that earlier
# tests built.

BUDGETS = ("all", "none")

# The channel flags of the ``check`` runs below; only the ball screen reads the graph.
PARAMS = SampleParams(p_plus=0.9, p_minus=1e-4, eps_plus=1e-4, eps_minus=1e-3, lam=2)


def ring_bytes(budget: str) -> int:
    return {"all": graph._RING_BYTES, "none": 0}[budget]


@st.composite
def graphs(draw, max_n: int = 150):
    """Paths, stars and random graphs, with isolated nodes, n < 64, n a multiple of 64 and not."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=max_n), st.sampled_from([64, 128])))
    kind = draw(st.sampled_from(["path", "star", "random"]))
    span = draw(st.integers(min_value=1, max_value=n))
    if kind == "path":
        return Graph(n, [(i, i + 1) for i in range(span - 1)])
    if kind == "star":
        return Graph(n, [(0, i) for i in range(1, span)])
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    return Graph(n, [(u, v) for u, v in edges if u != v])


@settings(max_examples=150, deadline=None)
@given(
    graphs(),
    st.lists(st.tuples(st.integers(min_value=1, max_value=14), st.sampled_from([None, 0, 1, 200])), min_size=1, max_size=4),
    st.sampled_from(BUDGETS),
    st.integers(min_value=0, max_value=2**32),
)
def test_picks_match_reference(g, calls, budget, seed):
    # Consecutive calls at distances from 1 to past the diameter, on one
    # generator: the same pairs, and the generator left in the same place.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_RING_BYTES", ring_bytes(budget))
        gm = MeaningGraph(g)
        new, ref = stream(seed), stream(seed)
        for d, count in calls:
            got = pick_pair_at_distance(gm, d, new, count=count)
            assert got == reference_pick_pair_at_distance(gm, d, ref, count=count)
            assert_same_stream_position(new, ref)
        assert budget == "all" or gm._rings.tables == {}


def rings_read(gm: MeaningGraph, d: int, anchors: np.ndarray) -> list[list[int]]:
    """Each anchor's ring, member by member, as the picker reads it."""
    gm._rings.count(d)
    starts, table = gm._rings.starts[d], gm._rings.tables.get(d)
    sizes = np.diff(starts)
    u = np.repeat(anchors, sizes[anchors])
    if not len(u):
        return [[] for _ in anchors]
    k = np.arange(len(u)) - np.repeat(np.cumsum(sizes[anchors]) - sizes[anchors], sizes[anchors])
    if table is not None:
        rows = table[u]
    else:
        distinct, lane = np.unique(u, return_inverse=True)
        rows = graph._anchor_rings(gm.graph, d, distinct)[lane]
    members = graph._kth_member(rows, k).tolist()
    out, at = [], 0
    for size in sizes[anchors].tolist():
        out.append(members[at : at + size])
        at += size
    return out


@st.composite
def graphs_with_anchors(draw):
    # Distances from 1 to beyond the diameter, where a pass ends early.
    g = draw(graphs())
    d = draw(st.integers(min_value=1, max_value=12))
    anchors = draw(st.lists(st.integers(min_value=0, max_value=g.n - 1), min_size=1, max_size=160, unique=True))
    return g, d, np.array(anchors, dtype=np.int64), draw(st.sampled_from(BUDGETS))


@settings(max_examples=120, deadline=None)
@given(graphs_with_anchors())
def test_ring_lookup_matches_bfs_distances(case):
    # Every member of every anchor's ring, read from a table row or from
    # the anchors' own passes, is the node list at distance d in order.
    g, d, anchors, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_RING_BYTES", ring_bytes(budget))
        gm = MeaningGraph(g)
        gm._rings.count(d)
        table = gm._rings.tables.get(d)
        assert table is None or budget == "all"
        nodes = np.arange(g.n)
        want = [np.flatnonzero(bfs_distances(g, np.full(g.n, u), nodes, cap=d) == d).tolist() for u in anchors]
        assert rings_read(gm, d, anchors) == want


@settings(max_examples=120, deadline=None)
@given(graphs(), st.integers(min_value=1, max_value=12), st.sampled_from(BUDGETS))
def test_pairs_list_every_rank_in_order(g, d, budget):
    # Every rank below the count, read from the tables or past the budget
    # from the anchors' own passes, is the ordered pair at distance d of
    # that rank. At d = n, past every diameter, the count is 0.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_RING_BYTES", ring_bytes(budget))
        rings = MeaningGraph(g)._rings
        for k in (d, g.n):
            u, v = rings.pairs(k, np.arange(rings.count(k)))
            assert list(zip(u.tolist(), v.tolist())) == pairs_at_distance(g, k)
        assert rings.count(g.n) == 0
        assert budget == "all" or rings.tables == {}


def sweep(g: Graph, d: int) -> list[tuple[np.ndarray, dict[int, np.ndarray]]]:
    """Each pass of a whole-graph sweep to d, row u for node u: its final ``seen`` words, and its ring words at each level 1..d it reaches."""
    out = []
    for *_, rank, levels in graph._passes(g, np.arange(g.n), d):
        rings = {}
        for level, seen, ring in levels:
            if level:
                rings[level] = ring.take(rank, axis=0)
        out.append((seen.take(rank, axis=0), rings))
    return out


def test_ring_beyond_the_diameter_is_empty(monkeypatch):
    # A 5-node path: every pass runs out of new nodes by level 4.
    g = Graph(5, [(i, i + 1) for i in range(4)])
    [(_, rings)] = sweep(g, 4)
    assert rings[4].tolist() == [[1 << 4], [0], [0], [0], [1 << 0]]
    [(_, rings)] = sweep(g, 5)
    assert sorted(rings) == [1, 2, 3, 4]
    gm = MeaningGraph(g)
    gm._rings.count(9)
    starts, table = gm._rings.starts[9], gm._rings.tables.get(9)
    # Zero sizes and no table at 9, only at the levels a pass reaches: a
    # pick there is None, with no draw and no second sweep.
    assert starts.tolist() == [0] * 6 and table is None and set(gm._rings.tables) == {1, 2, 3, 4}
    passes = count_passes(monkeypatch, g)
    rng = stream(1)
    assert pick_pair_at_distance(gm, 9, rng, count=3) is None
    assert passes == []
    assert_same_stream_position(rng, stream(1))


def count_passes(mp: pytest.MonkeyPatch, g: Graph) -> list[int]:
    """Record the source count of every BFS pass run on ``g`` itself, not on an equal copy."""
    passes, ours = [], []
    real_kernel, real_levels = graph._Diagonals, graph._bit_levels

    def kernel(h, *args):
        bfs = real_kernel(h, *args)
        if h is g:
            ours.append(bfs)
        return bfs

    def counted(bfs, src, cap):
        if any(bfs is k for k in ours):
            passes.append(len(src))
        return real_levels(bfs, src, cap)

    mp.setattr(graph, "_Diagonals", kernel)
    mp.setattr(graph, "_bit_levels", counted)
    return passes


def word_passes(k: int, width: int = 1) -> list[int]:
    """The source counts of the passes over k distinct sources, ``64 * width`` at a time."""
    span = 64 * width
    return [span] * (k // span) + ([k % span] if k % span else [])


def one_sweep(passes: list[int], n: int) -> bool:
    """Whether ``passes`` cover n sources once, in spans of the first pass's whole words."""
    return bool(passes) and passes == word_passes(n, -(-passes[0] // 64))


def one_word_passes(mp: pytest.MonkeyPatch) -> None:
    """Let no pass carry more than one word of sources: no budget fits a second."""
    mp.setattr(graph, "_PASS_BYTES", 0)


@pytest.mark.parametrize("n", [2, 63, 64, 65, 300])
def test_table_is_one_pass_per_word_of_nodes_built_once(monkeypatch, sparse_graph, n):
    g = sparse_graph.graph if n == 300 else Graph(n, [(i, i + 1) for i in range(n - 1)])
    oracle = Graph(n, g.edge_array())
    one_word_passes(monkeypatch)
    passes = count_passes(monkeypatch, g)
    gm = MeaningGraph(g)
    gm._rings.count(2)
    starts, table = gm._rings.starts[2], gm._rings.tables.get(2)
    assert passes == word_passes(n)
    for count in (1, 5, 64, 700, 3000):
        picks = pick_pair_at_distance(gm, 2, stream(n, count), count=count)
        if picks is None:
            assert not starts.any()
            continue
        us, vs = np.array(picks).T
        assert (bfs_distances(oracle, us, vs, cap=2) == 2).all()
    gm._rings.count(2)
    assert gm._rings.tables.get(2) is table
    assert len(passes) == -(-n // 64)


@pytest.mark.parametrize("n", [2, 63, 64, 65, 300])
def test_small_table_is_one_wide_pass_built_once(monkeypatch, sparse_graph, n):
    # Under the default budget a pass over these graphs carries every word
    # of anchors, so the whole table comes from one pass, and equals the
    # one-word passes' table.
    g = sparse_graph.graph if n == 300 else Graph(n, [(i, i + 1) for i in range(n - 1)])
    passes = count_passes(monkeypatch, g)
    gm = MeaningGraph(g)
    gm._rings.count(2)
    assert passes == [n]
    with pytest.MonkeyPatch.context() as mp:
        one_word_passes(mp)
        narrow = MeaningGraph(Graph(n, g.edge_array()))._rings
        narrow.count(2)
    assert sorted(narrow.tables) == sorted(gm._rings.tables)
    for d, table in narrow.tables.items():
        assert np.array_equal(gm._rings.tables[d], table)
        assert np.array_equal(gm._rings.starts[d], narrow.starts[d])
    gm._rings.count(2)
    assert passes == [n]


@pytest.mark.parametrize("d", [1, 3])
def test_over_budget_batches_keep_no_rings(monkeypatch, sparse_graph, d):
    # Past the budget one sweep records the ring sizes at d and keeps no
    # table; each call then runs one pass per 64 distinct anchors of its
    # picks and keeps nothing of them.
    g = sparse_graph.graph
    monkeypatch.setattr(graph, "_RING_BYTES", ring_bytes("none"))
    one_word_passes(monkeypatch)
    passes = count_passes(monkeypatch, g)
    gm = MeaningGraph(g)
    gm._rings.count(d)
    table = gm._rings.tables.get(d)
    assert table is None and gm._rings.tables == {}
    assert passes == word_passes(g.n)
    anchors = []  # the passes each call should run
    for count in (1, 64, 200, 1000):
        new, ref = stream(7, count), stream(7, count)
        picks = pick_pair_at_distance(gm, d, new, count=count)
        assert picks == reference_pick_pair_at_distance(gm, d, ref, count=count)
        anchors += word_passes(len({u for u, _ in picks}))
    assert passes == word_passes(g.n) + anchors
    assert gm._rings.tables == {} and sorted(gm._rings.starts) == [d]


@pytest.mark.parametrize("n", [2, 1000, 2880, 2881, 5000, 200_000])
def test_no_table_exceeds_the_bound(n):
    # 2880 nodes need 45 rows of 2880 words, 1,036,800 bytes; 2881 need 46.
    # The 200,000-node sweep would take seconds, so only its budget is read.
    rings = MeaningGraph(Graph(n, [(0, 1)]))._rings
    assert rings._fits(1) == (n <= 2880)
    if n <= 5000:
        rings.count(1)
        starts, table = rings.starts[1], rings.tables.get(1)
        assert (table is not None) == (n <= 2880)
        assert table is None or table.nbytes <= graph._RING_BYTES
        assert starts.tolist() == [0, 1] + [2] * (n - 1)


def path(n: int) -> MeaningGraph:
    return MeaningGraph(Graph(n, [(i, i + 1) for i in range(n - 1)]))


def held_bytes(gm: MeaningGraph) -> int:
    return sum(t.nbytes for t in gm._rings.tables.values())


def ring_matrix(table: np.ndarray, n: int) -> np.ndarray:
    """``(n, n)`` booleans: entry (u, v) is bit ``v & 63`` of ``table[u, v >> 6]``."""
    v = np.arange(n)
    return (table[:, v >> 6] & graph._BITS[v & 63]) != 0


def all_distances(g: Graph, cap: int) -> np.ndarray:
    us, vs = np.divmod(np.arange(g.n * g.n), g.n)
    return bfs_distances(g, us, vs, cap=cap).reshape(g.n, g.n)


@st.composite
def graphs_and_radii(draw, least: int):
    # Isolated nodes, n a multiple of 64 and not, radii past the diameter.
    n = draw(st.one_of(st.integers(min_value=1, max_value=150), st.sampled_from([64, 128])))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    return Graph(n, [(u, v) for u, v in edges if u != v]), draw(st.integers(min_value=least, max_value=12))


@settings(max_examples=60, deadline=None)
@given(graphs_and_radii(least=0), st.sampled_from([1, 2, None]))
def test_sweep_ball_sizes_and_reach_match_single_source_bfs(case, words):
    # Pass budgets that fit one word of sources, exactly two (the buffers'
    # three rows per node, and the arcs), and the default.
    g, d = case
    with pytest.MonkeyPatch.context() as mp:
        if words is not None:
            mp.setattr(graph, "_PASS_BYTES", words * 8 * (len(g.indices) + 3 * g.n))
        passes = sweep(g, d)
    # Passes carry whole words of sources in order, all but the last the
    # same number, and as many as the budget fits, as evenly as they can.
    widths = [seen.shape[1] for seen, _ in passes]
    assert len(set(widths[:-1])) <= 1
    assert words is None or widths == [min(words, -(-g.n // 64))] * (len(widths) - 1) + widths[-1:]
    starts = np.cumsum([0] + widths)[:-1] * 64
    # Bit j of word i of a pass's final words marks source lo + 64i + j's
    # d-ball, and a node's popcounts summed over the passes are its own
    # ball size.
    balls = [nx_levels(g, s, d) for s in range(g.n)]
    sizes = np.zeros(g.n, dtype=np.int64)
    for lo, (seen, _) in zip(starts, passes):
        sources = range(lo, min(lo + 64 * seen.shape[1], g.n))
        want = [[v in balls[s] for v in range(g.n)] for s in sources]
        assert (graph._source_bits(seen)[:, : len(sources)].T == np.array(want)).all()
        sizes += np.bitwise_count(seen).sum(axis=1, dtype=np.int64)
    assert sizes.tolist() == [len(ball) for ball in balls]
    # A pass reaches the largest eccentricity among its sources, up to d,
    # and keeps a ring at every level it reaches.
    ecc = [max(ball.values()) for ball in balls]
    reach = [max(ecc[lo : lo + 64 * w]) for lo, w in zip(starts, widths)]
    assert [sorted(rings) for _, rings in passes] == [list(range(1, r + 1)) for r in reach]


@settings(max_examples=60, deadline=None)
@given(graphs_and_radii(least=1))
def test_every_kept_table_is_the_ring_at_its_distance(case):
    g, d = case
    gm = MeaningGraph(g)
    assert gm._rings.ball_bound(d) == max(len(nx_levels(g, s, d)) for s in range(g.n))
    dist = all_distances(g, d + 3)
    # These tables all fit, so each distance up to d has its table unless
    # no pair is at that distance; past d, none is kept.
    for k in range(1, d + 4):
        if k in gm._rings.tables:
            assert (ring_matrix(gm._rings.tables[k], g.n) == (dist == k)).all()
        else:
            assert k > d or not (dist == k).any()
    assert all(t.any() for t in gm._rings.tables.values())
    # Running ring sizes sit beside every table and at d itself: 0, then
    # the running sum of each node's ring size, which is also the popcount
    # of the node's row of the table.
    assert sorted(gm._rings.starts) == sorted({*gm._rings.tables, d})
    for k, starts in gm._rings.starts.items():
        assert starts.tolist() == [0] + np.cumsum((dist == k).sum(axis=1)).tolist()
        if k in gm._rings.tables:
            rows = np.bitwise_count(gm._rings.tables[k]).sum(axis=1)
            assert starts.tolist() == [0] + np.cumsum(rows).tolist()


@pytest.mark.parametrize("n", [2, 65, 300, 1000, 1500, 2880, 2881])
@pytest.mark.parametrize("d_max", [1, 5, 30])
def test_tables_stay_within_the_bound_in_all(n, d_max):
    # A path reaches a new level at every distance up to n - 1, and no
    # table is kept past that.
    gm = path(n)
    check_nontrivial(gm, PARAMS, d_max)
    assert held_bytes(gm) <= graph._RING_BYTES
    for d in range(1, d_max + 3):
        gm._rings.count(d)
        table = gm._rings.tables.get(d)
        assert held_bytes(gm) <= graph._RING_BYTES
        assert (table is None) == (d not in gm._rings.tables)
    size = 8 * n * -(-n // 64)
    kept = min(d_max + 2, n - 1, graph._RING_BYTES // size)
    assert len(gm._rings.tables) == kept


@pytest.mark.parametrize(
    "gm, d, levels",
    [(gen_er(2, 1.0, 0), 60_000, 1), (path(5), 13_000, 4), (gen_er(300, 0.01, 3), 10_000, None)],
    ids=["er-2", "path-5", "er-300"],
)
def test_check_far_past_the_diameter_allocates_no_empty_tables(gm, d, levels):
    # The 60,000 tables up to d of a 2-node graph would fit in 16 bytes
    # each, and a 5-path's 13,000 in 40 bytes each; only the levels a pass
    # reaches get one. The 300-node graph's tables up to d do not fit, and
    # d's own ring is empty.
    report = check_nontrivial(gm, PARAMS, d)
    ball = max(len(nx_levels(gm.graph, s, d)) for s in range(gm.n))
    assert report.ball_small.message == f"ball_bound(d={d})={ball} vs n/4={gm.n / 4:g}"
    assert report.ball_small.passed == (ball <= gm.n / 4)
    assert sorted(gm._rings.tables) == list(range(1, (levels or 0) + 1))
    assert not gm._rings.starts[d].any()
    assert pick_pair_at_distance(gm, d, 0) is None


def test_check_far_past_the_diameter_reports_as_before():
    # Lines of the reports that ``check --er 2 1 --d 60000`` and ``check
    # --er 300 0.01 --graph-seed 3 --d 10000``, each with --p-minus 1e-4
    # --eps-minus 1e-3, printed before the tables were kept.
    want = {
        2: "ball-small               FAIL  ball_bound(d=60000)=2 vs n/4=0.5",
        300: "ball-small               FAIL  ball_bound(d=10000)=276 vs n/4=75",
    }
    for n, p, seed, d in [(2, 1.0, 0, 60_000), (300, 0.01, 3, 10_000)]:
        assert want[n] in check_nontrivial(gen_er(n, p, seed), PARAMS, d).render().splitlines()


def test_check_then_heatmap_rows_run_one_sweep(monkeypatch):
    # heatmap-probe's graph: n = 1000, d_max = 5, so all five tables fit.
    gm = gen_er(1000, 0.0035, 0)
    params = SampleParams(p_plus=0.12, p_minus=1e-6, eps_plus=0.7, eps_minus=0.0, lam=3)
    passes = count_passes(monkeypatch, gm.graph)
    check_nontrivial(gm, params, 5)
    heatmap(gm, [1e-6, 1e-2], 5, 50, params, seed=0)
    assert one_sweep(passes, 1000)
    assert sorted(gm._rings.tables) == [1, 2, 3, 4, 5]


def test_screen_passes_are_as_wide_as_the_budget_allows(monkeypatch):
    # heatmap-probe's screen to d = 5 keeps all five tables, and its passes
    # hold only their own buffers: the fewest that fit 16 words of sources
    # within the pass budget, 4 passes of 4 words.
    gm = gen_er(1000, 0.0035, 0)
    g = gm.graph
    passes = count_passes(monkeypatch, g)
    check_nontrivial(gm, PARAMS, 5)
    per_word = 8 * (len(g.indices) + 3 * g.n)
    assert len(passes) == -(-16 // (graph._PASS_BYTES // per_word)) == 4
    assert passes == word_passes(1000, 4)
    assert sorted(gm._rings.tables) == [1, 2, 3, 4, 5]


def test_check_then_gamma_picks_run_one_sweep(monkeypatch):
    # gamma-smallworld's graph: n = 2000, d = 8; only the table at 8 fits.
    gm = gen_er(2000, 0.00075, 0)
    params = SampleParams(p_plus=0.9, p_minus=0.0005, eps_plus=1e-4, eps_minus=0.0, lam=2)
    passes = count_passes(monkeypatch, gm.graph)
    check_nontrivial(gm, params, 8)
    estimate_gamma(gm, 8, params, 16, trials=12, seed=0)
    assert one_sweep(passes, 2000)
    assert sorted(gm._rings.tables) == [8]


def test_pickled_meaning_graph_carries_its_tables(monkeypatch, sparse_graph):
    gm = MeaningGraph(sparse_graph.graph)
    check_nontrivial(gm, PARAMS, 4)
    copy = pickle.loads(pickle.dumps(gm))
    assert sorted(copy._rings.tables) == sorted(copy._rings.starts) == [1, 2, 3, 4]
    for d, table in gm._rings.tables.items():
        assert np.array_equal(copy._rings.tables[d], table)
        assert np.array_equal(copy._rings.starts[d], gm._rings.starts[d])
    passes = count_passes(monkeypatch, copy.graph)
    assert pick_pair_at_distance(copy, 3, 5, count=20) == pick_pair_at_distance(gm, 3, 5, count=20)
    assert passes == []


def requests_for(seed: int, *key: int):
    """Requests at grouped and interleaved distances, scalar and count picks, one generator used thrice."""
    shared = stream(seed, *key, 99)
    return [
        (2, stream(seed, *key, 0), None),
        (2, stream(seed, *key, 1), 40),
        (2, shared, 0),
        (2, shared, None),
        (5, stream(seed, *key, 2), 30),
        (1, stream(seed, *key, 3), 25),
        (1, 17, None),
        (2, shared, 3),
        (40, stream(seed, *key, 4), 2),
        (4, stream(seed, *key, 5), None),
    ]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("key", [0, 5, 130, None])
def test_batch_of_requests_matches_one_call_each(monkeypatch, sparse_graph, budget, key):
    # A run of requests, one pick_pair_at_distance call each, made in
    # order on one meaning graph, matches the reference, and so does where
    # each generator is left. Four sets of streams: stream(12, i) and
    # stream(12, key, i).
    monkeypatch.setattr(graph, "_RING_BYTES", ring_bytes(budget))
    gm = MeaningGraph(sparse_graph.graph)
    keys = () if key is None else (key,)
    new, ref = requests_for(12, *keys), requests_for(12, *keys)
    got = [pick_pair_at_distance(gm, d, seed, count=count) for d, seed, count in new]
    want = []
    for d, seed, count in ref:
        rng = seed if isinstance(seed, np.random.Generator) else stream(seed, STREAM_PAIR_AT_DISTANCE)
        want.append(reference_pick_pair_at_distance(gm, d, rng, count=count))
    assert got == want
    assert got[8] is None  # no pair is 40 apart
    for (_, a, _), (_, b, _) in zip(new, ref):
        if isinstance(a, np.random.Generator):
            assert_same_stream_position(a, b)


@pytest.mark.parametrize("d", [1, 3, 5])
def test_count_picks_over_budget_match_scalar_loop(monkeypatch, sparse_graph, d):
    monkeypatch.setattr(graph, "_RING_BYTES", ring_bytes("none"))
    gm = MeaningGraph(sparse_graph.graph)
    new, ref = stream(32, d), stream(32, d)
    got = pick_pair_at_distance(gm, d, new, count=200)
    assert got == reference_pick_pair_at_distance(sparse_graph, d, ref, count=200)
    assert_same_stream_position(new, ref)
