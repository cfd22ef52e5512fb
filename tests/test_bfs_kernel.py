"""The bitset BFS kernel, the queries built on it and the separator's own search, against networkx as an independent oracle."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meaninglab.graph as graph
from meaninglab.graph import Graph, bfs_distance, bfs_distances

from oracles import swept_ball, to_networkx


def oracle_distances(g: Graph, src, dst, cap) -> list[int]:
    nxg = to_networkx(g)
    out = []
    for s, t in zip(src, dst):
        lengths = nx.single_source_shortest_path_length(nxg, int(s), cutoff=cap)
        out.append(lengths.get(int(t), -1))
    return out


@st.composite
def graphs_with_queries(draw):
    # Up to 150 nodes: several 64-source passes, n rarely a multiple of 64,
    # and sparse edge lists leave isolated nodes anywhere in the range.
    n = draw(st.integers(min_value=1, max_value=150))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    g = Graph(n, [(u, v) for u, v in edges if u != v])
    k = draw(st.integers(min_value=0, max_value=200))
    src = draw(st.lists(node, min_size=k, max_size=k))
    dst = draw(st.lists(node, min_size=k, max_size=k))
    cap = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=8)))
    return g, src, dst, cap


@settings(max_examples=80, deadline=None)
@given(graphs_with_queries())
def test_matches_networkx(case):
    g, src, dst, cap = case
    got = bfs_distances(g, src, dst, cap=cap)
    assert got.dtype == np.int64
    assert got.tolist() == oracle_distances(g, src, dst, cap)


@pytest.mark.parametrize("n", [5, 63, 64, 65, 130])
def test_isolated_nodes_mid_range_and_last(n):
    # Path over the even nodes only: every odd node is isolated, and so is
    # the last node whenever n is even. At n = 65 the last pass has one
    # source; the second batch, from node 0 alone, is one whatever n is.
    g = Graph(n, [(u, u + 2) for u in range(0, n - 2, 2)])
    src = list(range(n)) * 2
    dst = list(reversed(range(n))) * 2
    for cap in (None, 0, 1, 2, 3):
        assert bfs_distances(g, src, dst, cap=cap).tolist() == oracle_distances(g, src, dst, cap)
        assert bfs_distances(g, [0] * n, dst[:n], cap=cap).tolist() == oracle_distances(g, [0] * n, dst[:n], cap)


@st.composite
def graphs_with_shared_sources(draw):
    # Up to 200 distinct sources (so often more than one 64-source pass),
    # each repeated with different targets, in shuffled order.
    n = draw(st.integers(min_value=2, max_value=200))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    g = Graph(n, [(u, v) for u, v in edges if u != v])
    sources = draw(st.lists(node, min_size=1, max_size=n, unique=True))
    src = draw(st.permutations(sources * draw(st.integers(min_value=1, max_value=4))))
    dst = draw(st.lists(node, min_size=len(src), max_size=len(src)))
    cap = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=6)))
    return g, src, dst, cap


@settings(max_examples=60, deadline=None)
@given(graphs_with_shared_sources())
def test_pairs_with_one_source_share_its_lane(case):
    g, src, dst, cap = case
    passes = []
    real = graph._bit_levels
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_bit_levels", lambda g, s, cap: passes.append(s.tolist()) or real(g, s, cap))
        got = bfs_distances(g, src, dst, cap=cap)
    assert got.tolist() == oracle_distances(g, src, dst, cap)
    assert len(passes) == math.ceil(len(set(src)) / 64)
    assert sorted(s for p in passes for s in p) == sorted(set(src))


def test_isolated_last_node_reports_unreachable():
    g = Graph(4, [(0, 1), (1, 2)])
    assert bfs_distances(g, [3, 0, 3], [0, 3, 3]).tolist() == [-1, -1, 0]


def test_repeated_sources_keep_their_own_targets():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
    src = [2, 2, 2, 2, 2, 0, 2]
    dst = [0, 1, 2, 4, 5, 4, 3]
    assert bfs_distances(g, src, dst).tolist() == [2, 1, 0, 2, -1, 4, 1]


def test_src_equals_dst_is_zero_even_at_cap_zero():
    g = Graph(3, [(0, 1)])
    assert bfs_distances(g, [0, 1, 2], [0, 1, 2], cap=0).tolist() == [0, 0, 0]


def test_cap_zero_hides_every_other_node():
    g = Graph(3, [(0, 1), (1, 2)])
    assert bfs_distances(g, [0, 0], [1, 2], cap=0).tolist() == [-1, -1]


def test_cap_excludes_longer_paths():
    g = Graph(5, [(i, i + 1) for i in range(4)])
    assert bfs_distances(g, [0] * 5, range(5), cap=2).tolist() == [0, 1, 2, -1, -1]


def test_edgeless_graph():
    g = Graph(70, [])
    src = np.arange(70)
    assert bfs_distances(g, src, src).tolist() == [0] * 70
    assert bfs_distances(g, src, (src + 1) % 70).tolist() == [-1] * 70


def test_empty_graph_and_empty_query():
    g = Graph(0, [])
    assert bfs_distances(g, [], []).tolist() == []
    assert bfs_distances(Graph(3, [(0, 1)]), [], [], cap=2).tolist() == []


def test_rejects_bad_queries():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        bfs_distances(g, [0, 3], [1, 1])
    with pytest.raises(ValueError, match="out of range"):
        bfs_distances(g, [0], [-1])
    with pytest.raises(ValueError, match="targets"):
        bfs_distances(g, [0, 1], [1])
    with pytest.raises(ValueError, match="cap"):
        bfs_distances(g, [0], [1], cap=-1)
    with pytest.raises(ValueError, match="out of range"):
        bfs_distances(Graph(0, []), [0], [0])


def ego_ball(g: Graph, d: int) -> int:
    """The largest d-ball by networkx, one single-source search per node; 0 without nodes."""
    nxg = to_networkx(g)
    return max((len(nx.single_source_shortest_path_length(nxg, s, cutoff=d)) for s in range(g.n)), default=0)


@settings(max_examples=60, deadline=None)
@given(graphs_with_queries(), st.integers(min_value=0, max_value=6))
def test_ball_bound_is_largest_neighborhood(case, d):
    g = case[0]
    assert swept_ball(g, d) == ego_ball(g, d)


@settings(max_examples=60, deadline=None)
@given(graphs_with_queries())
def test_one_ball_is_max_degree_plus_one(case):
    # The 1-ball of a simple graph is a node plus its neighbours.
    g = case[0]
    assert swept_ball(g, 1) == g.max_degree() + 1


def test_ball_bound_matches_networkx_ego_graphs():
    rng = np.random.default_rng(4)
    edges = rng.integers(200, size=(260, 2))
    g = Graph(200, [(int(u), int(v)) for u, v in edges if u != v])
    for d in (0, 1, 2, 5):
        assert swept_ball(g, d) == ego_ball(g, d)


def test_ball_bound_edge_cases():
    assert swept_ball(Graph(0, []), 3) == 0
    assert swept_ball(Graph(65, []), 4) == 1
    assert swept_ball(Graph(3, [(0, 1), (1, 2)]), 0) == 1


# -- single-pair queries: bfs_distance's own two-sided search -------------


def oracle_distance(g: Graph, u: int, v: int, cap):
    try:
        dist = nx.shortest_path_length(to_networkx(g), u, v)
    except nx.NetworkXNoPath:
        return None
    return None if cap is not None and dist > cap else dist


@settings(max_examples=80, deadline=None)
@given(graphs_with_queries())
def test_bfs_distance_matches_networkx(case):
    # Sparse random graphs leave isolated nodes and several components, so
    # disconnected endpoints are common; every source is also asked for itself.
    g, src, dst, cap = case
    pairs = list(zip(src, dst))[:40] + [(s, s) for s in src[:5]]
    for u, v in pairs:
        got = bfs_distance(g, u, v, cap=cap)
        want = oracle_distance(g, u, v, cap)
        assert got is want if want is None else got == want and type(got) is int


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def bottom_up_steps(mp: pytest.MonkeyPatch) -> list[int]:
    """Count the kernel's bottom-up steps: each pass builds its step once."""
    built = []
    real = graph._neighbor_reduce
    mp.setattr(graph, "_neighbor_reduce", lambda *a: built.append(1) or real(*a))
    return built


def test_long_path_stays_top_down():
    # bfs_distance runs its own top-down search, apart from the bottom-up
    # kernel, so it builds no bottom-up step; every frontier here holds at
    # most 4 of the path's 598 arcs.
    g = path(300)
    with pytest.MonkeyPatch.context() as mp:
        built = bottom_up_steps(mp)
        assert bfs_distance(g, 0, 299) == 299
        assert bfs_distance(g, 17, 250, cap=233) == 233
        assert bfs_distance(g, 17, 250, cap=232) is None
        assert bfs_distance(g, 299, 150) == 149
    assert built == []


def two_stars(k: int) -> Graph:
    """Centres 0 and 1 joined by an edge, each with k leaves of its own."""
    edges = [(0, 1)] + [(0, 2 + i) for i in range(k)] + [(1, 2 + k + i) for i in range(k)]
    return Graph(2 + 2 * k, edges)


def test_star_frontier_stays_top_down():
    # From two leaves both sides first reach a centre; the next frontier
    # holds all of one star's arcs and meets the other side there at
    # distance 3. bfs_distance's own search steps top-down however large
    # its frontier grows, and never builds the kernel's bottom-up step.
    g = two_stars(40)
    with pytest.MonkeyPatch.context() as mp:
        built = bottom_up_steps(mp)
        assert bfs_distance(g, 2, 2 + 40) == 3
        assert bfs_distance(g, 2, 2 + 40, cap=3) == 3
        assert bfs_distance(g, 2, 2 + 40, cap=2) is None
        assert bfs_distance(g, 2, 3) == 2
        assert bfs_distance(g, 0, 2 + 40) == 2
    assert built == []


def test_dense_graph_stays_top_down():
    # Two copies of a dense 80-node graph, joined by a path of 4 edges.
    # A first level's frontier holds more than 1/8 of the ~3800 arcs, and
    # bfs_distance's own search, from one copy to the other, still steps
    # top-down all the way to where the two sides meet on the path, and
    # never builds the kernel's bottom-up step.
    rng = np.random.default_rng(11)
    n = 80
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < 0.3
    dense = np.column_stack((iu[keep], ju[keep]))
    joins = [(0, 2 * n), (2 * n, 2 * n + 1), (2 * n + 1, 2 * n + 2), (2 * n + 2, n)]
    g = Graph(2 * n + 3, np.concatenate((dense, dense + n, joins)))
    nxg = to_networkx(g)
    with pytest.MonkeyPatch.context() as mp:
        built = bottom_up_steps(mp)
        for u, v in rng.integers(n, size=(60, 2)).tolist():
            assert bfs_distance(g, u, v) == nx.shortest_path_length(nxg, u, v)
        for u, v in rng.integers(n, size=(60, 2)).tolist():
            assert bfs_distance(g, u, n + v) == nx.shortest_path_length(nxg, u, n + v)
    assert built == []


@pytest.mark.parametrize("k", range(1, 12))
def test_meets_at_odd_and_even_distances(k):
    # On a path the two sides meet in the middle, or one past it for odd k;
    # a cycle of length 2k (even) or 2k + 1 (odd) has its antipode at k.
    g = path(k + 5)
    assert bfs_distance(g, 2, 2 + k) == k
    assert bfs_distance(g, 2 + k, 2) == k
    for m in (2 * k, 2 * k + 1):
        if m >= 3:
            cycle = Graph(m, [(i, (i + 1) % m) for i in range(m)])
            assert bfs_distance(cycle, 0, k) == k
            assert bfs_distance(cycle, k, 0, cap=k) == k


@pytest.mark.parametrize("cap", range(0, 9))
def test_distance_at_cap_is_found_and_one_past_is_not(cap):
    g = path(12)
    assert bfs_distance(g, 1, 1 + cap, cap=cap) == cap
    assert bfs_distance(g, 1, 2 + cap, cap=cap) is None
    assert bfs_distance(g, 2 + cap, 1, cap=cap) is None
