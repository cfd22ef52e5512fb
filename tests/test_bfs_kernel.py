"""The bitset BFS kernel, the queries built on it and the separator's own search, against networkx as an independent oracle."""

from __future__ import annotations

import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meaninglab.graph as graph
from meaninglab.graph import Graph, bfs_distance, bfs_distances

from oracles import distance_matrix, swept_ball, to_networkx


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


# Pass budgets: one word per pass, a few words per pass (and several
# passes) on the larger graphs drawn here, and the default, which fits
# every word of them in one pass.
BUDGETS = [0, 16 * 1024, None]


def set_budget(mp: pytest.MonkeyPatch, budget: int | None) -> None:
    if budget is not None:
        mp.setattr(graph, "_PASS_BYTES", budget)


@settings(max_examples=60, deadline=None)
@given(graphs_with_shared_sources(), st.sampled_from(BUDGETS))
def test_pairs_with_one_source_share_its_lane(case, budget):
    # Each distinct source runs in exactly one pass, in sorted order, and
    # passes carry whole words: all but the last the same number, one at
    # a budget of 0, and as many as the kernel's width allows.
    g, src, dst, cap = case
    passes, widths = [], []
    real = graph._bit_levels

    def counted(bfs, s, cap):
        passes.append(s.tolist())
        widths.append(bfs.width)
        return real(bfs, s, cap)

    with pytest.MonkeyPatch.context() as mp:
        set_budget(mp, budget)
        mp.setattr(graph, "_bit_levels", counted)
        got = bfs_distances(g, src, dst, cap=cap)
    assert got.tolist() == oracle_distances(g, src, dst, cap)
    [width] = set(widths)
    assert budget != 0 or width == 1
    assert len(passes) == math.ceil(len(set(src)) / (64 * width))
    assert [s for p in passes for s in p] == sorted(set(src))
    assert all(len(p) == 64 * width for p in passes[:-1])


@settings(max_examples=100, deadline=None)
@given(
    graphs_with_queries(),
    st.integers(min_value=0, max_value=5000),
    st.sampled_from([0, 1, 4096, *BUDGETS[1:]]),
)
def test_pass_width_is_the_fewest_even_passes_within_the_budget(case, sources, budget):
    g = case[0]
    with pytest.MonkeyPatch.context() as mp:
        set_budget(mp, budget)
        bfs = graph._Diagonals(g, sources)
        budget = graph._PASS_BYTES
    words = -(-sources // 64)
    per_word = 8 * (len(g.indices) + 3 * g.n)
    width = bfs.width
    passes = -(-words // width)
    assert width >= 1
    # Within the budget, unless one word alone is over it.
    assert width == 1 or width * per_word <= budget
    assert bfs.buffer.nbytes == 8 * width * (len(g.indices) + 3 * g.n)
    # The fewest passes that fit, each as narrow as that many allows.
    assert passes == -(-words // max(1, budget // per_word))
    assert width == max(1, -(-words // max(passes, 1)))


@st.composite
def kernel_graphs(draw):
    """Random graphs, edgeless ones and ones whose last node is isolated, n = 0 and around word edges."""
    n = draw(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 129]), st.integers(min_value=0, max_value=130)))
    kind = draw(st.sampled_from(["random", "edgeless", "isolated last"]))
    if kind == "edgeless" or n < 2:
        return Graph(n, [])
    linked = n - 1 if kind == "isolated last" else n
    node = st.integers(min_value=0, max_value=linked - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return Graph(n, [(u, v) for u, v in edges if u != v])


def packed_rows(rows: np.ndarray) -> np.ndarray:
    """Boolean rows as words, the way a ring-table row packs a ring: bit j of word r is column 64r + j."""
    words = -(-rows.shape[1] // 64)
    padded = np.zeros((len(rows), 64 * words), dtype=bool)
    padded[:, : rows.shape[1]] = rows
    lanes = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    return np.bitwise_or.reduce(np.where(padded.reshape(len(rows), words, 64), lanes, np.uint64(0)), axis=2)


def kernel_outputs(g: Graph, d: int) -> dict:
    """Everything the kernel yields on g up to radius d: all capped distances, the ring tables and anchor rings."""
    us, vs = np.divmod(np.arange(g.n * g.n), max(g.n, 1))
    rings = graph._RingTables(g)
    out = {"distances": bfs_distances(g, us, vs, cap=d).tolist(), "ball": rings.ball_bound(d)}
    out["tables"] = {k: t.tolist() for k, t in rings.tables.items()}
    out["starts"] = {k: v.tolist() for k, v in rings.starts.items()}
    out["anchors"] = {}
    for k in range(1, d + 1):
        sizes = np.diff(rings.starts[k]) if k in rings.starts else np.zeros(g.n, dtype=np.int64)
        anchors = np.flatnonzero(sizes)
        if len(anchors):
            out["anchors"][k] = graph._anchor_rings(g, k, anchors).tolist()
    return out


def oracle_outputs(g: Graph, d: int) -> dict:
    """What :func:`kernel_outputs` should be, from networkx distances alone."""
    dist = distance_matrix(g)
    capped = np.where(dist <= d, dist, -1)
    ball = ((dist >= 0) & (dist <= d)).sum(axis=1)
    # Every table fits at these sizes, so each level 1..d with a pair has one.
    levels = [k for k in range(1, d + 1) if (dist == k).any()]
    starts = {k: [0] + np.cumsum((dist == k).sum(axis=1)).tolist() for k in {*levels, d}}
    return {
        "distances": capped.ravel().tolist(),
        "ball": int(ball.max(initial=0)),
        "tables": {k: packed_rows(dist == k).tolist() for k in levels},
        "starts": starts,
        "anchors": {k: packed_rows(dist[(dist == k).any(axis=1)] == k).tolist() for k in levels},
    }


# Call costs that keep every diagonal, a few, the default's, and only the first.
CALL_WORDS = [0, 8, None, 10**9]


@settings(max_examples=60, deadline=None)
@given(kernel_graphs(), st.integers(min_value=0, max_value=6))
def test_outputs_do_not_depend_on_pass_width(g, d):
    # Distances, ball bound, every ring table with its running ring sizes,
    # and anchor rings past the table budget's reach are the same whether
    # each pass carries one word of sources, a few, or all of them, and
    # however many diagonals a step ORs before its tail, and equal
    # networkx's.
    want = oracle_outputs(g, d)
    for budget in BUDGETS:
        for call in CALL_WORDS:
            with pytest.MonkeyPatch.context() as mp:
                set_budget(mp, budget)
                if call is not None:
                    mp.setattr(graph, "_CALL_WORDS", call)
                assert kernel_outputs(g, d) == want


@pytest.mark.parametrize("call", CALL_WORDS)
def test_diagonals_and_tail_cover_every_arc_once(call):
    # A star's centre, a path's inner nodes and isolated nodes. Nodes are
    # ranked by degree, descending; diagonal k holds the rank of the k-th
    # neighbour of each of the first ranks, on a prefix as long as the
    # nodes of degree above k; the tail holds each next node's remaining
    # arcs, one segment per node. Together they hold every arc once.
    edges = [(0, i) for i in range(1, 40)] + [(i, i + 1) for i in range(40, 90)] + [(3, 50), (3, 60)]
    g = Graph(100, edges)
    with pytest.MonkeyPatch.context() as mp:
        if call is not None:
            mp.setattr(graph, "_CALL_WORDS", call)
        bfs = graph._Diagonals(g, 64)
    order = np.argsort(-g.degrees, kind="stable")
    assert np.array_equal(bfs.rank[order], np.arange(g.n))
    diagonals = [(0, bfs.reach), *bfs.diagonals]
    arcs = []
    for k, (at, m) in enumerate(diagonals):
        assert m == np.count_nonzero(g.degrees > k)
        for i, h in enumerate(bfs.heads[at : at + m].tolist()):
            u = order[i]
            assert h == bfs.rank[g.indices[g.indptr[u] + k]]
            arcs.append((u, order[h]))
    kept = len(diagonals)
    if bfs.tail is None:
        assert kept == g.max_degree()
    else:
        at, firsts = bfs.tail
        ends = [*firsts[1:].tolist(), len(bfs.heads) - at]
        assert len(firsts) == np.count_nonzero(g.degrees > kept)
        for i, (lo, hi) in enumerate(zip(firsts.tolist(), ends)):
            u = order[i]
            assert hi - lo == g.degrees[u] - kept
            arcs += [(u, order[h]) for h in bfs.heads[at + lo : at + hi].tolist()]
    assert sorted(arcs) == sorted(zip(graph._arc_tails(g).tolist(), g.indices.tolist()))
    if call == 0:
        assert bfs.tail is None
    if call == 10**9:
        assert kept == 1


def test_a_hub_costs_no_call_per_arc():
    # A 5000-leaf star: one diagonal holds every leaf's arc and the centre's
    # first, and the centre's other 4999 arcs are one tail segment.
    g = Graph(5001, [(0, i) for i in range(1, 5001)])
    bfs = graph._Diagonals(g, 64)
    assert bfs.diagonals == [] and bfs.tail[1].tolist() == [0]
    assert bfs_distances(g, [1, 1, 0, 7], [2, 0, 5000, 7]).tolist() == [2, 1, 1, 0]


def test_traced_peak_grows_by_at_most_one_pass_budget():
    # 2000 pairs from 64 distinct sources, and 2000 pairs from 2000: the
    # same pair arrays, one word of sources against 32. The passes carry
    # only as many words as the budget holds, so the traced peak grows by
    # less than one pass's budget; with a budget that holds every word it
    # grows by far more, so the measure can see the difference.
    rng = np.random.default_rng(5)
    edges = rng.integers(3000, size=(3000, 2))
    g = Graph(3000, edges[edges[:, 0] != edges[:, 1]])
    dst = rng.integers(3000, size=2000)
    few, many = np.resize(np.arange(64), 2000), rng.permutation(3000)[:2000]

    def peak(src) -> int:
        tracemalloc.start()
        try:
            bfs_distances(g, src, dst)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    budget = graph._PASS_BYTES
    assert peak(many) - peak(few) <= budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_PASS_BYTES", 1 << 30)
        assert peak(many) - peak(few) > 8 * budget


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
    """Count the bottom-up kernel's builds: every call that steps it builds its diagonals once."""
    built = []
    real = graph._Diagonals
    mp.setattr(graph, "_Diagonals", lambda *a: built.append(1) or real(*a))
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
    with pytest.MonkeyPatch.context() as mp:
        built = bottom_up_steps(mp)
        assert bfs_distances(g, [0, 17], [299, 250]).tolist() == [299, 233]
    assert built == [1]  # the count sees the kernel when a call runs it


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
