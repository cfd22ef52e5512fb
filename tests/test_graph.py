"""Graph primitive tests: CSR storage, BFS, balls, components and min cut
against brute force and networkx, I/O."""

from __future__ import annotations

import itertools
import pickle

import networkx as nx
from networkx.algorithms.flow import edmonds_karp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meaninglab.graph import Graph, _passes, bfs_distance, bfs_distances, components, min_cut, write_edge_list

from oracles import component_lists, edges, swept_ball, to_networkx


def neighbors(g: Graph, u: int) -> tuple[int, ...]:
    """Node u's CSR slice: its sorted neighbours."""
    return tuple(g.indices[g.indptr[u] : g.indptr[u + 1]].tolist())


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def small_graphs() -> st.SearchStrategy[Graph]:
    def build(n: int, bits: list[bool]) -> Graph:
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e, b in zip(pairs, itertools.cycle(bits)) if b]
        return Graph(n, edges)

    return st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.lists(st.booleans(), min_size=1, max_size=28).map(
            lambda bits: build(n, bits)
        )
    )


# -- construction -------------------------------------------------------


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])


def test_rejects_out_of_range_edge():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])
    # The first endpoint is checked against n itself, too.
    with pytest.raises(ValueError, match=r"edge \(3, 0\) out of range for 3 nodes"):
        Graph(3, [(3, 0)])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1
    assert list(edges(g)) == [(0, 1)]


def test_empty_graph():
    g = Graph(0)
    assert g.edge_count == 0
    assert components(g).tolist() == []
    assert swept_ball(g, 3) == 0


def test_immutable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_csr_arrays_are_sorted_and_read_only():
    g = Graph(5, [(3, 0), (1, 3), (0, 1), (3, 1)])
    assert g.indptr.tolist() == [0, 2, 4, 4, 6, 6]
    assert g.indices.tolist() == [1, 3, 0, 3, 0, 1]
    assert [neighbors(g, u) for u in range(5)] == [(1, 3), (0, 3), (), (0, 1), ()]
    assert g.degrees.tolist() == [2, 2, 0, 2, 0]
    with pytest.raises(ValueError):
        g.indices[0] = 2
    with pytest.raises(ValueError):
        g.indptr[0] = 1
    with pytest.raises(ValueError):
        g.degrees[0] = 1
    assert Graph(0).degrees.tolist() == []


def test_array_and_pair_inputs_build_equal_graphs():
    pairs = [(0, 4), (2, 1), (4, 0), (3, 2)]
    a = Graph(5, pairs)
    b = Graph(5, np.array(pairs))
    c = Graph(5, iter(pairs))
    assert a == b == c and hash(a) == hash(b)
    assert list(edges(a)) == [(0, 4), (1, 2), (2, 3)]
    assert a.edge_array().tolist() == [[0, 4], [1, 2], [2, 3]]
    assert a != Graph(6, pairs) and a != Graph(5, pairs[:2])
    assert pickle.loads(pickle.dumps(a)) == a


def test_edge_checks_report_the_first_bad_edge():
    with pytest.raises(ValueError, match=r"edge \(0, 7\) out of range"):
        Graph(4, np.array([[0, 1], [0, 7], [2, 2]]))
    with pytest.raises(ValueError, match="self-loop at node 2"):
        Graph(4, [(0, 1), (2, 2), (0, 7)])
    with pytest.raises(ValueError, match="pairs"):
        Graph(4, [(0, 1, 2)])


def test_node_ids_must_be_integers():
    # numpy would truncate a float id and parse a string one; each is
    # refused with the first id that is not an integer.
    g = path_graph(3)
    with pytest.raises(ValueError, match="node ids must be integers, got 0.5"):
        Graph(3, [(0.5, 1.7), (1, 2)])
    with pytest.raises(ValueError, match="node ids must be integers, got 0.0"):
        Graph(3, np.array([[0, 1], [1.5, 2]]))  # every id of a float array is a float
    with pytest.raises(ValueError, match="node ids must be integers, got '0'"):
        Graph(3, [("0", "1")])
    with pytest.raises(ValueError, match="node ids must be integers, got None"):
        Graph(3, [(0, 1), (1, None)])
    with pytest.raises(ValueError, match="node ids must be integers, got 0.9"):
        bfs_distances(g, [0.9], [2.2])
    with pytest.raises(ValueError, match="node ids must be integers, got 0.5"):
        bfs_distance(g, 0.5, 2)
    with pytest.raises(ValueError, match="node ids must be integers, got 2.0"):
        min_cut(g, 0, 2.0)
    with pytest.raises(ValueError, match="node ids must be integers, got 1.0"):
        g.remove_edges([(0, 1.0)])


def test_integer_node_ids_of_every_kind_pass():
    g = path_graph(3)
    # A signed and an unsigned numpy integer together would promote to float.
    assert Graph(3, [(np.int64(0), np.uint64(1)), (1, np.int8(2))]) == g
    assert Graph(3, np.array([[0, 1], [1, 2]], dtype=np.uint8)) == g
    assert Graph(3, []) == Graph(3, np.zeros((0, 2))) == Graph(3)
    assert bfs_distance(g, np.int32(0), np.uint16(2)) == 2
    assert bfs_distances(g, np.array([0, 1], dtype=np.uint32), [2, np.int64(0)]).tolist() == [2, 1]
    assert bfs_distances(g, [], []).tolist() == []
    assert min_cut(g, np.uint8(0), 2) == [(0, 1)]


def test_node_ids_past_int64_are_named():
    # A uint64 id of 2**63 or more would wrap to a negative id in the cast
    # to int64, and a Python int past int64 would overflow it.
    g = path_graph(3)
    with pytest.raises(ValueError, match="node id 18446744073709551615 does not fit int64"):
        bfs_distances(g, np.array([2**64 - 1], dtype=np.uint64), [0])
    with pytest.raises(ValueError, match="node id 9223372036854775808 does not fit int64"):
        Graph(3, np.array([[2**63, 1]], dtype=np.uint64))
    with pytest.raises(ValueError, match=f"node id {2**70} does not fit int64"):
        Graph(3, [(2**70, 1)])
    with pytest.raises(ValueError, match=f"node id {-2**63 - 1} does not fit int64"):
        g.remove_edges([(0, -2**63 - 1)])
    # The largest uint64 id that fits is only out of range for the graph.
    with pytest.raises(ValueError, match=f"node {2**63 - 1} out of range for 3 nodes"):
        bfs_distances(g, np.array([2**63 - 1], dtype=np.uint64), [0])


def test_has_edge_and_degrees():
    g = Graph(5, [(0, 1), (1, 2), (1, 4)])
    assert (1, 4) in edges(g) and (0, 4) not in edges(g)
    assert g.degrees.tolist() == [1, 3, 1, 0, 1]
    assert g.max_degree() == 3 and Graph(0).max_degree() == 0


@pytest.mark.parametrize("u", [-1, 3])
def test_degree_rejects_node_out_of_range(u):
    # numpy would wrap -1 to node 2, whose degree ``degrees[-1]`` is 0.
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError, match=f"node {u} out of range for 3 nodes"):
        min_cut(g, 0, u)
    with pytest.raises(ValueError, match=f"node {u} out of range for 3 nodes"):
        bfs_distance(g, 0, u)


def test_remove_edges():
    g = cycle_graph(4)
    h = g.remove_edges([(0, 1)])
    assert h.edge_count == 3
    assert (0, 1) not in edges(h)
    assert (0, 1) in edges(g)
    with pytest.raises(ValueError, match="absent"):
        g.remove_edges([(0, 2)])


# -- BFS ----------------------------------------------------------------


def test_bfs_distance_path():
    g = path_graph(6)
    assert bfs_distance(g, 0, 5) == 5
    assert bfs_distance(g, 2, 2) == 0
    assert bfs_distance(g, 0, 5, cap=5) == 5
    assert bfs_distance(g, 0, 5, cap=4) is None


def test_bfs_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    assert bfs_distance(g, 0, 3) is None


def test_unreachable_is_none():
    # None, not the -1 that bfs_distances keeps in its int64 array.
    g = path_graph(6)
    assert bfs_distance(g, 0, 5, cap=4) is None
    assert bfs_distance(g, 5, 0, cap=0) is None
    assert bfs_distance(Graph(2), 0, 1) is None


def test_bfs_rejects_bad_args():
    g = path_graph(3)
    with pytest.raises(ValueError):
        bfs_distance(g, 0, 5)
    with pytest.raises(ValueError):
        bfs_distance(g, 0, 1, cap=-1)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=9))
def test_bfs_cap_matches_uncapped(g: Graph, cap: int):
    # Capped BFS reports exactly the uncapped distances that fit the cap.
    for u in range(g.n):
        for v in range(g.n):
            full = bfs_distance(g, u, v)
            capped = bfs_distance(g, u, v, cap=cap)
            if full is not None and full <= cap:
                assert capped == full
            else:
                assert capped is None


# -- neighborhoods ------------------------------------------------------


def ball_sizes(g: Graph, d: int) -> list[int]:
    """Each node's d-ball size: its popcounts summed over the whole-graph sweep's passes.

    Asserts that each equals the node's networkx ball size.
    """
    sizes = np.zeros(g.n, dtype=np.int64)
    for *_, rank, levels in _passes(g, np.arange(g.n), d):
        for _, seen, _ in levels:  # ``seen`` ends as the pass's balls
            pass
        sizes += np.bitwise_count(seen).sum(axis=1, dtype=np.int64).take(rank)
    ref = to_networkx(g)
    assert sizes.tolist() == [len(nx.single_source_shortest_path_length(ref, v, cutoff=d)) for v in range(g.n)]
    return sizes.tolist()


def test_neighborhood_size_examples():
    # On a path of n, node i's d-ball is every j with |i - j| <= d. At
    # n = 65 the sweep's last word has one source.
    for n in (5, 65):
        g = path_graph(n)
        for d in range(6):
            assert ball_sizes(g, d) == [min(i + d, n - 1) - max(i - d, 0) + 1 for i in range(n)]
    g = path_graph(5)
    assert swept_ball(g, 1) == 3
    assert swept_ball(g, 4) == 5


def test_ball_bound_complete():
    g = complete_graph(6)
    assert swept_ball(g, 1) == 6


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=6))
def test_ball_monotone_in_radius(g: Graph, d: int):
    assert swept_ball(g, d) <= swept_ball(g, d + 1)
    inner, outer = ball_sizes(g, d), ball_sizes(g, d + 1)
    assert all(a <= b for a, b in zip(inner, outer))


# -- components ---------------------------------------------------------


def test_components_partition():
    g = Graph(6, [(0, 1), (1, 2), (4, 5)])
    label = components(g)
    assert label.dtype == np.int64
    assert label.tolist() == [0, 0, 0, 3, 4, 4]


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_components_cover_everything(g: Graph):
    label = components(g)
    assert label.shape == (g.n,)
    # Each label is its own label, and no larger than any node that carries it.
    assert np.array_equal(label[label], label)
    assert np.all(label <= np.arange(g.n))
    # Edges never cross components.
    for u, v in edges(g):
        assert label[u] == label[v]


# -- min cut ------------------------------------------------------------


def brute_force_min_cut_size(g: Graph, s: int, t: int) -> int:
    """Smallest edge set whose removal separates s from t, by bipartition scan."""
    best = g.edge_count
    others = [x for x in range(g.n) if x not in (s, t)]
    for mask in range(1 << len(others)):
        side = {s}
        for i, x in enumerate(others):
            if mask >> i & 1:
                side.add(x)
        crossing = sum(1 for u, v in edges(g) if (u in side) != (v in side))
        best = min(best, crossing)
    return best


def test_min_cut_path():
    g = path_graph(5)
    assert min_cut(g, 0, 4) == [(0, 1)]


def test_min_cut_cycle():
    g = cycle_graph(6)
    cut = min_cut(g, 0, 3)
    assert len(cut) == 2


def test_min_cut_complete():
    g = complete_graph(4)
    assert len(min_cut(g, 0, 3)) == 3


def test_min_cut_disconnected_pair_is_empty():
    g = Graph(4, [(0, 1), (2, 3)])
    assert min_cut(g, 0, 3) == []


def test_min_cut_same_node_rejected():
    with pytest.raises(ValueError):
        min_cut(path_graph(3), 1, 1)


def test_min_cut_removal_disconnects():
    g = cycle_graph(8)
    cut = min_cut(g, 0, 4)
    assert bfs_distance(g.remove_edges(cut), 0, 4) is None


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_min_cut_matches_brute_force(g: Graph, data):
    s = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    t = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    if s == t:
        t = (t + 1) % g.n
    cut = min_cut(g, s, t)
    assert len(cut) == brute_force_min_cut_size(g, s, t)
    # The returned edges really are a cut.
    assert bfs_distance(g.remove_edges(cut), s, t) is None


# -- networkx oracles ---------------------------------------------------


@st.composite
def node_pairs(draw, max_nodes=60):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    return n, [(u, v) for u, v in edges if u != v]


def sparse_graphs(max_nodes=60) -> st.SearchStrategy[Graph]:
    return node_pairs(max_nodes).map(lambda case: Graph(*case))


@settings(max_examples=80, deadline=None)
@given(node_pairs(max_nodes=40))
def test_csr_build_matches_networkx(case):
    # Duplicates and reversed pairs collapse to one edge; nodes no pair
    # names stay as isolated nodes.
    n, pairs = case
    pairs += [(v, u) for u, v in pairs[::2]] + pairs[::3]
    g = Graph(n, pairs)
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(pairs)
    assert [neighbors(g, u) for u in range(n)] == [tuple(sorted(ref[u])) for u in range(n)]
    assert g.degrees.tolist() == [ref.degree(u) for u in range(n)]
    assert g.indptr.tolist() == [0, *itertools.accumulate(g.degrees.tolist())]
    assert g.edge_count == ref.number_of_edges()


def assert_same_csr(built: Graph, want: Graph) -> None:
    assert built.n == want.n
    for name in ("indptr", "indices", "degrees"):
        got = getattr(built, name)
        assert got.dtype == np.int64 and not got.flags.writeable, name
        assert np.array_equal(got, getattr(want, name)), name


@settings(max_examples=80, deadline=None)
@given(node_pairs(max_nodes=40))
@example((0, []))
@example((1, []))
@example((5, []))  # no edges at all
@example((4, [(0, 1), (1, 2)]))  # the last node isolated
@example((7, [(0, u) for u in range(1, 7)] + [(2, 3)]))  # a hub
@example((7, [(6, u) for u in range(6)]))  # a hub at the last node
def test_from_arcs_matches_the_pair_constructor(case):
    # The constructor the sampler, remove_edges and laplacian_of share, from
    # the distinct arc keys both ways in any order and the degrees, gives the
    # arrays the pair constructor gives.
    n, pairs = case
    want = Graph(n, pairs)
    edges = {(min(e), max(e)) for e in pairs}
    arcs = np.array([u * n + v for a, b in edges for u, v in ((a, b), (b, a))], dtype=np.int64)
    arcs = np.random.default_rng(n).permutation(arcs)
    degrees = np.bincount(arcs // max(n, 1), minlength=n)
    assert_same_csr(Graph._from_arcs(n, arcs, degrees), want)


@settings(max_examples=80, deadline=None)
@given(node_pairs(max_nodes=40), st.lists(st.booleans(), max_size=80))
@example((1, []), [])
@example((3, [(0, 2)]), [True])  # every edge removed
@example((4, [(0, 3), (1, 3), (2, 3)]), [True, False, True])  # the hub at the last node keeps one edge
def test_remove_edges_equals_a_rebuild(case, bits):
    n, pairs = case
    g = Graph(n, pairs)
    marked = list(zip(edges(g), itertools.chain(bits, itertools.repeat(False))))
    # Either end may come first in a removal, as in a cut.
    drop = [(v, u) if i % 2 else (u, v) for i, ((u, v), out) in enumerate(marked) if out]
    assert_same_csr(g.remove_edges(drop), Graph(n, [e for e, out in marked if not out]))


@settings(max_examples=80, deadline=None)
@given(sparse_graphs(max_nodes=150))
def test_components_match_networkx(g: Graph):
    want = np.arange(g.n)
    for comp in component_lists(g):
        want[comp] = comp[0]
    assert np.array_equal(components(g), want)


def test_components_of_long_path_and_isolated_nodes():
    # Labels must travel the whole length of a path, against its order.
    n = 500
    g = Graph(n + 2, [(i + 1, i) for i in range(1, n)])
    assert components(g).tolist() == [0] + [1] * n + [n + 1]


@settings(max_examples=60, deadline=None)
@given(sparse_graphs(max_nodes=30), st.data())
def test_min_cut_size_matches_networkx(g: Graph, data):
    if g.n < 2:
        return
    s = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    t = data.draw(st.integers(min_value=0, max_value=g.n - 2))
    t += t >= s
    assert len(min_cut(g, s, t)) == nx.edge_connectivity(to_networkx(g), s, t)


def residual_side_cut(g: Graph, s: int, t: int) -> list[tuple[int, int]]:
    """Edges leaving the nodes s reaches in a maximum flow's residual graph.

    That node set is the same for every maximum flow, so it pins the exact
    cut edges. (``nx.minimum_cut`` closes on the sink side instead.)
    """
    ref = nx.DiGraph()
    ref.add_nodes_from(range(g.n))
    for u, v in edges(g):
        ref.add_edge(u, v, capacity=1)
        ref.add_edge(v, u, capacity=1)
    res = edmonds_karp(ref, s, t)
    open_arcs = nx.DiGraph()
    open_arcs.add_node(s)
    open_arcs.add_edges_from((u, v) for u, v, a in res.edges(data=True) if a["capacity"] - a["flow"] > 0)
    side = nx.descendants(open_arcs, s) | {s}
    return sorted((u, v) for u, v in edges(g) if (u in side) != (v in side))


@st.composite
def cut_cases(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = [(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=3 * n)) if u != v]
    g = Graph(n, edges)
    if edges and draw(st.booleans()):
        s, t = draw(st.sampled_from(edges))
    else:
        s = draw(node)
        t = draw(node.filter(lambda x: x != s))
    return g, s, t


@settings(max_examples=150, deadline=None)
@given(cut_cases())
@example((Graph(4, [(0, 1), (2, 3)]), 0, 3))  # s and t disconnected
@example((Graph(6, [(0, 1), (1, 2), (0, 2), (2, 4)]), 1, 0))  # adjacent, isolated 3 and 5
@example((Graph(5, [(1, 2), (2, 3)]), 0, 3))  # s isolated
@example((Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]), 0, 2))  # several minimum cuts
@example(  # the fourth augmenting path must cancel flow on (2, 4)
    (Graph(9, [(0, 2), (0, 6), (1, 3), (1, 5), (1, 8), (2, 4), (2, 7), (3, 4), (3, 8), (4, 5), (4, 6),
               (5, 7), (5, 8), (6, 7), (7, 8)]), 7, 2)
)
def test_min_cut_edges_match_networkx_residual_side(case):
    g, s, t = case
    assert min_cut(g, s, t) == residual_side_cut(g, s, t)


def test_min_cut_deterministic():
    g = cycle_graph(10)
    assert min_cut(g, 0, 5) == min_cut(g, 0, 5)


# -- edge-list I/O ------------------------------------------------------


def test_edge_list_round_trip(tmp_path):
    # Read back without meaninglab: the edges by ``np.loadtxt``, which skips the ``#`` header.
    g = Graph(7, [(0, 3), (1, 2), (5, 6)])
    path = tmp_path / "g.tsv"
    write_edge_list(g, path)
    assert path.read_text().startswith("# nodes 7\n")
    assert np.loadtxt(path, dtype=np.int64, delimiter="\t").tolist() == g.edge_array().tolist()


def test_edge_list_preserves_isolated_nodes(tmp_path):
    g = Graph(9, [(0, 1)])
    path = tmp_path / "g.tsv"
    write_edge_list(g, path)
    assert path.read_text() == "# nodes 9\n0\t1\n"


def test_edge_list_byte_stable(tmp_path):
    g = Graph(5, [(0, 4), (2, 3), (0, 1)])
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_edge_list(g, a)
    write_edge_list(g, b)
    assert a.read_bytes() == b.read_bytes()


def test_edge_list_writes_label_block(tmp_path):
    g = Graph(3, [(0, 2)])
    path = tmp_path / "g.tsv"
    write_edge_list(g, path, ("a", "b c", "d"))
    assert path.read_text() == "# nodes 3\n# label 0 a\n# label 1 b c\n# label 2 d\n0\t2\n"
