"""Byte oracles for the bulk text writers.

``write_edge_list`` and ``write_symbol_graph`` format each node id once,
in one table of decimal strings (``graph._decimals``), and gather whole
blocks of lines from it into one byte matrix. The references below are the
per-line writers they replaced, one f-string per line; every case must give
the same bytes and read back to the graph that was written. Edge lists are
read back without meaninglab: the header by regex, the edges by
``np.loadtxt``. The table itself is checked against ``str``.
"""

from __future__ import annotations

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meaninglab import graph
from meaninglab.graph import Graph, _decimals, _node_ranges, write_edge_list
from meaninglab.meaning import gen_er
from meaninglab.sampler import (
    SIMILARITY,
    STRUCTURAL,
    SampleParams,
    SymbolGraph,
    read_symbol_graph,
    sample_symbol_graph,
    write_symbol_graph,
)

from oracles import edges


def reference_edge_list(g: Graph, labels=None) -> bytes:
    lines = [f"# nodes {g.n}\n"]
    lines += [f"# label {i} {label}\n" for i, label in enumerate(labels or ())]
    lines += [f"{u}\t{v}\n" for u, v in edges(g)]
    return "".join(lines).encode("utf-8")


def reference_symbol_graph(sg: SymbolGraph) -> bytes:
    p = sg.params
    lines = [
        f"# symbol-graph meaning-nodes={sg.n_meaning} lambda={sg.lam} seed={sg.seed}\n",
        "# params"
        f" p_plus={p.p_plus!r} p_minus={p.p_minus!r}"
        f" eps_plus={p.eps_plus!r} eps_minus={p.eps_minus!r}"
        f" fold={int(p.fold)}\n",
    ]
    lines += [f"#origin {w} {w // sg.lam}\n" for w in range(sg.graph.n)]
    for (u, v), k in zip(edges(sg.graph), sg.kinds):
        if k & STRUCTURAL:
            lines.append(f"{u}\t{v}\tS\n")
        if k & SIMILARITY:
            lines.append(f"{u}\t{v}\tR\n")
    return "".join(lines).encode("utf-8")


def read_edge_list_file(path) -> tuple[Graph, list[tuple[str, str]]]:
    """The graph and the ``(index, label)`` pairs of an edge-list file."""
    text = path.read_text(encoding="utf-8")
    n = int(re.search(r"^# nodes (\d+)$", text, re.M).group(1))
    labels = re.findall(r"^# label (\d+) (.*)$", text, re.M)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on a file with no edge lines
        edges = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2, encoding="utf-8")
    return Graph(n, edges.reshape(-1, 2)), labels


def check_edge_list(g: Graph, path, labels=None) -> None:
    write_edge_list(g, path, labels)
    assert path.read_bytes() == reference_edge_list(g, labels)
    assert read_edge_list_file(path) == (g, [(str(i), label) for i, label in enumerate(labels or ())])


def check_symbol_graph(sg: SymbolGraph, path) -> None:
    write_symbol_graph(sg, path)
    assert path.read_bytes() == reference_symbol_graph(sg)
    assert read_symbol_graph(path) == sg


def params(lam=2, fold=False):
    return SampleParams(0.8, 0.01, 0.2, 0.05, lam, fold)


# -- the decimal table -------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 100, 101, 10**5 + 1])
def test_decimals_are_str_right_aligned(n):
    width = len(str(max(n - 1, 0)))
    dec = _decimals(n)
    assert dec.dtype == np.dtype(f"S{width}") and dec.shape == (n,)
    # Each string holds its id's digits, padded on the left with NULs.
    assert dec.tobytes() == b"".join(str(i).rjust(width, "\0").encode() for i in range(n))


# -- edge lists -----------------------------------------------------------


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("labelled", [False, True])
def test_edge_list_without_edges(tmp_path, n, labelled):
    labels = [f"node {i}" for i in range(n)] if labelled else None
    check_edge_list(Graph(n), tmp_path / "g.tsv", labels)


@pytest.mark.parametrize("labelled", [False, True])
def test_edge_list_across_powers_of_ten(tmp_path, labelled):
    # Each edge joins the last id of one digit width to the first of the next.
    n = 10**6 + 1
    g = Graph(n, [(10**k - 1, 10**k) for k in range(1, 7)])
    labels = [f"w{i} é" for i in range(n)] if labelled else None
    check_edge_list(g, tmp_path / "g.tsv", labels)


def test_edge_list_of_dense_small_graph(tmp_path):
    g = Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12) if (u * v) % 3])
    check_edge_list(g, tmp_path / "g.tsv", ["α", "b c", "", *map(str, range(9))])


# -- symbol graphs ----------------------------------------------------------


def test_symbol_graph_one_node(tmp_path):
    sg = SymbolGraph(Graph(1), b"", params=params(lam=1), seed=0)
    check_symbol_graph(sg, tmp_path / "sg.tsv")


@pytest.mark.parametrize("fold", [False, True])
def test_symbol_graph_both_kinds(tmp_path, fold):
    # Edge (0, 3) carries both kinds: its S line comes before its R line.
    sg = SymbolGraph(
        graph=Graph(6, [(0, 1), (0, 3), (2, 5), (4, 5)]),
        kinds=bytes([SIMILARITY, STRUCTURAL | SIMILARITY, STRUCTURAL, SIMILARITY]),
        params=params(fold=fold),
        seed=11,
    )
    check_symbol_graph(sg, tmp_path / "sg.tsv")
    assert b"0\t3\tS\n0\t3\tR\n" in (tmp_path / "sg.tsv").read_bytes()


@pytest.mark.parametrize("lam", [1, 3])
def test_symbol_graph_without_meaning_nodes(tmp_path, lam):
    sg = SymbolGraph(Graph(0), b"", params=params(lam=lam), seed=0)
    check_symbol_graph(sg, tmp_path / "sg.tsv")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("lam, extra", [(1, 0), (1, 1), (3, -1), (3, 2)])
def test_symbol_graph_at_a_power_of_ten(tmp_path, k, lam, extra):
    # 10**k + extra symbols: the symbol ids end just below or just past a
    # digit width. At 10**k + 2 symbols (lam = 3) the meaning ids on the
    # origin lines are a digit narrower than the symbol ids beside them.
    n = 10**k + extra
    pairs = sorted({(0, n - 1), *((10**j - 1, 10**j) for j in range(1, k + 1) if 10**j < n)})
    # Kinds go in sorted edge order; a structural edge never joins two replicas of one node.
    kinds = [SIMILARITY if u // lam == v // lam else STRUCTURAL | SIMILARITY for u, v in pairs]
    sg = SymbolGraph(Graph(n, pairs), bytes(kinds), params=params(lam=lam), seed=k)
    check_symbol_graph(sg, tmp_path / "sg.tsv")


def test_symbol_graph_past_ten_thousand_nodes(tmp_path):
    sg = sample_symbol_graph(gen_er(4000, 0.001, 2), SampleParams(0.8, 1e-5, 0.2, 1e-5, 3), seed=9)
    assert sg.graph.n == 12000 and sg.graph.edge_array().max() >= 10**4
    check_symbol_graph(sg, tmp_path / "sg.tsv")


@st.composite
def symbol_graphs(draw):
    n_meaning = draw(st.integers(1, 6))
    lam = draw(st.integers(1, 4))
    n = lam * n_meaning
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kinds = draw(st.lists(st.sampled_from([0, STRUCTURAL, SIMILARITY, 3]), min_size=len(pairs), max_size=len(pairs)))
    edges, kept = [], []
    for (u, v), k in zip(pairs, kinds):
        if u // lam == v // lam:
            k &= SIMILARITY  # a structural edge never joins two replicas of one node
        if k:
            edges.append((u, v))
            kept.append(k)
    probability = st.floats(0.0, 1.0)
    p = SampleParams(draw(probability), draw(probability), draw(probability), draw(probability), lam, draw(st.booleans()))
    seed = draw(st.integers(0, 2**63))
    # pairs are generated in edges() order, so the kinds line up with it
    return SymbolGraph(Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)), bytes(kept), p, seed)


@settings(max_examples=150, deadline=None)
@given(sg=symbol_graphs())
def test_symbol_graph_matches_reference(tmp_path_factory, sg):
    check_symbol_graph(sg, tmp_path_factory.mktemp("sg") / "sg.tsv")


# -- node ranges ---------------------------------------------------------------


def seam_graphs() -> list[SymbolGraph]:
    # Six symbols, lambda = 2: edges (1, 4) and (3, 4) carry both kinds.
    pairs = [(0, 1), (0, 3), (1, 4), (2, 5), (3, 4)]
    kinds = [SIMILARITY, STRUCTURAL, STRUCTURAL | SIMILARITY, SIMILARITY, STRUCTURAL | SIMILARITY]
    small = SymbolGraph(Graph(6, pairs), bytes(kinds), params(lam=2), seed=1)
    sampled = sample_symbol_graph(gen_er(60, 0.1, 3), SampleParams(0.8, 0.05, 0.3, 0.2, 3), seed=5)
    assert 3 in sampled.kinds
    return [small, sampled]


@pytest.mark.parametrize("budget", [1, 20, 48, 100, 1000])
def test_writers_give_the_same_bytes_across_range_seams(tmp_path, monkeypatch, budget):
    # A budget of a few lines splits both files at many seams; each must
    # still be the bytes the default budget writes, which is one range here.
    for sg in seam_graphs():
        write_symbol_graph(sg, tmp_path / "sg.tsv")
        write_edge_list(sg.graph, tmp_path / "el.tsv")
        want = (tmp_path / "sg.tsv").read_bytes(), (tmp_path / "el.tsv").read_bytes()
        assert want == (reference_symbol_graph(sg), reference_edge_list(sg.graph))
        with monkeypatch.context() as mp:
            mp.setattr(graph, "_LINE_BYTES", budget)
            if budget == 48 and sg.graph.n == 6:
                # Symbol lines take 2 * len("1\t4\tS\n") = 12 bytes per arc, so a
                # range holds at most four arcs: each ends on a dual edge's R
                # line, and the origin block splits after symbols 1 and 3.
                assert list(_node_ranges(sg.graph, 12)) == [(0, 2), (2, 4), (4, 6)]
            write_symbol_graph(sg, tmp_path / "sg.tsv")
            write_edge_list(sg.graph, tmp_path / "el.tsv")
        assert ((tmp_path / "sg.tsv").read_bytes(), (tmp_path / "el.tsv").read_bytes()) == want


def test_writer_peak_does_not_grow_with_the_edges(tmp_path):
    # Two sampled graphs on the same 30,000 symbols, so the same decimal
    # table, one with about 3.6 times the other's 191k edges. Each writer
    # formats a node range at a time, so its traced peak above the graph
    # grows by less than one range's budget (with the 1 MiB budget, by
    # 0.16 MB for the symbol graph and 0.42 MB for the edge list: the
    # denser graph's first ranges have more arcs upward, so more lines);
    # with a budget that holds the whole file it grows by several times
    # the default budget, so the measure can see the difference.
    p = SampleParams(0.9, 1e-6, 0.0, 1e-6, 3)
    few, many = (sample_symbol_graph(gen_er(10_000, q, 1), p, 0) for q in (0.0004, 0.0016))
    assert 3.4 < many.graph.edge_count / few.graph.edge_count < 3.8

    def peak(sg, write) -> int:
        tracemalloc.start()
        try:
            write(sg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    budget = graph._LINE_BYTES
    for write in (
        lambda sg: write_symbol_graph(sg, tmp_path / "sg.tsv"),
        lambda sg: write_edge_list(sg.graph, tmp_path / "el.tsv"),
    ):
        assert peak(many, write) - peak(few, write) <= budget
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_LINE_BYTES", 1 << 40)
            assert peak(many, write) - peak(few, write) > 4 * budget
