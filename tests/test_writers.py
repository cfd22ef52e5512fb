"""Byte oracles for the bulk text writers.

``write_edge_list`` and ``write_symbol_graph`` format whole blocks of lines
as digit matrices. The references below are the per-line writers they
replaced, one f-string per line; every case must give the same bytes and
read back to the graph that was written. Edge lists are read back without
meaninglab: the header by regex, the edges by ``np.loadtxt``.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meaninglab.graph import Graph, write_edge_list
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
