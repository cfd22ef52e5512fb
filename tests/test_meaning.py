"""Meaning-graph generation, ingestion, screening and fixture picking."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import meaninglab.meaning as meaning
from meaninglab.graph import Graph, bfs_distance, components
from meaninglab.meaning import (
    CutPair,
    MeaningGraph,
    TriplesFormatError,
    check_nontrivial,
    gen_er,
    load_triples,
    make_cut_pair,
    pick_disconnected_pair,
    pick_pair_at_distance,
)
from meaninglab.rng import STREAM_ER, index_to_pair, pair_count, skip_sample, stream
from meaninglab.sampler import SampleParams

from oracles import edges, to_networkx

DATA = Path(__file__).parent / "data"


def params(p_plus=0.9, p_minus=1e-4, eps_plus=1e-2, eps_minus=1e-3, lam=2) -> SampleParams:
    return SampleParams(p_plus=p_plus, p_minus=p_minus, eps_plus=eps_plus, eps_minus=eps_minus, lam=lam)


# -- gen_er -------------------------------------------------------------


def test_gen_er_extremes():
    assert gen_er(30, 0.0, 1).edge_count == 0
    assert gen_er(10, 1.0, 1).edge_count == pair_count(10)
    assert gen_er(1, 0.5, 1).edge_count == 0


def test_gen_er_deterministic():
    assert gen_er(60, 0.1, 9).graph == gen_er(60, 0.1, 9).graph
    assert gen_er(60, 0.1, 9).graph != gen_er(60, 0.1, 10).graph


def test_gen_er_edge_count_within_4_sigma():
    g = gen_er(1000, 0.01, 5)
    mean = pair_count(1000) * 0.01
    sd = math.sqrt(pair_count(1000) * 0.01 * 0.99)
    assert abs(g.edge_count - mean) <= 4 * sd


def test_gen_er_pairwise_frequency():
    # Presence of one fixed pair across seeds is Bernoulli(p), 4 sigma.
    p, runs = 0.2, 1500
    hits = sum(1 for s in range(runs) if (3, 7) in edges(gen_er(12, p, s).graph))
    sd = math.sqrt(runs * p * (1 - p))
    assert abs(hits - runs * p) <= 4 * sd


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    st.integers(min_value=0, max_value=2**63 - 1),
)
def test_gen_er_is_one_skip_sample_pass(n, p, seed):
    # The edges are the hits of one pass over the pair indices, in index order.
    hits = skip_sample(stream(seed, STREAM_ER), pair_count(n), p)
    us, vs = index_to_pair(hits, n)
    assert np.array_equal(gen_er(n, p, seed).graph.edge_array(), np.column_stack((us, vs)))


def test_gen_er_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_er(0, 0.5, 1)
    with pytest.raises(ValueError):
        gen_er(5, 1.5, 1)


# -- load_triples -------------------------------------------------------


def test_load_triples_film_subset():
    gm = load_triples(DATA / "triples_small.tsv", "/film/")
    assert gm.n == 10
    assert gm.edge_count == 8
    # First-seen order: heads before tails, line order.
    assert gm.labels[:3] == ("/m/f01", "/m/f02", "/m/f03")
    # Reverse and parallel duplicates collapsed to one undirected edge.
    assert (0, 1) in edges(gm.graph)
    # The self-loop triple contributed its entity but no edge.
    assert "/m/f06" in gm.labels


def test_load_triples_no_filter_keeps_all_entities():
    gm = load_triples(DATA / "triples_small.tsv", "")
    assert gm.n == 19
    assert gm.labels is not None and len(set(gm.labels)) == 19


def test_load_triples_unmatched_prefix_is_empty():
    gm = load_triples(DATA / "triples_small.tsv", "/nosuch/")
    assert gm.n == 0 and gm.edge_count == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from(["/film/a", "/film/b", "/music/c"]), st.integers(0, 7)),
        max_size=30,
    )
)
def test_load_triples_matches_networkx_on_normalized_unique_pairs(triples):
    # Reversed and repeated lines, and a self-loop, on top of the drawn ones.
    triples = triples + [(t, r, h) for h, r, t in triples[::2]] + triples[::3] + [(0, "/film/a", 0)]
    index: dict[str, int] = {}
    pairs = set()
    for h, r, t in triples:
        if r.startswith("/film/"):
            u, v = (index.setdefault(f"e{x}", len(index)) for x in (h, t))
            if u != v:
                pairs.add((min(u, v), max(u, v)))
    ref = nx.Graph()
    ref.add_nodes_from(range(len(index)))
    ref.add_edges_from(pairs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "triples.tsv"
        path.write_text("".join(f"e{h}\t{r}\te{t}\n" for h, r, t in triples), encoding="utf-8")
        gm = load_triples(path, "/film/")
    assert gm.labels == tuple(index)
    assert nx.utils.graphs_equal(to_networkx(gm.graph), ref)


def test_load_triples_malformed_line(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\t/film/x\tb\nonly two\tfields\n")
    with pytest.raises(TriplesFormatError, match=":2"):
        load_triples(bad, "/film/")


def test_meaning_graph_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="unique"):
        MeaningGraph(Graph(2, [(0, 1)]), ("a", "a"))


# -- check_nontrivial ---------------------------------------------------


def test_check_nontrivial_passes_reasonable_instance():
    gm = gen_er(200, 0.015, 3)
    report = check_nontrivial(gm, params(), 2)
    assert report.overall, report.render()


def test_check_nontrivial_zero_noise_fails_condition_one():
    gm = gen_er(200, 0.015, 3)
    report = check_nontrivial(gm, params(p_minus=0.0), 2)
    assert not report.nonzero_noise.passed
    assert not report.overall


def test_check_nontrivial_full_faithfulness_fails_condition_two():
    gm = gen_er(200, 0.015, 3)
    report = check_nontrivial(gm, params(p_plus=1.0), 2)
    assert not report.incomplete_information.passed


def test_check_nontrivial_noise_dominance_fails_condition_three():
    gm = gen_er(200, 0.015, 3)
    report = check_nontrivial(gm, params(p_minus=0.2), 2)
    assert not report.noise_subordinate.passed


def test_check_nontrivial_dense_ball_fails_condition_four():
    gm = gen_er(40, 0.5, 3)
    report = check_nontrivial(gm, params(), 2)
    assert not report.ball_small.passed
    nxg = nx.Graph(list(edges(gm.graph)))
    nxg.add_nodes_from(range(gm.n))
    ball = max(len(nx.single_source_shortest_path_length(nxg, s, cutoff=2)) for s in range(gm.n))
    assert f"ball_bound(d=2)={ball}" in report.ball_small.message


def test_check_nontrivial_sparse_graph_fails_condition_five():
    gm = MeaningGraph(Graph(100, [(0, 1)]))
    report = check_nontrivial(gm, params(), 2)
    assert not report.enough_edges.passed


def test_check_nontrivial_passes_at_its_boundaries():
    # Both screens are "at most" bounds. p_minus is exactly p_plus / 10
    # (0.0625 = 0.625 / 10 in binary), and a perfect matching on 8 nodes
    # has a 1-ball bound of 2, exactly n / 4.
    gm = MeaningGraph(Graph(8, [(0, 1), (2, 3), (4, 5)]))
    report = check_nontrivial(gm, params(p_plus=0.625, p_minus=0.0625), 1)
    assert report.noise_subordinate.passed, report.render()
    assert report.ball_small.passed, report.render()
    assert "ball_bound(d=1)=2 vs n/4=2" in report.ball_small.message
    assert report.overall


def test_check_nontrivial_render_mentions_all_conditions():
    gm = gen_er(200, 0.015, 3)
    text = check_nontrivial(gm, params(), 2).render()
    for name in ("nonzero-noise", "incomplete-information", "noise-subordinate", "ball-small", "enough-edges", "overall"):
        assert name in text


# -- pair picking -------------------------------------------------------


def test_pick_pair_at_distance_exact():
    gm = MeaningGraph(Graph(6, [(i, i + 1) for i in range(5)]))
    for d in (1, 2, 5):
        pair = pick_pair_at_distance(gm, d, seed=4)
        assert pair is not None
        assert bfs_distance(gm.graph, *pair) == d


def test_pick_pair_no_such_distance():
    gm = MeaningGraph(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert pick_pair_at_distance(gm, 9, seed=0) is None


def test_pick_pair_deterministic_and_generator_friendly():
    gm = gen_er(80, 0.05, 2)
    assert pick_pair_at_distance(gm, 2, seed=11) == pick_pair_at_distance(gm, 2, seed=11)
    from meaninglab.rng import stream

    a = pick_pair_at_distance(gm, 2, stream(11, 1))
    b = pick_pair_at_distance(gm, 2, stream(11, 1))
    assert a == b


def test_pick_pair_covers_all_candidates():
    # Cycle of 4: the distance-2 ordered pairs are exactly the diagonals.
    gm = MeaningGraph(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    want = {(0, 2), (2, 0), (1, 3), (3, 1)}
    seen = {pick_pair_at_distance(gm, 2, seed=s) for s in range(200)}
    assert seen == want


PATH_6 = [(i, i + 1) for i in range(5)]
STAR_WITH_TAIL = [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("edges", [PATH_6, STAR_WITH_TAIL], ids=["path-6", "star-with-tail"])
def test_pick_pair_at_distance_is_uniform_over_ordered_pairs(edges, d):
    # Anchors on these graphs have rings of unequal size (at every d but
    # the path's d = 3), so a picker that drew an anchor and then a ring
    # member would favour the pairs of small-ring anchors. 200 picks per
    # ordered pair from one stream: a uniform picker fails the p < 1e-4
    # cut with probability 1e-4 per case, 6e-4 over the six (the seed is
    # fixed, so a given picker passes or fails every run).
    n = max(v for e in edges for v in e) + 1
    gm = MeaningGraph(Graph(n, edges))
    want = [(u, v) for u in range(n) for v in range(n) if u != v and bfs_distance(gm.graph, u, v) == d]
    picks = pick_pair_at_distance(gm, d, seed=2026, count=200 * len(want))
    counts = [picks.count(pair) for pair in want]
    assert sum(counts) == len(picks)
    assert scipy.stats.chisquare(counts).pvalue >= 1e-4


def test_pick_pair_rejects_bad_distance():
    with pytest.raises(ValueError):
        pick_pair_at_distance(gen_er(10, 0.2, 1), 0, seed=1)


def test_pick_disconnected_pair():
    gm = MeaningGraph(Graph(5, [(0, 1), (2, 3)]))
    pair = pick_disconnected_pair(gm, seed=3)
    assert pair is not None
    assert bfs_distance(gm.graph, *pair) is None


def test_pick_disconnected_pair_connected_graph():
    gm = MeaningGraph(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert pick_disconnected_pair(gm, seed=0) is None


def test_pick_disconnected_covers_cross_pairs():
    gm = MeaningGraph(Graph(3, [(0, 1)]))
    want = {(0, 2), (1, 2), (2, 0), (2, 1)}
    seen = {pick_disconnected_pair(gm, seed=s) for s in range(200)}
    assert seen == want


def test_pick_disconnected_uniformity():
    # 4 nodes, components {0,1} and {2,3}: 8 ordered cross pairs, each
    # should appear with frequency 1/8 over many seeds (4 sigma).
    gm = MeaningGraph(Graph(4, [(0, 1), (2, 3)]))
    runs = 1600
    counts: dict[tuple[int, int], int] = {}
    for s in range(runs):
        pair = pick_disconnected_pair(gm, seed=s)
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 8
    sd = math.sqrt(runs * (1 / 8) * (7 / 8))
    for c in counts.values():
        assert abs(c - runs / 8) <= 4 * sd
    # Equal components weight every anchor alike, so a picker that drew
    # the anchor uniformly would pass the case above. Components of sizes
    # 1, 2 and 3 give 22 ordered cross pairs whose anchors have 5, 4 or 3
    # partners; such a picker would favour the pairs with the lone node as
    # anchor. 200 picks per pair from one stream: a uniform picker fails
    # the p < 1e-4 cut with probability 1e-4 (the seed is fixed, so a
    # given picker passes or fails every run).
    gm = MeaningGraph(Graph(6, [(1, 2), (3, 4), (4, 5)]))
    comp = [0, 1, 1, 2, 2, 2]
    want = [(u, v) for u in range(6) for v in range(6) if comp[u] != comp[v]]
    assert len(want) == 22
    rng = np.random.default_rng(2026)
    picks = [pick_disconnected_pair(gm, rng) for _ in range(200 * len(want))]
    counts = [picks.count(pair) for pair in want]
    assert sum(counts) == len(picks)
    assert scipy.stats.chisquare(counts).pvalue >= 1e-4


class ScriptedDraws(np.random.Generator):
    """A Generator whose ``integers(high)`` returns the given values in turn."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values = iter(values)

    def integers(self, high):
        value = next(self.values)
        assert 0 <= value < high
        return value


def test_disconnected_partner_matches_the_scan_at_every_rank():
    # Components of sizes 6, 4, 3 and 2 interleaved in node order, and isolated nodes.
    paths = [[4, 12, 20, 21, 22, 23], [0, 5, 9, 17], [1, 2, 3], [6, 7]]
    gm = MeaningGraph(Graph(26, [(a, b) for path in paths for a, b in zip(path, path[1:])]))
    label = components(gm.graph)
    weights = gm.n - np.bincount(label)[label]
    first_draw = np.cumsum(weights) - weights  # the smallest anchor draw that lands on each node
    for u in range(gm.n):
        others = np.flatnonzero(label != label[u])
        for k in range(len(others)):
            pick = pick_disconnected_pair(gm, ScriptedDraws([first_draw[u], k]))
            assert pick == (u, int(others[k]))


# -- cut pairs ----------------------------------------------------------


def test_make_cut_pair_complete_graph():
    gm = MeaningGraph(Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]))
    cp = make_cut_pair(gm, 0, 3)
    assert cp.d == 1
    assert len(cp.cut) == 3
    assert bfs_distance(cp.g.graph.remove_edges(cp.cut), 0, 3) is None


def test_make_cut_pair_cycle_opposite():
    gm = MeaningGraph(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    cp = make_cut_pair(gm, 0, 2)
    assert cp.d == 2
    assert len(cp.cut) == 2


def test_make_cut_pair_path():
    gm = MeaningGraph(Graph(5, [(i, i + 1) for i in range(4)]))
    cp = make_cut_pair(gm, 0, 4)
    assert cp.d == 4
    assert len(cp.cut) == 1
    assert cp.g.graph is gm.graph  # original world untouched
    assert cp.g is gm
    assert cp.g.graph.remove_edges(cp.cut).edge_count == 3


def test_make_cut_pair_rejects_disconnected():
    gm = MeaningGraph(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="disconnected"):
        make_cut_pair(gm, 0, 3)


def test_make_cut_pair_rejects_equal_endpoints():
    gm = MeaningGraph(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(ValueError, match="^cut pair endpoints must differ$"):
        make_cut_pair(gm, 3, 3)


def test_make_cut_pair_searches_once_per_world(monkeypatch):
    # One search in g gives d, one in g' checks the cut: min_cut aside, a
    # pair costs two traversals.
    calls = []
    real = meaning.bfs_distance
    monkeypatch.setattr(meaning, "bfs_distance", lambda g, u, v: calls.append(g.edge_count) or real(g, u, v))
    cp = make_cut_pair(MeaningGraph(Graph(5, [(i, i + 1) for i in range(4)])), 0, 4)
    assert cp.d == 4 and calls == [4, 3]


def test_make_cut_pair_preserves_labels():
    # Both worlds are over gm's nodes: g is gm itself, labels included.
    gm = load_triples(DATA / "triples_small.tsv", "/film/")
    cp = make_cut_pair(gm, 0, 3)
    assert cp.g is gm
    assert cp.g.labels == gm.labels


def test_cut_pair_validates_invariants():
    path = MeaningGraph(Graph(3, [(0, 1), (1, 2)]))
    assert CutPair(g=path, m=0, m_prime=2, cut=((0, 1),)).d == 2
    with pytest.raises(ValueError, match="absent edge"):
        CutPair(g=path, m=0, m_prime=2, cut=((0, 2),))
    triangle = MeaningGraph(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(ValueError, match="still connected"):
        CutPair(g=triangle, m=0, m_prime=1, cut=((0, 1),))


def test_cut_pair_rejects_a_disconnected_pair():
    gm = MeaningGraph(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="^nodes 0 and 3 are already disconnected$"):
        CutPair(g=gm, m=0, m_prime=3, cut=())


def test_cut_size_never_exceeds_min_degree():
    # The star of either endpoint is itself a cut, so a minimum cut can
    # never exceed the 1-ball bound; exercised over random graphs.
    for s in range(12):
        gm = gen_er(30, 0.1, s)
        pair = pick_pair_at_distance(gm, 2, seed=s)
        if pair is None:
            continue
        cp = make_cut_pair(gm, *pair)
        assert len(cp.cut) <= min(gm.graph.degrees[list(pair)])
        assert len(cp.cut) <= gm.graph.max_degree() + 1
