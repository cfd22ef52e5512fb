"""Symbol-graph sampling: channels, folding, coupling, serialization."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meaninglab.bounds import gilbert_bounds
from meaninglab.graph import Graph, components
from meaninglab.meaning import MeaningGraph, gen_er, make_cut_pair
from meaninglab.rng import (
    STREAM_SIM_CROSS,
    STREAM_SIM_INTRA,
    STREAM_STRUCT_NEG,
    STREAM_STRUCT_POS,
    index_to_pair,
    pair_count,
    skip_sample,
    stream,
)
from meaninglab.sampler import (
    SIMILARITY,
    STRUCTURAL,
    PairClass,
    SampleParams,
    SymbolGraph,
    edge_probability,
    fold_noise,
    read_symbol_graph,
    sample_coupled,
    sample_symbol_graph,
    write_symbol_graph,
)
from meaninglab.sampler import _check_edges, _merge_kinds, _symbol_graph

from oracles import component_lists, count_edges_by_class, edges


def params(p_plus=0.8, p_minus=0.01, eps_plus=0.2, eps_minus=0.05, lam=2, fold=False):
    return SampleParams(p_plus, p_minus, eps_plus, eps_minus, lam, fold)


def kind_edges(sg: SymbolGraph, kind: int) -> frozenset:
    """The edges whose kind byte has ``kind``, as (u, v) pairs with u < v."""
    edges = sg.graph.edge_array()[(sg.kind_array & kind).astype(bool)]
    return frozenset(zip(edges[:, 0].tolist(), edges[:, 1].tolist()))


# -- parameters and folding --------------------------------------------


def test_fold_noise_values():
    assert fold_noise(0.0, 0.0) == 0.0
    assert fold_noise(1.0, 0.3) == 1.0
    assert fold_noise(0.5, 0.5) == 0.75
    assert fold_noise(0.2, 0.0) == 0.2


@given(st.floats(0, 1), st.floats(0, 1))
@example(1.0, 0.599623917613144)  # p+eps-p*eps alone rounds below 1 here
def test_fold_noise_symmetric_and_bounded(p, eps):
    folded = fold_noise(p, eps)
    assert folded == fold_noise(eps, p)
    assert max(p, eps) <= folded <= 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        params(p_plus=1.2)
    with pytest.raises(ValueError):
        params(lam=0)
    with pytest.raises(ValueError):
        SampleParams(0.5, 0.1, 0.1, 0.1, 2.0)  # lam must be an int


def test_effective_folds_once():
    p = params(fold=True)
    eff = p.effective()
    assert eff.p_plus == fold_noise(p.p_plus, p.eps_minus)
    assert eff.p_minus == fold_noise(p.p_minus, p.eps_minus)
    assert eff.eps_minus == 0.0
    assert eff.eps_plus == p.eps_plus
    assert not eff.fold
    assert eff.effective() == eff
    assert params(fold=False).effective() == params(fold=False)


def test_edge_probability_invariant_under_folding():
    p = params()
    for cls in PairClass:
        assert edge_probability(p, cls) == edge_probability(p.effective(), cls)
        folded = params(fold=True)
        assert edge_probability(folded.effective(), cls) == edge_probability(folded, cls)


# -- single-world sampling ---------------------------------------------


def test_identity_channel_reproduces_meaning_graph():
    # Faithful structural channel, no noise, one replica per node: the
    # symbol graph must equal the meaning graph exactly.
    gm = gen_er(60, 0.08, 7)
    sg = sample_symbol_graph(gm, SampleParams(1.0, 0.0, 1.0, 0.0, 1), seed=3)
    assert sg.graph == gm.graph
    assert kind_edges(sg, SIMILARITY) == frozenset()
    assert kind_edges(sg, STRUCTURAL) == frozenset(edges(gm.graph))


def test_replication_and_origin():
    gm = gen_er(20, 0.1, 1)
    sg = sample_symbol_graph(gm, params(lam=3), seed=5)
    assert sg.graph.n == 60
    # Symbol w descends from meaning node w // lam.
    assert [sg.representative(m) // sg.lam for m in range(20)] == list(range(20))
    assert sg.representative(4) == 12


def test_no_structural_edge_inside_any_cluster():
    sg = sample_symbol_graph(gen_er(40, 0.1, 2), params(lam=3), seed=9)
    for u, v in kind_edges(sg, STRUCTURAL):
        assert u // 3 != v // 3


def test_class_counts_cover_union():
    gm = gen_er(40, 0.1, 2)
    sg = sample_symbol_graph(gm, params(lam=3), seed=9)
    counts = count_edges_by_class(sg, gm)
    assert sum(counts.values()) == sg.graph.edge_count


def test_deterministic_in_seed():
    gm = gen_er(30, 0.1, 4)
    a = sample_symbol_graph(gm, params(), seed=11)
    b = sample_symbol_graph(gm, params(), seed=11)
    c = sample_symbol_graph(gm, params(), seed=12)
    assert a.graph == b.graph and a.kinds == b.kinds
    assert c.graph != a.graph


def test_structural_count_within_4_sigma():
    gm = gen_er(50, 0.1, 6)
    p = params(p_plus=0.7, p_minus=0.02, eps_minus=0.0, lam=2)
    e = gm.edge_count
    non = pair_count(50) - e
    slots_pos, slots_neg = e * 4, non * 4
    mean = slots_pos * 0.7 + slots_neg * 0.02
    var = slots_pos * 0.7 * 0.3 + slots_neg * 0.02 * 0.98
    total = 0
    runs = 40
    for s in range(runs):
        total += len(kind_edges(sample_symbol_graph(gm, p, seed=s), STRUCTURAL))
    assert abs(total - runs * mean) <= 4 * math.sqrt(runs * var)


def test_similarity_count_within_4_sigma():
    gm = gen_er(50, 0.1, 6)
    p = params(eps_plus=0.3, eps_minus=0.04, lam=3)
    intra_slots = 50 * 3  # C(3, 2) per cluster
    cross_slots = pair_count(50) * 9
    mean = intra_slots * 0.7 + cross_slots * 0.04
    var = intra_slots * 0.7 * 0.3 + cross_slots * 0.04 * 0.96
    total = 0
    runs = 40
    for s in range(runs):
        total += len(kind_edges(sample_symbol_graph(gm, p, seed=s), SIMILARITY))
    assert abs(total - runs * mean) <= 4 * math.sqrt(runs * var)


def test_folding_preserves_union_distribution():
    # Same per-class analytic probabilities either way; verify the union
    # edge totals agree with them under both modes, 4 sigma.
    gm = gen_er(30, 0.12, 8)
    base = dict(p_plus=0.7, p_minus=0.03, eps_plus=0.25, eps_minus=0.06, lam=2)
    runs = 120
    e = gm.edge_count
    non = pair_count(30) - e
    slot_counts = {
        PairClass.MEANING_EDGE: e * 4,
        PairClass.MEANING_NON_EDGE: non * 4,
        PairClass.INTRA_CLUSTER: 30,
    }
    for fold in (False, True):
        p = SampleParams(fold=fold, **base)
        totals = {c: 0 for c in PairClass}
        for s in range(runs):
            counts = count_edges_by_class(sample_symbol_graph(gm, p, seed=s), gm)
            for c in PairClass:
                totals[c] += counts[c]
        for c in PairClass:
            prob = edge_probability(p, c)
            mean = runs * slot_counts[c] * prob
            sd = math.sqrt(runs * slot_counts[c] * prob * (1 - prob))
            assert abs(totals[c] - mean) <= 4 * sd, (fold, c)


def test_folded_run_has_no_cross_similarity():
    gm = gen_er(30, 0.12, 8)
    sg = sample_symbol_graph(gm, params(eps_minus=0.1, fold=True), seed=1)
    for u, v in kind_edges(sg, SIMILARITY):
        assert u // sg.lam == v // sg.lam


def test_cluster_connectivity_matches_channel_probability():
    # Isolated clusters under lam=2: connected iff the one similarity
    # slot fired, so the frequency estimates 1 - eps_plus directly.
    gm = MeaningGraph(Graph(150))
    p = SampleParams(0.9, 0.0, 0.3, 0.0, 2)
    runs = 30
    connected = 0
    for s in range(runs):
        drawn = set(edges(sample_symbol_graph(gm, p, seed=s).graph))
        for m in range(150):
            if (2 * m, 2 * m + 1) in drawn:
                connected += 1
    trials = runs * 150
    mean, sd = trials * 0.7, math.sqrt(trials * 0.7 * 0.3)
    assert abs(connected - mean) <= 4 * sd


def test_cluster_connectivity_respects_gilbert_bound():
    # G(5, 0.75) clusters: empirical connectivity frequency must sit at
    # or above the closed-form lower bound minus sampling error.
    gm = MeaningGraph(Graph(80))
    p = SampleParams(0.9, 0.0, 0.25, 0.0, 5)
    runs = 25
    connected = 0
    for s in range(runs):
        sg = sample_symbol_graph(gm, p, seed=s)
        label = components(sg.graph).reshape(80, 5)
        connected += int(np.count_nonzero((label == label[:, :1]).all(axis=1)))
    trials = runs * 80
    frequency = connected / trials
    bound = gilbert_bounds(5, 0.75).exact
    assert frequency >= bound - 4 * math.sqrt(0.25 / trials)


# -- coupled sampling ---------------------------------------------------


def cut_fixture(seed=3):
    gm = gen_er(40, 0.12, seed)
    big = max(component_lists(gm.graph), key=len)
    return make_cut_pair(gm, big[0], big[-1])


def test_coupled_first_world_equals_plain_sample():
    cp = cut_fixture()
    p = params(p_plus=0.7, p_minus=0.05, lam=2)
    sg, _ = sample_coupled(cp, p, seed=21)
    plain = sample_symbol_graph(cp.g, p, seed=21)
    assert sg.graph == plain.graph
    assert kind_edges(sg, STRUCTURAL) == kind_edges(plain, STRUCTURAL)
    assert kind_edges(sg, SIMILARITY) == kind_edges(plain, SIMILARITY)


def test_coupled_worlds_differ_only_over_cut():
    cp = cut_fixture()
    p = params(p_plus=0.7, p_minus=0.05, lam=2)
    sg, sg_prime = sample_coupled(cp, p, seed=21)
    assert kind_edges(sg, SIMILARITY) == kind_edges(sg_prime, SIMILARITY)
    cut_set = set(cp.cut)
    for u, v in kind_edges(sg, STRUCTURAL) ^ kind_edges(sg_prime, STRUCTURAL):
        mu, mv = u // 2, v // 2
        assert (min(mu, mv), max(mu, mv)) in cut_set


def test_coupled_monotone_when_p_minus_below_p_plus():
    cp = cut_fixture()
    sg, sg_prime = sample_coupled(cp, params(p_plus=0.7, p_minus=0.05, lam=2), seed=4)
    assert kind_edges(sg_prime, STRUCTURAL) <= kind_edges(sg, STRUCTURAL)


@pytest.mark.parametrize(
    "p_plus, p_minus, fold",
    [(0.7, 0.05, False), (0.05, 0.7, False), (0.6, 0.2, True), (0.2, 0.6, True)],
)
def test_coupled_worlds_are_nested(p_plus, p_minus, fold):
    # Cut slots share one uniform across the worlds, so the world with the
    # larger cut-slot probability holds every union edge of the other.
    cp = cut_fixture()
    p = params(p_plus=p_plus, p_minus=p_minus, eps_minus=0.05, lam=2, fold=fold)
    grew = 0
    for seed in range(6):
        sg, sg_prime = sample_coupled(cp, p, seed=seed)
        small, big = (sg_prime, sg) if p_minus <= p_plus else (sg, sg_prime)
        assert set(edges(small.graph)) <= set(edges(big.graph))
        grew += big.graph.edge_count > small.graph.edge_count
    assert grew


def test_coupled_cut_slot_marginal_frequency():
    # In the g' world each of the |cut|*lam^2 cut slots fires with
    # probability p_minus; check the long-run total, 4 sigma.
    cp = cut_fixture()
    p = params(p_plus=0.7, p_minus=0.15, lam=2)
    cut_set = set(cp.cut)
    slots = len(cp.cut) * 4
    runs = 250
    hits = 0
    for s in range(runs):
        _, sg_prime = sample_coupled(cp, p, seed=s)
        for u, v in kind_edges(sg_prime, STRUCTURAL):
            if (u // 2, v // 2) in cut_set:
                hits += 1
    mean = runs * slots * 0.15
    sd = math.sqrt(runs * slots * 0.15 * 0.85)
    assert abs(hits - mean) <= 4 * sd


def test_coupled_deterministic():
    cp = cut_fixture()
    a = sample_coupled(cp, params(), seed=2)
    b = sample_coupled(cp, params(), seed=2)
    assert a[0].graph == b[0].graph and a[1].graph == b[1].graph


# -- invariants over random instances ----------------------------------


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 12),
    p_edge=st.floats(0.0, 0.6),
    lam=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_sampled_graph_invariants(n, p_edge, lam, seed):
    gm = gen_er(n, p_edge, seed)
    p = SampleParams(0.8, 0.05, 0.3, 0.1, lam)
    sg = sample_symbol_graph(gm, p, seed=seed + 1)
    assert sg.graph.n == lam * n
    assert kind_edges(sg, STRUCTURAL) | kind_edges(sg, SIMILARITY) == set(edges(sg.graph))
    for u, v in kind_edges(sg, STRUCTURAL):
        assert u // lam != v // lam
    again = sample_symbol_graph(gm, p, seed=seed + 1)
    assert again.graph == sg.graph


# -- key assembly against the pair-array reference ----------------------


def reference_sample(gm, params, seed, cut=None):
    """The pair-array assembly the edge-key passes replaced, as ``(graph, kinds)`` per world.

    Each pass emits ``(u, v)`` rows, ``Graph`` sorts them, and the kind
    bytes come from searching the graph's ``edge_array()`` keys.
    """
    eff = params.effective()
    n, lam = gm.n, eff.lam
    big = lam * n

    def symbol_pairs(m1, m2, slot):
        return np.column_stack((lam * m1 + slot // lam, lam * m2 + slot % lam))

    def negative_hits(p, stream_id):
        hits = skip_sample(stream(seed, stream_id), pair_count(n) * lam * lam, p)
        m1, m2 = index_to_pair(hits // (lam * lam), n)
        return m1, m2, hits % (lam * lam)

    def assemble(structural, similarity):
        structural = structural.reshape(-1, 2)
        similarity = similarity.reshape(-1, 2)
        graph = Graph(big, np.concatenate((structural, similarity)))
        edges = graph.edge_array()
        keys = edges[:, 0] * big + edges[:, 1]
        kinds = np.zeros(len(keys), dtype=np.uint8)
        kinds[np.searchsorted(keys, structural[:, 0] * big + structural[:, 1])] |= STRUCTURAL
        kinds[np.searchsorted(keys, similarity[:, 0] * big + similarity[:, 1])] |= SIMILARITY
        return graph, kinds.tobytes()

    edges = gm.graph.edge_array()
    edge_keys = edges[:, 0] * n + edges[:, 1]
    u = stream(seed, STREAM_STRUCT_POS).random((len(edges), lam * lam))
    hit = u < eff.p_plus
    worlds = [hit]
    if cut is not None:
        cut = np.sort(np.reshape(cut, (-1, 2)), axis=1)
        in_cut = np.isin(edge_keys, cut[:, 0] * n + cut[:, 1])
        hit_gp = hit.copy()
        hit_gp[in_cut] = u[in_cut] < eff.p_minus
        worlds.append(hit_gp)
    m1, m2, slot = negative_hits(eff.p_minus, STREAM_STRUCT_NEG)
    keep = ~np.isin(m1 * n + m2, edge_keys)
    negative = symbol_pairs(m1[keep], m2[keep], slot[keep])
    a, b = np.triu_indices(lam, 1)
    midx, k = np.nonzero(stream(seed, STREAM_SIM_INTRA).random((n, len(a))) < (1.0 - eff.eps_plus))
    intra = np.column_stack((lam * midx + a[k], lam * midx + b[k]))
    m1, m2, slot = negative_hits(eff.eps_minus, STREAM_SIM_CROSS)
    similarity = np.concatenate((intra, symbol_pairs(m1, m2, slot)))
    out = []
    for world in worlds:
        eidx, slot = np.nonzero(world)
        positive = symbol_pairs(edges[eidx, 0], edges[eidx, 1], slot)
        out.append(assemble(np.concatenate((positive, negative)), similarity))
    return out


def assert_same_assembly(sg: SymbolGraph, want) -> None:
    graph, kinds = want
    assert sg.graph.n == graph.n
    for name in ("indptr", "indices", "degrees"):
        assert np.array_equal(getattr(sg.graph, name), getattr(graph, name)), name
    assert sg.kinds == kinds


probability = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    p_edge=st.floats(0.0, 0.3),
    probs=st.tuples(probability, probability, probability, probability),
    lam=st.integers(1, 4),
    fold=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_edge_key_assembly_matches_pair_reference(n, p_edge, probs, lam, fold, seed):
    gm = gen_er(n, p_edge, seed)
    p = SampleParams(*probs, lam, fold)
    assert_same_assembly(sample_symbol_graph(gm, p, seed=seed + 1), reference_sample(gm, p, seed + 1)[0])
    big = max(component_lists(gm.graph), key=len)
    if len(big) > 1:
        cp = make_cut_pair(gm, big[0], big[-1])
        worlds = sample_coupled(cp, p, seed=seed + 2)
        for sg, want in zip(worlds, reference_sample(cp.g, p, seed + 2, cp.cut), strict=True):
            assert_same_assembly(sg, want)


def merge_oracle(structural, similarity) -> dict[int, int]:
    """Each key's kind byte, from a plain dict."""
    kinds: dict[int, int] = {}
    for keys, kind in ((structural, STRUCTURAL), (similarity, SIMILARITY)):
        for key in keys:
            kinds[key] = kinds.get(key, 0) | kind
    return kinds


def assert_merge_matches_oracle(structural, similarity) -> None:
    keys, kinds = _merge_kinds(np.array(structural, dtype=np.int64), np.array(similarity, dtype=np.int64))
    want = merge_oracle(structural, similarity)
    assert keys.dtype == np.int64 and kinds.dtype == np.uint8
    assert keys.tolist() == sorted(want)
    assert kinds.tolist() == [want[k] for k in sorted(want)]


@pytest.mark.parametrize(
    "structural, similarity",
    [
        ([], []),
        ([1, 4, 9], []),  # one kind only
        ([], [0, 2, 7]),
        ([3, 5, 8], [3, 5, 8]),  # every edge in both kinds
        ([2, 2, 6], [1, 6, 6, 6]),  # keys repeated within one kind, as the reader passes them
        ([0, 0, 0], [0]),
        ([5], [0, 5, 5, 11]),
    ],
)
def test_merge_kinds_matches_dict_oracle(structural, similarity):
    assert_merge_matches_oracle(structural, similarity)


@settings(max_examples=200, deadline=None)
@given(
    structural=st.lists(st.integers(0, 40), max_size=30),
    similarity=st.lists(st.integers(0, 40), max_size=30),
)
def test_merge_kinds_matches_dict_oracle_on_random_keys(structural, similarity):
    assert_merge_matches_oracle(sorted(structural), sorted(similarity))


def test_merge_kinds_keeps_keys_near_int64_max():
    # Tagging doubles a key in uint64, so the largest int64 keys must survive it.
    top = 2**63 - 1
    assert_merge_matches_oracle([0, top - 2, top], [top - 3, top - 2, top])
    assert_merge_matches_oracle([top - 1, top - 1], [top])


@pytest.mark.parametrize(
    "keyed, graph, kinds, error",
    [
        (([1], [], 4), Graph(4, [(0, 1)]), [STRUCTURAL], "structural edge (0, 1) inside a cluster"),
        (([6, 11], [2, 11], 4), Graph(4, [(0, 2), (1, 2), (2, 3)]), [SIMILARITY, STRUCTURAL, 3],
         "structural edge (2, 3) inside a cluster"),
        (([], [], 5), Graph(5, []), [], "5 symbol nodes is not a multiple of lam = 2"),
        (([3], [8], 5), Graph(5, [(0, 3), (1, 3)]), [STRUCTURAL, SIMILARITY],
         "5 symbol nodes is not a multiple of lam = 2"),
    ],
)
def test_keyed_assembly_refuses_what_the_constructor_refuses(keyed, graph, kinds, error):
    structural, similarity, n = keyed
    with pytest.raises(ValueError) as from_keys:
        _symbol_graph(np.array(structural, dtype=np.int64), np.array(similarity, dtype=np.int64), n, params(), 0)
    with pytest.raises(ValueError) as from_graph:
        SymbolGraph(graph, bytes(kinds), params(), 0)
    assert str(from_keys.value) == str(from_graph.value) == error


def test_keyed_assembly_equals_the_checked_constructor():
    sg = sample_symbol_graph(gen_er(30, 0.2, 3), params(), seed=4)
    assert SymbolGraph(sg.graph, sg.kinds, sg.params, sg.seed) == sg


# -- serialization ------------------------------------------------------


def test_symbol_graph_round_trip(tmp_path):
    gm = gen_er(25, 0.15, 3)
    sg = sample_symbol_graph(gm, params(lam=3), seed=17)
    path = tmp_path / "sg.tsv"
    write_symbol_graph(sg, path)
    back = read_symbol_graph(path)
    assert back == sg


def test_symbol_graph_write_is_byte_stable(tmp_path):
    sg = sample_symbol_graph(gen_er(20, 0.2, 1), params(), seed=5)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_symbol_graph(sg, a)
    write_symbol_graph(sg, b)
    assert a.read_bytes() == b.read_bytes()


def test_dual_kind_edge_round_trip(tmp_path):
    # A cross-cluster pair can carry both kinds; both survive a round trip.
    sg = SymbolGraph(
        graph=Graph(4, [(0, 1), (0, 3)]),
        kinds=bytes([SIMILARITY, STRUCTURAL | SIMILARITY]),
        params=params(),
        seed=0,
    )
    assert kind_edges(sg, STRUCTURAL) == {(0, 3)} and kind_edges(sg, SIMILARITY) == {(0, 1), (0, 3)}
    path = tmp_path / "dual.tsv"
    write_symbol_graph(sg, path)
    text = path.read_text()
    assert "0\t3\tS\n" in text and "0\t3\tR\n" in text
    assert read_symbol_graph(path) == sg


def test_read_symbol_graph_names_missing_header_field(tmp_path):
    path = tmp_path / "bare.tsv"
    path.write_text("# symbol-graph meaning-nodes=1 lambda=2 seed=0\n0\t1\tR\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: missing header field 'p_plus'")):
        read_symbol_graph(path)


@pytest.mark.parametrize(
    "header, error",
    [
        ("meaning-nodes=1 lambda=two seed=0", "header field 'lambda' is not an integer: 'two'"),
        ("meaning-nodes=1 lambda=2 seed=0.5", "header field 'seed' is not an integer: '0.5'"),
        # int() would read the Arabic-Indic digit as 2; the writer writes ASCII only.
        ("meaning-nodes=1 lambda=\u0662 seed=0", "header field 'lambda' is not an integer: '\u0662'"),
        ("meaning-nodes=1 lambda 2 seed=0", "header field 'lambda' is not name=value"),
        ("meaning-nodes=-1 lambda=2 seed=0", "header field 'meaning-nodes' is negative: -1"),
        ("meaning-nodes=1 lambda=0 seed=0", "lam must be a positive integer, got 0"),
        ("meaning-nodes=1 lambda=2 seed=0 p_plus=2.0", "p_plus=2.0 outside [0, 1]"),
        ("meaning-nodes=1 lambda=2 seed=0 fold=2", "header field 'fold' is not 0 or 1: '2'"),
        # int() and float() take these, but the writer never writes them.
        ("meaning-nodes=1 lambda=2 seed=1_0", "header field 'seed' is not an integer: '1_0'"),
        ("meaning-nodes=1 lambda=+2 seed=0", "header field 'lambda' is not an integer: '+2'"),
        ("meaning-nodes=1 lambda=2 seed=0 p_plus=1_0e-1", "header field 'p_plus' is not a number: '1_0e-1'"),
        ("meaning-nodes=1 lambda=2 seed=0 p_plus=1", "header field 'p_plus' is not a number: '1'"),
        ("meaning-nodes=1 lambda=2 seed=0 p_minus=1e-3", "header field 'p_minus' is not a number: '1e-3'"),
        ("meaning-nodes=1 lambda=2 seed=0 eps_plus=.5", "header field 'eps_plus' is not a number: '.5'"),
        ("meaning-nodes=1 lambda=2 seed=0 eps_minus=nan", "header field 'eps_minus' is not a number: 'nan'"),
    ],
)
def test_read_symbol_graph_names_malformed_header_field(tmp_path, header, error):
    path = tmp_path / "bad-header.tsv"
    # The reader takes a field from either header line; the params line leaves out those the case sets.
    given = {item.partition("=")[0] for item in header.split()}
    params = " ".join(
        item for item in "p_plus=0.9 p_minus=0.001 eps_plus=0.01 eps_minus=0.001 fold=0".split()
        if item.partition("=")[0] not in given
    )
    path.write_text(f"# symbol-graph {header}\n# params {params}\n0\t1\tR\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
        read_symbol_graph(path)


@pytest.mark.parametrize(
    "head, field",
    [
        # Both header lines name lambda and seed; the second must not override the first.
        (
            "# symbol-graph meaning-nodes=2 lambda=2 seed=0\n"
            "# params p_plus=0.8 p_minus=0.01 eps_plus=0.2 eps_minus=0.05 fold=0 lambda=1 seed=7\n",
            "lambda",
        ),
        (
            "# symbol-graph meaning-nodes=2 lambda=2 seed=0 seed=0\n"
            "# params p_plus=0.8 p_minus=0.01 eps_plus=0.2 eps_minus=0.05 fold=0\n",
            "seed",
        ),
        (
            "# symbol-graph meaning-nodes=2 lambda=2 seed=0\n"
            "# params p_plus=0.8 p_minus=0.01 eps_plus=0.2 eps_minus=0.05 fold=0\n# params p_plus=0.5\n",
            "p_plus",
        ),
    ],
)
def test_read_symbol_graph_refuses_a_repeated_header_field(tmp_path, head, field):
    path = tmp_path / "repeated.tsv"
    path.write_text(head + "0\t1\tS\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: header field {field!r} repeated")):
        read_symbol_graph(path)


@pytest.mark.parametrize(
    "lam, nodes",
    [(10**20, 2), (2, 10**20), (4_000_000_000, 4_000_000_000), (10**20, 0)],
)
def test_read_symbol_graph_refuses_a_symbol_count_whose_keys_overflow(tmp_path, lam, nodes):
    # Each used to end in a bare OverflowError. The header is refused before
    # any array as long as the symbol count is made; the last one has no symbols,
    # but its lambda alone overflows the origin check.
    path = tmp_path / "huge.tsv"
    path.write_text(
        f"# symbol-graph meaning-nodes={nodes} lambda={lam} seed=0\n"
        "# params p_plus=0.8 p_minus=0.01 eps_plus=0.2 eps_minus=0.05 fold=0\n0\t1\tR\n"
    )
    error = f"{path}: header fields 'lambda'={lam} and 'meaning-nodes'={nodes} allow more than 3037000499 symbols"
    with pytest.raises(ValueError, match=re.escape(error)):
        read_symbol_graph(path)


@pytest.mark.parametrize("p", [0.0, 1.0, 0.5, 1 / 3, 1e-4, 9.5e-05, 1e-06, 2.5e-10, 5e-324])
def test_read_symbol_graph_takes_every_probability_repr_writes(tmp_path, p):
    # Fixed-point with a fraction, and one digit with an optional fraction
    # and a signed exponent of two or three digits.
    path = tmp_path / "probability.tsv"
    path.write_text(
        "# symbol-graph meaning-nodes=1 lambda=2 seed=-3\n"
        f"# params p_plus=0.9 p_minus={p!r} eps_plus=0.01 eps_minus=0.001 fold=0\n0\t1\tR\n"
    )
    sg = read_symbol_graph(path)
    assert sg.params.p_minus == p and sg.seed == -3


def test_read_symbol_graph_names_malformed_params_float(tmp_path):
    path = tmp_path / "bad-params.tsv"
    path.write_text(
        "# symbol-graph meaning-nodes=1 lambda=2 seed=0\n"
        "# params p_plus=0.9 p_minus=1e-3x eps_plus=0.01 eps_minus=0.001 fold=0\n0\t1\tR\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: header field 'p_minus' is not a number: '1e-3x'")):
        read_symbol_graph(path)


def test_read_symbol_graph_rejects_bad_kind(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# symbol-graph meaning-nodes=1 lambda=2 seed=0\n0\t1\tX\n")
    with pytest.raises(ValueError, match=":2"):
        read_symbol_graph(path)


HEADER = "# symbol-graph meaning-nodes=2 lambda=2 seed=0\n# params p_plus=0.8 p_minus=0.01 eps_plus=0.2 eps_minus=0.05 fold=0\n"


@pytest.mark.parametrize(
    "lines, error",
    [
        ("0\t4\tS\n", r"edge \(0, 4\) out of range for 4 nodes"),
        ("0\t6\tR\n", r"edge \(0, 6\) out of range for 4 nodes"),  # key 6 would alias (1, 2)
        ("0\t2\tS\n-1\t3\tS\n", r"edge \(-1, 3\) out of range for 4 nodes"),
        ("1\t1\tR\n", "self-loop at node 1"),
        ("0\t1\tS\n", r"structural edge \(0, 1\) inside a cluster"),
    ],
)
def test_read_symbol_graph_rejects_bad_edges(tmp_path, lines, error):
    path = tmp_path / "bad.tsv"
    path.write_text(HEADER + lines)
    with pytest.raises(ValueError, match=error):
        read_symbol_graph(path)


@pytest.mark.parametrize(
    "lines, line, error",
    [
        ("x\t1\tR\n", 3, "expected 'u<TAB>v<TAB>S|R', got 'x\\t1\\tR'"),
        ("0\t3\tS\n" + "9" * 20 + "\t1\tR\n", 4, "expected 'u<TAB>v<TAB>S|R', got '" + "9" * 20),
        ("0\t3\tS\n#origin 3 y\n", 4, "bad origin line '#origin 3 y'"),
        # Non-ASCII digits and spaces, which str methods and a Unicode \d or \s would take.
        ("\u0660\t\u0663\tS\n", 3, "expected 'u<TAB>v<TAB>S|R', got '\u0660\\t\u0663\\tS'"),
        ("0\t3\tS\u2003\n", 3, "expected 'u<TAB>v<TAB>S|R', got '0\\t3\\tS\\u2003'"),
        ("#origin \u0660 \u0660\n", 3, "bad origin line '#origin \u0660 \u0660'"),
        ("0\t3\tS\n0\t99\tR\n", 4, "edge (0, 99) out of range for 4 nodes"),
        ("1\t1\tR\n", 3, "self-loop at node 1"),
        ("0\t3\tS\n#origin 0 0\n#origin 1 1\n", 5, "origin line maps 1 to 1, expected 0"),
        ("#origin 100 50\n", 3, "origin line lists symbol 100, expected 0"),
        ("#origin 0 0\n#origin 0 0\n", 4, "origin line lists symbol 0, expected 1"),
        ("".join(f"#origin {w} {w // 2}\n" for w in range(5)), 7, "origin line lists more than the 4 symbols"),
        ("0\t3\tS\n1\t0\tS\n", 4, "structural edge (0, 1) inside a cluster"),
    ],
)
def test_read_symbol_graph_names_the_file_and_line(tmp_path, lines, line, error):
    path = tmp_path / "bad.tsv"
    path.write_text(HEADER + lines)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {error}")):
        read_symbol_graph(path)


@pytest.mark.parametrize("count", [1, 3])
def test_read_symbol_graph_names_a_short_origin_block(tmp_path, count):
    # A whole block is read by the round-trip tests, and no block by the edge-line ones.
    path = tmp_path / "origins.tsv"
    path.write_text(HEADER + "".join(f"#origin {w} {w // 2}\n" for w in range(count)) + "0\t3\tS\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: origin block lists {count} of 4 symbols")):
        read_symbol_graph(path)


def test_read_symbol_graph_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(HEADER.encode() + "0\t3\tS\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text (")):
        read_symbol_graph(path)


@pytest.mark.parametrize(
    "lines, kinds",
    [
        ("3\t0\tS\n1\t0\tR\n", {(0, 1): SIMILARITY, (0, 3): STRUCTURAL}),  # reversed lines
        ("0\t3\tS\n0\t3\tS\n0\t1\tR\n0\t1\tR\n", {(0, 1): SIMILARITY, (0, 3): STRUCTURAL}),  # duplicates
        ("0\t3\tS\n0\t3\tR\n", {(0, 3): STRUCTURAL | SIMILARITY}),
        ("0\t3\tR\n1\t2\tS\n0\t3\tS\n", {(0, 3): STRUCTURAL | SIMILARITY, (1, 2): STRUCTURAL}),
    ],
)
def test_read_symbol_graph_merges_edge_lines(tmp_path, lines, kinds):
    path = tmp_path / "edges.tsv"
    path.write_text(HEADER + lines)
    sg = read_symbol_graph(path)
    assert dict(zip(edges(sg.graph), sg.kinds)) == kinds
    assert sg.graph == Graph(4, list(kinds))


def test_symbol_graph_constructor_rejects_intra_structural():
    with pytest.raises(ValueError, match="inside a cluster"):
        SymbolGraph(
            graph=Graph(4, [(0, 1)]),
            kinds=bytes([STRUCTURAL]),
            params=params(),
            seed=0,
        )


@pytest.mark.parametrize("kinds", [b"", bytes([1, 0]), bytes([1, 4]), bytes([1, 2, 3])])
def test_symbol_graph_constructor_rejects_bad_kinds(kinds):
    with pytest.raises(ValueError, match="one nonzero kind per union edge"):
        SymbolGraph(
            graph=Graph(4, [(0, 2), (1, 3)]),
            kinds=kinds,
            params=params(),
            seed=0,
        )
    # The check on the keys of the same two edges, as the sampler and the reader run it.
    with pytest.raises(ValueError, match="one nonzero kind per union edge"):
        _check_edges(np.array([2, 7], dtype=np.int64), np.frombuffer(kinds, dtype=np.uint8), 4, 2)


def test_symbol_graph_constructor_rejects_wrong_node_count():
    with pytest.raises(ValueError, match="5 symbol nodes is not a multiple of lam = 2"):
        SymbolGraph(Graph(5, []), b"", params(), 0)

