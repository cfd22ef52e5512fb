"""Induced Laplacians, Lanczos spectral norms, coupled trials."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import meaninglab.spectral
from meaninglab.graph import Graph
from meaninglab.meaning import gen_er, make_cut_pair, pick_pair_at_distance
from meaninglab.reasoning import DTildeMode, choose_d_tilde
from meaninglab.sampler import SampleParams, sample_coupled
from meaninglab.spectral import (
    SPECTRAL_CSV_HEADER,
    coupled_cut_trial,
    laplacian_of,
    spectral_csv_record,
    spectral_norm,
)

from oracles import component_lists, dense_operator, edges, to_networkx


def complete_graph(n: int) -> Graph:
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def columns(lap) -> np.ndarray:
    """The matrix of an operator, one ``lap @ e_j`` column at a time."""
    return np.column_stack([lap @ e for e in np.eye(lap.shape[0])])


# -- induced Laplacians -------------------------------------------------


def test_laplacian_of_path():
    g = Graph(3, [(0, 1), (1, 2)])
    lap = laplacian_of(g, [0, 1, 2])
    want = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(columns(lap), want)


def test_laplacian_uses_induced_degrees():
    g = Graph(3, [(0, 1), (1, 2)])
    lap = laplacian_of(g, [0, 1])
    # Node 1 has degree 2 in g but only 1 inside the subset.
    assert np.array_equal(columns(lap), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_row_sums_zero_random():
    g = gen_er(40, 0.15, 3).graph
    m = columns(laplacian_of(g, range(25)))
    assert np.array_equal(m, m.T)
    assert np.all(m.sum(axis=1) == 0.0)


@st.composite
def induced_subsets(draw, max_nodes=40):
    """A sparse graph (isolated nodes likely) and an unsorted node subset."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    g = Graph(n, [(u, v) for u, v in edges if u != v])
    nodes = draw(st.lists(node, min_size=1, max_size=n, unique=True))
    return g, nodes


@settings(max_examples=150, deadline=None)
@given(induced_subsets(), st.data())
def test_laplacian_matvec_matches_networkx(case, data):
    g, nodes = case
    want = nx.laplacian_matrix(to_networkx(g).subgraph(nodes), nodelist=nodes)
    lap = laplacian_of(g, nodes)
    assert lap.shape == want.shape
    # Integer-valued x: every sum is exact, so the products must be equal.
    ints = st.integers(min_value=-1000, max_value=1000)
    x = np.array(data.draw(st.lists(ints, min_size=len(nodes), max_size=len(nodes))))
    assert np.array_equal(lap @ x, want @ x)


@pytest.mark.parametrize(
    "g, nodes",
    [
        (Graph(1), [0]),
        (Graph(4, [(0, 1), (2, 3)]), [3]),
        (Graph(5, [(0, 4), (1, 4), (2, 3)]), [4, 2, 0, 3]),
        (Graph(6, [(0, 1)]), [5, 2, 1]),
    ],
)
def test_laplacian_matvec_matches_networkx_small_cases(g, nodes):
    want = nx.laplacian_matrix(to_networkx(g).subgraph(nodes), nodelist=nodes)
    x = np.arange(1, len(nodes) + 1) * 7
    assert np.array_equal(laplacian_of(g, nodes) @ x, want @ x)


def test_laplacian_of_empty_subset():
    # networkx refuses a graph without nodes; the empty operator maps the
    # empty vector to itself and has norm zero.
    lap = laplacian_of(Graph(4, [(0, 1)]), [])
    assert lap.shape == (0, 0)
    assert (lap @ np.zeros(0)).shape == (0,)
    assert spectral_norm(lap) == (0.0, True, 0, 0.0)


def test_spectral_norm_of_large_laplacian_matches_eigsh():
    # A 6500-node local set; scipy's Lanczos solver on the networkx
    # Laplacian is the independent oracle.
    g = gen_er(7000, 4.0 / 7000, 21).graph
    nodes = np.random.default_rng(4).permutation(7000)[:6500].tolist()
    res = spectral_norm(laplacian_of(g, nodes), tol=1e-12)
    assert res.converged
    ref = nx.laplacian_matrix(to_networkx(g).subgraph(nodes), nodelist=nodes).astype(np.float64)
    want = float(abs(scipy.sparse.linalg.eigsh(ref, k=1, which="LM", return_eigenvectors=False)[0]))
    assert math.isclose(res.value, want, rel_tol=1e-6), (res, want)


def test_trial_norms_are_within_their_bounds_of_eigsh(monkeypatch):
    # Acceptance test 08's fixture: local sets of k = 2000 nodes. Every
    # norm a trial takes, of both Laplacians and of their normalized
    # difference, is checked against scipy's Lanczos solver on the same
    # operator: the error is within the reported residual bound, and
    # within the trial's relative tolerance. The allowance of a few ulps
    # covers the oracle's own rounding.
    n = 1000
    gm = gen_er(n, 2.0 / n, 0)
    cp = make_cut_pair(gm, *pick_pair_at_distance(gm, 7, 0))
    params = SampleParams(0.9, 2.0 * math.log(n) / n, 0.01, 0.0, 2)
    d_tilde = choose_d_tilde(DTildeMode.IMPOSSIBILITY, params.lam, cp.d)
    seen = []

    def recording(m, **kwargs):
        res = spectral_norm(m, **kwargs)
        seen.append((m, res))
        return res

    monkeypatch.setattr(meaninglab.spectral, "spectral_norm", recording)
    tol = 1e-6
    for seed in range(2):
        trial = coupled_cut_trial(cp, params, d_tilde, seed=seed, tol=tol)
        assert trial.neighborhood_size == 2000 and trial.converged
    assert len(seen) == 6
    for m, res in seen:
        k = m.shape[0]
        op = scipy.sparse.linalg.LinearOperator((k, k), matvec=lambda x: m @ x.ravel(), dtype=np.float64)
        want = float(np.abs(scipy.sparse.linalg.eigsh(op, k=2, which="LM", return_eigenvectors=False)).max())
        error = abs(res.value - want)
        assert res.converged
        assert error <= res.residual + 8 * np.finfo(float).eps * want, (res, want)
        assert error <= tol * want, (res, want)


def test_induced_matrices_reject_duplicates():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="duplicate node 0"):
        laplacian_of(g, [0, 1, 0])


# -- Lanczos norms ------------------------------------------------------


def test_spectral_norm_matches_dense_eigensolver():
    rng = np.random.default_rng(12)
    converged = 0
    for _ in range(100):
        k = int(rng.integers(1, 21))
        a = rng.standard_normal((k, k))
        m = a + a.T
        res = spectral_norm(dense_operator(m), tol=1e-10)
        want = float(np.abs(np.linalg.eigvalsh(m)).max())
        if res.converged:
            converged += 1
            assert math.isclose(res.value, want, rel_tol=1e-6), (k, res, want)
    assert converged >= 95


def test_spectral_norm_sign_tie():
    # Adjacency of a single edge has eigenvalues +1 and -1: a tie between
    # the two ends of the spectrum, found exactly once the two-vector
    # Krylov space is spanned.
    res = spectral_norm(dense_operator([[0.0, 1.0], [1.0, 0.0]]))
    assert res.converged and res.iterations == 2
    assert math.isclose(res.value, 1.0, rel_tol=1e-9)


def test_spectral_norm_complete_graph_laplacian():
    # nI - J: the start vector and the all-ones vector span an invariant
    # subspace, so the process breaks down, exactly, at its second step.
    for n in (3, 6, 11, 40):
        lap = laplacian_of(complete_graph(n), range(n))
        res = spectral_norm(lap)
        assert res.converged and res.iterations == 2
        assert math.isclose(res.value, float(n), rel_tol=1e-12)


def test_spectral_norm_zero_and_empty():
    # One Lanczos step maps the start vector to zero; an empty matrix takes none.
    assert spectral_norm(dense_operator(np.zeros((4, 4)))) == (0.0, True, 1, 0.0)
    assert spectral_norm(dense_operator(np.zeros((0, 0)))) == (0.0, True, 0, 0.0)


@pytest.mark.parametrize("entry", [0.0, 2.5, -7.0])
def test_spectral_norm_one_by_one(entry):
    assert spectral_norm(dense_operator([[entry]])) == (abs(entry), True, 1, 0.0)


def test_spectral_norm_disjoint_identical_components():
    # Every eigenvalue is double; one start vector sees each once, and
    # the norm is still the components' norm.
    g = gen_er(30, 0.2, 4).graph
    twice = Graph(60, [(u + s, v + s) for u, v in edges(g) for s in (0, 30)])
    res = spectral_norm(laplacian_of(twice, range(60)), tol=1e-10)
    want = float(np.linalg.eigvalsh(columns(laplacian_of(g, range(30)))).max())
    assert res.converged
    assert math.isclose(res.value, want, rel_tol=1e-9)


def symmetric_with_spectrum(eigenvalues, seed: int) -> np.ndarray:
    """An exactly symmetric matrix with (up to rounding) the given eigenvalues."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues),) * 2))
    m = (q * np.asarray(eigenvalues, dtype=np.float64)) @ q.T
    return (m + m.T) / 2.0


@pytest.mark.parametrize(
    "eigenvalues",
    [
        -np.linspace(1.0, 9.0, 30),  # all negative
        np.concatenate([[-12.0], np.linspace(-3.0, 10.0, 29)]),  # |lambda_min| > lambda_max
        np.concatenate([[-10.0], np.linspace(-1.0, 1.0, 28), [10.0]]),  # a tie across the ends
    ],
)
def test_spectral_norm_either_end(eigenvalues):
    m = symmetric_with_spectrum(eigenvalues, 3)
    res = spectral_norm(dense_operator(m), tol=1e-10)
    want = float(np.abs(np.linalg.eigvalsh(m)).max())
    assert res.converged
    assert math.isclose(res.value, want, rel_tol=1e-9)


@pytest.mark.parametrize("cap", [2, 5, 10])
def test_spectral_norm_restarts_when_the_basis_is_full(monkeypatch, cap):
    # With two vectors, a restart from the converged +10 end alone spans an
    # invariant subspace at once and would report 10 for the second matrix.
    monkeypatch.setattr(meaninglab.spectral, "_BASIS", cap)
    g = gen_er(200, 0.05, 6).graph
    lap = laplacian_of(g, range(200))
    res = spectral_norm(lap, tol=1e-8)
    want = float(np.linalg.eigvalsh(columns(lap)).max())
    assert res.converged and res.iterations > cap
    assert math.isclose(res.value, want, rel_tol=1e-7)
    m = symmetric_with_spectrum(np.concatenate([[-12.0], np.linspace(-3.0, 10.0, 49)]), 5)
    res = spectral_norm(dense_operator(m), tol=1e-8)
    assert res.converged and res.iterations > cap
    assert math.isclose(res.value, 12.0, rel_tol=1e-7)


def test_spectral_norm_deterministic():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8))
    m = a + a.T
    assert spectral_norm(dense_operator(m)) == spectral_norm(dense_operator(m))


def test_spectral_norm_iteration_budget():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 10))
    m = a + a.T
    # One Lanczos step: the value is |q . m q| for the unit start vector q,
    # and the residual bound is ||m q - theta q||.
    res = spectral_norm(dense_operator(m), max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert res.value > 0.0 and res.residual > 0.0


def test_spectral_norm_validation():
    # A dense array is refused, not multiplied by BLAS.
    with pytest.raises(TypeError, match="operator"):
        spectral_norm(np.eye(2))
    with pytest.raises(ValueError, match="tolerance"):
        spectral_norm(dense_operator(np.zeros((2, 2))), tol=0.0)
    with pytest.raises(ValueError, match="iteration budget"):
        spectral_norm(dense_operator(np.zeros((2, 2))), max_iter=0)


def test_laplacian_norm_within_gershgorin_disc():
    # ||L|| <= 2 * max induced degree, over random induced subgraphs.
    rng = np.random.default_rng(31)
    for s in range(200):
        g = gen_er(18, float(rng.uniform(0.05, 0.4)), s).graph
        size = int(rng.integers(2, 19))
        nodes = rng.choice(18, size=size, replace=False)
        lap = laplacian_of(g, nodes.tolist())
        res = spectral_norm(lap, tol=1e-8)
        max_deg = float(columns(lap).diagonal().max(initial=0.0))
        assert res.value <= 2.0 * max_deg + 1e-9


# -- coupled trials -----------------------------------------------------


def cut_fixture(seed=3):
    gm = gen_er(50, 0.1, seed)
    big = max(component_lists(gm.graph), key=len)
    return make_cut_pair(gm, big[0], big[-1])


def test_coupled_cut_trial_fields():
    cp = cut_fixture()
    p = SampleParams(0.8, 0.01, 0.2, 0.0, 2)
    trial = coupled_cut_trial(cp, p, d_tilde=4, seed=7)
    assert trial.n == 50 and trial.lam == 2
    assert trial.cut_size == len(cp.cut)
    assert trial.d == cp.d
    assert trial.neighborhood_size >= 2
    assert trial.norm_l > 0.0 and trial.norm_l_prime > 0.0
    assert trial.diff_normalized >= 0.0
    assert trial.within_bound == (trial.diff_normalized <= trial.analytic_bound)
    assert trial.converged


def test_coupled_cut_trial_deterministic():
    cp = cut_fixture()
    p = SampleParams(0.8, 0.01, 0.2, 0.0, 2)
    assert coupled_cut_trial(cp, p, 4, seed=7) == coupled_cut_trial(cp, p, 4, seed=7)


def test_coupled_cut_trial_difference_bounded_by_two():
    # Both operands are normalized to unit spectral norm, so the triangle
    # inequality caps the difference at 2 regardless of parameters.
    cp = cut_fixture()
    for s in range(5):
        trial = coupled_cut_trial(cp, SampleParams(0.9, 0.02, 0.3, 0.01, 2), 4, seed=s)
        assert trial.diff_normalized <= 2.0 + 1e-6


def test_coupled_cut_trial_identity_worlds_differ_only_by_cut():
    # Faithful channel: the two worlds differ exactly by the cut edges,
    # so the unnormalized Laplacians differ and the trial sees it.
    cp = cut_fixture()
    trial = coupled_cut_trial(cp, SampleParams(1.0, 0.0, 1.0, 0.0, 1), 4, seed=0)
    assert trial.diff_normalized > 0.0


@pytest.mark.parametrize(
    "params, seed",
    [
        (SampleParams(0.8, 0.01, 0.2, 0.0, 2), 7),
        (SampleParams(1.0, 0.0, 1.0, 0.0, 1), 0),
        (SampleParams(0.9, 0.02, 0.3, 0.01, 2), 3),
    ],
)
def test_coupled_cut_trial_matches_dense_reference(params, seed):
    # Local set from networkx BFS, Laplacians from networkx, every norm
    # from numpy's dense 2-norm.
    cp = cut_fixture()
    trial = coupled_cut_trial(cp, params, 4, seed=seed, tol=1e-12)
    sg, sgp = sample_coupled(cp, params, seed)
    worlds = [to_networkx(sg.graph), to_networkx(sgp.graph)]
    ends = (sg.representative(cp.m), sg.representative(cp.m_prime))
    reach = (nx.single_source_shortest_path_length(ref, s, cutoff=4) for ref in worlds for s in ends)
    nodes = sorted(set().union(*reach))
    lap, lap_p = (nx.laplacian_matrix(ref.subgraph(nodes), nodelist=nodes).toarray() for ref in worlds)
    norm, norm_p = np.linalg.norm(lap, 2), np.linalg.norm(lap_p, 2)
    diff = np.linalg.norm(lap / (norm or 1.0) - lap_p / (norm_p or 1.0), 2)
    assert trial.neighborhood_size == len(nodes)
    assert math.isclose(trial.norm_l, norm, rel_tol=1e-8)
    assert math.isclose(trial.norm_l_prime, norm_p, rel_tol=1e-8)
    assert math.isclose(trial.diff_normalized, diff, rel_tol=1e-8)


@pytest.mark.parametrize("p_plus, p_minus", [(0.8, 0.01), (0.0, 0.2)])
@pytest.mark.parametrize("seed", range(4))
def test_coupled_cut_trial_local_set_is_both_worlds_balls(monkeypatch, p_plus, p_minus, seed):
    # One sweep per trial, of the world with more edges: g for p_minus < p_plus,
    # g' for p_minus > p_plus. The set must still be the networkx union of both
    # worlds' balls. Both cut edges end at m', so the 1-balls see the cut slots.
    sweeps = []
    sweep = meaninglab.spectral._sweep
    monkeypatch.setattr(meaninglab.spectral, "_sweep", lambda *args: sweeps.append(args[0]) or sweep(*args))
    cp = cut_fixture()
    params = SampleParams(p_plus, p_minus, 0.2, 0.0, 2)
    trial = coupled_cut_trial(cp, params, 1, seed=seed)
    sg, sgp = sample_coupled(cp, params, seed)
    ends = (sg.representative(cp.m), sg.representative(cp.m_prime))
    reach = (
        nx.single_source_shortest_path_length(to_networkx(world.graph), s, cutoff=1)
        for world in (sg, sgp)
        for s in ends
    )
    assert len(sweeps) == 1
    assert trial.neighborhood_size == len(set().union(*reach))


def test_coupled_cut_trial_above_old_node_cap():
    # Local sets have no node cap: this one covers all 5000 symbols.
    gm = gen_er(2500, 3.0 / 2500, 1)
    big = max(component_lists(gm.graph), key=len)
    cp = make_cut_pair(gm, big[0], big[-1])
    trial = coupled_cut_trial(cp, SampleParams(0.9, 0.0005, 0.01, 0.0, 2), 60, seed=0)
    assert trial.neighborhood_size > 4000
    assert trial.converged
    assert 0.0 < trial.diff_normalized <= 2.0 + 1e-6


def test_coupled_cut_trial_validation():
    cp = cut_fixture()
    with pytest.raises(ValueError):
        coupled_cut_trial(cp, SampleParams(0.8, 0.01, 0.2, 0.0, 2), -1, seed=0)


def test_spectral_csv_record_matches_header():
    cp = cut_fixture()
    trial = coupled_cut_trial(cp, SampleParams(0.8, 0.01, 0.2, 0.0, 2), 4, seed=7)
    header = SPECTRAL_CSV_HEADER.split(",")
    record = dict(zip(header, spectral_csv_record(trial).split(",")))
    assert len(record) == len(header) == len(spectral_csv_record(trial).split(","))
    assert record["seed"] == "7" and record["n"] == "50"
    assert record["within"] in ("0", "1") and record["converged"] == "1"
    assert repr(trial.diff_normalized) == record["diff"]
    assert 0.0 <= float(record["resid"]) <= 1e-6
