"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure) and then asserts. Seeds and sizes are pinned so every run is
deterministic; margin constants were sized against analytic error bars
or measured spreads, noted inline where not obvious.
"""

from __future__ import annotations

import filecmp
import math
import os
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from meaninglab.bounds import (
    bound_report,
    gilbert_bounds,
    laplacian_diff_bound,
    lb_connected,
    ub_disconnected,
)
from meaninglab.cli import cli
from meaninglab.experiments import heatmap
from meaninglab.graph import Graph, components, min_cut
from meaninglab.meaning import (
    gen_er,
    load_triples,
    make_cut_pair,
    pick_pair_at_distance,
)
from meaninglab.reasoning import (
    DTildeMode,
    Hypothesis,
    choose_d_tilde,
    estimate_gamma,
    separator,
)
from meaninglab.sampler import (
    PairClass,
    SampleParams,
    edge_probability,
    sample_symbol_graph,
)
from meaninglab.spectral import coupled_cut_trial, laplacian_of, spectral_norm

from oracles import connectivity_probability, count_edges_by_class, dense_operator, std_error, to_networkx

DATA = Path(__file__).parent / "data"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_identity_channel_reproduces_meaning_graph():
    ident = SampleParams(1.0, 0.0, 0.0, 0.0, 1)
    pairs = 0
    for i in range(20):
        n = 30 + 13 * i
        gm = gen_er(n, 3.0 / n, 100 + i)
        sg = sample_symbol_graph(gm, ident, 200 + i)
        # lam=1 makes symbol w the one replica of meaning node w.
        assert sg.graph == gm.graph
        # networkx is the reference: it shares no code with the separator's BFS.
        ref = to_networkx(gm.graph)
        for u in range(n):
            lu = nx.single_source_shortest_path_length(ref, u, cutoff=2)
            for v in range(u + 1, n):
                want = Hypothesis.H1 if v in lu else Hypothesis.H2
                assert separator(sg, u, v, 2) is want
                pairs += 1
    _report(1, "identity channel", True, f"20 graphs, {pairs} node pairs, d_tilde=2")


def test_02_noise_folding_preserves_edge_distributions():
    base = SampleParams(0.8, 0.02, 0.3, 0.05, 2)
    folded = replace(base, fold=True).effective()
    assert folded.eps_minus == 0.0
    for cls in PairClass:
        assert edge_probability(base, cls) == edge_probability(folded, cls)

    gm = gen_er(100, 0.05, 17)
    n_pairs = gm.n * (gm.n - 1) // 2
    slots = {
        PairClass.MEANING_EDGE: gm.edge_count * 4,
        PairClass.MEANING_NON_EDGE: (n_pairs - gm.edge_count) * 4,
        PairClass.INTRA_CLUSTER: gm.n,
    }
    trials = 200
    worst = 0.0
    for cls in PairClass:
        mean_a = (
            sum(
                count_edges_by_class(sample_symbol_graph(gm, base, 5000 + t), gm)[cls]
                for t in range(trials)
            )
            / trials
        )
        mean_b = (
            sum(
                count_edges_by_class(sample_symbol_graph(gm, folded, 9000 + t), gm)[cls]
                for t in range(trials)
            )
            / trials
        )
        p = edge_probability(base, cls)
        # Both means are Binomial(slots, p)/trials draws; 4 sigma on the
        # difference uses the analytic variance, not the sample one.
        sigma = math.sqrt(2.0 * slots[cls] * p * (1.0 - p) / trials)
        worst = max(worst, abs(mean_a - mean_b) / sigma)
        assert abs(mean_a - mean_b) <= 4.0 * sigma, (cls, mean_a, mean_b, sigma)
    _report(2, "noise folding", True, f"max class deviation {worst:.2f} sigma")


def test_03_connectivity_bounds_sandwich_empirical_rates():
    # The edge density keeps 2-neighborhoods small enough for the union
    # bound to apply; denser graphs push its penalty past certainty.
    gm = gen_er(200, 0.003, 0)
    params = SampleParams(0.9, 1e-6, 1e-4, 0.0, 2)
    d = 2
    b2 = gm._rings.ball_bound(d)  # the B(d) that check_nontrivial reports
    lb = lb_connected(d, params.lam, params.p_plus, params.eps_plus, params.eps_minus)
    ub = ub_disconnected(gm.n, params.lam, params.p_minus, params.eps_minus, b2)
    assert ub is not None, "union-bound regime must hold for this fixture"
    target = bound_report(
        gm.n, d, params.lam, params.p_plus, params.p_minus,
        params.eps_plus, params.eps_minus, b2, gm.graph.max_degree() + 1,
    ).gamma_star
    d_tilde = choose_d_tilde(DTildeMode.POSSIBILITY, params.lam, d)
    assert d_tilde == 5
    est = estimate_gamma(gm, d, params, d_tilde, trials=400, seed=7)
    se1 = math.sqrt(est.p1 * (1.0 - est.p1) / est.trials)
    se2 = math.sqrt(est.p2 * (1.0 - est.p2) / est.trials)
    ok = (
        est.p1 + 3.0 * se1 >= lb
        and est.p2 - 3.0 * se2 <= ub
        and est.gamma_hat + 3.0 * std_error(est) >= target
    )
    _report(
        3,
        "bound sandwich",
        ok,
        f"p1={est.p1:.4f} vs lb={lb:.4f}; p2={est.p2:.4f} vs ub={ub:.4f}; "
        f"gamma={est.gamma_hat:.4f} vs gamma*={target:.4f}",
    )


def test_04_small_world_noise_defeats_separator():
    n = 2000
    gm = gen_er(n, 1.5 / n, 0)
    d = math.ceil(math.log(n))
    params = SampleParams(0.9, 2.0 / (2 * n), 1e-4, 0.0, 2)
    d_tilde = choose_d_tilde(DTildeMode.IMPOSSIBILITY, params.lam, d)
    assert d_tilde == 2 * d
    est = estimate_gamma(gm, d, params, d_tilde, trials=200, seed=11)
    # p2 is the H1-answer rate on disconnected fixtures: the noise floor
    # links almost every replica pair within the logarithmic radius.
    ok = est.p2 >= 0.95 and abs(est.gamma_hat) <= 0.05
    _report(
        4,
        "small-world impossibility",
        ok,
        f"fooled rate {est.p2:.3f}, gamma_hat {est.gamma_hat:+.3f}, d={d}, d_tilde={d_tilde}",
    )


def test_05_connectivity_lower_bounds_vs_enumeration():
    checked = 0
    for n in range(2, 6):
        for p in (0.3, 0.5, 0.7, 0.9):
            truth = connectivity_probability(n, p)
            bounds = gilbert_bounds(n, p)
            assert truth + 1e-12 >= bounds.exact, (n, p, truth, bounds)
            if 1.0 - p <= 0.5:
                assert bounds.exact >= bounds.corollary, (n, p, bounds)
            checked += 1
    _report(5, "connectivity bounds", True, f"{checked} grid points enumerated")


def test_06_cluster_connectivity_meets_corollary():
    isolated = gen_er(500, 0.0, 0)
    details = []
    ok = True
    for lam in (4, 6):
        for eps in (0.01, 0.05):
            params = SampleParams(0.5, 0.0, eps, 0.0, lam)
            sg = sample_symbol_graph(gm=isolated, params=params, seed=lam * 1000 + int(eps * 100))
            # A cluster is connected when its lam replicas share one component label.
            label = components(sg.graph).reshape(isolated.n, lam)
            connected = int(np.count_nonzero((label == label[:, :1]).all(axis=1)))
            frac = connected / isolated.n
            se = math.sqrt(frac * (1.0 - frac) / isolated.n)
            corollary = gilbert_bounds(lam, 1.0 - eps).corollary
            ok = ok and frac + 3.0 * se >= corollary
            details.append(f"lam={lam},eps={eps}:{frac:.3f}>={corollary:.3f}")
    _report(6, "cluster connectivity", ok, "; ".join(details))


def test_07_cut_laplacian_norm_within_triple_edge_count():
    done = 0
    seed = 0
    worst = 0.0
    while done < 200:
        gm = gen_er(30, 0.15, 3000 + seed)
        seed += 1
        pair = pick_pair_at_distance(gm, 2, seed)
        if pair is None:
            continue
        cut = min_cut(gm.graph, *pair)
        if not cut:
            continue
        assert len(cut) <= 30
        cut_graph = Graph(gm.n, cut)
        nodes = sorted({u for edge in cut for u in edge})
        res = spectral_norm(laplacian_of(cut_graph, nodes), tol=1e-10)
        assert res.converged
        ratio = res.value / (3.0 * len(cut))
        worst = max(worst, ratio)
        assert res.value <= 3.0 * len(cut) + 1e-9, (seed, res.value, len(cut))
        done += 1
    _report(7, "cut Laplacian norm", True, f"200 cuts, worst norm/3|C| = {worst:.3f}")


def test_08_coupled_worlds_laplacians_stay_close():
    n = 1000
    gm = gen_er(n, 2.0 / n, 0)
    pair = pick_pair_at_distance(gm, 7, 0)
    assert pair is not None and 7 > math.log(n)
    cp = make_cut_pair(gm, *pair)
    params = SampleParams(0.9, 2.0 * math.log(n) / n, 0.01, 0.0, 2)
    d_tilde = choose_d_tilde(DTildeMode.IMPOSSIBILITY, params.lam, cp.d)
    bound = laplacian_diff_bound(n, params.lam, gm.graph.max_degree() + 1)  # B(1): a node and its neighbours
    within = 0
    max_diff = 0.0
    for trial_seed in range(100):
        trial = coupled_cut_trial(cp, params, d_tilde, seed=trial_seed)
        assert trial.converged
        assert trial.analytic_bound == bound
        within += int(trial.within_bound)
        max_diff = max(max_diff, trial.diff_normalized)
    ok = within >= 95
    _report(
        8,
        "coupled Laplacian closeness",
        ok,
        f"{within}/100 within bound {bound:.4f}, max diff {max_diff:.4f}",
    )


def test_09_power_iteration_matches_eigensolver():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(100):
        dim = 1 + i % 20
        a = rng.standard_normal((dim, dim))
        m = (a + a.T) / 2.0
        res = spectral_norm(dense_operator(m), tol=1e-12)
        assert res.converged
        reference = float(np.max(np.abs(np.linalg.eigvalsh(m))))
        err = abs(res.value - reference) / reference if reference else abs(res.value)
        worst = max(worst, err)
        assert err <= 1e-6, (i, dim, res.value, reference)
    _report(9, "spectral-norm oracle", True, f"100 matrices, worst rel err {worst:.2e}")


def _knowledge_graph_fixture():
    """The movie-relation triples file when supplied, else a synthetic stand-in.

    The real dataset is not redistributed; point MEANINGLAB_FB15K237 at a
    triples TSV (or drop it at tests/data/fb15k237.tsv) to run against it.
    """
    candidates = []
    env = os.environ.get("MEANINGLAB_FB15K237")
    if env:
        candidates.append(Path(env))
    candidates.append(DATA / "fb15k237.tsv")
    for path in candidates:
        if path.is_file():
            gm = load_triples(path, "/film/")
            assert (gm.n, gm.edge_count) == (2855, 4682), (
                f"movie subset must ingest to 2855 nodes / 4682 edges, "
                f"got {gm.n} / {gm.edge_count}"
            )
            return gm, "fb15k237"
    return gen_er(1000, 0.0035, 0), "synthetic"


def test_10_heatmap_separates_noise_regimes():
    gm, label = _knowledge_graph_fixture()
    params = SampleParams(0.12, 0.0, 0.7, 0.0, 3)
    table = heatmap(
        gm, [1e-6, 1e-2], d_max=5, pairs_per_cell=200, params_base=params, seed=7
    )
    low, high = table.cells
    assert None not in low and None not in high
    # Low noise: truly adjacent pairs sit far below the capped
    # disconnected column. High noise: every column sits close to it, but
    # not on it: over seeds the largest gap averages about 0.28 (sd about
    # 0.06), mostly from the one symbol graph sampled per row.
    low_gap = low[5] - low[0]
    high_gap = max(abs(high[5] - high[i]) for i in range(5))
    ok = low_gap >= 2.0 and high_gap <= 0.5
    _report(
        10,
        "heat-map regimes",
        ok,
        f"{label}: low-noise d1 gap {low_gap:.2f} (>=2.0), "
        f"high-noise max gap {high_gap:.2f} (<=0.5), cap {table.cap}",
    )


def _rerun_identical(capsys, tmp_path: Path, name: str, argv: list[str], outs: bool):
    dirs = [tmp_path / f"{name}_a", tmp_path / f"{name}_b"]
    stdouts = []
    for out in dirs:
        full = list(argv) + (["--out", str(out)] if outs else [])
        assert cli(full) == 0, f"{name}: {capsys.readouterr().err}"
        stdouts.append(capsys.readouterr().out)
    if not outs:
        assert stdouts[0] == stdouts[1], name
        return [f"{name}(stdout)"]
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files, name
    assert files == sorted(p.name for p in dirs[1].iterdir())
    for fname in files:
        assert filecmp.cmp(dirs[0] / fname, dirs[1] / fname, shallow=False), (
            f"{name}: {fname} differs between identical reruns"
        )
    return [f"{name}({','.join(files)})"]


def test_11_cli_reruns_are_byte_identical(capsys, tmp_path):
    triples = DATA / "triples_small.tsv"
    cases = [
        ("sample", ["sample", "--er", "40", "0.1", "--graph-seed", "2", "--seed", "9"], True),
        (
            "gamma",
            ["gamma", "--er", "50", "0.06", "--graph-seed", "1", "--d", "2",
             "--trials", "12", "--seed", "3", "--allow-trivial"],
            True,
        ),
        (
            "bounds",
            ["bounds", "--n", "100", "--d", "2", "--lambda", "2", "--p-plus", "0.9",
             "--eps-plus", "1e-4", "--p-minus", "1e-7", "--ball-d", "5", "--json"],
            False,
        ),
        (
            "heatmap",
            ["heatmap", "--er", "60", "0.06", "--graph-seed", "4", "--d-max", "2",
             "--pairs-per-cell", "4", "--p-minus-grid", "1e-4,1e-2", "--seed", "5",
             "--allow-trivial"],
            True,
        ),
        (
            "spectral",
            ["spectral", "--er", "60", "0.08", "--graph-seed", "3", "--d", "2",
             "--trials", "3", "--seed", "8", "--allow-trivial"],
            True,
        ),
        ("ingest", ["ingest", "--triples", str(triples), "--prefix", "/film/"], True),
        ("check", ["check", "--er", "60", "0.05", "--d", "2"], False),
    ]
    covered = []
    for name, argv, outs in cases:
        covered += _rerun_identical(capsys, tmp_path, name, argv, outs)
    _report(11, "CLI determinism", True, "; ".join(covered))
