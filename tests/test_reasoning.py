"""Separator behavior and Monte-Carlo gap estimation."""

from __future__ import annotations

import math

import pytest

import meaninglab.reasoning as reasoning
from meaninglab.graph import Graph, bfs_distance
from meaninglab.meaning import MeaningGraph, gen_er
from meaninglab.reasoning import (
    CSV_HEADER,
    DTildeMode,
    GammaEstimate,
    Hypothesis,
    NoFixtureError,
    choose_d_tilde,
    estimate_gamma,
    separator,
    wilson_interval,
)
from meaninglab.sampler import SampleParams, sample_symbol_graph

from oracles import std_error

IDENTITY = SampleParams(1.0, 0.0, 1.0, 0.0, 1)


def path_plus_isolated(path_len=6, isolated=3) -> MeaningGraph:
    n = path_len + isolated
    return MeaningGraph(Graph(n, [(i, i + 1) for i in range(path_len - 1)]))


# -- search radius ------------------------------------------------------


def test_choose_d_tilde():
    assert choose_d_tilde(DTildeMode.POSSIBILITY, 2, 3) == 7
    assert choose_d_tilde(DTildeMode.IMPOSSIBILITY, 2, 3) == 6
    assert choose_d_tilde(DTildeMode.POSSIBILITY, 1, 4) == 4
    assert choose_d_tilde(DTildeMode.IMPOSSIBILITY, 1, 4) == 4
    with pytest.raises(ValueError):
        choose_d_tilde(DTildeMode.POSSIBILITY, 0, 3)
    with pytest.raises(ValueError):
        choose_d_tilde(DTildeMode.POSSIBILITY, 2, 0)


# -- separator ----------------------------------------------------------


def test_separator_identity_channel_matches_meaning_bfs():
    gm = gen_er(40, 0.06, 9)
    sg = sample_symbol_graph(gm, IDENTITY, seed=1)
    for d_tilde in (1, 2, 4):
        for u in range(0, 40, 7):
            for v in range(1, 40, 11):
                if u == v:
                    continue
                truth = bfs_distance(gm.graph, u, v, cap=d_tilde)
                want = Hypothesis.H1 if isinstance(truth, int) else Hypothesis.H2
                assert separator(sg, u, v, d_tilde) is want


def test_separator_monotone_in_radius():
    gm = gen_er(40, 0.1, 5)
    sg = sample_symbol_graph(gm, SampleParams(0.8, 0.01, 0.3, 0.01, 2), seed=2)
    for w in range(0, 80, 13):
        for w_prime in range(1, 80, 17):
            if w == w_prime:
                continue
            answers = [separator(sg, w, w_prime, r) for r in range(8)]
            # Once H1, stays H1 as the radius grows.
            flips = [a is Hypothesis.H1 for a in answers]
            assert flips == sorted(flips)


def test_separator_radius_zero_is_always_h2():
    sg = sample_symbol_graph(gen_er(10, 0.3, 1), IDENTITY, seed=0)
    assert separator(sg, 0, 1, 0) is Hypothesis.H2


def test_separator_validation():
    sg = sample_symbol_graph(gen_er(10, 0.3, 1), IDENTITY, seed=0)
    with pytest.raises(ValueError):
        separator(sg, 3, 3, 2)
    with pytest.raises(ValueError):
        separator(sg, 0, 1, -1)


# -- Wilson intervals ---------------------------------------------------


def test_wilson_frozen_values():
    lo, hi = wilson_interval(8, 10)
    assert math.isclose(lo, 0.490162471536642, rel_tol=1e-12)
    assert math.isclose(hi, 0.943317848545625, rel_tol=1e-12)


def test_wilson_edge_counts():
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0


def test_wilson_contains_point_estimate_and_shrinks():
    for s, t in ((3, 10), (50, 100), (500, 1000)):
        lo, hi = wilson_interval(s, t)
        assert lo <= s / t <= hi
    w100 = wilson_interval(50, 100)
    w1000 = wilson_interval(500, 1000)
    assert w1000[1] - w1000[0] < w100[1] - w100[0]


def test_wilson_complement_symmetry():
    lo, hi = wilson_interval(7, 30)
    lo_c, hi_c = wilson_interval(23, 30)
    assert math.isclose(lo, 1.0 - hi_c, abs_tol=1e-12)
    assert math.isclose(hi, 1.0 - lo_c, abs_tol=1e-12)


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


# -- gamma estimation ---------------------------------------------------


def test_estimate_gamma_identity_is_perfect():
    gm = path_plus_isolated()
    est = estimate_gamma(gm, 2, IDENTITY, d_tilde=2, trials=40, seed=5)
    assert est.p1 == 1.0 and est.p2 == 0.0
    assert est.gamma_hat == 1.0
    assert est.gamma_ci[1] <= 1.0


def test_accuracy_identity_holds():
    gm = path_plus_isolated()
    p = SampleParams(0.7, 0.05, 0.2, 0.02, 2)
    est = estimate_gamma(gm, 2, p, d_tilde=5, trials=60, seed=8)
    assert math.isclose(
        est.p1 + (1.0 - est.p2), 1.0 + est.gamma_hat, abs_tol=1e-12
    )


def test_indistinguishable_channels_give_zero_gamma():
    # p_plus == p_minus makes every cross-cluster slot exchangeable, so
    # both fixtures see the same connectivity distribution.
    gm = path_plus_isolated(8, 4)
    p = SampleParams(0.15, 0.15, 1.0, 0.0, 1)
    est = estimate_gamma(gm, 2, p, d_tilde=3, trials=300, seed=13)
    lo, hi = est.gamma_ci
    assert lo <= 0.0 <= hi
    assert abs(est.gamma_hat) <= 0.15


def test_estimate_gamma_deterministic_and_thread_invariant():
    gm = path_plus_isolated()
    p = SampleParams(0.8, 0.02, 0.3, 0.01, 2)
    a = estimate_gamma(gm, 2, p, d_tilde=6, trials=24, seed=3)
    b = estimate_gamma(gm, 2, p, d_tilde=6, trials=24, seed=3)
    c = estimate_gamma(gm, 2, p, d_tilde=6, trials=24, seed=3, threads=2)
    assert (a.positives_h1, a.positives_h2) == (b.positives_h1, b.positives_h2)
    assert (a.positives_h1, a.positives_h2) == (c.positives_h1, c.positives_h2)


def test_estimate_gamma_fixed_pairs_mode():
    gm = path_plus_isolated()
    p = SampleParams(0.8, 0.02, 0.3, 0.01, 2)
    a = estimate_gamma(gm, 2, p, d_tilde=6, trials=24, seed=3, fixed_pairs=True)
    b = estimate_gamma(gm, 2, p, d_tilde=6, trials=24, seed=3, fixed_pairs=True)
    assert (a.positives_h1, a.positives_h2) == (b.positives_h1, b.positives_h2)


def test_estimate_gamma_uniform_representatives():
    gm = path_plus_isolated()
    p = SampleParams(0.8, 0.02, 0.3, 0.01, 3)
    est = estimate_gamma(gm, 2, p, d_tilde=9, trials=24, seed=3, representative="uniform")
    assert 0 <= est.positives_h1 <= 24
    with pytest.raises(ValueError):
        estimate_gamma(gm, 2, p, d_tilde=9, trials=4, seed=3, representative="middle")


def test_uniform_representatives_cover_every_replica(monkeypatch):
    # Record each separator call's endpoints and chi-square their replica
    # offsets w % lam against uniform over lam = 3. The seed and the cut,
    # chi2 with 2 degrees of freedom > 27.6 (false-failure probability
    # e^-13.8, about 1e-6), were fixed before the first run. A draw that
    # never picks the last replica gives chi2 near half the sample size.
    seen = []

    def recording(sg, u, v, d_tilde):
        seen.extend((u, v))
        return separator(sg, u, v, d_tilde)

    monkeypatch.setattr(reasoning, "separator", recording)
    lam = 3
    p = SampleParams(0.8, 0.02, 0.3, 0.01, lam)
    estimate_gamma(path_plus_isolated(), 2, p, d_tilde=9, trials=150, seed=11, representative="uniform")
    assert len(seen) == 600
    counts = [0] * lam
    for w in seen:
        counts[w % lam] += 1
    expected = len(seen) / lam
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 <= 27.6, counts


def test_no_fixture_for_connected_graph():
    gm = MeaningGraph(Graph(5, [(i, i + 1) for i in range(4)]))
    with pytest.raises(NoFixtureError, match="disconnected"):
        estimate_gamma(gm, 2, IDENTITY, d_tilde=2, trials=4, seed=1)


def test_no_fixture_for_missing_distance():
    gm = MeaningGraph(Graph(6, [(0, 1), (3, 4)]))
    with pytest.raises(NoFixtureError, match="distance 3"):
        estimate_gamma(gm, 3, IDENTITY, d_tilde=3, trials=4, seed=1)


def test_estimate_gamma_validation():
    gm = path_plus_isolated()
    with pytest.raises(ValueError):
        estimate_gamma(gm, 2, IDENTITY, d_tilde=2, trials=0, seed=1)


# -- records ------------------------------------------------------------


def test_csv_record_matches_header():
    est = GammaEstimate(
        n=10,
        d=2,
        params=SampleParams(0.9, 0.001, 0.05, 0.0, 2),
        d_tilde=5,
        trials=100,
        positives_h1=97,
        positives_h2=3,
    )
    fields = est.csv_record().split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[:9] == ["10", "2", "2", "0.9", "0.001", "0.05", "0.0", "5", "100"]
    assert fields[9] == repr(0.97) and fields[10] == repr(0.03)
    assert float(fields[11]) == est.gamma_hat


def test_std_error_formula():
    est = GammaEstimate(
        n=10, d=2, params=SampleParams(0.9, 0.001, 0.05, 0.0, 2),
        d_tilde=5, trials=100, positives_h1=97, positives_h2=3,
    )
    want = math.sqrt((0.97 * 0.03 + 0.03 * 0.97) / 100)
    assert math.isclose(std_error(est), want, rel_tol=1e-12)
