"""Closed-form bounds against independently computed frozen values."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meaninglab.bounds import (
    bound_report,
    gilbert_bounds,
    lb_connected,
    laplacian_diff_bound,
    theorem_preconditions,
    ub_disconnected,
    ub_disconnected_raw,
)
from meaninglab.sampler import fold_noise

from oracles import connectivity_probability

# High-precision reference values, computed once with a 30-digit
# arbitrary-precision evaluation of the same closed forms and frozen here.
LB_REFERENCE = 0.98779943495171
UB_REFERENCE = 0.0195716291649051
GAMMA_STAR_REFERENCE = 0.982362871294792
GILBERT_FORMULA_REFERENCE = 0.943823661467635
GILBERT_ENUM_REFERENCE = 0.9575130376
LAPLACIAN_REFERENCE_A = 0.136876177191501
LAPLACIAN_REFERENCE_B = 0.0659010228982261

REL = 1e-10


def close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


# -- lower bound --------------------------------------------------------


def test_lb_connected_frozen_value():
    assert close(lb_connected(2, 2, 0.9, 1e-4, 0.0), LB_REFERENCE)


def test_lb_connected_perfect_channels():
    # No cluster risk, certain hops: the bound saturates at 1.
    assert lb_connected(3, 2, 1.0, 0.0, 0.0) == 1.0


def test_lb_connected_clamps_at_zero():
    # Large eps_plus drives the cluster factor negative before clamping.
    assert lb_connected(2, 2, 0.9, 0.9, 0.0) == 0.0


def test_lb_connected_monotone():
    fixed = dict(d=2, lam=2, eps_minus=0.0)
    for lo, hi in ((0.3, 0.6), (0.6, 0.9)):
        assert lb_connected(p_plus=lo, eps_plus=1e-3, **fixed) <= lb_connected(
            p_plus=hi, eps_plus=1e-3, **fixed
        )
        assert lb_connected(p_plus=0.9, eps_plus=hi * 1e-3, **fixed) <= lb_connected(
            p_plus=0.9, eps_plus=lo * 1e-3, **fixed
        )
    assert lb_connected(5, 2, 0.9, 1e-3, 0.0) <= lb_connected(2, 2, 0.9, 1e-3, 0.0)
    assert lb_connected(2, 4, 0.9, 1e-3, 0.0) >= lb_connected(2, 2, 0.9, 1e-3, 0.0)


def test_lb_connected_validation():
    with pytest.raises(ValueError):
        lb_connected(0, 2, 0.9, 0.1, 0.0)
    with pytest.raises(ValueError):
        lb_connected(2, 0, 0.9, 0.1, 0.0)
    with pytest.raises(ValueError):
        lb_connected(2, 2, 1.1, 0.1, 0.0)


# -- upper bound --------------------------------------------------------


def test_ub_disconnected_frozen_value():
    got = ub_disconnected(100, 2, 1e-6, 0.0, 3)
    assert got is not None
    assert close(got, UB_REFERENCE)


def test_ub_disconnected_out_of_regime():
    assert ub_disconnected(100, 2, 1e-3, 0.0, 3) is None
    # The raw expression is still available for reporting.
    assert ub_disconnected_raw(100, 2, 1e-3, 0.0, 3) > 1.0


def test_ub_boundary_is_applicable():
    # Just inside the validity boundary the bound evaluates to nearly 1.
    n, lam, ball = 100, 2, 3
    q = 1.0 / (2.0 * math.e * n) / (lam * ball) ** 2 * (1.0 - 1e-9)
    got = ub_disconnected(n, lam, q, 0.0, ball)
    assert got is not None
    assert close(got, 1.0, rel=1e-6)


def test_ub_disconnected_applies_at_equality():
    # The regime is (lam*B)^2 * q <= 1/(2en). With eps_minus = 0 the fold
    # is p_minus itself, and (lam*B)^2 = 16 is a power of two, so the
    # product below is exactly the boundary.
    n, lam, ball = 100, 2, 2
    q = 1.0 / (2.0 * math.e * n) / 16
    assert (lam * ball) ** 2 * fold_noise(q, 0.0) == 1.0 / (2.0 * math.e * n)
    assert ub_disconnected(n, lam, q, 0.0, ball) is not None


def test_ub_monotone_in_noise_and_ball():
    assert ub_disconnected_raw(100, 2, 2e-6, 0.0, 3) > ub_disconnected_raw(100, 2, 1e-6, 0.0, 3)
    assert ub_disconnected_raw(100, 2, 1e-6, 0.0, 4) > ub_disconnected_raw(100, 2, 1e-6, 0.0, 3)
    assert ub_disconnected_raw(200, 2, 1e-6, 0.0, 3) > ub_disconnected_raw(100, 2, 1e-6, 0.0, 3)


def test_ub_folds_noise():
    assert ub_disconnected_raw(100, 2, 1e-6, 1e-6, 3) == ub_disconnected_raw(
        100, 2, fold_noise(1e-6, 1e-6), 0.0, 3
    )


# -- separation target --------------------------------------------------


def reported_gamma_star(n, d, lam, p_plus, p_minus, eps_plus, eps_minus, ball_d) -> float:
    """The gamma_star that ``bounds`` prints for this point."""
    return bound_report(n, d, lam, p_plus, p_minus, eps_plus, eps_minus, ball_d, 1).gamma_star


def test_gamma_star_frozen_value():
    got = reported_gamma_star(100, 2, 2, 0.9, 1e-7, 1e-4, 0.0, 5)
    assert close(got, GAMMA_STAR_REFERENCE)


def test_gamma_star_clamped_to_zero():
    assert reported_gamma_star(100, 2, 2, 0.9, 1e-3, 1e-4, 0.0, 5) == 0.0
    assert bound_report(100, 2, 2, 0.9, 1e-3, 1e-4, 0.0, 5, 1).gamma_star_raw < 0.0


def test_gamma_star_equals_lb_minus_ub():
    # The penalty is the raw upper-bound expression, so whenever both
    # sides are formed from the same inputs the identity is exact.
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(10, 5000))
        d = int(rng.integers(1, 12))
        lam = int(rng.integers(1, 6))
        ball = int(rng.integers(1, 60))
        p_plus = float(rng.uniform(0.5, 1.0))
        p_minus = float(10.0 ** rng.uniform(-9, -1))
        eps_plus = float(10.0 ** rng.uniform(-6, -0.5))
        eps_minus = float(10.0 ** rng.uniform(-9, -2))
        lhs = reported_gamma_star(n, d, lam, p_plus, p_minus, eps_plus, eps_minus, ball)
        rhs = max(
            0.0,
            lb_connected(d, lam, p_plus, eps_plus, eps_minus)
            - ub_disconnected_raw(n, lam, p_minus, eps_minus, ball),
        )
        assert lhs == rhs


def test_gamma_star_bare_noise_variant():
    # The penalty charges p_minus folded with eps_minus, never less than
    # the bare p_minus form, and the same when eps_minus is 0.
    def bare(n, d, lam, p_plus, p_minus, eps_plus, eps_minus, ball_d):
        lb = lb_connected(d, lam, p_plus, eps_plus, eps_minus)
        return lb - 2.0 * math.e * n * (lam * ball_d) ** 2 * p_minus

    args = (100, 2, 2, 0.9, 1e-7, 1e-4, 1e-6, 5)
    assert bound_report(*args, 1).gamma_star_raw < bare(*args)
    args0 = (100, 2, 2, 0.9, 1e-7, 1e-4, 0.0, 5)
    assert bound_report(*args0, 1).gamma_star_raw == bare(*args0)


def test_gamma_star_monotone_in_noise():
    vals = [reported_gamma_star(100, 2, 2, 0.9, pm, 1e-4, 0.0, 5) for pm in (1e-8, 1e-7, 1e-6, 1e-5)]
    assert vals == sorted(vals, reverse=True)


probabilities = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 10**7),
    d=st.integers(1, 40),
    lam=st.integers(1, 10),
    ball_d=st.integers(1, 10**4),
    ball_1=st.integers(1, 10**4),
    p_plus=probabilities,
    p_minus=probabilities,
    eps_plus=probabilities,
    eps_minus=probabilities,
)
def test_gamma_star_is_the_lower_bound_minus_the_folded_penalty(
    n, d, lam, ball_d, ball_1, p_plus, p_minus, eps_plus, eps_minus
):
    # lb - 2e n (lam B)^2 fold(p_minus, eps_minus), written out with the
    # same operations in the same order: every field must match bit for bit.
    lb = lb_connected(d, lam, p_plus, eps_plus, eps_minus)
    folded = fold_noise(p_minus, eps_minus)
    raw = 2.0 * math.e * n * (lam * ball_d) ** 2 * folded
    ub = None if (lam * ball_d) ** 2 * folded > 1.0 / (2.0 * math.e * n) else min(1.0, max(0.0, raw))
    args = (n, d, lam, p_plus, p_minus, eps_plus, eps_minus, ball_d)
    rep = bound_report(*args, ball_1)
    assert rep.gamma_star_raw.hex() == (lb - raw).hex()
    assert rep.gamma_star.hex() == max(0.0, lb - raw).hex()
    assert rep.lb_connected.hex() == lb.hex()
    assert rep.ub_disconnected_raw.hex() == raw.hex()
    assert rep.ub_disconnected == ub == ub_disconnected(n, lam, p_minus, eps_minus, ball_d)


# -- cluster connectivity bounds ----------------------------------------


def test_gilbert_frozen_values():
    got = gilbert_bounds(5, 0.7)
    assert close(got.exact, GILBERT_FORMULA_REFERENCE)
    exact_conn = connectivity_probability(5, 0.7)
    assert close(exact_conn, GILBERT_ENUM_REFERENCE, rel=1e-9)


def test_gilbert_is_a_lower_bound_chain():
    # True probability >= recursive-formula bound >= loosened corollary.
    for n in (2, 3, 4, 5):
        for p in (0.55, 0.7, 0.85, 0.95):
            truth = connectivity_probability(n, p)
            got = gilbert_bounds(n, p)
            assert truth >= got.exact - 1e-12
            assert got.exact >= got.corollary


def test_gilbert_single_node():
    assert gilbert_bounds(1, 0.3) == (1.0, 1.0)


def test_gilbert_certain_edges():
    assert gilbert_bounds(4, 1.0).exact == 1.0


def test_gilbert_corollary_clamps():
    # Loose corollary goes negative long before the formula does.
    got = gilbert_bounds(3, 0.4)
    assert got.corollary == 0.0
    assert 0.0 <= got.exact <= 1.0


def test_gilbert_monotone_in_p():
    for n in (4, 7, 12):
        vals = [gilbert_bounds(n, p).exact for p in (0.6, 0.7, 0.8, 0.9, 0.99)]
        assert vals == sorted(vals)


# -- spectral gap bound -------------------------------------------------


def test_laplacian_diff_bound_frozen_values():
    assert close(laplacian_diff_bound(1000, 3, 5), LAPLACIAN_REFERENCE_A)
    assert close(laplacian_diff_bound(100, 1, 1), LAPLACIAN_REFERENCE_B)


def test_laplacian_diff_bound_shrinks_with_n():
    assert laplacian_diff_bound(10_000, 3, 5) < laplacian_diff_bound(1000, 3, 5)


def test_laplacian_diff_bound_validation():
    with pytest.raises(ValueError):
        laplacian_diff_bound(1, 3, 5)
    with pytest.raises(ValueError):
        laplacian_diff_bound(1000, 3, 0)


# -- regimes ------------------------------------------------------------


def test_regimes_possibility_only():
    t1, t2, t3 = theorem_preconditions(100, 2, 2, 0.9, 1e-6, 1e-6, 3)
    assert t1.holds and not t2.holds and not t3.holds
    assert close(t1.lhs, fold_noise(1e-6, 1e-6) * 9)
    assert close(t1.rhs, 1.0 / (2.0 * math.e * 4 * 100))


def test_regimes_connectivity_example():
    t1, t2, _ = theorem_preconditions(2000, 8, 2, 0.9, 5e-4, 0.0, 16, c2=1.0)
    assert not t1.holds and t2.holds
    assert math.ceil(math.log(2000)) == 8


def test_regimes_strong_noise_example():
    # q above c3 ln(n)/(lam n) with d > ln n puts us in the third regime.
    q = 2.5 * math.log(2000) / (2 * 2000)
    _, _, t3 = theorem_preconditions(2000, 8, 2, 0.9, q, 0.0, 16)
    assert t3.holds


def test_regimes_never_overlap_when_exclusive():
    # Over a broad grid with c2 >= 1, theorems 1 and 2 never both hold.
    for n in (50, 500, 5000):
        for lam in (1, 2, 4):
            for ball in (1, 5, 25):
                for q_exp in range(-9, 0):
                    t1, t2, _ = theorem_preconditions(
                        n, max(1, math.ceil(math.log(n))), lam, 0.9, 10.0**q_exp, 0.0, ball
                    )
                    assert not (t1.holds and t2.holds)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 10**7),
    d=st.integers(1, 40),
    lam=st.integers(1, 10),
    ball_d=st.integers(1, 10),
    c2=st.floats(min_value=1.0, max_value=100.0),
    scale=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=2.0)),
    eps_minus=st.one_of(st.just(0.0), probabilities),
)
def test_possibility_and_connectivity_regimes_never_both_hold(n, d, lam, ball_d, c2, scale, eps_minus):
    # p_minus reaches theorem 2's threshold c2/(lam n) exactly at scale 1.
    # If theorems 1 and 2 both held with c2 >= 1, then
    # 1/(lam n) * B^2 <= q * B^2 < 1/(2e lam^2 n), so B^2 < 1/(2e lam) < 0.19;
    # but B(d) >= 1. The margin is a factor 2e lam >= 5.4, far past rounding.
    p_minus = min(1.0, scale * c2 / (lam * n))
    t1, t2, _ = theorem_preconditions(n, d, lam, 0.9, p_minus, eps_minus, ball_d, c2=c2)
    assert not (t1.holds and t2.holds)


def test_regimes_validation():
    with pytest.raises(ValueError):
        theorem_preconditions(0, 2, 2, 0.9, 1e-6, 0.0, 3)
    with pytest.raises(ValueError):
        theorem_preconditions(100, 2, 2, 0.9, 1e-6, 0.0, 3, c2=0.0)


@pytest.mark.parametrize("c2, c3", [(math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (2.0, math.inf)])
def test_regimes_reject_non_finite_constants(c2, c3):
    # NaN slipped past a plain <= 0 check and reached the JSON report.
    with pytest.raises(ValueError, match="finite and positive"):
        theorem_preconditions(100, 2, 2, 0.9, 1e-6, 0.0, 3, c2=c2, c3=c3)
    with pytest.raises(ValueError, match="finite and positive"):
        bound_report(100, 2, 2, 0.9, 1e-6, 1e-4, 0.0, 3, 1, c2=c2, c3=c3)


# -- report -------------------------------------------------------------


def test_bound_report_applicable_point():
    rep = bound_report(100, 2, 2, 0.9, 1e-7, 1e-4, 0.0, 5, 5)
    assert close(rep.gamma_star, GAMMA_STAR_REFERENCE)
    assert rep.gamma_star == max(0.0, rep.gamma_star_raw)
    assert rep.ub_disconnected is not None
    d = rep.to_json_dict()
    assert d["ub_applicable"] is True
    assert d["lambda"] == 2
    assert d["theorem1_regime"] is True


def test_bound_report_inapplicable_point():
    rep = bound_report(100, 2, 2, 0.9, 1e-3, 1e-4, 0.0, 5, 5)
    assert rep.ub_disconnected is None
    assert rep.ub_disconnected_raw > 1.0
    d = rep.to_json_dict()
    assert d["ub_disconnected"] is None
    assert d["ub_applicable"] is False


def test_bound_report_render_text():
    text = bound_report(100, 2, 2, 0.9, 1e-7, 1e-4, 0.0, 5, 5).render_text()
    for key in ("lb_connected", "ub_disconnected", "gamma_star", "theorem1_regime"):
        assert key in text
    # Floats are printed to 12 significant digits.
    assert "0.982362871295" in text


def test_bound_report_key_order_stable():
    a = bound_report(100, 2, 2, 0.9, 1e-7, 1e-4, 0.0, 5, 5)
    b = bound_report(200, 3, 1, 0.8, 1e-6, 1e-3, 1e-5, 4, 2)
    assert list(a.to_json_dict().keys()) == list(b.to_json_dict().keys())
