"""Closed-form success bounds and regime checks for hypothesis separation.

Pure float arithmetic, natural logarithms throughout, ``math.e`` at full
float precision. Reported probabilities are clamped to [0, 1] with the
raw value retained alongside, because the raw value is what monotonicity
and sandwich identities are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .sampler import fold_noise


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _check_common(lam: int, *probs: float) -> None:
    if lam < 1:
        raise ValueError(f"lam must be at least 1, got {lam}")
    for v in probs:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"probability {v!r} outside [0, 1]")


def lb_connected(d: int, lam: int, p_plus: float, eps_plus: float, eps_minus: float) -> float:
    """Lower bound on answering H1 when the pair is at distance d.

    The first factor is cluster survival (each of the d+1 clusters on the
    path must be internally connected), the second is per-hop linkage
    (some of the lam^2 slots over each path edge must fire).
    """
    if d < 1:
        raise ValueError(f"distance must be positive, got {d}")
    _check_common(lam, p_plus, eps_plus, eps_minus)
    p_eff = fold_noise(p_plus, eps_minus)
    cluster = max(0.0, 1.0 - 2.0 * math.e**3 * eps_plus ** (lam / 2.0))
    hop = 1.0 - (1.0 - p_eff) ** (lam * lam)
    return _clamp01(cluster ** (d + 1) * hop**d)


def ub_disconnected_raw(n: int, lam: int, p_minus: float, eps_minus: float, ball_d: int) -> float:
    """The 2en(lam*B)^2*q expression without its validity check."""
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if ball_d < 1:
        raise ValueError(f"ball bound must be positive, got {ball_d}")
    _check_common(lam, p_minus, eps_minus)
    q = fold_noise(p_minus, eps_minus)
    return 2.0 * math.e * n * (lam * ball_d) ** 2 * q


def ub_disconnected(n: int, lam: int, p_minus: float, eps_minus: float, ball_d: int) -> float | None:
    """Upper bound on answering H1 when the pair is disconnected.

    Valid only while (lam*B(d))^2 * (p_minus + eps_minus fold) stays at or
    below 1/(2en); outside that regime returns None rather than a number
    that bounds nothing.
    """
    raw = ub_disconnected_raw(n, lam, p_minus, eps_minus, ball_d)
    applies = (lam * ball_d) ** 2 * fold_noise(p_minus, eps_minus) <= 1.0 / (2.0 * math.e * n)
    return _clamp01(raw) if applies else None


def gamma_star_raw(
    n: int,
    d: int,
    lam: int,
    p_plus: float,
    p_minus: float,
    eps_plus: float,
    eps_minus: float,
    ball_d: int,
) -> float:
    """Separation target before clamping: the lower bound minus the raw upper-bound expression.

    :class:`BoundReport` reports it, and floored at zero as ``gamma_star``.
    """
    lb = lb_connected(d, lam, p_plus, eps_plus, eps_minus)
    return lb - ub_disconnected_raw(n, lam, p_minus, eps_minus, ball_d)


class GilbertBounds(NamedTuple):
    exact: float
    corollary: float


def gilbert_bounds(n: int, p: float) -> GilbertBounds:
    """Lower bounds on the connectivity probability of G(n, p).

    ``exact`` is the recursive-formula bound, ``corollary`` the loosened
    1 - 2e^3 q^(n/2) form (meaningful only for q <= 1/2). Both clamped to
    [0, 1]; a single node counts as connected.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if n == 1:
        return GilbertBounds(1.0, 1.0)
    q = 1.0 - p
    half = q ** ((n - 2) / 2.0)
    grown = (1.0 + half) ** (n - 1)
    bracket = q ** (n - 1) * (grown - q ** ((n - 2) * (n - 1) / 2.0))
    bracket += q ** (n / 2.0) * (grown - 1.0)
    exact = _clamp01(1.0 - bracket)
    corollary = _clamp01(1.0 - 2.0 * math.e**3 * q ** (n / 2.0))
    return GilbertBounds(exact, corollary)


def laplacian_diff_bound(n: int, lam: int, ball_1: int) -> float:
    """Bound on the normalized-Laplacian gap between coupled cut worlds."""
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    if ball_1 < 1:
        raise ValueError(f"1-ball bound must be positive, got {ball_1}")
    if lam < 1:
        raise ValueError(f"lam must be at least 1, got {lam}")
    return math.sqrt(2.0 * lam) * ball_1 / math.sqrt(n * math.log(n * lam))


@dataclass(frozen=True)
class TheoremRegime:
    holds: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form quantity for one parameter point, plus regime flags.

    ``ub_disconnected`` is None outside its validity regime; the
    raw expression value is always retained. ``gamma_star`` is
    max(0, lb_connected - ub_disconnected_raw), so whenever the upper
    bound applies it is max(0, lb_connected - ub_disconnected).
    """

    n: int
    d: int
    lam: int
    p_plus: float
    p_minus: float
    eps_plus: float
    eps_minus: float
    ball_d: int
    ball_1: int
    c2: float
    c3: float
    lb_connected: float
    ub_disconnected: float | None
    ub_disconnected_raw: float
    gamma_star: float
    gamma_star_raw: float
    theorem1: TheoremRegime
    theorem2: TheoremRegime
    theorem3: TheoremRegime

    def to_json_dict(self) -> dict:
        """The fields in order, ``lam`` as ``lambda``, ``ub_applicable`` after
        ``ub_disconnected``, and each theorem as ``_regime``, ``_lhs`` and ``_rhs``."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, TheoremRegime):
                out |= {f"{f.name}_regime": value.holds, f"{f.name}_lhs": value.lhs, f"{f.name}_rhs": value.rhs}
            else:
                out["lambda" if f.name == "lam" else f.name] = value
            if f.name == "ub_disconnected":
                out["ub_applicable"] = value is not None
        return out

    def render_text(self) -> str:
        rows = []
        for key, value in self.to_json_dict().items():
            if isinstance(value, float):
                rows.append(f"{key:22s} {value:.12g}")
            else:
                rows.append(f"{key:22s} {value}")
        return "\n".join(rows)


def theorem_preconditions(
    n: int,
    d: int,
    lam: int,
    p_plus: float,
    p_minus: float,
    eps_minus: float,
    ball_d: int,
    c2: float = 2.0,
    c3: float = 2.0,
) -> tuple[TheoremRegime, TheoremRegime, TheoremRegime]:
    """Evaluate the three theorem regimes for one parameter point.

    Possibility needs folded noise below 1/(2e lam^2 n) after the B(d)^2
    factor; the impossibility regimes need it at or above c/(lam n) (with
    d at least ceil(ln n)) or above c ln n/(lam n) (with d above ln n).
    For c2 >= 1 the first two regimes are mutually exclusive, which is
    asserted here rather than trusted.
    """
    if n < 1 or d < 1 or ball_d < 1:
        raise ValueError("n, d and ball_d must be positive")
    _check_common(lam, p_plus, p_minus, eps_minus)
    # Written so that NaN fails too; an infinite constant has no regime.
    if not (0 < c2 < math.inf and 0 < c3 < math.inf):
        raise ValueError(f"regime constants must be finite and positive, got c2={c2}, c3={c3}")
    q = fold_noise(p_minus, eps_minus)
    t1 = TheoremRegime(
        holds=q * ball_d**2 < 1.0 / (2.0 * math.e * lam**2 * n),
        lhs=q * ball_d**2,
        rhs=1.0 / (2.0 * math.e * lam**2 * n),
    )
    t2 = TheoremRegime(
        holds=q >= c2 / (lam * n) and d >= math.ceil(math.log(n)),
        lhs=q,
        rhs=c2 / (lam * n),
    )
    t3 = TheoremRegime(
        holds=q > c3 * math.log(n) / (lam * n) and d > math.log(n),
        lhs=q,
        rhs=c3 * math.log(n) / (lam * n),
    )
    if c2 >= 1.0 and t1.holds and t2.holds:
        raise AssertionError("possibility and connectivity regimes cannot overlap")
    return t1, t2, t3


def bound_report(
    n: int,
    d: int,
    lam: int,
    p_plus: float,
    p_minus: float,
    eps_plus: float,
    eps_minus: float,
    ball_d: int,
    ball_1: int,
    c2: float = 2.0,
    c3: float = 2.0,
) -> BoundReport:
    """Assemble the full report for one parameter point."""
    if ball_1 < 1:
        raise ValueError(f"1-ball bound must be positive, got {ball_1}")
    gs_raw = gamma_star_raw(n, d, lam, p_plus, p_minus, eps_plus, eps_minus, ball_d)
    t1, t2, t3 = theorem_preconditions(n, d, lam, p_plus, p_minus, eps_minus, ball_d, c2, c3)
    return BoundReport(
        n=n,
        d=d,
        lam=lam,
        p_plus=p_plus,
        p_minus=p_minus,
        eps_plus=eps_plus,
        eps_minus=eps_minus,
        ball_d=ball_d,
        ball_1=ball_1,
        c2=c2,
        c3=c3,
        lb_connected=lb_connected(d, lam, p_plus, eps_plus, eps_minus),
        ub_disconnected=ub_disconnected(n, lam, p_minus, eps_minus, ball_d),
        ub_disconnected_raw=ub_disconnected_raw(n, lam, p_minus, eps_minus, ball_d),
        gamma_star=max(0.0, gs_raw),
        gamma_star_raw=gs_raw,
        theorem1=t1,
        theorem2=t2,
        theorem3=t3,
    )
