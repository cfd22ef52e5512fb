"""Connectivity hypothesis testing on sampled symbol graphs.

The separator answers "are these two meaning nodes within distance d" by
running a capped BFS between symbol representatives over the union of
structural and similarity edges. The BFS is bidirectional
(:func:`graph.bfs_distance`): it grows a ball around each representative,
always the one with the smaller frontier, and stops when the balls meet
or their radii add up to the cap, so on a small-world graph it touches
far fewer nodes than one ball of the full radius. ``estimate_gamma``
Monte-Carlos the gap between the acceptance probability under the
connected hypothesis and under the disconnected one, with Wilson
intervals on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt

from .graph import bfs_distance
from .meaning import MeaningGraph, pick_disconnected_pair, pick_pair_at_distance
from .rng import STREAM_REPRESENTATIVE, STREAM_TRIAL, run_tasks, stream, subseed
from .sampler import SampleParams, SymbolGraph, sample_symbol_graph

WILSON_Z = 1.959963984540054  # two-sided 95%


class Hypothesis(Enum):
    H1 = "connected-within-d"
    H2 = "disconnected"


class DTildeMode(Enum):
    POSSIBILITY = "possibility"
    IMPOSSIBILITY = "impossibility"


class NoFixtureError(RuntimeError):
    """The meaning graph offers no pair for the requested hypothesis."""


def choose_d_tilde(mode: DTildeMode, lam: int, d: int) -> int:
    """Symbol-graph search radius for a meaning-graph distance d.

    The possibility setting stretches d by the worst-case intra-cluster
    detours (lam*d + lam - 1); the impossibility setting uses the bare
    stretched distance lam*d.
    """
    if lam < 1:
        raise ValueError(f"lam must be at least 1, got {lam}")
    if d < 1:
        raise ValueError(f"distance must be positive, got {d}")
    if mode is DTildeMode.POSSIBILITY:
        return lam * d + lam - 1
    return lam * d


def separator(sg: SymbolGraph, w: int, w_prime: int, d_tilde: int) -> Hypothesis:
    """H1 iff some path of length at most d_tilde joins the two symbols.

    Paths may use edges of either kind; the separator never sees the
    hidden meaning graph.
    """
    if w == w_prime:
        raise ValueError("separator endpoints must be distinct symbols")
    if d_tilde < 0:
        raise ValueError(f"search radius must be nonnegative, got {d_tilde}")
    dist = bfs_distance(sg.graph, w, w_prime, cap=d_tilde)
    return Hypothesis.H2 if dist is None else Hypothesis.H1


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range for {trials} trials")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


CSV_HEADER = "n,d,lambda,p_plus,p_minus,eps_plus,eps_minus,d_tilde,trials,p1,p2,gamma,ci_lo,ci_hi"


@dataclass(frozen=True)
class GammaEstimate:
    """Monte-Carlo estimate of the separation between the two hypotheses.

    ``p1`` and ``p2`` are the H1-answer rates under the connected and the
    disconnected fixtures; ``gamma_hat = p1 - p2``. The gamma interval is
    the conservative difference of the two Wilson intervals.
    """

    n: int
    d: int
    params: SampleParams
    d_tilde: int
    trials: int
    positives_h1: int
    positives_h2: int

    @property
    def p1(self) -> float:
        return self.positives_h1 / self.trials

    @property
    def p2(self) -> float:
        return self.positives_h2 / self.trials

    @property
    def gamma_hat(self) -> float:
        return self.p1 - self.p2

    @property
    def gamma_ci(self) -> tuple[float, float]:
        lo1, hi1 = wilson_interval(self.positives_h1, self.trials)
        lo2, hi2 = wilson_interval(self.positives_h2, self.trials)
        return (lo1 - hi2, hi1 - lo2)

    def csv_record(self) -> str:
        p = self.params
        lo, hi = self.gamma_ci
        fields = [
            self.n, self.d, p.lam, p.p_plus, p.p_minus, p.eps_plus, p.eps_minus,
            self.d_tilde, self.trials, self.p1, self.p2, self.gamma_hat, lo, hi,
        ]
        return ",".join(repr(f) if isinstance(f, float) else str(f) for f in fields)


def _pick_fixtures(gm: MeaningGraph, d: int, seed: int, trial_ids: list[int]) -> list[tuple[tuple, tuple]]:
    """Each trial's connected pair at distance ``d`` and its disconnected pair.

    Every connected pick reads the meaning graph's table of rings at d.
    Raises :class:`NoFixtureError` at the first trial that finds the
    meaning graph has no such pair.
    """
    fixtures = []
    for t in trial_ids:
        pair1 = pick_pair_at_distance(gm, d, stream(seed, STREAM_TRIAL, t, 0))
        pair2 = pick_disconnected_pair(gm, stream(seed, STREAM_TRIAL, t, 1))
        if pair1 is None:
            raise NoFixtureError(f"no pair at distance {d} in the meaning graph")
        if pair2 is None:
            raise NoFixtureError("no disconnected pair in the meaning graph")
        fixtures.append((pair1, pair2))
    return fixtures


def _run_trials(
    gm: MeaningGraph,
    d: int,
    params: SampleParams,
    d_tilde: int,
    seed: int,
    trial_ids: list[int],
    representative: str,
    pairs: tuple | None,
) -> tuple[int, int]:
    pos1 = pos2 = 0
    lam = params.lam
    # Every fixture is picked before the first symbol graph is sampled.
    fixtures = _pick_fixtures(gm, d, seed, trial_ids) if pairs is None else [pairs] * len(trial_ids)
    for t, (pair1, pair2) in zip(trial_ids, fixtures):
        sg = sample_symbol_graph(gm, params, subseed(seed, STREAM_TRIAL, t, 2))
        if representative == "first":
            reps = [lam * m for m in (*pair1, *pair2)]
        else:
            rng = stream(seed, STREAM_REPRESENTATIVE, t)
            reps = [lam * m + int(rng.integers(lam)) for m in (*pair1, *pair2)]
        if separator(sg, reps[0], reps[1], d_tilde) is Hypothesis.H1:
            pos1 += 1
        if separator(sg, reps[2], reps[3], d_tilde) is Hypothesis.H1:
            pos2 += 1
    return pos1, pos2


def estimate_gamma(
    gm: MeaningGraph,
    d: int,
    params: SampleParams,
    d_tilde: int,
    trials: int,
    seed: int,
    representative: str = "first",
    fixed_pairs: bool = False,
    threads: int = 1,
) -> GammaEstimate:
    """Estimate the hypothesis separation by repeated fresh sampling.

    Each trial draws a fresh connected pair at exact distance ``d`` and a
    fresh disconnected pair (unless ``fixed_pairs``), samples one symbol
    graph from its own trial stream, and runs the separator on symbol
    representatives of both fixtures. Raises :class:`NoFixtureError` when
    the graph cannot supply a fixture at all. Results are independent of
    ``threads``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if representative not in ("first", "uniform"):
        raise ValueError(f"unknown representative policy {representative!r}")
    pairs = _pick_fixtures(gm, d, seed, [0])[0] if fixed_pairs else None
    ids = list(range(trials))
    # Blocks, not trials: a task per trial interleaves picks and samples, measured slower (allocation order).
    chunk = -(-trials // max(threads, 1))
    blocks = [ids[i : i + chunk] for i in range(0, trials, chunk)]
    tasks = [(gm, d, params, d_tilde, seed, blk, representative, pairs) for blk in blocks]
    counts = run_tasks(_run_trials, tasks, threads)
    pos1 = sum(a for a, _ in counts)
    pos2 = sum(b for _, b in counts)
    return GammaEstimate(
        n=gm.n,
        d=d,
        params=params,
        d_tilde=d_tilde,
        trials=trials,
        positives_h1=pos1,
        positives_h2=pos2,
    )
