"""Local Laplacian comparison between coupled cut worlds.

The question here is whether removing a minimum cut between two meaning
nodes leaves a spectral fingerprint on the sampled symbol graphs: both
worlds are sampled with shared randomness, local Laplacians are taken on
the union of the search neighborhoods, normalized by their own spectral
norm, and the norm of the difference is compared against the analytic
closeness bound. A local Laplacian is never a matrix: it is applied on
the induced CSR subgraph, so the local set has no node cap.

No BLAS call lies on a path to an output: each OpenBLAS kernel sums in
its own order, so a dot product would make the written digits depend on
the CPU. Norms are ``np.add.reduce`` sums and products are ``reduceat``,
whose order is fixed; a new solver here keeps to that rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bounds import laplacian_diff_bound
from .graph import Graph, _as_nodes, _bit_levels, _neighbor_reduce
from .meaning import CutPair
from .rng import stream
from .sampler import SampleParams, SymbolGraph, sample_coupled

# Fixed entropy for the power-iteration start vector. Deterministic on
# purpose: norm computations must not perturb caller seed streams.
_START_VECTOR_SEED = 0x5EED


class SpectralNormResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


class _Operator:
    """A symmetric ``k x k`` linear map known only through ``op @ x``."""

    def __init__(self, k: int, apply: Callable[[np.ndarray], np.ndarray]):
        self.shape = (k, k)
        self._apply = apply

    def __matmul__(self, x) -> np.ndarray:
        return self._apply(np.asarray(x, dtype=np.float64))


class Laplacian(_Operator):
    """``D - A`` of ``graph``: ``L @ x`` is ``degree * x`` minus each node's neighbour sum of x."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.degree = graph.degrees.astype(np.float64)
        step = _neighbor_reduce(graph, np.add, 0.0, np.float64)
        super().__init__(graph.n, lambda x: self.degree * x - step(x))


def laplacian_of(g: Graph, nodes: Sequence[int]) -> Laplacian:
    """Combinatorial Laplacian of the induced subgraph on ``nodes``.

    ``nodes[i]`` becomes node i of the induced graph, and degrees are induced
    degrees. Duplicate nodes are refused rather than silently collapsed.
    """
    nodes = _as_nodes(g, list(nodes))
    k = len(nodes)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[nodes] = np.arange(k)
    # A repeated node keeps only its last position.
    repeat = np.flatnonzero(pos[nodes] != np.arange(k))
    if repeat.size:
        raise ValueError(f"duplicate node {nodes[repeat[0]]} in induced subset")
    ends = pos[g.edge_array()]
    return Laplacian(Graph(k, ends[(ends >= 0).all(axis=1)]))


def spectral_norm(m: np.ndarray | _Operator, tol: float = 1e-9, max_iter: int = 10_000) -> SpectralNormResult:
    """Largest absolute eigenvalue of a symmetric matrix by power iteration.

    ``m`` is a dense array, checked to be square, exactly symmetric and
    finite, or a symmetric operator from this module; only ``m.shape`` and
    ``m @ x`` are read. Iterates on m @ (m @ x), i.e. the square of the
    matrix, so dominant eigenvalues of opposite sign cannot trap the
    Rayleigh quotient at a spurious fixed point. Convergence means
    successive norm estimates agree to ``tol`` relative; running out of
    iterations returns the best estimate with ``converged=False`` rather
    than raising.
    """
    if not isinstance(m, _Operator):
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be exactly symmetric")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    x = stream(_START_VECTOR_SEED).standard_normal(m.shape[0])
    x /= np.sqrt(np.add.reduce(x * x))
    estimate = 0.0
    for it in range(1, max_iter + 1):
        y = m @ x
        ny = float(np.sqrt(np.add.reduce(y * y)))
        if ny == 0.0:
            # Only an empty or zero matrix gets here, and on the first pass.
            return SpectralNormResult(0.0, True, it - 1)
        current = ny  # ||m x|| for unit x: sqrt of the Rayleigh quotient of m^2
        z = m @ y
        nz = float(np.sqrt(np.add.reduce(z * z)))
        if nz == 0.0:
            return SpectralNormResult(current, True, it)
        x = z / nz
        if it > 1 and abs(current - estimate) <= tol * max(current, 1e-300):
            return SpectralNormResult(current, True, it)
        estimate = current
    return SpectralNormResult(estimate, False, max_iter)


@dataclass(frozen=True)
class SpectralTrial:
    """One coupled comparison between a cut world pair."""

    seed: int
    n: int
    lam: int
    p_minus: float
    d: int
    d_tilde: int
    cut_size: int
    neighborhood_size: int
    norm_l: float
    norm_l_prime: float
    diff_normalized: float
    analytic_bound: float
    within_bound: bool
    converged: bool


def _local_nodes(sg: SymbolGraph, sgp: SymbolGraph, w: int, w_prime: int, d_tilde: int) -> list[int]:
    """Sorted nodes within d_tilde of w or w_prime in either world's graph."""
    local = np.zeros(sg.graph.n, dtype=bool)
    for g in (sg.graph, sgp.graph):
        for _, _, seen in _bit_levels(g, np.array([w, w_prime], dtype=np.int64), d_tilde):
            pass
        local |= seen != 0
    return np.flatnonzero(local).tolist()


def coupled_cut_trial(
    cp: CutPair,
    params: SampleParams,
    d_tilde: int,
    seed: int,
    tol: float = 1e-6,
) -> SpectralTrial:
    """Sample both worlds, compare normalized local Laplacians.

    The local node set is the union of the d_tilde-neighborhoods of the
    representatives of m and m' in both sampled graphs. Each Laplacian is
    normalized by its own spectral norm (a zero-norm one is left as is),
    and the difference is applied as ``L @ x / |L| - L' @ x / |L'|``. All
    three norms default to a relative tolerance of 1e-6, ample against
    bounds of order 0.1.
    """
    if d_tilde < 0:
        raise ValueError(f"search radius must be nonnegative, got {d_tilde}")
    sg, sgp = sample_coupled(cp, params, seed)
    w = sg.representative(cp.m)
    w_prime = sg.representative(cp.m_prime)
    nodes = _local_nodes(sg, sgp, w, w_prime, d_tilde)
    lap = laplacian_of(sg.graph, nodes)
    lap_p = laplacian_of(sgp.graph, nodes)
    res = spectral_norm(lap, tol=tol)
    res_p = spectral_norm(lap_p, tol=tol)
    # Gershgorin sanity on every trial: the Laplacian norm can never pass
    # twice the largest induced degree.
    for op, r in ((lap, res), (lap_p, res_p)):
        max_deg = float(op.degree.max(initial=0.0))
        if r.value > 2.0 * max_deg * (1.0 + 1e-9) + 1e-12:
            raise AssertionError(f"spectral norm {r.value} exceeds Gershgorin limit {2.0 * max_deg}")
    scale, scale_p = res.value or 1.0, res_p.value or 1.0
    diff = _Operator(len(nodes), lambda x: lap @ x / scale - lap_p @ x / scale_p)
    res_diff = spectral_norm(diff, tol=tol)
    bound = laplacian_diff_bound(cp.g.n, params.lam, cp.g.graph.max_degree() + 1)
    return SpectralTrial(
        seed=seed,
        n=cp.g.n,
        lam=params.lam,
        p_minus=params.p_minus,
        d=cp.d,
        d_tilde=d_tilde,
        cut_size=len(cp.cut),
        neighborhood_size=len(nodes),
        norm_l=res.value,
        norm_l_prime=res_p.value,
        diff_normalized=res_diff.value,
        analytic_bound=bound,
        within_bound=res_diff.value <= bound,
        converged=res.converged and res_p.converged and res_diff.converged,
    )


SPECTRAL_CSV_HEADER = "seed,n,lambda,p_minus,d,d_tilde,cut_size,U_size,normL,normLp,diff,bound,within"


def spectral_csv_record(trial: SpectralTrial) -> str:
    fields = [
        trial.seed, trial.n, trial.lam, trial.p_minus, trial.d, trial.d_tilde,
        trial.cut_size, trial.neighborhood_size, trial.norm_l, trial.norm_l_prime,
        trial.diff_normalized, trial.analytic_bound, int(trial.within_bound),
    ]
    return ",".join(repr(f) if isinstance(f, float) else str(f) for f in fields)
