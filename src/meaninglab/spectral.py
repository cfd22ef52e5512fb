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
the CPU. The Lanczos solver's inner products and norms are
``np.add.reduce`` sums, Laplacian products are ``reduceat``, both in a
fixed order, and its small tridiagonal problem is solved in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bounds import laplacian_diff_bound
from .graph import Graph, _arc_tails, _as_nodes, _ball_nodes, _neighbor_reduce
from .meaning import CutPair
from .rng import stream
from .sampler import SampleParams, sample_coupled

# Fixed entropy for the Lanczos start vector. Deterministic on purpose:
# norm computations must not perturb caller seed streams.
_START_VECTOR_SEED = 0x5EED

# Lanczos vectors kept at once; a full basis restarts the process.
_BASIS = 64

# A Lanczos vector this small against the largest alpha or beta of T seen
# spans nothing new: the basis is taken as an invariant subspace.
_BREAKDOWN = 1e-13

# Steps between two stop tests. Each test solves the small tridiagonal
# matrix in Python, which costs more than a matrix-vector product.
_TEST_EVERY = 3


class SpectralNormResult(NamedTuple):
    value: float
    converged: bool
    iterations: int
    residual: float


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
        self.degree = graph.degrees.astype(np.float64)
        step = _neighbor_reduce(graph, np.add, 0.0, np.float64)
        super().__init__(graph.n, lambda x: self.degree * x - step(x))


def laplacian_of(g: Graph, nodes: Sequence[int]) -> Laplacian:
    """Combinatorial Laplacian of the induced subgraph on ``nodes``.

    ``nodes[i]`` becomes node i of the induced graph, and degrees are induced
    degrees. Duplicate nodes are refused rather than silently collapsed.
    """
    nodes = _as_nodes(g, nodes)
    k = len(nodes)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[nodes] = np.arange(k)
    # A repeated node keeps only its last position.
    repeat = np.flatnonzero(pos[nodes] != np.arange(k))
    if repeat.size:
        raise ValueError(f"duplicate node {nodes[repeat[0]]} in induced subset")
    # g's arcs with both ends in ``nodes``, both ways, renumbered by ``pos``.
    tails, heads = pos[_arc_tails(g)], pos[g.indices]
    inside = (tails >= 0) & (heads >= 0)
    tails, heads = tails[inside], heads[inside]
    return Laplacian(Graph._from_arcs(k, tails * k + heads, np.bincount(tails, minlength=k)))


def spectral_norm(m: _Operator, tol: float = 1e-9, max_iter: int = 10_000) -> SpectralNormResult:
    """Largest absolute eigenvalue of a symmetric operator by the Lanczos process.

    ``m`` is a symmetric operator from this module, such as a
    :class:`Laplacian`; only ``m.shape`` and ``m @ x`` are read. Anything
    else, a dense array included, raises TypeError: an array's ``@`` is a
    BLAS product, whose digits depend on the CPU. Each Lanczos step is one
    product ``m @ q`` and extends an orthonormal basis q_1..q_j of the
    Krylov space: the three-term recurrence, then a classical Gram-Schmidt
    pass against the whole basis, and a second pass when the first leaves
    less than 1/sqrt(2) of the vector (Daniel, Gragg, Kaufman and Stewart,
    1976).
    ``m`` restricted to the basis is then a tridiagonal T_j with diagonal
    alpha and off-diagonal beta (Golub and Van Loan, *Matrix
    Computations*, ch. 10). The extreme eigenvalues theta of T_j are found
    by Laguerre's method from above (or below) its spectrum, and their
    eigenvectors s by inverse iteration; ``m`` has an eigenvalue within
    ``beta_j * |s_j|`` of theta, beta_j being the norm of the next basis
    vector before scaling (Parlett, *The Symmetric Eigenvalue Problem*,
    sec. 13.2).

    Every few steps both ends of T_j are tested. Convergence means the
    end with the larger ``|theta|`` has ``beta_j * |s_j| <= tol * |theta|``,
    and the other end's ``|theta|`` plus its own bound is at most
    ``(1 + tol) * |theta|``, so that no eigenvalue near the other end can
    pass the reported one by more than the tolerance either. The result's
    ``value`` is that ``|theta|``, and its ``residual`` that end's
    ``beta_j * |s_j|``. A basis that spans an invariant subspace (beta_j
    below ``_BREAKDOWN`` of the largest alpha or beta seen, or j = k)
    holds its eigenvalues exactly and stops converged. A full basis of
    ``_BASIS`` vectors restarts from the lead end's Ritz vector or, once
    that end has converged, from the sum of both ends' Ritz vectors: a
    converged vector alone would span an invariant subspace at once and
    leave the other end unresolved. ``iterations`` counts Lanczos steps,
    one product each; running out of them returns the latest estimate
    with ``converged=False`` rather than raising.
    """
    if not isinstance(m, _Operator):
        raise TypeError(f"spectral_norm takes a symmetric operator, not {type(m).__name__}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"iteration budget must be positive, got {max_iter}")
    k = m.shape[0]
    if k == 0:
        return SpectralNormResult(0.0, True, 0, 0.0)
    q = stream(_START_VECTOR_SEED).standard_normal(k)
    steps, scale = 0, 0.0
    while True:
        basis = np.empty((min(_BASIS, k), k))
        basis[0] = q / np.sqrt(np.add.reduce(q * q))
        alpha: list[float] = []
        beta: list[float] = []
        for j in range(len(basis)):
            w = m @ basis[j]
            steps += 1
            if j:
                w -= beta[-1] * basis[j - 1]
            a = float(np.add.reduce(basis[j] * w))
            w -= a * basis[j]
            scale = max(scale, abs(a), beta[-1] if j else 0.0)
            before = float(np.sqrt(np.add.reduce(w * w)))
            w, h = _orthogonalize(w, basis[: j + 1])
            after = float(np.sqrt(np.add.reduce(w * w)))
            if after < before / math.sqrt(2.0):
                w, again = _orthogonalize(w, basis[: j + 1])
                h += again
                after = float(np.sqrt(np.add.reduce(w * w)))
            alpha.append(a + float(h[j]))
            invariant = after <= _BREAKDOWN * scale or j + 1 == k
            final = invariant or steps >= max_iter
            full = j + 1 == len(basis)
            if final or full or (j + 1) % _TEST_EVERY == 0:
                top = _ritz_end(alpha, beta, 1.0)
                # No eigenvalue of T lies below its Gershgorin floor. With the
                # floor at or above -theta_top the top end leads, and while its
                # own bound fails the bottom end cannot change the verdict.
                if final or full or after * abs(top[1][-1]) <= tol * abs(top[0]) or _floor(alpha, beta) < -top[0]:
                    low = _ritz_end(alpha, beta, -1.0)
                    lead, other = (top, low) if abs(top[0]) >= abs(low[0]) else (low, top)
                    value, bound = abs(lead[0]), after * abs(lead[1][-1])
                    converged = invariant or (
                        bound <= tol * value and abs(other[0]) + after * abs(other[1][-1]) <= (1.0 + tol) * value
                    )
                    if converged or final:
                        return SpectralNormResult(value, converged, steps, bound)
                    if full:
                        keep = lead[1] if bound > tol * value else np.add(lead[1], other[1])
                        q = np.add.reduce(basis * np.asarray(keep)[:, None], axis=0)
                        break
            beta.append(after)
            basis[j + 1] = w / after


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One classical Gram-Schmidt pass: w less its components along the basis rows, and those components."""
    h = np.add.reduce(basis * w, axis=1)
    return w - np.add.reduce(basis * h[:, None], axis=0), h


def _floor(alpha: list[float], beta: list[float]) -> float:
    """The Gershgorin lower bound on the tridiagonal T with diagonal ``alpha`` and off-diagonal ``beta``."""
    off = [0.0, *beta, 0.0]
    return min(a - off[i] - off[i + 1] for i, a in enumerate(alpha))


def _ritz_end(alpha: list[float], beta: list[float], sign: float) -> tuple[float, list[float]]:
    """The eigenpair ``(theta, s)`` at the top (sign 1) or bottom (sign -1) end of the tridiagonal T.

    T has diagonal ``alpha`` and off-diagonal ``beta``; s is a unit
    vector. T is scaled by a Gershgorin bound on its norm first, so that
    no determinant below can leave the float range.
    """
    off = [0.0, *beta, 0.0]
    norm = max(abs(a) + off[i] + off[i + 1] for i, a in enumerate(alpha)) or 1.0
    theta, s = _top_eigenpair([sign * a / norm for a in alpha], [b / norm for b in beta])
    return sign * norm * theta, s


def _top_eigenpair(a: list[float], b: list[float]) -> tuple[float, list[float]]:
    """The largest eigenvalue and a unit eigenvector of a tridiagonal matrix of norm at most 1.

    The matrix is symmetric, with diagonal a and off-diagonal b.
    """
    n = len(a)
    off = [0.0, *b, 0.0]
    # Gershgorin: no eigenvalue lies above a row's diagonal plus its off-diagonal sum.
    x = max(a[i] + off[i] + off[i + 1] for i in range(n))
    b2 = [v * v for v in b]
    for _ in range(100):
        # p, p' and p'' of det(T - xI) by the three-term recurrence. Every
        # |a[i] - x| <= 2 and b2[i] <= 1, so |p| grows at most as (1 + sqrt 2)^n.
        p0, p1, d0, d1, e0, e1 = 1.0, a[0] - x, 0.0, -1.0, 0.0, 0.0
        for i in range(1, n):
            c, bb = a[i] - x, b2[i - 1]
            p0, p1, d0, d1, e0, e1 = p1, c * p1 - bb * p0, d1, c * d1 - bb * d0 - p1, e1, c * e1 - bb * e0 - 2.0 * d1
        if p1 == 0.0:
            break
        # Laguerre's step; from above every root, it falls monotonically
        # onto the largest. Rounding may leave x just below it, where the
        # step turns upward and the search stops.
        g = d1 / p1
        root = math.sqrt(max((n - 1) * (n * (g * g - e1 / p1) - g * g), 0.0))
        step = n / (g + math.copysign(root, g))
        if not step > 4e-16:
            break
        x -= step
    return x, _inverse_iteration(a, b, x)


def _inverse_iteration(a: list[float], b: list[float], theta: float) -> list[float]:
    """A unit eigenvector of the tridiagonal matrix for its extreme eigenvalue theta: two solves of (T - theta I) y = y.

    T - theta I is semidefinite with definite leading blocks, so
    elimination without pivoting (Thomas) is stable; the norm of T is at
    most 1, and a pivot below 1e-16 is raised to that.
    """
    pivot, pivots, factors = a[0] - theta, [], []
    for ai, bi in zip(a[1:], b):
        pivot = pivot if abs(pivot) > 1e-16 else 1e-16
        pivots.append(pivot)
        factors.append(bi / pivot)
        pivot = ai - theta - factors[-1] * bi
    pivots.append(pivot if abs(pivot) > 1e-16 else 1e-16)
    n = len(a)
    y = [1.0] * n
    for _ in range(2):
        for i in range(1, n):
            y[i] -= factors[i - 1] * y[i - 1]
        y[-1] /= pivots[-1]
        for i in range(n - 2, -1, -1):
            y[i] = (y[i] - b[i] * y[i + 1]) / pivots[i]
        big = max(map(abs, y))
        y = [v / big for v in y]
    # fsum is correctly rounded, so the norm does not depend on the Python version.
    norm = math.sqrt(math.fsum(v * v for v in y))
    return [v / norm for v in y]


@dataclass(frozen=True)
class SpectralTrial:
    """One coupled comparison between a cut world pair.

    ``within_bound`` compares the Ritz value ``diff_normalized`` itself
    with ``analytic_bound``, not that value plus its residual bound.
    ``converged`` holds when all three norms converged, and ``resid`` is
    the largest relative residual bound ``||r|| / theta`` of the three.
    """

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
    resid: float


def coupled_cut_trial(
    cp: CutPair,
    params: SampleParams,
    d_tilde: int,
    seed: int,
    tol: float = 1e-6,
) -> SpectralTrial:
    """Sample both worlds, compare normalized local Laplacians.

    The local node set is the union of the d_tilde-neighborhoods of the
    representatives of m and m' in both sampled graphs. The worlds' edge
    sets are nested, so that union is the neighborhoods in the world with
    more edges, and one BFS of it from both representatives finds them.
    Each Laplacian is normalized by its own spectral norm (a zero-norm one
    is left as is), and the difference is applied as ``L @ x / |L| - L' @
    x / |L'|``. All three norms default to a relative tolerance of 1e-6,
    ample against bounds of order 0.1.
    """
    if d_tilde < 0:
        raise ValueError(f"search radius must be nonnegative, got {d_tilde}")
    sg, sgp = sample_coupled(cp, params, seed)
    w = sg.representative(cp.m)
    w_prime = sg.representative(cp.m_prime)
    # One world's edges contain the other's (see sample_coupled) and balls only
    # grow with edges, so the balls of the world with more edges hold both.
    nodes = _ball_nodes(max(sg.graph, sgp.graph, key=lambda g: g.edge_count), np.array([w, w_prime]), d_tilde)
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
        resid=max(_relative_residual(r) for r in (res, res_p, res_diff)),
    )


def _relative_residual(r: SpectralNormResult) -> float:
    """``||r|| / theta``; 0 for an exact zero norm."""
    if r.value:
        return r.residual / r.value
    return math.inf if r.residual else 0.0


SPECTRAL_CSV_HEADER = "seed,n,lambda,p_minus,d,d_tilde,cut_size,U_size,normL,normLp,diff,bound,within,converged,resid"


def spectral_csv_record(trial: SpectralTrial) -> str:
    """One CSV row in ``SPECTRAL_CSV_HEADER`` order: the trial's fields, floats by repr and the rest as integers."""
    values = (getattr(trial, f.name) for f in fields(trial))
    return ",".join(repr(v) if isinstance(v, float) else str(int(v)) for v in values)
