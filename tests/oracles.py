"""Oracles shared by the test modules: references that share no code with the package's kernels."""

from __future__ import annotations

import functools
import itertools
import math

import networkx as nx
import numpy as np

from meaninglab.graph import Graph
from meaninglab.meaning import MeaningGraph
from meaninglab.reasoning import GammaEstimate
from meaninglab.sampler import PairClass, SymbolGraph
from meaninglab.spectral import _Operator


def edges(g: Graph) -> list[tuple[int, int]]:
    """All edges of ``g`` as (u, v) with u < v, lexicographically sorted, read off its CSR slices."""
    return [(u, v) for u in range(g.n) for v in g.indices[g.indptr[u] : g.indptr[u + 1]].tolist() if u < v]


def to_networkx(g: Graph) -> nx.Graph:
    """``g`` as a networkx graph on nodes ``0..n-1``, isolated nodes included."""
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(edges(g))
    return ref


def component_lists(g: Graph) -> list[list[int]]:
    """Connected components of ``g`` by networkx, as sorted node lists ordered by smallest member."""
    return sorted(sorted(c) for c in nx.connected_components(to_networkx(g)))


def dense_operator(m: np.ndarray) -> _Operator:
    """A symmetric matrix as an operator ``spectral_norm`` accepts.

    Its product is an ``np.add.reduce`` sum over each row, in a fixed
    order, as the package's own operators are: no BLAS product.
    """
    m = np.asarray(m, dtype=np.float64)
    return _Operator(len(m), lambda x: np.add.reduce(m * x, axis=1))


def distance_matrix(g: Graph) -> np.ndarray:
    """``(n, n)`` int64 shortest-path lengths by networkx, -1 where there is no path."""
    dist = np.full((g.n, g.n), -1, dtype=np.int64)
    for u, lengths in nx.all_pairs_shortest_path_length(to_networkx(g)):
        dist[u, list(lengths)] = list(lengths.values())
    return dist


@functools.lru_cache(maxsize=256)
def pairs_at_distance(g: Graph, d: int) -> list[tuple[int, int]]:
    """Every ordered pair at exact distance ``d``, by networkx distances, sorted by (u, v)."""
    lengths = nx.all_pairs_shortest_path_length(to_networkx(g), cutoff=d)
    return sorted((u, v) for u, dist in lengths for v, k in dist.items() if k == d)


def reference_pick_pair_at_distance(gm: MeaningGraph, d: int, rng, count: int | None = None):
    """What ``pick_pair_at_distance(gm, d, rng, count=count)`` returns, from a Generator ``rng``.

    Each pick indexes the sorted list of pairs at distance d with one
    ``rng.integers(len(pairs), size=...)`` draw for the whole call. A call
    with no such pair returns None and draws nothing.
    """
    if count == 0:
        return []
    pairs = pairs_at_distance(gm.graph, d)
    if not pairs:
        return None
    picks = [pairs[i] for i in rng.integers(len(pairs), size=1 if count is None else count).tolist()]
    return picks if count is not None else picks[0]


def swept_ball(g: Graph, d: int) -> int:
    """The ball bound ``check_nontrivial`` reports: a fresh meaning graph's sweep to d."""
    return MeaningGraph(g)._rings.ball_bound(d)


def connectivity_probability(n: int, p: float) -> float:
    """Exact P[G(n, p) connected] by enumerating all labeled graphs."""
    pairs = list(itertools.combinations(range(n), 2))
    total = 0.0
    for mask in range(1 << len(pairs)):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        k = 0
        for b, (u, v) in enumerate(pairs):
            if mask >> b & 1:
                k += 1
                parent[find(u)] = find(v)
        if len({find(x) for x in range(n)}) == 1:
            total += p**k * (1 - p) ** (len(pairs) - k)
    return total


def pair_to_index(i: int, j: int, n: int) -> int:
    """Lexicographic index of unordered pair (i, j), i < j, in exact integer arithmetic."""
    if not 0 <= i < j < n:
        raise ValueError(f"bad pair ({i}, {j}) for n={n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def count_edges_by_class(sg: SymbolGraph, gm: MeaningGraph) -> dict[PairClass, int]:
    """Union-graph edge counts of ``sg``, split by the pair class of each edge's meaning nodes."""
    origin = sg.graph.edge_array() // sg.lam
    intra = origin[:, 0] == origin[:, 1]
    meaning = gm.graph.edge_array()
    on_edge = np.isin(origin[:, 0] * gm.n + origin[:, 1], meaning[:, 0] * gm.n + meaning[:, 1])
    return {
        PairClass.MEANING_EDGE: int(np.count_nonzero(on_edge)),
        PairClass.MEANING_NON_EDGE: int(np.count_nonzero(~on_edge & ~intra)),
        PairClass.INTRA_CLUSTER: int(np.count_nonzero(intra)),
    }


def std_error(est: GammaEstimate) -> float:
    """Combined binomial standard error of ``est.gamma_hat``."""
    v1 = est.p1 * (1.0 - est.p1) / est.trials
    v2 = est.p2 * (1.0 - est.p2) / est.trials
    return math.sqrt(v1 + v2)
