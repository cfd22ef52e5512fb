"""Oracles shared by the test modules: references that share no code with the package's kernels."""

from __future__ import annotations

import functools
import itertools

import networkx as nx

from meaninglab.graph import Graph
from meaninglab.meaning import MeaningGraph


def to_networkx(g: Graph) -> nx.Graph:
    """``g`` as a networkx graph on nodes ``0..n-1``, isolated nodes included."""
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    return ref


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
