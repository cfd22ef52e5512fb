"""Immutable undirected-graph primitives.

Nodes are dense integer indices ``0..n-1``. Everything downstream (meaning
graphs, sampled symbol graphs, induced subgraphs for spectral work) is
built on this one representation, so the operations here are deliberately
small: BFS with an explicit cap, neighborhood counting, unit-capacity
minimum cut, connected components, and a plain text edge-list format.

Traversal comes in two forms. :func:`bfs_distances` answers many capped
(source, target) queries at once with a level-synchronous multi-source
BFS: 64 sources share one ``uint64`` word per node, and each level is a
single ``bitwise_or.reduceat`` over CSR arrays that the graph builds on
first use. :func:`ball_bound` counts the same bitsets. A single query
(:func:`bfs_distance`, and the separator built on it) stays on a plain
deque BFS: it stops at its target, and for one query on a graph of a few
thousand nodes it costs less than a numpy BFS whose every level is a pass
over the whole graph.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import chain
from typing import Iterable, Iterator

import numpy as np


class Unreachable:
    """Sentinel for "no path within the cap"; never compares equal to an int."""

    _instance = None

    def __new__(cls) -> "Unreachable":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNREACHABLE"

    def __reduce__(self):
        return (Unreachable, ())


UNREACHABLE = Unreachable()


class Graph:
    """Simple undirected graph, immutable after construction.

    Self-loops are rejected; duplicate edges collapse. Neighbor lists are
    kept sorted so traversal order, and therefore every seeded algorithm
    built on top, is deterministic.
    """

    __slots__ = ("n", "_adj", "_edge_count", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"node count must be nonnegative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(s)) for s in adj))
        object.__setattr__(self, "_edge_count", sum(len(a) for a in adj) // 2)
        object.__setattr__(self, "_csr", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- queries ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        row = self._adj[u]
        k = bisect_left(row, v)
        return k < len(row) and row[k] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        for u in range(self.n):
            for v in self._adj[u]:
                if v > u:
                    yield (u, v)

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} out of range for {self.n} nodes")

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``: node u's sorted neighbors are
        ``indices[indptr[u]:indptr[u + 1]]``. Built on first call, then cached."""
        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum([len(a) for a in self._adj], out=indptr[1:])
            indices = np.fromiter(chain.from_iterable(self._adj), dtype=np.int64, count=int(indptr[-1]))
            indptr.flags.writeable = indices.flags.writeable = False
            object.__setattr__(self, "_csr", (indptr, indices))
        return self._csr

    def remove_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the given edges deleted; absent edges are an error."""
        drop = set()
        for u, v in edges:
            if not self.has_edge(u, v):
                raise ValueError(f"cannot remove absent edge ({u}, {v})")
            drop.add((min(u, v), max(u, v)))
        kept = (e for e in self.edges() if e not in drop)
        return Graph(self.n, kept)

    def __reduce__(self):
        return (Graph, (self.n, tuple(self.edges())))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._edge_count})"


def _bfs_levels(g: Graph, s: int, cap: int | None = None) -> list[int]:
    """Distance from s to every node, -1 where unreached (internal)."""
    dist = [-1] * g.n
    dist[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        du = dist[u]
        if cap is not None and du >= cap:
            continue
        for v in g.neighbors(u):
            if dist[v] < 0:
                dist[v] = du + 1
                q.append(v)
    return dist


def bfs_distance(g: Graph, u: int, v: int, cap: int | None = None) -> int | Unreachable:
    """Shortest-path length from u to v, or UNREACHABLE.

    With a cap, any distance strictly greater than ``cap`` reports
    UNREACHABLE and the search never expands past depth ``cap``.
    """
    g._check_node(u)
    g._check_node(v)
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    if u == v:
        return 0
    dist = [-1] * g.n
    dist[u] = 0
    q = deque([u])
    while q:
        x = q.popleft()
        dx = dist[x]
        if cap is not None and dx >= cap:
            continue
        for y in g.neighbors(x):
            if dist[y] < 0:
                if y == v:
                    return dx + 1
                dist[y] = dx + 1
                q.append(y)
    return UNREACHABLE


def neighborhood_size(g: Graph, s: int, d: int) -> int:
    """Number of nodes within distance d of s, counting s itself."""
    g._check_node(s)
    if d < 0:
        raise ValueError(f"radius must be nonnegative, got {d}")
    levels = _bfs_levels(g, s, cap=d)
    return sum(1 for x in levels if x >= 0)


# Bit j of a node's word marks source j of the current 64-source pass.
_WORD = 64
_BITS = np.left_shift(np.uint64(1), np.arange(_WORD, dtype=np.uint64))


def _bit_levels(g: Graph, src: np.ndarray, cap: int | None) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Level-synchronous BFS from up to 64 sources at once.

    Yields ``(level, front, seen)`` for level 0 (the sources) and every
    later level up to ``cap`` that reaches a new node: ``front[x]`` has
    bit j set when x is at exactly that distance from ``src[j]``, and
    ``seen`` (updated in place) accumulates all levels so far.
    """
    indptr, indices = g.csr()
    seen = np.zeros(g.n, dtype=np.uint64)
    # A source may repeat within a pass; each copy keeps its own bit.
    np.bitwise_or.at(seen, src, _BITS[: len(src)])
    front = seen.copy()
    yield 0, front, seen
    if len(indices) == 0:
        return
    # reduceat over an empty segment returns the element at its start, and
    # an isolated last node starts one past the end: pad with a zero word
    # and clear degree-0 nodes after each level.
    gathered = np.zeros(len(indices) + 1, dtype=np.uint64)
    starts = indptr[:-1]
    isolated = np.flatnonzero(indptr[1:] == starts)
    level = 0
    while cap is None or level < cap:
        np.take(front, indices, out=gathered[:-1])
        front = np.bitwise_or.reduceat(gathered, starts)
        if isolated.size:
            front[isolated] = 0
        front &= ~seen
        if not front.any():
            return
        seen |= front
        level += 1
        yield level, front, seen


def _as_nodes(g: Graph, nodes) -> np.ndarray:
    arr = np.asarray(nodes, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("node lists must be one-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() >= g.n):
        bad = arr[(arr < 0) | (arr >= g.n)][0]
        raise ValueError(f"node {bad} out of range for {g.n} nodes")
    return arr


def bfs_distances(g: Graph, src, dst, cap: int | None = None) -> np.ndarray:
    """Shortest-path lengths for the pairs ``(src[i], dst[i])``, batched.

    Same answers as :func:`bfs_distance` on every pair, with -1 for
    UNREACHABLE. Pairs are processed 64 to a pass; a pass stops as soon as
    all its targets are found, its frontier empties, or it reaches ``cap``.
    """
    src = _as_nodes(g, src)
    dst = _as_nodes(g, dst)
    if len(src) != len(dst):
        raise ValueError(f"{len(src)} sources but {len(dst)} targets")
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    out = np.full(len(src), -1, dtype=np.int64)
    for lo in range(0, len(src), _WORD):
        s, t, res = src[lo : lo + _WORD], dst[lo : lo + _WORD], out[lo : lo + _WORD]
        bits = _BITS[: len(s)]
        for level, front, _ in _bit_levels(g, s, cap):
            res[(front[t] & bits) != 0] = level
            if res.min() >= 0:
                break
    return out


def ball_bound(g: Graph, d: int) -> int:
    """Largest d-neighborhood size over all start nodes (0 on the empty graph)."""
    if d < 0:
        raise ValueError(f"radius must be nonnegative, got {d}")
    best = 0
    for lo in range(0, g.n, _WORD):
        src = np.arange(lo, min(lo + _WORD, g.n), dtype=np.int64)
        for _, _, seen in _bit_levels(g, src, d):
            pass
        # Column j of the unpacked words is source j's visited set.
        bits = np.unpackbits(seen.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        best = max(best, int(bits.sum(axis=0, dtype=np.int64).max()))
    return best


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member."""
    seen = [False] * g.n
    out: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    q.append(v)
        comp.sort()
        out.append(comp)
    return out


def min_cut(g: Graph, s: int, t: int) -> list[tuple[int, int]]:
    """Minimum s-t edge cut via shortest augmenting paths, unit capacities.

    Returns the cut edges as sorted (u, v) pairs with u < v. If s and t
    are already disconnected the cut is empty. The graph is not modified.
    """
    g._check_node(s)
    g._check_node(t)
    if s == t:
        raise ValueError("min_cut endpoints must differ")
    # Residual capacity per directed arc; each undirected edge gives one
    # unit in each direction.
    residual: dict[tuple[int, int], int] = {}
    for u, v in g.edges():
        residual[(u, v)] = 1
        residual[(v, u)] = 1

    def augment() -> bool:
        parent = {s: s}
        q = deque([s])
        while q:
            u = q.popleft()
            if u == t:
                break
            for v in g.neighbors(u):
                if v not in parent and residual[(u, v)] > 0:
                    parent[v] = u
                    q.append(v)
        if t not in parent:
            return False
        v = t
        while v != s:
            u = parent[v]
            residual[(u, v)] -= 1
            residual[(v, u)] += 1
            v = u
        return True

    while augment():
        pass

    # Nodes reachable from s in the residual graph define the cut side.
    side = {s}
    q = deque([s])
    while q:
        u = q.popleft()
        for v in g.neighbors(u):
            if v not in side and residual[(u, v)] > 0:
                side.add(v)
                q.append(v)
    cut = [
        (min(u, v), max(u, v))
        for u in side
        for v in g.neighbors(u)
        if v not in side
    ]
    cut.sort()
    return cut


def write_edge_list(g: Graph, path) -> None:
    """Write the plain text edge-list form: one ``u<TAB>v`` pair per line.

    A ``# nodes N`` comment preserves isolated nodes across a round trip;
    readers that skip comments still get every edge.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes {g.n}\n")
        for u, v in g.edges():
            fh.write(f"{u}\t{v}\n")


def read_edge_list(path, n: int | None = None) -> Graph:
    """Parse the edge-list format written by :func:`write_edge_list`.

    Lines starting with ``#`` are comments; a ``# nodes N`` comment, when
    present, fixes the node count. Otherwise the count is ``n`` or the
    largest index seen plus one.
    """
    edges: list[tuple[int, int]] = []
    declared = None
    max_seen = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if len(fields) == 2 and fields[0] == "nodes":
                    try:
                        declared = int(fields[1])
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: bad node count {fields[1]!r}")
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u<TAB>v', got {line!r}")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer node id in {line!r}")
            edges.append((u, v))
            max_seen = max(max_seen, u, v)
    count = declared if declared is not None else (n if n is not None else max_seen + 1)
    return Graph(max(count, max_seen + 1), edges)
