"""Immutable undirected-graph primitives.

Nodes are dense integer indices ``0..n-1``. Everything downstream (meaning
graphs, sampled symbol graphs, induced subgraphs for spectral work) is
built on this one representation, so the operations here are deliberately
small: BFS with an explicit cap, ball sizes and rings, unit-capacity
minimum cut, connected components, and a plain text edge-list writer.

A graph is stored only as CSR arrays: node u's sorted neighbours are
``indices[indptr[u]:indptr[u + 1]]``. Every traversal but two runs on
one kernel, a level-synchronous, bottom-up BFS from up to 64 sources at
once: each source owns one bit of a ``uint64`` word per node, and a
level is a single ``bitwise_or.reduceat`` of the frontier words over the
CSR arrays, O(n + E) whatever the frontier or the number of sources.
Batched distance queries read its levels, and so does one sweep of the
whole graph (:func:`_sweep`, a pass per 64 consecutive sources) that
yields each pass's reach and its distance-d rings: summed over the
passes, a node's popcounts give its ball and ring sizes, so the ball
bound and the ring tables and ring sizes that pair pickers read all come
from that sweep. Batched queries group their pairs by source, so a pass
runs 64 distinct sources and serves every pair that starts at one of
them. Connected components come from the same gather-and-reduce step
with ``minimum`` in place of ``bitwise_or``.

Two searches keep their own code. A single distance query
(:func:`bfs_distance`, the separator) is a two-sided, top-down search:
it grows a ball around each end, a level at a time, over only its
frontier's CSR slices, until the balls meet. :func:`min_cut` runs on the
same CSR arcs, with one ``int8`` net flow per arc, and follows only arcs
with residual capacity, which the undirected kernel cannot express.

Exact-distance pair picks read the ring tables the whole-graph sweep
fills (:class:`_RingTables`). They ask for the number of pairs at a
distance and for the r-th of them, so no other module reads the bit lanes.

The text writers, here and in :mod:`sampler`, format each id once with
:func:`_decimals` and gather their lines with :func:`_format_lines`.
"""

from __future__ import annotations

from typing import Container, Iterable, Iterator, Sequence

import numpy as np


def _pair_array(edges) -> np.ndarray:
    """Edges as an ``(E, 2)`` int64 array, from an array or any iterable of pairs."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {arr.shape}")
    return arr


def _edge_fault(n: int, arr: np.ndarray) -> tuple[int, str] | None:
    """The first ``(u, v)`` row with an endpoint outside ``0..n-1`` or ``u == v``, and its fault; None if none."""
    u, v = arr[:, 0], arr[:, 1]
    bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v))
    if not bad.size:
        return None
    a, b = arr[bad[0]].tolist()
    if a == b and 0 <= a < n:
        return int(bad[0]), f"self-loop at node {a}"
    return int(bad[0]), f"edge ({a}, {b}) out of range for {n} nodes"


def _distinct(keys: np.ndarray) -> np.ndarray:
    """A sorted array with each value kept once."""
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _lookup(keys: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``probes`` in the sorted array ``keys``, and whether each is there."""
    pos = np.searchsorted(keys, probes)
    if not len(keys):
        return pos, np.zeros(len(probes), dtype=bool)
    # A probe above every key clips onto the last one, which is smaller.
    return pos, keys.take(pos, mode="clip") == probes


class Graph:
    """Simple undirected graph, immutable after construction.

    Self-loops are rejected; duplicate edges collapse. Stored as read-only
    CSR arrays with each node's neighbours sorted, so traversal order, and
    therefore every seeded algorithm built on top, is deterministic.
    ``degrees`` holds each node's degree, ``indptr``'s differences, so a
    BFS level sizes its frontier with one gather.
    """

    __slots__ = ("n", "indptr", "indices", "degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        arr = _pair_array(edges)
        if n < 0:
            raise ValueError(f"node count must be nonnegative, got {n}")
        fault = _edge_fault(n, arr)
        if fault:
            raise ValueError(fault[1])
        u, v = arr[:, 0], arr[:, 1]
        # One key per direction, src * n + dst: sorting groups each node's
        # neighbours in order, and equal neighbours (duplicates) sit together.
        keys = np.concatenate((u * n + v, v * n + u))
        keys.sort()
        self._build(n, _distinct(keys))

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> "Graph":
        """Graph whose edges have the sorted, distinct keys ``u * n + v`` (u < v), unchecked."""
        u = keys // n
        arcs = np.concatenate((keys, (keys - u * n) * n + u))
        arcs.sort()
        g = object.__new__(cls)
        g._build(n, arcs)
        return g

    def _build(self, n: int, arcs: np.ndarray) -> None:
        """Set the CSR arrays from sorted, distinct arc keys ``src * n + dst``, both ways per edge."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices, degrees = arcs, np.zeros(n, dtype=np.int64)
        if n:
            # ``//`` by a scalar has a fast path that ``%`` lacks.
            tails = arcs // n
            degrees = np.bincount(tails, minlength=n)
            np.cumsum(degrees, out=indptr[1:])
            indices = arcs - tails * n
        indptr.flags.writeable = indices.flags.writeable = degrees.flags.writeable = False
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- queries ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(E, 2)`` array of (u, v) with u < v, lexicographically sorted."""
        return np.column_stack(_upper_arcs(self))

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} out of range for {self.n} nodes")

    def remove_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the given edges deleted; absent edges are an error."""
        drop = _pair_array(edges)
        _as_nodes(self, drop.ravel())
        u, v = _upper_arcs(self)
        keys = u * self.n + v
        pos, found = _lookup(keys, drop.min(axis=1) * self.n + drop.max(axis=1))
        absent = np.flatnonzero(~found)
        if absent.size:
            u, v = drop[absent[0]].tolist()
            raise ValueError(f"cannot remove absent edge ({u}, {v})")
        keep = np.ones(len(keys), dtype=bool)
        keep[pos] = False
        return Graph._from_keys(self.n, keys[keep])

    def __reduce__(self):
        return (Graph, (self.n, self.edge_array()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _arc_tails(g: Graph) -> np.ndarray:
    """Tail node of each arc, aligned with ``g.indices`` (the heads)."""
    return np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)


def _upper_arcs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the arcs with tail < head: each edge once, in sorted order."""
    tails = _arc_tails(g)
    upper = np.flatnonzero(g.indices > tails)
    return tails[upper], g.indices[upper]


# Bit j of a node's word marks source j of the current 64-source pass.
_WORD = 64
_BITS = np.left_shift(np.uint64(1), np.arange(_WORD, dtype=np.uint64))


def _neighbor_reduce(g: Graph, ufunc, empty, dtype):
    """Step function: per-node values -> ``ufunc`` over each node's neighbours.

    Degree-0 nodes get ``empty``. ``reduceat`` over an empty segment returns
    the element at its start, and an isolated last node starts one past the
    end, so the gathered array carries one padding slot and degree-0 nodes
    are overwritten after each reduction.
    """
    starts = g.indptr[:-1]
    isolated = np.flatnonzero(g.degrees == 0)
    gathered = np.full(len(g.indices) + 1, empty, dtype=dtype)

    def step(values: np.ndarray) -> np.ndarray:
        # Indices are < n by construction, so "clip" never clips; it spares
        # the buffered copy numpy makes for a bounds-checked take into ``out``.
        np.take(values, g.indices, out=gathered[:-1], mode="clip")
        out = ufunc.reduceat(gathered, starts)
        out[isolated] = empty
        return out

    return step


def _bit_levels(g: Graph, src: np.ndarray, cap: int | None) -> Iterator[tuple[int, np.ndarray]]:
    """Level-synchronous, bottom-up BFS from up to 64 sources at once.

    Yields ``(level, seen)`` for level 0 (the sources) and every later
    level up to ``cap`` that reaches a new node. ``seen`` (updated in
    place) holds one word per node, with bit j set once the node is within
    that distance of ``src[j]``. At each level every node ORs its
    neighbours' frontier words, in one ``reduceat`` over all arcs: O(n + E)
    whatever the frontier or the number of sources.
    """
    seen = np.zeros(g.n, dtype=np.uint64)
    # A source may repeat within a pass; each copy keeps its own bit.
    np.bitwise_or.at(seen, src, _BITS[: len(src)])
    yield 0, seen
    step = _neighbor_reduce(g, np.bitwise_or, 0, np.uint64)
    front = seen.copy()
    level = 0
    while cap is None or level < cap:
        front = step(front)
        front &= ~seen
        if not np.count_nonzero(front):
            return
        seen |= front
        level += 1
        yield level, seen


def _arc_positions(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Positions in ``g.indices`` of the arcs leaving ``nodes``."""
    if len(nodes) == 1:
        return np.arange(g.indptr[nodes[0]], g.indptr[nodes[0] + 1])
    starts = g.indptr[nodes]
    counts = g.degrees[nodes]
    ends = np.add.accumulate(counts)
    return np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)


def _source_bits(words: np.ndarray) -> np.ndarray:
    """``(n, 64)`` 0/1 matrix: column j is bit j (source j) of each node's word."""
    return np.unpackbits(words.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")


def _as_nodes(g: Graph, nodes) -> np.ndarray:
    arr = np.asarray(nodes, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("node lists must be one-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() >= g.n):
        bad = arr[(arr < 0) | (arr >= g.n)][0]
        raise ValueError(f"node {bad} out of range for {g.n} nodes")
    return arr


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")


def bfs_distances(g: Graph, src, dst, cap: int | None = None) -> np.ndarray:
    """Shortest-path lengths for the pairs ``(src[i], dst[i])``, batched.

    -1 marks a pair with no path of length at most ``cap``: an int64
    array cannot hold the None that :func:`bfs_distance` returns. Pairs are
    grouped by source and each pass of the bottom-up kernel runs 64
    distinct sources (the last pass, or a batch with one source, may run
    fewer, down to one), so every pair with a given source reads that
    source's lane; a pass stops as soon as all its targets are found, its
    frontier empties, or it reaches ``cap``.
    """
    src = _as_nodes(g, src)
    dst = _as_nodes(g, dst)
    if len(src) != len(dst):
        raise ValueError(f"{len(src)} sources but {len(dst)} targets")
    _check_cap(cap)
    out = np.full(len(src), -1, dtype=np.int64)
    sources, lane = np.unique(src, return_inverse=True)
    for p, lo in enumerate(range(0, len(sources), _WORD)):
        idx = np.flatnonzero(lane // _WORD == p)  # the pairs whose source is in pass p
        t, bits = dst[idx], _BITS[lane[idx] - lo]
        res = np.full(len(idx), -1, dtype=np.int64)
        for level, seen in _bit_levels(g, sources[lo : lo + _WORD], cap):
            hit = (seen[t] & bits) != 0
            res[hit & (res < 0)] = level
            if np.count_nonzero(hit) == len(hit):
                break
        out[idx] = res
    return out


def bfs_distance(g: Graph, u: int, v: int, cap: int | None = None) -> int | None:
    """Shortest-path length from u to v, or None when there is no path.

    With a cap, any distance strictly greater than ``cap`` reports None.
    The search is its own two-sided, top-down BFS: one ``int8`` mark per
    node says whether it lies in u's ball (1), v's ball (2) or neither
    (0), and each round expands the CSR slices of the frontier with fewer
    arcs, so a round costs O(frontier arcs) and no O(n) work. The balls
    of radius ``a`` around u and ``b`` around v do not meet, so the first
    round (growing u's side, say) whose heads touch v's ball puts v at
    distance exactly ``a + 1 + b``. The search stops there, at ``cap``, or
    once either side runs out of new nodes.
    """
    g._check_node(u)
    g._check_node(v)
    _check_cap(cap)
    if u == v:
        return 0
    mark = np.zeros(g.n, dtype=np.int8)
    mark[u], mark[v] = 1, 2
    fronts = [np.array([u]), np.array([v])]
    arcs = [g.degrees[u], g.degrees[v]]  # arcs leaving each side's frontier
    reach = 0  # the two balls' radii together
    while cap is None or reach < cap:
        side = 0 if arcs[0] <= arcs[1] else 1
        heads = g.indices[_arc_positions(g, fronts[side])]
        heads.sort()
        marks = mark[heads]
        if np.count_nonzero(marks == 2 - side):  # the other side's mark
            return reach + 1
        # Each new head once: unmarked, and unlike the head before it. Both
        # masks in one pass beat sorting only the unmarked heads and then
        # dropping repeats; np.unique takes several times as long again.
        keep = marks == 0
        keep[1:] &= heads[1:] != heads[:-1]
        nodes = heads[keep]
        if not len(nodes):
            return None
        mark[nodes] = side + 1
        fronts[side] = nodes
        arcs[side] = np.add.reduce(g.degrees[nodes])
        reach += 1
    return None


def _sweep(
    g: Graph, radius: int, keep: Container[int] = (), src: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, dict[int, np.ndarray]]]:
    """Multi-source BFS to level ``radius``: one pass per 64 of ``src``, by default all nodes in order.

    Yields, for the pass over sources ``src[64r : 64r + 64]``, a pair
    ``(seen, rings)``: the pass's final words, with bit j set where the
    node is within ``radius`` of source j, and for every level d in
    ``keep`` that the pass reaches, its ring words ``seen_d & ~seen_{d-1}``,
    with bit j set where the node is at exact distance d from source j (a
    level the pass does not reach has an empty ring and no entry).
    Distance is symmetric, so a node's popcounts summed over the passes
    of a whole-graph sweep are its own ball or ring size: the ball bound,
    the pickers' ring tables and ring sizes, their reads past the table
    budget and spectral's local node sets all come from it.
    """
    src = np.arange(g.n, dtype=np.int64) if src is None else src
    for lo in range(0, len(src), _WORD):
        rings, inner = {}, np.zeros(g.n, dtype=np.uint64)  # seen_{-1}: no node
        for level, seen in _bit_levels(g, src[lo : lo + _WORD], radius):
            if level in keep:
                rings[level] = seen & ~inner
            if level + 1 in keep:
                inner = seen.copy()
        yield seen, rings


# All of a graph's ring tables together never hold more than this many bytes.
_RING_BYTES = 1 << 20


class _RingTables:
    """A graph's ring sizes and tables of rings, kept as long as the graph.

    The table at d marks, for each anchor u, the nodes at exact distance d
    from u: bit ``u & 63`` of row ``u >> 6``, one word per node, so a
    table is ceil(n/64) rows of n words, and all tables together stay
    within ``_RING_BYTES``. Distance is symmetric, so column u of the
    same table is u's ring packed as a bitset: bit j of word r marks node
    ``64r + j``. ``starts[d]`` holds the running sum of the ring sizes at
    d, n + 1 entries from 0 as in ``indptr``: u's ring size is
    ``starts[d][u + 1] - starts[d][u]``.

    Both come from sweeps of :func:`_sweep`, whose pass over anchors
    ``64r ..`` fills row r of every table it keeps. A node's popcounts,
    summed over the passes, give its ring size from the ring words and
    its ball size from the final ``seen`` words. A sweep records sizes at
    the levels it keeps tables for and at its own radius, and allocates a
    table only at a level some pass reaches: past the graph's depth every
    ring is empty. One rule, in :meth:`_fill`, picks the tables a sweep
    keeps, whether the screen's :meth:`ball_bound` or a :meth:`count`
    asks for it, so the picks after a screen traverse nothing. Callers see
    ranks, not bits: :meth:`count` and :meth:`pairs`, and the ball bound.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.tables: dict[int, np.ndarray] = {}
        self.starts: dict[int, np.ndarray] = {}
        self.shape = (-(-g.n // _WORD), g.n)
        self.size = 8 * self.shape[0] * g.n  # bytes in one table

    def _fits(self, more: int) -> bool:
        return self.size * (len(self.tables) + more) <= _RING_BYTES

    def ball_bound(self, d: int) -> int:
        """The largest d-ball (0 without nodes), from one sweep to d."""
        return self._fill(d)

    def count(self, d: int) -> int:
        """The number of ordered pairs at distance d, from a sweep to d if none has reached it yet."""
        if d not in self.starts:
            self._fill(d)
        return int(self.starts[d][-1])

    def pairs(self, d: int, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``r[i]``-th ordered pairs at distance d in (u, v) order, as arrays u and v.

        Every rank is below :meth:`count` at d, which has run. u comes from
        a search of the running ring sizes, and v is the member of u's ring
        at the remaining rank, in node order: column u of the table at d,
        or without that table, u's lane of one pass per 64 distinct anchors.
        """
        starts = self.starts[d]
        u = np.searchsorted(starts, r, side="right") - 1
        table = self.tables.get(d)
        if table is not None:
            columns = table[:, u].T
        else:
            anchors, lane = np.unique(u, return_inverse=True)
            columns = _anchor_rings(self.g, d, anchors)[lane]
        return u, _kth_member(columns, r - starts[u])

    def _fill(self, radius: int) -> int:
        """Sweep to ``radius``, keeping its ring sizes and a table, with sizes, at each level the rule picks.

        The rule: every level 1..radius when all those tables fit, else
        ``radius`` alone if its table is new and fits. Returns the ball bound.
        """
        if self._fits(radius - sum(k <= radius for k in self.tables)):
            tabled = range(1, radius + 1)
        else:
            tabled = (radius,) if radius not in self.tables and self._fits(1) else ()
        n = self.g.n
        balls = np.zeros(n, dtype=np.int64)
        # Ring sizes land one slot up, so a running sum in place gives the starts.
        starts = {radius: np.zeros(n + 1, dtype=np.int64)}
        # ``tabled`` is empty or holds ``radius``.
        for r, (seen, rings) in enumerate(_sweep(self.g, radius, tabled or (radius,))):
            balls += np.bitwise_count(seen)
            for k, words in rings.items():
                if k not in starts:
                    starts[k] = np.zeros(n + 1, dtype=np.int64)
                starts[k][1:] += np.bitwise_count(words)
                if k in tabled:
                    if k not in self.tables:
                        self.tables[k] = np.zeros(self.shape, dtype=np.uint64)
                    self.tables[k][r] = words
        for counts in starts.values():
            np.cumsum(counts, out=counts)
        self.starts.update(starts)
        return int(balls.max(initial=0))


def _anchor_rings(g: Graph, d: int, anchors: np.ndarray) -> np.ndarray:
    """Row i: the distance-d ring of ``anchors[i]``, packed as its ring table column would be.

    Every anchor has a nonempty ring, so each pass reaches level d.
    """
    columns = np.zeros((len(anchors), 8 * -(-g.n // _WORD)), dtype=np.uint8)
    for lo, (_, rings) in zip(range(0, len(anchors), _WORD), _sweep(g, d, (d,), anchors)):
        # Row j, bit j of every node's word, is source lo + j's ring; pack it into a column's words.
        bits = (rings[d] & _BITS[: len(anchors) - lo, None]) != 0
        columns[lo : lo + _WORD, : -(-g.n // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return columns.view("<u8")


def _kth_member(columns: np.ndarray, k: np.ndarray) -> np.ndarray:
    """For each i, the node of rank ``k[i]`` in node order among the set bits of ring column ``columns[i]``."""
    counts = np.bitwise_count(columns)
    ends = np.cumsum(counts, axis=1, dtype=np.int64)
    word = np.count_nonzero(ends <= k[:, None], axis=1)
    i = np.arange(len(k))
    k = k - ends[i, word] + counts[i, word]  # its rank within that word
    bits = np.cumsum(_source_bits(columns[i, word]), axis=1, dtype=np.int64)
    return word * _WORD + np.count_nonzero(bits <= k[:, None], axis=1)


def components(g: Graph) -> np.ndarray:
    """Connected components as an int64 label per node: the smallest node of its component."""
    label = np.arange(g.n, dtype=np.int64)
    if len(g.indices):
        # Min-label propagation: every node takes the smallest label among
        # itself and its neighbours, then jumps to its label's label, until
        # nothing changes. Each component ends labelled by its smallest node.
        step = _neighbor_reduce(g, np.minimum, g.n, np.int64)
        while True:
            new = np.minimum(label, step(label))
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
    return label


def min_cut(g: Graph, s: int, t: int) -> list[tuple[int, int]]:
    """Minimum s-t edge cut via shortest augmenting paths, unit capacities.

    Returns the cut edges as sorted (u, v) pairs with u < v: the minimum
    cut closest to s, whose s side is every node s reaches in the residual
    graph of a maximum flow. If s and t are already disconnected the cut
    is empty. The graph is not modified.
    """
    g._check_node(s)
    g._check_node(t)
    if s == t:
        raise ValueError("min_cut endpoints must differ")
    tail, head = _arc_tails(g), g.indices
    # Arc keys tail * n + head are already sorted, so one search finds
    # each arc's reverse. Net flow per arc is -1, 0 or 1 (unit capacity
    # each way); an arc has residual capacity while its flow is below 1.
    rev = np.searchsorted(tail * g.n + head, head * g.n + tail)
    flow = np.zeros(len(head), dtype=np.int8)
    while True:
        arcs = np.flatnonzero(flow < 1)
        via = np.full(g.n, -1, dtype=np.int64)
        reached = np.zeros(g.n, dtype=bool)
        reached[s] = True
        front = reached.copy()
        while front.any() and not reached[t]:
            hit = arcs[front[tail[arcs]] & ~reached[head[arcs]]]
            via[head[hit]] = hit
            front = np.zeros(g.n, dtype=bool)
            front[head[hit]] = True
            reached |= front
        if not reached[t]:
            break
        path, v = [], t
        while v != s:
            path.append(int(via[v]))
            v = int(tail[path[-1]])
        flow[path] += 1
        flow[rev[path]] -= 1
    # The last search, which missed t, reached exactly the source side of
    # the minimum cut: the same node set for every maximum flow.
    edges = g.edge_array()
    return list(map(tuple, edges[reached[edges[:, 0]] != reached[edges[:, 1]]].tolist()))


def _decimals(n: int) -> np.ndarray:
    """The ids ``0..n-1`` in decimal, one ``S`` string each: digits right-aligned, leading blanks NUL."""
    q = ids = np.arange(n, dtype=np.int64)
    width = len(str(max(n - 1, 0)))
    digits = np.empty((n, width), dtype=np.uint8)
    for j in range(width - 1, -1, -1):  # one pass per decimal place
        q, digits[:, j] = np.divmod(q, 10)
    digits += ord("0")
    digits[:, :-1][ids[:, None] < 10 ** np.arange(width - 1, 0, -1)] = 0
    return digits.view(f"S{width}").ravel()


def _format_lines(*fields) -> bytes:
    """One text line per row, built as a single byte matrix.

    Each field is a ``bytes`` literal repeated on every line or an ``S``-dtype
    array of one NUL-padded string per line, such as a gather from
    :func:`_decimals`. The fields fill one ``(rows, width)`` matrix side by
    side and one mask drops every NUL, so no literal or string may contain one.
    """
    rows = next(len(f) for f in fields if isinstance(f, np.ndarray))
    widths = [len(f) if isinstance(f, bytes) else f.itemsize for f in fields]
    lines = np.empty((rows, sum(widths)), dtype=np.uint8)
    for f, at, width in zip(fields, np.cumsum([0, *widths]), widths):
        # A literal is one row, broadcast to every line.
        lines[:, at : at + width] = np.frombuffer(f, dtype=np.uint8).reshape(-1, width)
    return lines[lines != 0].tobytes()


def write_edge_list(g: Graph, path, labels: Sequence[str] | None = None) -> None:
    """Write the plain text edge-list form: one ``u<TAB>v`` pair per line.

    A ``# nodes N`` comment keeps isolated nodes and ``# label i name``
    comments carry ``labels``; readers that skip comments get every edge.
    The edge lines gather both ends from one :func:`_decimals` table.
    """
    head = f"# nodes {g.n}\n" + "".join(f"# label {i} {label}\n" for i, label in enumerate(labels or ()))
    dec = _decimals(g.n)
    u, v = (dec.take(ends) for ends in _upper_arcs(g))
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        fh.write(_format_lines(u, b"\t", v, b"\n"))
