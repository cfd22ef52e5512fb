"""Immutable undirected-graph primitives.

Nodes are dense integer indices ``0..n-1``. Everything downstream (meaning
graphs, sampled symbol graphs, induced subgraphs for spectral work) is
built on this one representation, so the operations here are deliberately
small: BFS with an explicit cap, ball sizes and rings, unit-capacity
minimum cut, connected components, and a plain text edge-list writer.

A graph is stored only as CSR arrays: node u's sorted neighbours are
``indices[indptr[u]:indptr[u + 1]]``. Every breadth-first traversal but
two runs on one kernel, a level-synchronous, bottom-up BFS from many
sources at once: each source owns one bit of a node's row of ``uint64``
words, W words per pass, as many as a fixed byte budget holds, so a call
runs ceil(sources / 64W) passes. A level is one jagged-diagonal step
(:class:`_Diagonals`): one ``take`` of every arc's words, an in-place
OR per diagonal and one ``reduceat`` over the nodes of highest degree,
O(n + E) per word whatever the frontier.
Batched distance queries read its levels, and so does one sweep of the
whole graph (:func:`_sweep`, a pass per 64W consecutive sources) that
yields each pass's reach and its distance-d rings: summed over the
passes, a node's popcounts give its ball and ring sizes, so the ball
bound and the ring tables and ring sizes that pair pickers read all
come from that sweep. Batched queries group their pairs by source, so a
pass runs distinct sources and serves every pair that starts at one of
them. Connected components, and :mod:`spectral`'s Laplacian product,
whose float sums keep their order, use a gather and one ``reduceat``
over the CSR arrays instead (:func:`_neighbor_reduce`).

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

from typing import Collection, Iterable, Iterator, Sequence

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


# Bit j of a node's word i marks source 64i + j of the current pass.
_WORD = 64
_BITS = np.left_shift(np.uint64(1), np.arange(_WORD, dtype=np.uint64))

# A BFS pass's buffers, per word of sources its arcs' gathered words and
# three words per node, and the ring words its caller keeps, stay within
# this many bytes unless one word alone needs more. Wider passes run
# faster but leave more of the heap in use: at 1 MiB a heat-map op's
# peak RSS rose by about twice as much as at this size.
_PASS_BYTES = 1 << 18


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


# One ufunc call costs about as much time as ``reduceat`` spends on this
# many segment words: about 1.1 us a call against 8-15 ns a segment word,
# with numpy 2.4 on a 2-core Xeon host.
_CALL_WORDS = 128


def _kept_diagonals(lengths: np.ndarray, width: int) -> int:
    """How many diagonals a step ORs one by one before the tail: at least one if there are any.

    ``lengths[k]`` counts the nodes of degree above k. Keeping k diagonals
    costs k calls, and leaves the nodes of degree above k to the tail's
    ``reduceat``, one segment of ``width`` words each; the count with
    the least of the two together is kept.
    """
    if not len(lengths):
        return 0
    tail = np.append(lengths[1:], 0)  # the tail's nodes after 1, 2, .. diagonals
    return 1 + int(np.argmin(_CALL_WORDS * np.arange(len(lengths)) + width * tail))


class _Diagonals:
    """A graph's arcs in jagged-diagonal order (Saad, 1989), with one BFS pass's buffers.

    Nodes are ranked by degree, descending, ties in node order: ``rank[u]``
    is u's place, and the BFS works in rank space. Diagonal k lists the
    rank of the k-th neighbour of every node of degree above k, in rank
    order; those nodes are a prefix of the ranking. ``heads`` holds the
    diagonals one after another, then the tail: the arcs past the last
    diagonal of each node that has some, node by node. A step of
    :func:`_bit_levels` gathers every arc's words with one ``take``, ORs
    each diagonal in place into its prefix of the ranks, and the tail
    with one ``reduceat``, one segment per node: a step makes one call
    per diagonal, none per node.

    :func:`_kept_diagonals` picks where the diagonals end: each costs a
    call per step, and each node left in the tail a ``reduceat`` segment
    per word, so short diagonals, such as a hub's many, go to the tail,
    and on a pass of one word often all but the first. The first
    diagonal, which covers every node with an arc, is always kept. The
    build takes no arc-sized temporary beyond ``heads``: the arcs' CSR
    positions are laid out in the pass buffer first.

    ``width`` is the words of sources a pass carries, one ``(n, width)``
    array of words each for ``seen``, the frontier and the next frontier,
    and ``(E, width)`` gathered words, in one buffer. With ``copies``
    more words per node per word of sources, which the caller keeps, a
    pass stays within ``_PASS_BYTES``: the passes are the fewest that
    fit (at least one word each), and as even as they can be.
    """

    def __init__(self, g: Graph, sources: int, copies: int = 0):
        n, arcs = g.n, len(g.indices)
        words = -(-sources // _WORD)
        passes = -(-words // max(1, _PASS_BYTES // (8 * (arcs + (3 + copies) * n) or 1)))
        self.width = max(1, -(-words // max(passes, 1)))
        order = np.argsort(-g.degrees, kind="stable")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[order] = np.arange(n)
        # The number of nodes of degree above k, for k below the largest degree.
        lengths = n - np.cumsum(np.bincount(g.degrees, minlength=1))[:-1]
        kept = _kept_diagonals(lengths, self.width)
        self.reach = int(lengths[0]) if len(lengths) else 0  # the ranks with an arc
        firsts = g.indptr[order]
        self.buffer = np.empty((3 * n + arcs) * self.width, dtype=np.uint64)
        # The buffer first holds each arc's CSR position, in heads order.
        where = self.buffer[:arcs].view(np.int64)
        self.diagonals = []  # (start in heads, length) of each diagonal after the first
        at = 0
        for k, m in enumerate(lengths[:kept].tolist()):
            np.add(firsts[:m], k, out=where[at : at + m])
            if k:
                self.diagonals.append((at, m))
            at += m
        self.tail = None  # (start in heads, each node's first arc within the tail)
        if at < arcs:
            # Runs of consecutive positions, one per node: a running sum of
            # steps of 1, with each node's jump from the previous run's end.
            counts = g.degrees.take(order[: lengths[kept]]) - kept
            firsts = firsts[: len(counts)] + kept
            starts = np.cumsum(counts) - counts
            tail = where[at:]
            tail.fill(1)
            tail[starts] = firsts - np.append(0, firsts[:-1] + counts[:-1] - 1)
            np.cumsum(tail, out=tail)
            self.tail = at, starts
        self.heads = g.indices.take(where)
        np.take(self.rank, self.heads, out=where, mode="clip")
        self.heads[:] = where


def _bit_levels(
    bfs: _Diagonals, src: np.ndarray, cap: int | None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Level-synchronous, bottom-up BFS from up to ``64 * bfs.width`` sources at once.

    Yields ``(level, seen, ring)`` for level 0 (the sources) and every
    later level up to ``cap`` that reaches a new node. Both arrays hold
    ``ceil(len(src) / 64)`` words per node, row ``bfs.rank[u]`` for node
    u: bit j of word i is set in ``seen`` once the node is within that
    distance of ``src[64i + j]``, and in ``ring`` if it is at exactly
    that distance. They are the pass's buffers, updated in place and
    overwritten by the next pass. At each level every node ORs its
    neighbours' ring words in one jagged-diagonal step over all arcs:
    O(n + E) per word whatever the frontier.
    """
    n, w = len(bfs.rank), -(-len(src) // _WORD)
    words = bfs.buffer[: (3 * n + len(bfs.heads)) * w].reshape(-1, w)
    seen, front, new, gathered = np.split(words, [n, 2 * n, 3 * n])
    seen.fill(0)
    lanes = np.arange(len(src))
    # A source may repeat within a pass; each copy keeps its own bit.
    np.bitwise_or.at(seen, (bfs.rank[src], lanes >> 6), _BITS[lanes & 63])
    np.copyto(front, seen)
    yield 0, seen, front
    reach, level = bfs.reach, 0
    while cap is None or level < cap:
        # Heads are < n by construction, so "clip" never clips; it spares
        # the buffered copy numpy makes for a bounds-checked take into ``out``.
        np.take(front, bfs.heads, axis=0, out=gathered, mode="clip")
        new[:reach] = gathered[:reach]
        new[reach:] = 0
        for at, m in bfs.diagonals:
            np.bitwise_or(new[:m], gathered[at : at + m], out=new[:m])
        if bfs.tail is not None:
            at, firsts = bfs.tail
            tail = new[: len(firsts)]
            np.bitwise_or(tail, np.bitwise_or.reduceat(gathered[at:], firsts, axis=0), out=tail)
        # Keep only the nodes first reached at this level: new & ~seen.
        new |= seen
        new ^= seen
        if not np.count_nonzero(new):
            return
        seen |= new
        front, new = new, front
        level += 1
        yield level, seen, front


def _arc_positions(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Positions in ``g.indices`` of the arcs leaving ``nodes``."""
    if len(nodes) == 1:
        return np.arange(g.indptr[nodes[0]], g.indptr[nodes[0] + 1])
    starts = g.indptr[nodes]
    counts = g.degrees[nodes]
    ends = np.add.accumulate(counts)
    return np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)


def _source_bits(words: np.ndarray) -> np.ndarray:
    """``(n, 64w)`` 0/1 matrix from ``(n, w)`` words: column 64i + j is bit j (a source's lane) of word i."""
    return np.unpackbits(np.ascontiguousarray(words, dtype="<u8").view(np.uint8), axis=1, bitorder="little")


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
    grouped by source and each pass of the bottom-up kernel runs the next
    ``64 * width`` distinct sources (the last pass, or a batch with few
    sources, may run fewer, down to one), so every pair with a given
    source reads that source's lane; a pass stops as soon as all its
    targets are found, its frontier empties, or it reaches ``cap``.
    """
    src = _as_nodes(g, src)
    dst = _as_nodes(g, dst)
    if len(src) != len(dst):
        raise ValueError(f"{len(src)} sources but {len(dst)} targets")
    _check_cap(cap)
    out = np.full(len(src), -1, dtype=np.int64)
    sources, lane = np.unique(src, return_inverse=True)
    bfs = _Diagonals(g, len(sources))
    span = _WORD * bfs.width
    for p, lo in enumerate(range(0, len(sources), span)):
        idx = np.flatnonzero(lane // span == p)  # the pairs whose source is in pass p
        j = lane[idx] - lo
        t, word, bits = bfs.rank[dst[idx]], j >> 6, _BITS[j & 63]
        res = np.full(len(idx), -1, dtype=np.int64)
        for level, seen, _ in _bit_levels(bfs, sources[lo : lo + span], cap):
            hit = (seen[t, word] & bits) != 0
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
    g: Graph, radius: int, keep: Collection[int] = (), src: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, dict[int, np.ndarray]]]:
    """Multi-source BFS to level ``radius``: one pass per ``64 * width`` of ``src``, by default all nodes in order.

    Yields, for the pass over sources ``src[lo : lo + 64w]``, a pair
    ``(seen, rings)`` of ``(n, w)`` word arrays, row u for node u: the
    pass's final words, with bit j of word i set where the node is
    within ``radius`` of source ``lo + 64i + j``, and for every level d
    in ``keep`` that the pass reaches, its ring words, with the bit set
    where the node is at exact distance d from that source (a level the
    pass does not reach has an empty ring and no entry). The ring words
    a pass keeps count against :class:`_Diagonals`' byte budget.
    Distance is symmetric, so a node's popcounts summed over the passes
    of a whole-graph sweep are its own ball or ring size: the ball bound,
    the pickers' ring tables and ring sizes, their reads past the table
    budget and spectral's local node sets all come from it.
    """
    src = np.arange(g.n, dtype=np.int64) if src is None else src
    bfs = _Diagonals(g, len(src), len(keep) + 1)
    span = _WORD * bfs.width
    for lo in range(0, len(src), span):
        rings = {}
        for level, seen, ring in _bit_levels(bfs, src[lo : lo + span], radius):
            if level in keep:
                rings[level] = ring.take(bfs.rank, axis=0)
        yield seen.take(bfs.rank, axis=0), rings


# All of a graph's ring tables together never hold more than this many bytes.
_RING_BYTES = 1 << 20


class _RingTables:
    """A graph's ring sizes and tables of rings, kept as long as the graph.

    The table at d marks, for each anchor u, the nodes at exact distance d
    from u: bit ``u & 63`` of row ``u >> 6``, one word per node, so a
    table is ceil(n/64) rows of n words (the layout does not depend on
    how many words a sweep's pass carries), and all tables together stay
    within ``_RING_BYTES``. Distance is symmetric, so column u of the
    same table is u's ring packed as a bitset: bit j of word r marks node
    ``64r + j``. ``starts[d]`` holds the running sum of the ring sizes at
    d, n + 1 entries from 0 as in ``indptr``: u's ring size is
    ``starts[d][u + 1] - starts[d][u]``.

    Both come from sweeps of :func:`_sweep`, whose pass over anchors
    ``64r ..`` fills rows r .. r + w - 1 of every table it keeps, one per
    word of the pass. A node's popcounts,
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
        or without that table, u's lane of a sweep of the distinct anchors.
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
        row = 0  # the first table row of the pass's anchors
        # ``tabled`` is empty or holds ``radius``.
        for seen, rings in _sweep(self.g, radius, tabled or (radius,)):
            balls += np.bitwise_count(seen).sum(axis=1, dtype=np.int64)
            for k, words in rings.items():
                if k not in starts:
                    starts[k] = np.zeros(n + 1, dtype=np.int64)
                starts[k][1:] += np.bitwise_count(words).sum(axis=1, dtype=np.int64)
                if k in tabled:
                    if k not in self.tables:
                        self.tables[k] = np.zeros(self.shape, dtype=np.uint64)
                    self.tables[k][row : row + words.shape[1]] = words.T
            row += seen.shape[1]
        for counts in starts.values():
            np.cumsum(counts, out=counts)
        self.starts.update(starts)
        return int(balls.max(initial=0))


def _anchor_rings(g: Graph, d: int, anchors: np.ndarray) -> np.ndarray:
    """Row i: the distance-d ring of ``anchors[i]``, packed as its ring table column would be.

    Every anchor has a nonempty ring, so each pass reaches level d.
    """
    columns = np.zeros((len(anchors), 8 * -(-g.n // _WORD)), dtype=np.uint8)
    lo = 0  # the anchor of bit 0 of the next word
    for _, rings in _sweep(g, d, (d,), anchors):
        for words in rings[d].T:
            # Row j, bit j of every node's word, is anchor lo + j's ring; pack it into a column's words.
            bits = (words & _BITS[: len(anchors) - lo, None]) != 0
            columns[lo : lo + _WORD, : -(-g.n // 8)] = np.packbits(bits, axis=1, bitorder="little")
            lo += _WORD
    return columns.view("<u8")


def _kth_member(columns: np.ndarray, k: np.ndarray) -> np.ndarray:
    """For each i, the node of rank ``k[i]`` in node order among the set bits of ring column ``columns[i]``."""
    counts = np.bitwise_count(columns)
    ends = np.cumsum(counts, axis=1, dtype=np.int64)
    word = np.count_nonzero(ends <= k[:, None], axis=1)
    i = np.arange(len(k))
    k = k - ends[i, word] + counts[i, word]  # its rank within that word
    bits = np.cumsum(_source_bits(columns[i, word, None]), axis=1, dtype=np.int64)
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
