"""Meaning graphs and the fixtures hypothesis tests are built from.

A meaning graph is the hidden ground truth: an undirected graph over
concepts, optionally labeled with entity strings when ingested from a
triples file. This module generates them (Erdos-Renyi), loads them from
TSV triples, screens out degenerate parameter regimes, and picks the node
pairs (exact-distance pairs, disconnected pairs, cut pairs) that the
estimation and spectral layers consume.

Exact-distance pairs are drawn exactly, with one integer draw per pick:
the r-th ordered pair at distance d in (u, v) order, read from the ring
tables that :mod:`graph` keeps for each meaning graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .graph import Graph, _RingTables, _upper_arcs, bfs_distance, components, min_cut
from .rng import STREAM_ER, STREAM_PAIR_AT_DISTANCE, STREAM_PAIR_DISCONNECTED, sparse_pairs, stream

if TYPE_CHECKING:
    from .sampler import SampleParams


class TriplesFormatError(ValueError):
    """Raised for a malformed line in a triples TSV file, or one that is not UTF-8."""


@dataclass(frozen=True)
class MeaningGraph:
    """A meaning graph plus optional per-node entity labels."""

    graph: Graph
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.labels is not None:
            if len(self.labels) != self.graph.n:
                raise ValueError(
                    f"{len(self.labels)} labels for {self.graph.n} nodes"
                )
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("labels must be unique per node")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    @cached_property
    def _sorted_edge_keys(self) -> np.ndarray:
        """Sorted ``u * n + v`` (u < v) per edge, in ``graph.edge_array()`` order."""
        u, v = _upper_arcs(self.graph)
        return u * self.n + v

    @cached_property
    def _component_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(label, cum_weights, starts, gaps)`` for disconnected-pair draws.

        ``label`` is :func:`graph.components`' label per node, and
        ``cum_weights`` the running sum over nodes of the number of nodes
        outside each node's component. The nodes sorted by label list each
        component's members in order, those labelled c from ``starts[c]`` up
        to ``starts[c + 1]``; ``gaps`` holds, per listed member, the number of
        nodes outside its component below it.
        """
        label = components(self.graph)
        sizes = np.bincount(label, minlength=self.n)
        starts = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        members = np.argsort(label, kind="stable")
        gaps = members - (np.arange(self.n) - starts[label[members]])
        return label, np.cumsum(self.n - sizes[label]), starts, gaps

    @cached_property
    def _rings(self) -> _RingTables:
        """The graph's ring tables, filled by :func:`check_nontrivial` and the pickers."""
        return _RingTables(self.graph)


@dataclass(frozen=True)
class CutPair:
    """Two worlds that differ exactly by a minimum (m, m') cut.

    ``g`` has m at finite distance ``d`` from m_prime; ``d`` is not
    passed in but measured from ``g``. The second world g' is ``g``
    without the ``cut`` edges, in which the pair is disconnected; it is
    not stored, since ``g`` and ``cut`` define it. This is the matched
    world pair the spectral closeness experiment compares.
    """

    g: MeaningGraph
    m: int
    m_prime: int
    cut: tuple[tuple[int, int], ...]
    d: int = field(init=False)

    def __post_init__(self):
        d = bfs_distance(self.g.graph, self.m, self.m_prime)
        if d is None:
            raise ValueError(f"nodes {self.m} and {self.m_prime} are already disconnected")
        object.__setattr__(self, "d", d)
        # remove_edges also refuses a cut edge that g does not have.
        if bfs_distance(self.g.graph.remove_edges(self.cut), self.m, self.m_prime) is not None:
            raise ValueError("pair still connected after cut removal")


@dataclass(frozen=True)
class ConditionCheck:
    passed: bool
    message: str


@dataclass(frozen=True)
class NontrivialityReport:
    """Finite-instance screens against regimes where testing is degenerate.

    Each condition is a cheap surrogate for one way the problem collapses:
    no noise at all, perfectly faithful channels, noise drowning signal,
    balls covering the whole graph, or a graph too sparse to mean anything.
    """

    nonzero_noise: ConditionCheck
    incomplete_information: ConditionCheck
    noise_subordinate: ConditionCheck
    ball_small: ConditionCheck
    enough_edges: ConditionCheck

    @property
    def overall(self) -> bool:
        return all(cond.passed for _, cond in self._conditions())

    def _conditions(self) -> list[tuple[str, ConditionCheck]]:
        """Each condition in field order, named by its field with dashes."""
        return [(f.name.replace("_", "-"), getattr(self, f.name)) for f in fields(self)]

    def render(self) -> str:
        lines = []
        for name, cond in self._conditions():
            flag = "pass" if cond.passed else "FAIL"
            lines.append(f"{name:24s} {flag}  {cond.message}")
        lines.append(f"{'overall':24s} {'pass' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def gen_er(n: int, p: float, seed: int) -> MeaningGraph:
    """Erdos-Renyi G(n, p) meaning graph, deterministic under seed.

    Edges are drawn by geometric skip-sampling over the unordered-pair
    index space, so runtime is O(n + expected edges) rather than O(n^2).
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p!r} outside [0, 1]")
    us, vs, _ = sparse_pairs(seed, STREAM_ER, n, p, 1)
    return MeaningGraph(Graph(n, np.column_stack((us, vs))))


def load_triples(path, relation_prefix: str) -> MeaningGraph:
    """Build a labeled meaning graph from a ``head<TAB>rel<TAB>tail`` file.

    Keeps triples whose relation starts with ``relation_prefix``. Entities
    become nodes in first-seen order; parallel and reversed duplicates
    collapse to one undirected edge; self-loop triples keep their entity
    but produce no edge. Malformed lines raise with the line number, and a
    file that is not UTF-8 raises with its path.
    """
    index: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int]] = []

    def node(entity: str) -> int:
        k = index.get(entity)
        if k is None:
            k = len(labels)
            index[entity] = k
            labels.append(entity)
        return k

    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise TriplesFormatError(
                        f"{path}:{lineno}: expected head<TAB>relation<TAB>tail, got {line!r}"
                    )
                head, rel, tail = fields
                if not rel.startswith(relation_prefix):
                    continue
                u, v = node(head), node(tail)
                if u != v:
                    edges.append((u, v))
        except UnicodeDecodeError as exc:
            # The file is decoded a block at a time, so no line number is known.
            raise TriplesFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return MeaningGraph(Graph(len(labels), edges), tuple(labels))


def check_nontrivial(gm: MeaningGraph, params: "SampleParams", d: int) -> NontrivialityReport:
    """Screen a (graph, parameters, distance) instance for degeneracy.

    Returns a report whether or not the screens pass: callers decide
    whether a failed screen is a hard error (the CLI does, unless told
    otherwise). Raises ValueError for d < 1.
    """
    if d < 1:
        raise ValueError(f"distance must be positive, got {d}")
    p_plus, p_minus = params.p_plus, params.p_minus
    eps_plus, eps_minus = params.eps_plus, params.eps_minus
    n = gm.n

    c1 = ConditionCheck(
        p_minus > 0 and eps_minus > 0 and eps_plus > 0,
        f"p_minus={p_minus:g}, eps_minus={eps_minus:g}, eps_plus={eps_plus:g} (all must be > 0)",
    )
    c2 = ConditionCheck(p_plus < 1, f"p_plus={p_plus:g} (must be < 1)")
    c3 = ConditionCheck(
        p_minus <= p_plus / 10 and eps_plus < 0.5 and p_plus > 0.5,
        f"p_minus={p_minus:g} vs p_plus/10={p_plus / 10:g}, eps_plus={eps_plus:g} < 0.5, p_plus={p_plus:g} > 0.5",
    )
    ball = gm._rings.ball_bound(d)
    c4 = ConditionCheck(
        ball <= n / 4,
        f"ball_bound(d={d})={ball} vs n/4={n / 4:g}",
    )
    need = math.ceil(math.log(n)) if n > 0 else 0
    c5 = ConditionCheck(
        gm.edge_count >= need,
        f"edges={gm.edge_count} vs ceil(ln n)={need}",
    )
    return NontrivialityReport(c1, c2, c3, c4, c5)


def _as_rng(seed, stream_id: int) -> np.random.Generator:
    """``seed`` itself if it is a Generator, else stream ``stream_id`` of it."""
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(seed, stream_id)


def pick_pair_at_distance(
    gm: MeaningGraph, d: int, seed, *, count: int | None = None
) -> tuple[int, int] | list[tuple[int, int]] | None:
    """Uniformly sample an ordered node pair at exact distance d.

    One integer draw per pick: r uniform below the number of ordered
    pairs at distance d, and the pick is the r-th of them in (u, v)
    order. Both the number and the pairs come from the meaning graph's
    ring tables (:class:`graph._RingTables`), filled once for the graph,
    so after :func:`check_nontrivial` at d the picks run no traversal.
    ``seed`` may be an int or a Generator to embed in a caller's stream.

    With ``count``, returns a list of ``count`` picks from one array draw.
    If no pair is at distance d it returns None and draws nothing.
    """
    if d < 1:
        raise ValueError(f"distance must be positive, got {d}")
    if count is not None and count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count == 0:
        return []
    total = gm._rings.count(d)
    if not total:
        return None
    r = _as_rng(seed, STREAM_PAIR_AT_DISTANCE).integers(total, size=1 if count is None else count)
    u, v = gm._rings.pairs(d, r)
    picks = list(zip(u.tolist(), v.tolist()))
    return picks if count is not None else picks[0]


def pick_disconnected_pair(gm: MeaningGraph, seed) -> tuple[int, int] | None:
    """Uniformly sample an ordered pair of nodes in different components.

    Exact weighted sampling over components, no rejection: the anchor is
    drawn with weight (n - size of its component), the partner uniformly
    from the other components. Returns None when the graph has fewer than
    two components.
    """
    label, cum_weights, starts, gaps = gm._component_index
    if not gm.n or not cum_weights[-1]:
        return None
    rng = _as_rng(seed, STREAM_PAIR_DISCONNECTED)
    r = int(rng.integers(int(cum_weights[-1])))
    u = int(np.searchsorted(cum_weights, r, side="right"))
    lo, hi = starts[label[u] : label[u] + 2].tolist()
    k = int(rng.integers(gm.n - (hi - lo)))
    # The k-th node outside u's component, past the members below it.
    return (u, k + int(np.searchsorted(gaps[lo:hi], k, side="right")))


def make_cut_pair(gm: MeaningGraph, m: int, m_prime: int) -> CutPair:
    """The cut pair of ``gm`` for a connected meaning pair.

    Its ``g`` is ``gm`` itself and its ``cut`` a minimum (m, m') edge cut,
    so the pair is disconnected in g' (``gm`` without the cut) while every
    other edge is untouched. The pair's distance, and the refusal of a
    pair that is already disconnected, come from :class:`CutPair`'s own
    check.
    """
    if m == m_prime:
        raise ValueError("cut pair endpoints must differ")
    return CutPair(g=gm, m=m, m_prime=m_prime, cut=tuple(min_cut(gm.graph, m, m_prime)))
