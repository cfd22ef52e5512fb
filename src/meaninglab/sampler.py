"""Sampling observable symbol graphs from a hidden meaning graph.

Each meaning node gets ``lam`` symbol replicas. Structural edges appear
between symbols of different clusters with probability ``p_plus`` when
the underlying meaning pair is an edge and ``p_minus`` when it is not.
Similarity edges connect same-cluster symbols with probability
``1 - eps_plus`` and, as false positives, cross-cluster symbols with
probability ``eps_minus``. Downstream reasoning only ever looks at the
union of the two kinds.

The quadratic passes (``p_minus``, ``eps_minus``) use geometric
skip-sampling over the pair-slot index space, so sampling costs
O(expected edges) rather than O((lam*n)^2). Every pass draws from its own
named stream, which makes samples independent of pass order and safe to
reproduce across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .graph import Graph, _format_lines
from .meaning import CutPair, MeaningGraph
from .rng import (
    STREAM_SIM_CROSS,
    STREAM_SIM_INTRA,
    STREAM_STRUCT_NEG,
    STREAM_STRUCT_POS,
    index_to_pair,
    pair_count,
    skip_sample,
    stream,
)


def fold_noise(p: float, eps: float) -> float:
    """Probability that at least one of two independent channels fires."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= eps <= 1.0:
        raise ValueError(f"fold_noise arguments must be probabilities, got {p!r}, {eps!r}")
    if p == 1.0 or eps == 1.0:
        return 1.0
    # The sum form keeps eps=0 an exact identity; the clamps absorb the
    # one-ulp round-off that would otherwise leak past the endpoints.
    return min(1.0, max(p, eps, p + eps - p * eps))


@dataclass(frozen=True)
class SampleParams:
    """Channel probabilities and replication factor for one sampling run.

    With ``fold=True`` the cross-cluster similarity noise is folded into
    the structural probabilities (p -> p + eps_minus - p*eps_minus) and
    ``eps_minus`` is treated as zero; the union-graph distribution is
    unchanged, only the kind labels move.
    """

    p_plus: float
    p_minus: float
    eps_plus: float
    eps_minus: float
    lam: int
    fold: bool = False

    def __post_init__(self):
        for name in ("p_plus", "p_minus", "eps_plus", "eps_minus"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v!r} outside [0, 1]")
        if not isinstance(self.lam, int) or self.lam < 1:
            raise ValueError(f"lam must be a positive integer, got {self.lam!r}")

    def effective(self) -> "SampleParams":
        """Parameters the sampling engine actually uses."""
        if not self.fold:
            return self
        return replace(
            self,
            p_plus=fold_noise(self.p_plus, self.eps_minus),
            p_minus=fold_noise(self.p_minus, self.eps_minus),
            eps_minus=0.0,
            fold=False,
        )


class PairClass(Enum):
    """The three kinds of unordered symbol pairs the model distinguishes."""

    MEANING_EDGE = "meaning_edge"
    MEANING_NON_EDGE = "meaning_non_edge"
    INTRA_CLUSTER = "intra_cluster"


def edge_probability(params: SampleParams, pair_class: PairClass) -> float:
    """Analytic union-edge probability for one pair class.

    Invariant under folding: the structural and similarity channels for a
    cross-cluster pair combine to exactly the folded probability.
    """
    if pair_class is PairClass.MEANING_EDGE:
        return fold_noise(params.p_plus, params.eps_minus)
    if pair_class is PairClass.MEANING_NON_EDGE:
        return fold_noise(params.p_minus, params.eps_minus)
    return 1.0 - params.eps_plus


# Kind bits of a union edge; an edge both channels drew carries both.
STRUCTURAL = 1
SIMILARITY = 2


def _pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """``u * n + v`` per (u, v) row; for u < v, sorted keys follow ``Graph.edges()`` order."""
    return pairs[:, 0] * n + pairs[:, 1]


@dataclass(frozen=True)
class SymbolGraph:
    """A sampled symbol graph with its origin map and provenance.

    ``graph`` is the union of structural and similarity edges over
    ``lam * n_meaning`` nodes; symbol ``w`` descends from meaning node
    ``w // lam``. ``kinds`` holds one byte per union edge, in
    ``graph.edges()`` order: ``STRUCTURAL``, ``SIMILARITY`` or both, when
    both channels fire for the same cross-cluster pair.
    """

    graph: Graph
    kinds: bytes
    lam: int
    n_meaning: int
    params: SampleParams
    seed: int

    def __post_init__(self):
        if self.graph.n != self.lam * self.n_meaning:
            raise ValueError(
                f"{self.graph.n} symbol nodes but lam*n = {self.lam * self.n_meaning}"
            )
        kinds = self.kind_array
        if len(kinds) != self.graph.edge_count or not np.all((kinds >= 1) & (kinds <= 3)):
            raise ValueError("need one nonzero kind per union edge")
        edges = self.graph.edge_array()
        inside = (kinds & STRUCTURAL).astype(bool) & (edges[:, 0] // self.lam == edges[:, 1] // self.lam)
        if inside.any():
            u, v = edges[np.flatnonzero(inside)[0]].tolist()
            raise ValueError(f"structural edge ({u}, {v}) inside a cluster")

    @property
    def kind_array(self) -> np.ndarray:
        """``kinds`` as a read-only uint8 array aligned with ``graph.edge_array()``."""
        return np.frombuffer(self.kinds, dtype=np.uint8)

    def _kind_set(self, kind: int) -> frozenset:
        edges = self.graph.edge_array()[(self.kind_array & kind).astype(bool)]
        return frozenset(zip(edges[:, 0].tolist(), edges[:, 1].tolist()))

    @property
    def structural(self) -> frozenset:
        """Structural edges as (u, v) pairs with u < v."""
        return self._kind_set(STRUCTURAL)

    @property
    def similarity(self) -> frozenset:
        """Similarity edges as (u, v) pairs with u < v."""
        return self._kind_set(SIMILARITY)

    def origin(self, w: int) -> int:
        """Meaning node this symbol descends from."""
        if not 0 <= w < self.graph.n:
            raise ValueError(f"symbol {w} out of range")
        return w // self.lam

    def cluster(self, m: int) -> range:
        """Symbol replicas of meaning node m."""
        if not 0 <= m < self.n_meaning:
            raise ValueError(f"meaning node {m} out of range")
        return range(self.lam * m, self.lam * (m + 1))

    def representative(self, m: int) -> int:
        """First replica of meaning node m."""
        if not 0 <= m < self.n_meaning:
            raise ValueError(f"meaning node {m} out of range")
        return self.lam * m


def _symbol_graph(structural, similarity, lam: int, n_meaning: int, params: SampleParams, seed: int) -> SymbolGraph:
    """Assemble a SymbolGraph from its two kind lists of (u, v) pairs, u < v."""
    structural = np.asarray(structural, dtype=np.int64).reshape(-1, 2)
    similarity = np.asarray(similarity, dtype=np.int64).reshape(-1, 2)
    n = lam * n_meaning
    graph = Graph(n, np.concatenate((structural, similarity)))
    keys = _pair_keys(graph.edge_array(), n)
    kinds = np.zeros(len(keys), dtype=np.uint8)
    kinds[np.searchsorted(keys, _pair_keys(structural, n))] |= STRUCTURAL
    kinds[np.searchsorted(keys, _pair_keys(similarity, n))] |= SIMILARITY
    return SymbolGraph(graph, kinds.tobytes(), lam, n_meaning, params, seed)


# -- sampling passes ----------------------------------------------------


def _symbol_pairs(m1, m2, slot, lam) -> np.ndarray:
    """Symbol pairs of meaning pairs (m1 < m2) at replica slot ``slot``."""
    return np.column_stack((lam * m1 + slot // lam, lam * m2 + slot % lam))


def _negative_hits(seed: int, n: int, lam: int, p: float, stream_id: int):
    """Hit slots of a Bernoulli(p) pass over every cross-cluster slot."""
    rng = stream(seed, stream_id)
    hits = skip_sample(rng, pair_count(n) * lam * lam, p)
    m1, m2 = index_to_pair(hits // (lam * lam), n)
    return m1, m2, hits % (lam * lam)


def _sample(gm: MeaningGraph, params: SampleParams, seed: int, cut=None) -> list[SymbolGraph]:
    """The four sampling passes for ``gm``, assembled into symbol graphs.

    Without ``cut`` this returns one graph. With a cut (edges of ``gm``) it
    returns a second graph for the world where those edges are meaning
    non-edges: the same draws, except that the uniforms on the cut-edge
    slots are compared against p_minus instead of p_plus.
    """
    eff = params.effective()
    n = gm.n
    lam = eff.lam
    edges = gm.graph.edge_array()
    edge_keys = _pair_keys(edges, n)

    # Structural pass over meaning edges.
    u = stream(seed, STREAM_STRUCT_POS).random((len(edges), lam * lam))
    hit = u < eff.p_plus
    worlds = [hit]
    if cut is not None:
        in_cut = np.isin(edge_keys, _pair_keys(np.sort(np.reshape(cut, (-1, 2)), axis=1), n))
        hit_gp = hit.copy()
        hit_gp[in_cut] = u[in_cut] < eff.p_minus
        worlds.append(hit_gp)

    # Structural pass over meaning non-edges: sample the whole slot space
    # sparsely, then drop hits that landed on actual meaning edges (the
    # cut edges included: their g'-side draw happened above).
    m1, m2, slot = _negative_hits(seed, n, lam, eff.p_minus, STREAM_STRUCT_NEG)
    keep = ~np.isin(m1 * n + m2, edge_keys)
    negative = _symbol_pairs(m1[keep], m2[keep], slot[keep], lam)

    # Similarity inside clusters, one slot per replica pair a < b.
    a, b = np.triu_indices(lam, 1)
    midx, k = np.nonzero(stream(seed, STREAM_SIM_INTRA).random((n, len(a))) < (1.0 - eff.eps_plus))
    intra = np.column_stack((lam * midx + a[k], lam * midx + b[k]))

    # Similarity false positives across clusters (absent when folded).
    m1, m2, slot = _negative_hits(seed, n, lam, eff.eps_minus, STREAM_SIM_CROSS)
    similarity = np.concatenate((intra, _symbol_pairs(m1, m2, slot, lam)))

    out = []
    for world in worlds:
        eidx, slot = np.nonzero(world)
        positive = _symbol_pairs(edges[eidx, 0], edges[eidx, 1], slot, lam)
        structural = np.concatenate((positive, negative))
        out.append(_symbol_graph(structural, similarity, lam, n, params, seed))
    return out


def sample_symbol_graph(gm: MeaningGraph, params: SampleParams, seed: int) -> SymbolGraph:
    """Draw one symbol graph for ``gm`` under ``params``.

    Deterministic in ``seed``; each pair class consumes an independent
    named stream, so the same seed yields the same graph regardless of
    how the passes are scheduled.
    """
    return _sample(gm, params, seed)[0]


def sample_coupled(cp: CutPair, params: SampleParams, seed: int) -> tuple[SymbolGraph, SymbolGraph]:
    """Sample symbol graphs for both worlds of a cut pair, coupled.

    Every slot shares one uniform draw across the two worlds. On slots
    over cut edges the g-world compares it to p_plus and the g'-world to
    p_minus (the pair is a non-edge there); everywhere else the worlds
    are identical by construction. The first component equals
    ``sample_symbol_graph(cp.g, params, seed)`` draw for draw.
    """
    sg, sgp = _sample(cp.g, params, seed, cp.cut)
    return sg, sgp


def count_edges_by_class(sg: SymbolGraph, gm: MeaningGraph) -> dict[PairClass, int]:
    """Union-graph edge counts split by pair class (test and audit helper)."""
    origin = sg.graph.edge_array() // sg.lam
    intra = origin[:, 0] == origin[:, 1]
    on_edge = np.isin(_pair_keys(origin, gm.n), _pair_keys(gm.graph.edge_array(), gm.n))
    return {
        PairClass.MEANING_EDGE: int(np.count_nonzero(on_edge)),
        PairClass.MEANING_NON_EDGE: int(np.count_nonzero(~on_edge & ~intra)),
        PairClass.INTRA_CLUSTER: int(np.count_nonzero(intra)),
    }


# -- serialization ------------------------------------------------------


def write_symbol_graph(sg: SymbolGraph, path) -> None:
    """Write the extended edge-list form with kind column and origin block.

    An edge carrying both kinds emits one ``S`` line and one ``R`` line;
    readers merge them. The origin and edge lines are formatted in bulk by
    ``graph._format_lines``. Output is byte-stable for a given graph.
    """
    p = sg.params
    head = (
        f"# symbol-graph meaning-nodes={sg.n_meaning} lambda={sg.lam} seed={sg.seed}\n"
        "# params"
        f" p_plus={p.p_plus!r} p_minus={p.p_minus!r}"
        f" eps_plus={p.eps_plus!r} eps_minus={p.eps_minus!r}"
        f" fold={int(p.fold)}\n"
    )
    w = np.arange(sg.graph.n, dtype=np.int64)
    # Line slot 2i is edge i's S line and slot 2i + 1 its R line; an edge
    # writes the slots its kind byte has, so a dual edge writes S, then R.
    kind = np.tile(np.array([STRUCTURAL, SIMILARITY], dtype=np.uint8), sg.graph.edge_count)
    slot = np.flatnonzero(np.repeat(sg.kind_array, 2) & kind)
    edges = sg.graph.edge_array()[slot // 2]
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        fh.write(_format_lines(b"#origin ", w, b" ", w // sg.lam, b"\n"))
        fh.write(_format_lines(edges[:, 0], b"\t", edges[:, 1], b"\t", np.where(slot % 2, b"R", b"S"), b"\n"))


def read_symbol_graph(path) -> SymbolGraph:
    """Parse a file written by :func:`write_symbol_graph`."""
    meta: dict[str, str] = {}
    par: dict[str, str] = {}
    origin: dict[int, int] = {}
    structural: list[tuple[int, int]] = []
    similarity: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#origin"):
                fields = line.split()
                if len(fields) != 3:
                    raise ValueError(f"{path}:{lineno}: bad origin line {line!r}")
                origin[int(fields[1])] = int(fields[2])
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if fields and fields[0] == "symbol-graph":
                    meta.update(f.split("=", 1) for f in fields[1:])
                elif fields and fields[0] == "params":
                    par.update(f.split("=", 1) for f in fields[1:])
                continue
            fields = line.split("\t")
            if len(fields) != 3 or fields[2] not in ("S", "R"):
                raise ValueError(f"{path}:{lineno}: expected 'u<TAB>v<TAB>S|R', got {line!r}")
            u, v = int(fields[0]), int(fields[1])
            edge = (min(u, v), max(u, v))
            (structural if fields[2] == "S" else similarity).append(edge)
    try:
        n_meaning = int(meta["meaning-nodes"])
        lam = int(meta["lambda"])
        seed = int(meta["seed"])
        params = SampleParams(
            p_plus=float(par["p_plus"]),
            p_minus=float(par["p_minus"]),
            eps_plus=float(par["eps_plus"]),
            eps_minus=float(par["eps_minus"]),
            lam=lam,
            fold=bool(int(par["fold"])),
        )
    except KeyError as missing:
        raise ValueError(f"{path}: missing header field {missing}")
    for w, m in origin.items():
        if w // lam != m:
            raise ValueError(f"{path}: origin line maps {w} to {m}, expected {w // lam}")
    return _symbol_graph(structural, similarity, lam, n_meaning, params, seed)
