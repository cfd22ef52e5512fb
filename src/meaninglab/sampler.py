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

The passes emit symbol edges as int64 keys ``u * N + v`` (u < v, N the
symbol count), never as pair arrays. Each temporary is dropped after its
last reader, in this order:

- each world's structural keys and the sorted similarity keys are copied
  into one buffer per world; then the hit masks, the positive-key matrix
  and the negative and similarity keys go (the uniforms went once the hit
  masks existed);
- the kind merge takes a world's buffer over: it sorts the structural
  keys, tags every key with its kind in one low bit and merges by one
  sort in place, where the keys of an edge form one run that gives its
  kind byte, and returns the distinct keys;
- those keys are checked as ``SymbolGraph``'s constructor checks a
  graph, on their ends ``(u, v)``, formed once; keys and ends form the 2E
  arc keys and the degrees, and go;
- the CSR build (``Graph._from_arcs``) sorts the arcs and turns them into
  ``indices`` in place.

So a sample's peak holds the keys, their ends and the arcs together,
about 2.3 times the graph it returns. The writer formats its lines a node
range at a time, within a fixed budget (``graph._LINE_BYTES``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .graph import Graph, _decimals, _edge_fault, _format_lines, _lookup, _node_ranges, _upper_arcs
from .meaning import CutPair, MeaningGraph
from .rng import (
    STREAM_SIM_CROSS,
    STREAM_SIM_INTRA,
    STREAM_STRUCT_NEG,
    STREAM_STRUCT_POS,
    sparse_pairs,
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
# Each kind bit, and the letter that marks it in a written edge line.
_KIND_BITS = np.array([STRUCTURAL, SIMILARITY], dtype=np.uint8)
_KIND_LETTERS = np.array([b"S", b"R"])


@dataclass(frozen=True)
class SymbolGraph:
    """A sampled symbol graph with its origin map and provenance.

    ``graph`` is the union of structural and similarity edges over
    ``lam * n_meaning`` nodes, where ``lam`` is ``params.lam``; symbol
    ``w`` descends from meaning node ``w // lam``. ``kinds`` holds one byte
    per union edge, in ``graph.edge_array()`` row order: ``STRUCTURAL``,
    ``SIMILARITY`` or both, when both channels fire for the same
    cross-cluster pair.
    """

    graph: Graph
    kinds: bytes
    params: SampleParams
    seed: int

    def __post_init__(self):
        # The edges' ends, in ``kinds`` order, stand in for their keys.
        _check_edges(None, self.kind_array, self.graph.n, self.lam, _upper_arcs(self.graph))

    @classmethod
    def _checked(cls, graph: Graph, kinds: bytes, params: SampleParams, seed: int) -> "SymbolGraph":
        """A SymbolGraph whose edge keys already passed :func:`_check_edges`, not checked again."""
        sg = object.__new__(cls)
        sg.__dict__.update(graph=graph, kinds=kinds, params=params, seed=seed)
        return sg

    @property
    def lam(self) -> int:
        """Symbols per meaning node."""
        return self.params.lam

    @property
    def n_meaning(self) -> int:
        """Meaning nodes the symbols descend from."""
        return self.graph.n // self.lam

    @property
    def kind_array(self) -> np.ndarray:
        """``kinds`` as a read-only uint8 array aligned with ``graph.edge_array()``."""
        return np.frombuffer(self.kinds, dtype=np.uint8)

    def representative(self, m: int) -> int:
        """First replica of meaning node m."""
        if not 0 <= m < self.n_meaning:
            raise ValueError(f"meaning node {m} out of range")
        return self.lam * m


def _check_edges(keys, kinds: np.ndarray, n: int, lam: int, ends=None) -> tuple[np.ndarray, np.ndarray]:
    """Refuse the edges of a symbol graph on ``n`` symbols that the model cannot draw, and return their ends.

    ``keys`` are the sorted edge keys ``u * n + v`` (u < v) and ``kinds`` their
    kind bytes. The ends ``(u, v)`` are ``divmod(keys, n)``, formed once here
    unless the caller passes them as ``ends`` (then ``keys`` may be None).
    The node count must be a multiple of ``lam``, every edge needs a kind in
    1..3, and no structural edge may join two symbols of one cluster.
    """
    if n % lam:
        raise ValueError(f"{n} symbol nodes is not a multiple of lam = {lam}")
    if ends is None:
        u = keys // n  # ``//`` by a scalar has a fast path that ``divmod`` lacks
        ends = u, keys - u * n
    u, v = ends
    if len(kinds) != len(u) or not np.all((kinds >= 1) & (kinds <= 3)):
        raise ValueError("need one nonzero kind per union edge")
    # Ends of one cluster are less than lam apart, so only those few are divided.
    near = np.flatnonzero((v - u < lam) & (kinds & STRUCTURAL).astype(bool))
    inside = near[u[near] // lam == v[near] // lam]
    if inside.size:
        i = inside[0]
        raise ValueError(f"structural edge ({u[i]}, {v[i]}) inside a cluster")
    return u, v


def _merge_kinds(keys: np.ndarray, structural: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sorted keys of two kinds' int64 keys, and each key's kind byte.

    ``keys`` holds the ``structural`` keys of structural edges, in any
    order, then the sorted keys of similarity edges, and is taken over: the
    structural keys are sorted and every key is tagged with its kind in one
    low bit in place, ``2 * key`` for structural and ``2 * key + 1`` for
    similarity, in uint64, where every nonnegative int64 key still fits.
    After one sort the tagged keys of an edge form one run, whose first tag
    is 0 if the edge is structural and whose last tag is 1 if it is a
    similarity edge. A key may repeat within one kind.
    """
    keys[:structural].sort()
    tagged = keys.view(np.uint64)
    tagged <<= 1
    tagged[structural:] |= 1
    tagged.sort(kind="stable")  # two sorted runs, so one merge
    tag = np.empty(len(tagged), dtype=np.uint8)
    np.bitwise_and(tagged, 1, out=tag, casting="unsafe")
    tagged >>= 1
    # bound[i] is whether element i starts a run, and bound[i + 1] whether it ends one.
    bound = np.empty(len(tagged) + 1, dtype=bool)
    bound[0] = bound[-1] = True
    np.not_equal(tagged[1:], tagged[:-1], out=bound[1:-1])
    kinds = tag[bound[1:]] * SIMILARITY
    kinds |= tag[bound[:-1]] ^ STRUCTURAL
    return tagged[bound[:-1]].view(np.int64), kinds


def _symbol_graph(keys: np.ndarray, structural: int, n: int, params: SampleParams, seed: int) -> SymbolGraph:
    """Assemble a SymbolGraph on ``n`` symbols from the keys ``u * n + v`` (u < v) of its edges, taking ``keys`` over.

    ``keys`` holds the keys of the structural edges, ``structural`` of
    them, then the sorted keys of the similarity edges. The merge sorts and
    tags them in place and returns the distinct keys; the edges pass the
    constructor's checks on these keys, not again on the CSR arrays built
    from them. The keys and the check's ends ``(u, v)`` form the 2E arc
    keys and the degrees, and are dropped before the CSR build sorts and
    converts the arcs in place.
    """
    keys, kinds = _merge_kinds(keys, structural)
    u, v = _check_edges(keys, kinds, n, params.lam)
    edges = len(keys)
    arcs = np.empty(2 * edges, dtype=np.int64)
    arcs[:edges] = keys
    np.multiply(v, n, out=arcs[edges:])
    arcs[edges:] += u
    degrees = np.bincount(u, minlength=n)
    degrees += np.bincount(v, minlength=n)
    del keys, u, v
    return SymbolGraph._checked(Graph._from_arcs(n, arcs, degrees), kinds.tobytes(), params, seed)


# -- sampling passes ----------------------------------------------------


def _symbol_keys(m1, m2, slot, lam: int, n: int) -> np.ndarray:
    """Keys ``u * N + v`` (N = lam * n) of the symbol pairs of meaning pairs (m1 <= m2) at ``slot``.

    Slot s joins replica s // lam of m1 to replica s % lam of m2, so a key
    is ``lam * (m1 * N + m2)`` plus the slot's offset. The arguments
    broadcast: a column of meaning pairs and a row of slots give a matrix.
    """
    big = lam * n
    offset = (np.arange(lam, dtype=np.int64)[:, None] * big + np.arange(lam)).ravel()
    return lam * (m1 * big + m2) + offset[slot]


def _sample(gm: MeaningGraph, params: SampleParams, seed: int, cut=None) -> list[SymbolGraph]:
    """The four sampling passes for ``gm``, assembled into symbol graphs.

    Without ``cut`` this returns one graph. With a cut (edges of ``gm``) it
    returns a second graph for the world where those edges are meaning
    non-edges: the same draws, except that the uniforms on the cut-edge
    slots are compared against p_minus instead of p_plus.

    The passes over meaning edges and over clusters draw one uniform per
    slot, a row per meaning edge or node. Their keys are one broadcast
    :func:`_symbol_keys` matrix of the same shape, formed once for both
    worlds, and a boolean mask of the hits takes them in row-major order,
    the order ``np.nonzero`` gives.
    """
    eff = params.effective()
    n = gm.n
    lam = eff.lam
    edge_keys = gm._sorted_edge_keys
    m1, m2 = np.divmod(edge_keys, n)

    # Structural pass over meaning edges.
    u = stream(seed, STREAM_STRUCT_POS).random((len(edge_keys), lam * lam))
    worlds = [u < eff.p_plus]  # each world's hits
    if cut is not None:
        cut = np.asarray(cut, dtype=np.int64).reshape(-1, 2)
        pos, found = _lookup(edge_keys, cut.min(axis=1) * n + cut.max(axis=1))
        in_cut = np.zeros(len(edge_keys), dtype=bool)
        in_cut[pos[found]] = True
        worlds.append(worlds[0].copy())
        worlds[1][in_cut] = u[in_cut] < eff.p_minus
    del u  # the hit matrices hold all that is read of it
    positive = _symbol_keys(m1[:, None], m2[:, None], np.arange(lam * lam), lam, n)

    # Structural pass over meaning non-edges: sample the whole slot space
    # sparsely, then drop hits that landed on actual meaning edges (the
    # cut edges included: their g'-side draw happened above).
    n1, n2, slot = sparse_pairs(seed, STREAM_STRUCT_NEG, n, eff.p_minus, lam * lam)
    keep = ~_lookup(edge_keys, n1 * n + n2)[1]
    negative = _symbol_keys(n1[keep], n2[keep], slot[keep], lam, n)

    # Similarity inside clusters, one slot per replica pair a < b.
    a, b = np.triu_indices(lam, 1)
    nodes = np.arange(n)[:, None]
    drawn = stream(seed, STREAM_SIM_INTRA).random((n, len(a))) < (1.0 - eff.eps_plus)

    # Similarity false positives across clusters (absent when folded).
    n1, n2, slot = sparse_pairs(seed, STREAM_SIM_CROSS, n, eff.eps_minus, lam * lam)
    similarity = np.concatenate(
        (_symbol_keys(nodes, nodes, a * lam + b, lam, n)[drawn], _symbol_keys(n1, n2, slot, lam, n))
    )
    similarity.sort()

    # Each world's keys: its structural keys, then the similarity keys.
    structural = [np.count_nonzero(world) + len(negative) for world in worlds]
    keys = [np.concatenate((positive[world], negative, similarity)) for world in worlds]
    del worlds, positive, negative, similarity  # the keys hold all that is read of them
    # Each pop hands a world's keys over, so that no name here holds them.
    return [_symbol_graph(keys.pop(0), count, lam * n, params, seed) for count in structural]


def sample_symbol_graph(gm: MeaningGraph, params: SampleParams, seed: int) -> SymbolGraph:
    """Draw one symbol graph for ``gm`` under ``params``.

    Deterministic in ``seed``; each pair class consumes an independent
    named stream, so the same seed yields the same graph regardless of
    how the passes are scheduled.
    """
    return _sample(gm, params, seed)[0]


def sample_coupled(cp: CutPair, params: SampleParams, seed: int) -> tuple[SymbolGraph, SymbolGraph]:
    """Sample symbol graphs for both worlds of a cut pair, coupled.

    The worlds are ``cp.g`` and g', which is ``cp.g`` without the
    ``cp.cut`` edges. Every slot shares one uniform draw across the two
    worlds. On slots over cut edges the g-world compares it to p_plus and
    the g'-world to p_minus (the pair is a non-edge there); everywhere
    else the worlds are identical by construction. So the worlds are
    nested: g' has a subset of g's edges when p_minus <= p_plus and a
    superset otherwise, with ``fold`` too, since ``fold_noise`` is
    monotone. The first component equals
    ``sample_symbol_graph(cp.g, params, seed)`` draw for draw.
    """
    sg, sgp = _sample(cp.g, params, seed, cp.cut)
    return sg, sgp


# -- serialization ------------------------------------------------------


def write_symbol_graph(sg: SymbolGraph, path) -> None:
    """Write the extended edge-list form with kind column and origin block.

    An edge carrying both kinds emits one ``S`` line and one ``R`` line;
    readers merge them. Each id is formatted once, in ``graph._decimals``;
    the lines gather from that table, a node range at a time. Output is
    byte-stable for a given graph.
    """
    p = sg.params
    head = (
        f"# symbol-graph meaning-nodes={sg.n_meaning} lambda={sg.lam} seed={sg.seed}\n"
        "# params"
        f" p_plus={p.p_plus!r} p_minus={p.p_minus!r}"
        f" eps_plus={p.eps_plus!r} eps_minus={p.eps_minus!r}"
        f" fold={int(p.fold)}\n"
    )
    g, lam = sg.graph, sg.lam
    dec = _decimals(g.n)
    # A node's origin line, or an arc's S and R lines, "u\tv\tS\n" each.
    ranges = list(_node_ranges(g, 2 * (2 * dec.itemsize + 4)))
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        for a, b in ranges:
            fh.write(_format_lines(b"#origin ", dec[a:b], b" ", dec.take(np.arange(a, b) // lam), b"\n"))
        kinds, done = sg.kind_array, 0  # done: the edges written
        for a, b in ranges:
            u, v = _upper_arcs(g, a, b)
            # Line slot 2i is edge i's S line and slot 2i + 1 its R line; an edge
            # writes the slots its kind byte has, so a dual edge writes S, then R.
            slot = np.flatnonzero(kinds[done : done + len(u), None] & _KIND_BITS)
            done += len(u)
            u, v = (dec.take(ends.take(slot >> 1)) for ends in (u, v))
            fh.write(_format_lines(u, b"\t", v, b"\t", _KIND_LETTERS.take(slot & 1), b"\n"))


# The origin and edge lines :func:`write_symbol_graph` writes, in ASCII, as
# is every space the reader strips or splits on. Their numbers have at most
# 18 digits, so every one fits the int64 arrays they are read into.
_ORIGIN_LINE = re.compile(r"#origin\s+(-?\d{1,18})\s+(-?\d{1,18})", re.ASCII)
_EDGE_LINE = re.compile(r"(-?\d{1,18})\t(-?\d{1,18})\t([SR])", re.ASCII)
_SPACE = " \t\n\r\f\v"
# The header values it writes: integers, and probabilities as ``repr`` writes
# a float, fixed-point with a fraction or one digit, a fraction and a signed
# exponent. ``int`` and ``float`` take more (``1_0``, ``+2``, ``1e-3``).
_INTEGER = re.compile(r"-?[0-9]+")
_FLOAT = re.compile(r"-?(?:[0-9]+\.[0-9]+|[0-9](?:\.[0-9]+)?e[+-][0-9]{2,})")
# The most symbols n for which every edge key u * n + v fits int64.
_MAX_SYMBOLS = math.isqrt(2**63 - 1)


def read_symbol_graph(path) -> SymbolGraph:
    """Parse a file written by :func:`write_symbol_graph`.

    The origin block is absent or lists every symbol w, in order, as
    ``#origin w w // lambda``. A malformed line, an origin line out of that
    order or a structural edge inside a cluster raises ValueError naming
    the file and the line; a bad or repeated header field, a symbol count
    whose edge keys overflow int64, a short origin block or a file that is
    not UTF-8 names the file.
    """
    meta: dict[str, str] = {}  # the name=value fields of the "# symbol-graph" and "# params" lines
    origins: list[tuple[int, int, int]] = []  # (w, m, line number) per origin line
    rows: list[tuple[int, int, int, bool]] = []  # (u, v, line number, structural) per edge line
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip(_SPACE)
                if not line:
                    continue
                if line.startswith("#origin"):
                    match = _ORIGIN_LINE.fullmatch(line)
                    if not match:
                        raise ValueError(f"{path}:{lineno}: bad origin line {line!r}")
                    origins.append((int(match[1]), int(match[2]), lineno))
                    continue
                if line.startswith("#"):
                    fields = re.findall(r"\S+", line[1:], re.ASCII)
                    if fields[:1] in (["symbol-graph"], ["params"]):
                        for item in fields[1:]:
                            name, eq, value = item.partition("=")
                            if not eq:
                                raise ValueError(f"{path}: header field {item!r} is not name=value")
                            if name in meta:
                                raise ValueError(f"{path}: header field {name!r} repeated")
                            meta[name] = value
                    continue
                match = _EDGE_LINE.fullmatch(line)
                if not match:
                    raise ValueError(f"{path}:{lineno}: expected 'u<TAB>v<TAB>S|R', got {line!r}")
                rows.append((int(match[1]), int(match[2]), lineno, match[3] == "S"))
        except UnicodeDecodeError as exc:
            # The file is decoded a block at a time, so no line number is known.
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None

    def field(name: str, grammar: re.Pattern, kind, what: str):
        if name not in meta:
            raise ValueError(f"{path}: missing header field {name!r}")
        try:
            if grammar.fullmatch(meta[name]):
                return kind(meta[name])
        except ValueError:  # an integer past int()'s digit limit
            pass
        raise ValueError(f"{path}: header field {name!r} is not {what}: {meta[name]!r}")

    n_meaning = field("meaning-nodes", _INTEGER, int, "an integer")
    seed = field("seed", _INTEGER, int, "an integer")
    probs = {name: field(name, _FLOAT, float, "a number") for name in ("p_plus", "p_minus", "eps_plus", "eps_minus")}
    lam = field("lambda", _INTEGER, int, "an integer")
    fold = field("fold", _INTEGER, int, "an integer")
    if fold not in (0, 1):
        raise ValueError(f"{path}: header field 'fold' is not 0 or 1: {meta['fold']!r}")
    try:
        params = SampleParams(**probs, lam=lam, fold=bool(fold))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if n_meaning < 0:
        raise ValueError(f"{path}: header field 'meaning-nodes' is negative: {n_meaning}")
    n = lam * n_meaning
    if max(n, lam) > _MAX_SYMBOLS:  # a huge lambda overflows the origin check even with no meaning nodes
        raise ValueError(
            f"{path}: header fields 'lambda'={lam} and 'meaning-nodes'={n_meaning} allow more than"
            f" {_MAX_SYMBOLS} symbols, past which edge keys overflow int64"
        )
    # The origin block is absent or line i maps symbol i to i // lam, for every symbol.
    block = np.array(origins, dtype=np.int64).reshape(-1, 3)
    at = np.arange(len(block))
    wrong = np.flatnonzero((block[:, 0] != at) | (block[:, 1] != at // lam) | (at >= n))
    if wrong.size:
        i = int(wrong[0])
        w, m, lineno = block[i].tolist()
        if i >= n:
            what = f"lists more than the {n} symbols"
        elif w != i:
            what = f"lists symbol {w}, expected {i}"
        else:
            what = f"maps {w} to {m}, expected {i // lam}"
        raise ValueError(f"{path}:{lineno}: origin line {what}")
    if 0 < len(block) < n:
        raise ValueError(f"{path}: origin block lists {len(block)} of {n} symbols")
    rows = np.array(rows, dtype=np.int64).reshape(-1, 4)
    pairs, structural = np.sort(rows[:, :2], axis=1), rows[:, 3] == 1
    fault = _edge_fault(n, pairs)  # before forming keys: an out-of-range key aliases another edge's
    if fault:
        raise ValueError(f"{path}:{rows[fault[0], 2]}: {fault[1]}")
    inside = np.flatnonzero(structural & (pairs[:, 0] // lam == pairs[:, 1] // lam))
    if inside.size:
        u, v = pairs[inside[0]].tolist()
        raise ValueError(f"{path}:{rows[inside[0], 2]}: structural edge ({u}, {v}) inside a cluster")
    keys = pairs[:, 0] * n + pairs[:, 1]
    keys = np.concatenate((keys[structural], np.sort(keys[~structural])))
    return _symbol_graph(keys, np.count_nonzero(structural), n, params, seed)
