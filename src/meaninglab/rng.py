"""Named, splittable random streams, sparse-sampling helpers and the worker runner.

Every stochastic routine in the package derives its randomness from a
counter-based Philox generator keyed by ``(seed, *path)``, where ``path``
is a tuple of small integers naming the stream (one per pair class, per
trial, per grid row, ...). Streams derived from distinct paths are
independent, so the order in which passes run, and the number of worker
processes, cannot change any sampled object.
"""

from __future__ import annotations

import math
import os

import numpy as np

# Stream name constants. These are part of the on-disk reproducibility
# contract: changing them changes every sampled graph for a given seed.
STREAM_ER = 1
STREAM_STRUCT_POS = 2
STREAM_STRUCT_NEG = 3
STREAM_SIM_INTRA = 4
STREAM_SIM_CROSS = 5
STREAM_PAIR_AT_DISTANCE = 6
STREAM_PAIR_DISCONNECTED = 7
STREAM_TRIAL = 8
STREAM_HEATMAP_ROW = 9
STREAM_HEATMAP_CELL = 10
STREAM_REPRESENTATIVE = 11
STREAM_SPECTRAL_TRIAL = 12


def _seed_sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    """The one seeding rule: ``seed`` is the entropy and ``path`` the spawn key."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the named stream under ``seed``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def subseed(seed: int, *path: int) -> int:
    """Collapse ``(seed, *path)`` into a plain integer seed.

    Used when an API takes a scalar seed but the caller owns a structured
    stream namespace (per-trial seeds, per-row seeds).
    """
    return int(_seed_sequence(seed, path).generate_state(2, dtype=np.uint64)[0])


def run_tasks(fn, tasks: list[tuple], threads: int) -> list:
    """``[fn(*t) for t in tasks]``, in order, on up to ``threads`` worker processes.

    A pool is imported and started only for ``threads > 1`` and two or
    more tasks, with no more workers than tasks or than the CPUs this
    process may run on (its affinity mask, where the platform has one):
    under the ``fork`` start method it forks every worker on its first
    submit.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads, len(tasks), cpus)
    if workers < 2:
        return [fn(*t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]


def skip_sample(rng: np.random.Generator, n_slots: int, p: float) -> np.ndarray:
    """Indices of an i.i.d. Bernoulli(p) subset of ``range(n_slots)``.

    Runs in O(number of hits) by drawing geometric gaps between hits, so
    sparse passes over quadratically many slots stay cheap. ``p`` outside
    (0, 1) short-circuits to the empty or full index range.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if n_slots < 0:
        raise ValueError(f"negative slot count {n_slots}")
    if p == 0.0 or n_slots == 0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(n_slots, dtype=np.int64)
    expected = n_slots * p
    batch = max(64, int(expected + 6.0 * math.sqrt(expected) + 16.0))
    chunks = []
    pos = -1
    while True:
        gaps = rng.geometric(p, size=batch).astype(np.int64)
        # Tiny p makes numpy clamp gaps at INT64_MAX, which would overflow
        # the cumsum; one past the end is as good as any larger jump.
        np.minimum(gaps, n_slots + 1, out=gaps)
        idx = pos + np.cumsum(gaps)
        chunks.append(idx[idx < n_slots])
        if idx[-1] >= n_slots:
            break
        pos = int(idx[-1])
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def pair_count(n: int) -> int:
    """Number of unordered pairs over ``n`` items."""
    return n * (n - 1) // 2


# Largest node count whose pair indices all fit int64:
# pair_count(2**32) = 2**63 - 2**31.
MAX_PAIR_NODES = 2**32


def _triangle(r: np.ndarray) -> np.ndarray:
    """``r * (r + 1) // 2`` for ``0 <= r < 2**32``; the product is formed in uint64, where it fits."""
    u = r.astype(np.uint64)
    return (u * (u + 1) // 2).astype(np.int64)


def index_to_pair(k: np.ndarray | int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the lexicographic unordered-pair index for node count ``n``.

    Pair (i, j) with i < j has index ``i*n - i*(i+1)/2 + (j - i - 1)``;
    this maps index arrays back to (i, j) arrays. Exact for every n up to
    ``MAX_PAIR_NODES``, where pair indices stop fitting int64; a larger n
    raises ValueError.
    """
    if n > MAX_PAIR_NODES:
        raise ValueError(f"index_to_pair supports at most {MAX_PAIR_NODES} nodes, got {n}")
    k = np.asarray(k, dtype=np.int64)
    total = pair_count(n)
    if k.size and (k.min() < 0 or k.max() >= total):
        raise ValueError("pair index out of range")
    # Counted from the end, row r (i = n - 2 - r) holds r + 1 pairs and the
    # rows after it hold triangle(r). The float guess for r is the square
    # root of a number float64 holds to 2**-53 relative, so it is off by at
    # most one near row boundaries; the integer loop then settles r exactly.
    # Clipping to real rows keeps triangle(r + 1) within int64.
    back = (total - 1) - k
    r = np.clip(((np.sqrt(8.0 * back + 1.0) - 1.0) // 2).astype(np.int64), 0, max(n - 2, 0))
    while True:
        start = _triangle(r)
        low = start > back
        high = start + r + 1 <= back
        if not (low.any() or high.any()):
            break
        r = r - low + high
    i = n - 2 - r
    j = i + 1 + r - (back - start)
    return i, j


def sparse_pairs(seed: int, stream_id: int, n: int, p: float, slots: int):
    """Hits ``(i, j, slot)``, i < j, of a Bernoulli(p) pass over ``slots`` slots per pair of ``n`` items.

    One :func:`skip_sample` pass of stream ``stream_id`` under ``seed``
    over the ``pair_count(n) * slots`` slot indices, in index order.
    """
    hits = skip_sample(stream(seed, stream_id), pair_count(n) * slots, p)
    pair, slot = np.divmod(hits, slots)
    i, j = index_to_pair(pair, n)
    return i, j, slot
