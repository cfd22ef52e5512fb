"""A fixed reference computation that measures how fast the host is right now.

The host this benchmark runs on changes speed by up to a factor of two
over minutes, and its slow spells slow everything the worker runs. So the
benchmark keeps timing this small computation, which never changes, on the
same CPU as the op: every ``INTERVAL_S`` during the op (from a timer
signal, see ``sampling``) and a few times right before and after it. Each
op's time is then reported at reference speed::

    scaled_s = wall_s * REFERENCE_S / mean(reference times)

that is, the wall time the op would take on a host that runs one
repetition of the reference in ``REFERENCE_S`` seconds. ``wall_s``
excludes the time the reference itself took during the op. Raw wall
times are kept beside the scaled ones in every result file.

Each timed repetition follows an untimed one, so it runs on warm caches
whatever the op left in them: how much memory the program under test
touches must not change what the reference reads.

One repetition mixes the two kinds of work meaninglab does: a Python
breadth-first search over adjacency lists (``graph``, ``meaning``,
``reasoning``) and a numpy sort (``sampler``, ``rng``, ``spectral``).
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import statistics
import time

import numpy as np

# Seconds one repetition takes at reference speed; about what it takes on
# this benchmark's 2-core host at its faster times.
REFERENCE_S = 0.0012
INTERVAL_S = 0.1
# Repetitions timed right before and right after an op.
AROUND = 5

_N = 2_000
_rng = np.random.default_rng(20190108)
_NBRS: list[list[int]] = [[] for _ in range(_N)]
for _a, _b in _rng.integers(0, _N, size=(5_000, 2)).tolist():
    _NBRS[_a].append(_b)
    _NBRS[_b].append(_a)
_VALUES = _rng.random(30_000)
# Work space, allocated once: a repetition allocates no Python objects, so
# it never runs the garbage collector over the op's objects.
_UNSEEN = [-1] * _N
_DIST = [-1] * _N
_QUEUE = [0] * _N
_SORTED = np.empty_like(_VALUES)


def _once() -> float:
    """One repetition on whatever caches it finds, and its wall seconds."""
    t0 = time.perf_counter()
    dist, queue = _DIST, _QUEUE
    dist[:] = _UNSEEN
    dist[0] = 0
    queue[0] = 0
    head, tail = 0, 1
    while head < tail:
        x = queue[head]
        head += 1
        dx = dist[x] + 1
        for y in _NBRS[x]:
            if dist[y] < 0:
                dist[y] = dx
                queue[tail] = y
                tail += 1
    _SORTED[:] = _VALUES
    _SORTED.sort()
    return time.perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Keep this process, and the processes it starts, on one CPU.

    The reference only says how fast the CPU that runs the op is if both
    run on the same CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _warm() -> float:
    """Wall seconds of one repetition right after an untimed one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _once()
        return _once()
    finally:
        if enabled:
            gc.enable()


def measure(reps: int = AROUND) -> list[float]:
    """Wall seconds of ``reps`` warm repetitions of the reference, one by one."""
    return [_warm() for _ in range(reps)]


@contextlib.contextmanager
def sampling():
    """Time one repetition every ``INTERVAL_S`` while the block runs.

    Yields the list the times are appended to and ``spent``. The
    repetitions run in the main thread from a SIGALRM handler, between
    two Python bytecodes.
    ``spent`` ends up holding the handler's whole time, the untimed
    repetitions included, so the block's wall time less ``spent[0]`` is
    the block's own time.
    """
    samples: list[float] = []
    spent = [0.0]

    def handler(signum, frame):
        t0 = time.perf_counter()
        samples.append(_warm())
        spent[0] += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples, spent
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)


def scale(wall_s: float, samples: list[float]) -> float:
    """``wall_s`` at reference speed, given the reference times taken with it."""
    return wall_s * REFERENCE_S / statistics.fmean(samples)
