"""Spans around calls into meaninglab's modules, recorded from outside them.

``install`` wraps each function named in ``spec.json`` and rebinds the
wrapper in every ``meaninglab.*`` namespace that imported the original,
so nested calls (``separator`` calling ``bfs_distance``) are recorded too.
Each span keeps its name, start, end, parent span and op id. Counts are
taken from return values at the same boundaries. A name that no longer
exists is reported as missing and recorded as never called.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import os
import sys
import time
from collections import defaultdict


def _getarg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> ((count name, f(args, kwargs, result) -> number), ...)
COUNTERS = {
    "rng.skip_sample": (("rng.skip_sample.hits", lambda a, k, r: len(r)),),
    "sampler.sample_symbol_graph": (("sampler.symbol_edges", lambda a, k, r: r.graph.edge_count),),
    "sampler.sample_coupled": (
        ("sampler.symbol_edges", lambda a, k, r: sum(sg.graph.edge_count for sg in r)),
    ),
    "sampler.write_symbol_graph": (
        ("sampler.bytes_written", lambda a, k, r: os.path.getsize(_getarg(a, k, 1, "path"))),
    ),
    "spectral.spectral_norm": (("spectral.power_iterations", lambda a, k, r: r.iterations),),
    "spectral.coupled_cut_trial": (
        ("spectral.neighborhood_nodes", lambda a, k, r: r.neighborhood_size),
    ),
    # A distance is an int; anything else is the "no path within the cap" answer.
    "graph.bfs_distance": (
        ("graph.bfs_distance.unreachable", lambda a, k, r: int(not isinstance(r, int))),
    ),
}

# Counts of child spans under a given parent: (count name, parent, child).
CHILD_COUNTS = (
    ("meaning.pick_pair_at_distance.bfs_calls", "meaning.pick_pair_at_distance", "graph.bfs_distance"),
)


def count_names() -> list[str]:
    """Every count recorded at a span boundary."""
    names = {name for counters in COUNTERS.values() for name, _ in counters}
    return sorted(names | {name for name, _, _ in CHILD_COUNTS})


class Recorder:
    """In-memory span store; ``op`` tags every span opened while it is set."""

    def __init__(self, names: list[str]):
        self.names = list(names)
        self.sid: list[int] = []
        self.parent: list[int] = []
        self.op_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.counter_errors: dict[str, str] = {}
        self.op = -1

    def open(self, sid: int) -> int:
        i = len(self.sid)
        self.sid.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, value: int) -> None:
        self.counts[self.op][name] += value

    def write_csv_gz(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "op", "name", "parent", "start", "end"))
            for i, sid in enumerate(self.sid):
                w.writerow((i, self.op_of[i], self.names[sid], self.parent[i],
                            repr(self.start[i]), repr(self.end[i])))


def _wrap(rec: Recorder, sid: int, fn, counters):
    def wrapper(*args, **kwargs):
        i = rec.open(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        for name, count in counters:
            try:
                rec.add(name, count(args, kwargs, result))
            except (AttributeError, TypeError, KeyError, OSError) as exc:
                rec.counter_errors[name] = repr(exc)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def install(rec: Recorder, span_specs: list[dict], package: str = "meaninglab"):
    """Wrap every target; returns (status per span name, undo callable)."""
    namespaces = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == package or name.startswith(package + "."))]
    undo: list[tuple[object, str, object]] = []
    status: dict[str, str] = {}
    for sid, spec in enumerate(span_specs):
        counters = COUNTERS.get(spec["name"], ())
        try:
            mod = importlib.import_module(f"{package}.{spec['module']}")
        except ImportError:
            status[spec["name"]] = "missing"
            continue
        found = 0
        for target in spec["targets"]:
            if "." in target:
                cls_name, attr = target.split(".", 1)
                owner = getattr(mod, cls_name, None)
                orig = vars(owner).get(attr) if isinstance(owner, type) else None
                if orig is None:
                    continue
                setattr(owner, attr, _wrap(rec, sid, orig, counters))
                undo.append((owner, attr, orig))
            else:
                orig = getattr(mod, target, None)
                if not callable(orig):
                    continue
                wrapper = _wrap(rec, sid, orig, counters)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, key, wrapper)
                            undo.append((ns, key, orig))
            found += 1
        targets = len(spec["targets"])
        status[spec["name"]] = "wrapped" if found == targets else ("partial" if found else "missing")

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return status, uninstall


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(start: list[float], end: list[float], parent: list[int]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in start]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    return [
        end[i] - start[i] - _covered([(start[c], end[c]) for c in children[i]], start[i], end[i])
        for i in range(len(start))
    ]


def per_op(rec: Recorder) -> dict[int, dict]:
    """Per op: self seconds and calls per span name, plus boundary counts."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    out: dict[int, dict] = {}

    def entry(op):
        if op not in out:
            out[op] = {"self_s": defaultdict(float), "calls": defaultdict(int),
                       "counts": defaultdict(int)}
        return out[op]

    for i, sid in enumerate(rec.sid):
        e = entry(rec.op_of[i])
        name = rec.names[sid]
        e["self_s"][name] += selfs[i]
        e["calls"][name] += 1
        for count, parent_name, child_name in CHILD_COUNTS:
            p = rec.parent[i]
            if name == child_name and p >= 0 and rec.names[rec.sid[p]] == parent_name:
                e["counts"][count] += 1
    for op, counts in rec.counts.items():
        entry(op)["counts"].update(counts)
    return {op: {k: dict(v) for k, v in e.items()} for op, e in out.items()}
