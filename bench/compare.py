"""Compare a parent result set with a change result set.

Usage: ``python3 bench/compare.py PARENT_DIR CHANGE_DIR``

Each directory holds result files written by ``bench/run.py`` (its
``bench/results/`` after running the parent and the change commit on the
same seeds). Runs pair up by (workload, seed). For every end-to-end metric
and workload the command prints both sides' median and quartiles, the pairs
the change won and lost, and a verdict:

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ, in its favour, by more than the
  parent's own interquartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json``;
- unresolved: neither, but the parent's relative spread exceeds the bound
  and not every change run reads better than every parent run;
- unchanged: otherwise.

Per-layer metrics from traced runs get the same rows with no bound, so
only "improved" and "unchanged" apply to them (a worse layer shows as the
other side winning).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> result record."""
    out: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("benchmark") != "meaninglab":
            continue
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """Verdict for paired runs (parent[i] pairs with change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq, cq = stats.quartiles(parent), stats.quartiles(change)
    gain = sign * (cq[1] - pq[1])
    if wins >= 0.9 * len(parent) and gain > 0 and gain > pq[2] - pq[0]:
        word = "improved"
    elif bound is not None and gain < -bound * abs(pq[1]):
        word = "worse"
    elif bound is not None and stats.relative_spread(parent) > bound and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        word = "unresolved"
    else:
        word = "unchanged"
    return {"parent": pq, "change": cq, "pairs": len(parent), "wins": wins,
            "losses": losses, "verdict": word}


def compare(parent_dir: Path, change_dir: Path, bench: dict) -> list[tuple[str, str, dict]]:
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        for metric in metrics:
            for workload in [w["name"] for w in bench["workloads"]]:
                p_runs = parent.get((workload, trace), {})
                c_runs = change.get((workload, trace), {})
                seeds = sorted(set(p_runs) & set(c_runs))
                key = "end_to_end" if trace == 0 else "layers"
                seeds = [s for s in seeds
                         if metric["name"] in p_runs[s].get(key, {})
                         and metric["name"] in c_runs[s].get(key, {})]
                if not seeds:
                    continue
                pv = [p_runs[s][key][metric["name"]] for s in seeds]
                cv = [c_runs[s][key][metric["name"]] for s in seeds]
                rows.append((metric["name"], workload,
                             verdict(pv, cv, metric["better"], metric.get("bound"))))
    return rows


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(Path(argv[0]), Path(argv[1]), bench)
    if not rows:
        print("no runs pair up by workload and seed", file=sys.stderr)
        return 1
    print(f"{'metric':40s} {'workload':17s} {'pairs':>5s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'won':>4s} {'lost':>4s}  verdict")
    for name, workload, v in rows:
        note = "" if v["pairs"] >= MIN_PAIRS else f" (fewer than {MIN_PAIRS} pairs)"
        print(f"{name:40s} {workload:17s} {v['pairs']:5d} {_fmt(v['parent']):>32s} "
              f"{_fmt(v['change']):>32s} {v['wins']:4d} {v['losses']:4d}  {v['verdict']}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
