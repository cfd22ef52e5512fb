"""Output checks for each workload's CLI ops.

``check_op`` reads the files one op wrote and decides whether the op
passed; ``check_pooled`` applies the criteria that only hold over many
trials (acceptance tests 4 and 8) to the pooled per-op values. Neither
imports meaninglab: the outputs are checked as a user would read them.
"""

from __future__ import annotations

import math
from pathlib import Path

# Half-width of the symbol-edge band, in standard deviations of the count.
EDGE_BAND_SD = 6.0
# Pooled criteria, as in the acceptance tests they come from.
GAMMA_MIN_TRIALS = 200
GAMMA_MIN_FOOLED = 0.95
GAMMA_MAX_ABS = 0.05
HEATMAP_MIN_LOW_GAP = 2.0
HEATMAP_MAX_HIGH_GAP = 0.5
SPECTRAL_MIN_WITHIN = 0.95


def argval(argv: list[str], flag: str, default: str | None = None) -> str:
    if flag in argv:
        return argv[argv.index(flag) + 1]
    if default is None:
        raise KeyError(flag)
    return default


def sample_edge_band(argv: list[str], meaning_edges: int) -> tuple[float, float]:
    """Expected symbol-edge lines of a ``sample`` op and the band around it.

    Each structural and each similarity edge is one line. Given the meaning
    graph's edge count every pass is a sum of independent Bernoulli slots,
    so the band is a multiple of the exact standard deviation.
    """
    n = int(argv[argv.index("--er") + 1])
    lam = int(argval(argv, "--lambda", "2"))
    p_plus = float(argval(argv, "--p-plus", "0.9"))
    p_minus = float(argval(argv, "--p-minus", "1e-6"))
    eps_plus = float(argval(argv, "--eps-plus", "1e-4"))
    eps_minus = float(argval(argv, "--eps-minus", "0"))
    pairs = n * (n - 1) // 2
    passes = [
        (meaning_edges * lam * lam, p_plus),
        ((pairs - meaning_edges) * lam * lam, p_minus),
        (n * lam * (lam - 1) // 2, 1.0 - eps_plus),
        (pairs * lam * lam, eps_minus),
    ]
    mean = sum(k * p for k, p in passes)
    var = sum(k * p * (1.0 - p) for k, p in passes)
    return mean, EDGE_BAND_SD * math.sqrt(var) + 1.0


def _data_rows(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    """Header fields, data rows and comment lines of a comma-separated output."""
    comments: list[str] = []
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path.name}: no header row")
    return header, rows, comments


def _check_sample(argv, out: Path, ctx) -> tuple[float, dict]:
    n = int(argv[argv.index("--er") + 1])
    lam = int(argval(argv, "--lambda", "2"))
    origins = edges = 0
    with open(out / "symbol_graph.tsv", "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        meta = dict(f.split("=", 1) for f in head[2:])
        for line in fh:
            if line.startswith("#origin"):
                origins += 1
            elif not line.startswith("#"):
                if line.count("\t") != 2 or line[-2] not in "SR":
                    raise ValueError(f"bad edge line {line!r}")
                edges += 1
    if int(meta["meaning-nodes"]) != n or int(meta["lambda"]) != lam:
        raise ValueError(f"header says {meta}, expected n={n} lambda={lam}")
    if origins != lam * n:
        raise ValueError(f"{origins} symbol nodes, expected lambda*n = {lam * n}")
    mean, half = ctx["edge_band"]
    if abs(edges - mean) > half:
        raise ValueError(f"{edges} symbol edges outside {mean:.0f} +- {half:.0f}")
    return edges, {"symbol_edges": edges}


def _check_gamma(argv, out: Path, ctx) -> tuple[float, dict]:
    header, rows, _ = _data_rows(out / "gamma.csv")
    if len(rows) != 1:
        raise ValueError(f"gamma.csv has {len(rows)} records, expected 1")
    rec = dict(zip(header, rows[0]))
    trials = int(rec["trials"])
    if trials != int(argval(argv, "--trials")):
        raise ValueError(f"{trials} trials recorded, {argval(argv, '--trials')} asked for")
    p1, p2 = float(rec["p1"]), float(rec["p2"])
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValueError(f"rates out of range: p1={p1} p2={p2}")
    return trials, {"trials": trials, "pos1": round(p1 * trials), "pos2": round(p2 * trials)}


def _check_heatmap(argv, out: Path, ctx) -> tuple[float, dict]:
    header, rows, comments = _data_rows(out / "heatmap.csv")
    meta = dict(f.split("=", 1) for f in comments[0].split()[2:])
    if len(rows) != len(argval(argv, "--p-minus-grid").split(",")):
        raise ValueError(f"{len(rows)} heat-map rows for grid {argval(argv, '--p-minus-grid')}")
    if any(cell == "" for row in rows for cell in row):
        raise ValueError("empty heat-map cell")
    low = [float(c) for c in rows[0][1:]]
    high = [float(c) for c in rows[-1][1:]]
    low_gap = low[-1] - low[0]
    high_gap = max(abs(high[-1] - h) for h in high[:-1])
    if low_gap < HEATMAP_MIN_LOW_GAP or high_gap > HEATMAP_MAX_HIGH_GAP:
        raise ValueError(f"low-noise d=1 gap {low_gap:.3f}, high-noise max gap {high_gap:.3f}")
    svg = (out / "heatmap.svg").read_text(encoding="utf-8")
    if not svg.startswith("<svg") or not svg.endswith("</svg>\n"):
        raise ValueError("heatmap.svg is truncated")
    probed = len(rows) * (len(header) - 1) * int(meta["pairs_per_cell"])
    return probed, {"low_gap": low_gap, "high_gap": high_gap}


def _check_spectral(argv, out: Path, ctx) -> tuple[float, dict]:
    header, rows, _ = _data_rows(out / "spectral.csv")
    trials = int(argval(argv, "--trials"))
    if len(rows) != trials:
        raise ValueError(f"spectral.csv has {len(rows)} trials, expected {trials}")
    col = header.index("within")
    within = [int(r[col]) for r in rows]
    if any(w not in (0, 1) for w in within):
        raise ValueError(f"bad within column {within}")
    return trials, {"trials": trials, "within": sum(within)}


_CHECKS = {
    "sample": _check_sample,
    "gamma": _check_gamma,
    "heatmap": _check_heatmap,
    "spectral": _check_spectral,
}


def check_op(argv: list[str], out: Path, ctx: dict) -> dict:
    """Work units and checked values of one op, or the reason it failed."""
    try:
        units, values = _CHECKS[argv[0]](argv, Path(out), ctx)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"ok": False, "reason": f"{type(exc).__name__}: {exc}", "units": 0, "values": {}}
    return {"ok": True, "reason": "", "units": units, "values": values}


def check_pooled(argv: list[str], values: list[dict]) -> tuple[bool, str]:
    """Criteria over the pooled values of a run's passing ops."""
    if argv[0] == "gamma":
        trials = sum(v["trials"] for v in values)
        if trials < GAMMA_MIN_TRIALS:
            return False, f"only {trials} pooled trials, need {GAMMA_MIN_TRIALS}"
        p1 = sum(v["pos1"] for v in values) / trials
        p2 = sum(v["pos2"] for v in values) / trials
        ok = p2 >= GAMMA_MIN_FOOLED and abs(p1 - p2) <= GAMMA_MAX_ABS
        return ok, f"pooled over {trials} trials: fooled rate p2={p2:.4f}, gamma={p1 - p2:+.4f}"
    if argv[0] == "spectral":
        trials = sum(v["trials"] for v in values)
        within = sum(v["within"] for v in values)
        ok = trials > 0 and within >= SPECTRAL_MIN_WITHIN * trials
        return ok, f"{within}/{trials} pooled trials within the bound"
    return True, "no pooled criterion"
