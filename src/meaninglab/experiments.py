"""Distance heatmap experiment and its byte-stable CSV/SVG emitters.

The heatmap sweeps structural noise p_minus (rows) against meaning
distance d (columns, plus a disconnected column) and records the mean
capped symbol-graph distance between first replicas. It is the package's
reproduction of the degradation picture: low noise tracks meaning
distance, high noise pulls every column close to the ambient small-world
distance. On the benchmark's heat-map fixture the disconnected column
ends about 7 above the d = 1 column at low noise, and at high noise about
0.28 from the farthest distance column, a mean over 400 seeded runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import bfs_distances
from .meaning import MeaningGraph, pick_disconnected_pair, pick_pair_at_distance
from .rng import STREAM_HEATMAP_CELL, STREAM_HEATMAP_ROW, run_tasks, stream, subseed
from .sampler import SampleParams, sample_symbol_graph

DISCONNECTED = "disconnected"


def distance_cap(n: int, lam: int) -> int:
    """BFS cap used for heatmap cells: twice ceil(ln(lam*n))."""
    if n < 1 or lam < 1:
        raise ValueError("need positive node count and lam")
    if n * lam < 2:
        return 2
    return 2 * math.ceil(math.log(lam * n))


@dataclass(frozen=True)
class HeatmapTable:
    """Mean capped replica distances, rows by p_minus, columns by d.

    ``cells[r]`` has ``d_max + 1`` entries: columns d = 1..d_max followed
    by the disconnected column. A cell is None when the meaning graph has
    no pair for it. ``params_base.p_minus`` records the base
    parameter set; each row overrides p_minus with its grid value.
    """

    p_minus_grid: tuple[float, ...]
    d_max: int
    pairs_per_cell: int
    cap: int
    params_base: SampleParams
    seed: int
    cells: tuple[tuple[float | None, ...], ...]

    def __post_init__(self):
        if list(self.p_minus_grid) != sorted(set(self.p_minus_grid)):
            raise ValueError("p_minus grid must be strictly ascending")
        if self.d_max < 1:
            raise ValueError("d_max must be positive")
        if len(self.cells) != len(self.p_minus_grid):
            raise ValueError("one cell row per grid value required")
        for row in self.cells:
            if len(row) != self.d_max + 1:
                raise ValueError("each row needs d_max + 1 cells")

    def column_labels(self) -> list[str]:
        return [f"d_{d}" for d in range(1, self.d_max + 1)] + [DISCONNECTED]


def _heatmap_row(
    gm: MeaningGraph,
    params_base: SampleParams,
    p_minus: float,
    row_index: int,
    d_max: int,
    pairs_per_cell: int,
    cap: int,
    seed: int,
) -> tuple[float | None, ...]:
    params = replace(params_base, p_minus=p_minus)
    sg = sample_symbol_graph(gm, params, subseed(seed, STREAM_HEATMAP_ROW, row_index))
    # Pick every cell's pairs first, each cell with one call that reads the
    # meaning graph's table of rings. A cell with pairs holds exactly
    # ``pairs_per_cell``, so the row's probes are one block of first
    # replicas, measured by one batched BFS call on the row's symbol graph.
    picked = [
        pick_pair_at_distance(gm, d, stream(seed, STREAM_HEATMAP_CELL, row_index, d), count=pairs_per_cell)
        for d in range(1, d_max + 1)
    ]
    rng = stream(seed, STREAM_HEATMAP_CELL, row_index, 0)
    pairs = [pick_disconnected_pair(gm, rng) for _ in range(pairs_per_cell)]
    picked.append(None if None in pairs else pairs)
    probes = params.lam * np.array([cell for cell in picked if cell is not None], dtype=np.int64).reshape(-1, 2)
    dists = bfs_distances(sg.graph, probes[:, 0], probes[:, 1], cap=cap)
    dists[dists < 0] = cap  # a probe past the cap counts at the cap
    # Each cell's sum is an exact integer, so one division gives the float
    # a running sum from 0.0 would.
    means = iter((dists.reshape(-1, pairs_per_cell).sum(axis=1) / pairs_per_cell).tolist())
    return tuple(None if cell is None else next(means) for cell in picked)


def heatmap(
    gm: MeaningGraph,
    p_minus_grid,
    d_max: int,
    pairs_per_cell: int,
    params_base: SampleParams,
    seed: int,
    threads: int = 1,
) -> HeatmapTable:
    """Run the sweep; deterministic in ``seed`` regardless of ``threads``."""
    grid = tuple(sorted(set(float(p) for p in p_minus_grid)))
    if not grid:
        raise ValueError("p_minus grid must be non-empty")
    if pairs_per_cell < 1:
        raise ValueError("pairs_per_cell must be positive")
    cap = distance_cap(gm.n, params_base.lam)
    tasks = [(gm, params_base, p, r, d_max, pairs_per_cell, cap, seed) for r, p in enumerate(grid)]
    rows = run_tasks(_heatmap_row, tasks, threads)
    return HeatmapTable(
        p_minus_grid=grid,
        d_max=d_max,
        pairs_per_cell=pairs_per_cell,
        cap=cap,
        params_base=params_base,
        seed=seed,
        cells=tuple(rows),
    )


# -- emitters -----------------------------------------------------------


def emit_heatmap_csv(table: HeatmapTable, path) -> None:
    """Write the table; floats via repr so a re-parse is exact."""
    p = table.params_base
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# heatmap d_max={table.d_max} pairs_per_cell={table.pairs_per_cell}"
            f" cap={table.cap} seed={table.seed}\n"
        )
        fh.write(
            "# params"
            f" p_plus={p.p_plus!r} p_minus={p.p_minus!r}"
            f" eps_plus={p.eps_plus!r} eps_minus={p.eps_minus!r}"
            f" lambda={p.lam} fold={int(p.fold)}\n"
        )
        fh.write("p_minus," + ",".join(table.column_labels()) + "\n")
        for p_minus, row in zip(table.p_minus_grid, table.cells):
            fields = [repr(p_minus)]
            fields += ["" if c is None else repr(c) for c in row]
            fh.write(",".join(fields) + "\n")


_CELL_W = 46
_CELL_H = 26
_MARGIN_LEFT = 86
_MARGIN_TOP = 34
_LEGEND_W = 70


def _gray(value: float, vmin: float, vmax: float) -> str:
    if vmax <= vmin:
        level = 128
    else:
        level = int(round(255.0 * (value - vmin) / (vmax - vmin)))
    level = min(255, max(0, level))
    return f"#{level:02x}{level:02x}{level:02x}"


def emit_svg_heatmap(table: HeatmapTable, path) -> None:
    """Grayscale SVG rendering: darker means shorter observed distance.

    Purely presentational and byte-stable; empty cells render as crossed
    outlines. The CSV, not this file, is the machine-readable output.
    """
    values = [c for row in table.cells for c in row if c is not None]
    vmin = min(values) if values else 0.0
    vmax = max(values) if values else 0.0
    ncols = table.d_max + 1
    nrows = len(table.p_minus_grid)
    width = _MARGIN_LEFT + ncols * _CELL_W + _LEGEND_W
    height = _MARGIN_TOP + max(nrows * _CELL_H, 4 * _CELL_H) + 10
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        f'<text x="{_MARGIN_LEFT}" y="14" font-family="monospace" font-size="12">mean replica distance (cap {table.cap})</text>',
    ]
    for c, label in enumerate(table.column_labels()):
        x = _MARGIN_LEFT + c * _CELL_W + _CELL_W // 2
        short = label if label != DISCONNECTED else "disc"
        out.append(
            f'<text x="{x}" y="{_MARGIN_TOP - 6}" font-family="monospace" font-size="10" text-anchor="middle">{short}</text>'
        )
    for r, p_minus in enumerate(table.p_minus_grid):
        y = _MARGIN_TOP + r * _CELL_H
        out.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{y + _CELL_H - 9}" font-family="monospace" font-size="10" text-anchor="end">{p_minus:.6g}</text>'
        )
        for c in range(ncols):
            x = _MARGIN_LEFT + c * _CELL_W
            cell = table.cells[r][c]
            if cell is None:
                out.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL_W}" height="{_CELL_H}" fill="none" stroke="#999999"/>'
                )
                out.append(
                    f'<line x1="{x}" y1="{y}" x2="{x + _CELL_W}" y2="{y + _CELL_H}" stroke="#999999"/>'
                )
            else:
                out.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL_W}" height="{_CELL_H}" fill="{_gray(cell, vmin, vmax)}" stroke="#444444"/>'
                )
    # Legend: vertical gradient with numeric endpoints.
    lx = _MARGIN_LEFT + ncols * _CELL_W + 18
    steps = 16
    lh = 8
    for k in range(steps):
        frac = k / (steps - 1)
        val = vmax - frac * (vmax - vmin)
        out.append(
            f'<rect x="{lx}" y="{_MARGIN_TOP + k * lh}" width="16" height="{lh}" fill="{_gray(val, vmin, vmax)}"/>'
        )
    out.append(
        f'<text x="{lx + 20}" y="{_MARGIN_TOP + 8}" font-family="monospace" font-size="9">{vmax:.6g}</text>'
    )
    out.append(
        f'<text x="{lx + 20}" y="{_MARGIN_TOP + steps * lh}" font-family="monospace" font-size="9">{vmin:.6g}</text>'
    )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
