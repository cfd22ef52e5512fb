"""Heatmap sweep semantics and emitter round trips."""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meaninglab.experiments import (
    DISCONNECTED,
    HeatmapTable,
    _heatmap_row,
    distance_cap,
    emit_heatmap_csv,
    emit_svg_heatmap,
    heatmap,
)
from meaninglab.graph import Graph, bfs_distance
from meaninglab.meaning import MeaningGraph, gen_er, pick_disconnected_pair, pick_pair_at_distance
from meaninglab.rng import STREAM_HEATMAP_CELL, STREAM_HEATMAP_ROW, stream, subseed
from meaninglab.sampler import SampleParams, sample_symbol_graph

IDENTITY = SampleParams(1.0, 0.0, 1.0, 0.0, 1)


def fixture_graph() -> MeaningGraph:
    # Path of 8 plus 4 isolated nodes: pairs exist at d = 1..7 and
    # disconnected pairs exist too.
    return MeaningGraph(Graph(12, [(i, i + 1) for i in range(7)]))


def test_distance_cap():
    assert distance_cap(100, 2) == 2 * math.ceil(math.log(200))
    assert distance_cap(1, 1) == 2
    with pytest.raises(ValueError):
        distance_cap(0, 1)


def test_identity_heatmap_recovers_meaning_distances():
    # Faithful single-replica channel: every d column averages exactly d,
    # and the disconnected column pins at the cap.
    gm = fixture_graph()
    table = heatmap(gm, [0.0], d_max=4, pairs_per_cell=6, params_base=IDENTITY, seed=3)
    assert table.cells[0] == (1.0, 2.0, 3.0, 4.0, float(table.cap))


def test_heatmap_rows_sorted_and_shaped():
    gm = fixture_graph()
    table = heatmap(gm, [0.05, 0.01, 0.2], d_max=3, pairs_per_cell=2, params_base=IDENTITY, seed=1)
    assert table.p_minus_grid == (0.01, 0.05, 0.2)
    assert len(table.cells) == 3
    assert all(len(row) == 4 for row in table.cells)
    assert table.column_labels() == ["d_1", "d_2", "d_3", DISCONNECTED]


def test_heatmap_empty_cells():
    # A connected 3-path has no disconnected pairs and nothing at d = 3.
    gm = MeaningGraph(Graph(3, [(0, 1), (1, 2)]))
    table = heatmap(gm, [0.0], d_max=3, pairs_per_cell=2, params_base=IDENTITY, seed=1)
    assert table.cells[0][:2] == (1.0, 2.0)
    assert table.cells[0][2] is None  # d = 3
    assert table.cells[0][3] is None  # disconnected


def test_empty_cells_come_back_from_worker_processes():
    # The same 3-path, with each row computed in a worker process.
    gm = MeaningGraph(Graph(3, [(0, 1), (1, 2)]))
    params = SampleParams(1.0, 0.0, 0.0, 0.0, 1)
    table = heatmap(gm, [0.0, 0.1], d_max=3, pairs_per_cell=2, params_base=params, seed=1, threads=2)
    for row in table.cells:
        assert row[2] is None and row[3] is None


def test_heatmap_deterministic_and_thread_invariant():
    gm = gen_er(40, 0.08, 2)
    p = SampleParams(0.9, 0.0, 0.3, 0.0, 2)
    a = heatmap(gm, [0.001, 0.01], d_max=3, pairs_per_cell=4, params_base=p, seed=9)
    b = heatmap(gm, [0.001, 0.01], d_max=3, pairs_per_cell=4, params_base=p, seed=9)
    c = heatmap(gm, [0.001, 0.01], d_max=3, pairs_per_cell=4, params_base=p, seed=9, threads=2)
    assert a == b == c


def test_heatmap_noise_shrinks_disconnected_distance():
    # With enough structural noise the disconnected column must fall
    # below the cap: shortcuts appear between the components.
    gm = MeaningGraph(Graph(30, [(i, i + 1) for i in range(14)]))
    p = SampleParams(0.9, 0.0, 0.3, 0.0, 2)
    table = heatmap(gm, [0.0, 0.3], d_max=2, pairs_per_cell=5, params_base=p, seed=4)
    quiet = table.cells[0][-1]  # the disconnected column
    noisy = table.cells[1][-1]
    assert quiet == float(table.cap)
    assert noisy < quiet


def test_heatmap_validation():
    gm = fixture_graph()
    with pytest.raises(ValueError):
        heatmap(gm, [], d_max=2, pairs_per_cell=2, params_base=IDENTITY, seed=1)
    with pytest.raises(ValueError):
        heatmap(gm, [0.1], d_max=2, pairs_per_cell=0, params_base=IDENTITY, seed=1)
    with pytest.raises(ValueError):
        HeatmapTable((0.2, 0.1), 2, 1, 10, IDENTITY, 0, ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)))


def reference_row(gm, params_base, p_minus, row_index, d_max, pairs_per_cell, cap, seed):
    """A heat-map row by plain loops: the same picks and streams, each probe its own separator search."""
    params = replace(params_base, p_minus=p_minus)
    sg = sample_symbol_graph(gm, params, subseed(seed, STREAM_HEATMAP_ROW, row_index))
    lam = params.lam
    cells = []
    for d in range(1, d_max + 1):
        rng = stream(seed, STREAM_HEATMAP_CELL, row_index, d)
        cells.append(pick_pair_at_distance(gm, d, rng, count=pairs_per_cell))
    rng = stream(seed, STREAM_HEATMAP_CELL, row_index, 0)
    disconnected = [pick_disconnected_pair(gm, rng) for _ in range(pairs_per_cell)]
    cells.append(None if None in disconnected else disconnected)
    row = []
    for pairs in cells:
        if pairs is None:
            row.append(None)
            continue
        total = 0.0
        for u, v in pairs:
            dist = bfs_distance(sg.graph, lam * u, lam * v, cap)
            total += cap if dist is None else dist  # a probe past the cap counts at the cap
        row.append(total / pairs_per_cell)
    return tuple(row)


@st.composite
def heatmap_rows(draw):
    # Small meaning graphs, connected (a spanning path plus chords) or not,
    # and distances up to past the diameter, so every kind of empty cell shows.
    n = draw(st.integers(min_value=2, max_value=10))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = [(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=2 * n)) if u != v]
    if draw(st.booleans()):
        edges += [(i, i + 1) for i in range(n - 1)]
    gm = MeaningGraph(Graph(n, edges))
    lam = draw(st.integers(min_value=1, max_value=3))
    params = SampleParams(
        draw(st.sampled_from([0.5, 0.9, 1.0])), 0.0, draw(st.sampled_from([0.0, 0.1])), 0.0, lam
    )
    p_minus = draw(st.sampled_from([0.0, 0.01, 0.2]))
    d_max = draw(st.integers(min_value=1, max_value=n + 2))
    pairs_per_cell = draw(st.integers(min_value=1, max_value=6))
    cap = draw(st.integers(min_value=0, max_value=distance_cap(n, lam)))
    row_index = draw(st.integers(min_value=0, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return gm, params, p_minus, row_index, d_max, pairs_per_cell, cap, seed


@settings(max_examples=100, deadline=None)
@given(heatmap_rows())
def test_heatmap_row_matches_plain_loop_reference(case):
    got = _heatmap_row(*case)
    want = reference_row(*case)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


# -- emitters -----------------------------------------------------------


def make_table(with_empty=False) -> HeatmapTable:
    if with_empty:
        gm = MeaningGraph(Graph(3, [(0, 1), (1, 2)]))
        return heatmap(gm, [0.0, 0.25], d_max=3, pairs_per_cell=2, params_base=IDENTITY, seed=1)
    gm = fixture_graph()
    p = SampleParams(0.9, 0.0, 0.25, 0.001, 2)
    return heatmap(gm, [0.001, 0.02, 0.3], d_max=3, pairs_per_cell=4, params_base=p, seed=8)


def check_reparse(table: HeatmapTable, path) -> None:
    """Every number the CSV holds, read back with ``csv``, is the float it was written from."""
    emit_heatmap_csv(table, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    meta = dict(field.split("=") for row in rows[:2] for field in row[0].split()[2:])
    p = table.params_base
    assert [float(meta[k]) for k in ("p_plus", "p_minus", "eps_plus", "eps_minus")] == [
        p.p_plus, p.p_minus, p.eps_plus, p.eps_minus
    ]
    assert [int(meta[k]) for k in ("d_max", "pairs_per_cell", "cap", "seed", "lambda", "fold")] == [
        table.d_max, table.pairs_per_cell, table.cap, table.seed, p.lam, int(p.fold)
    ]
    assert rows[2] == ["p_minus", *table.column_labels()]
    assert len(rows) == 3 + len(table.cells)
    for row, p_minus, cells in zip(rows[3:], table.p_minus_grid, table.cells):
        assert float(row[0]) == p_minus
        assert len(row) == 1 + len(cells)
        for field, value in zip(row[1:], cells):
            assert field == "" if value is None else float(field) == value


def test_csv_round_trip_exact(tmp_path):
    check_reparse(make_table(), tmp_path / "hm.csv")


def test_csv_round_trip_with_empty_cells(tmp_path):
    table = make_table(with_empty=True)
    assert any(None in row for row in table.cells)
    check_reparse(table, tmp_path / "hm.csv")


def test_csv_structure(tmp_path):
    table = make_table()
    path = tmp_path / "hm.csv"
    emit_heatmap_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# heatmap d_max=3")
    assert lines[1].startswith("# params p_plus=0.9")
    assert lines[2] == "p_minus,d_1,d_2,d_3,disconnected"
    assert len(lines) == 3 + 3
    assert lines[3].split(",")[0] == repr(0.001)


def test_csv_byte_stable(tmp_path):
    table = make_table()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_heatmap_csv(table, a)
    emit_heatmap_csv(table, b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_structure(tmp_path):
    table = make_table()
    path = tmp_path / "hm.svg"
    emit_svg_heatmap(table, path)
    text = path.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    # One filled rect per cell plus 16 legend swatches.
    assert text.count("<rect ") == 3 * 4 + 16
    assert "disc" in text and "d_1" in text


def test_svg_grayscale_tracks_distance(tmp_path):
    # Identity heatmap: distance grows along the row, so fills must get
    # strictly lighter left to right (darker = shorter).
    gm = fixture_graph()
    table = heatmap(gm, [0.0], d_max=4, pairs_per_cell=3, params_base=IDENTITY, seed=2)
    path = tmp_path / "hm.svg"
    emit_svg_heatmap(table, path)
    fills = []
    for line in path.read_text().splitlines():
        if '<rect' in line and 'stroke="#444444"' in line:
            fills.append(int(line.split('fill="#')[1][:2], 16))
    assert fills == sorted(fills)
    assert len(set(fills)) == len(fills)
    assert fills[0] == 0 and fills[-1] == 255


def test_svg_empty_cells_render_crossed(tmp_path):
    table = make_table(with_empty=True)
    path = tmp_path / "hm.svg"
    emit_svg_heatmap(table, path)
    text = path.read_text()
    assert 'fill="none"' in text
    assert "<line " in text


def test_svg_byte_stable(tmp_path):
    table = make_table()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg_heatmap(table, a)
    emit_svg_heatmap(table, b)
    assert a.read_bytes() == b.read_bytes()
