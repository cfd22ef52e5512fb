"""Self-tests of the benchmark harness: run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import pytest

import checks
import compare
import reference
import run
import spans
import stats
import worker

BENCH = Path(__file__).resolve().parent.parent


# -- tail percentile -------------------------------------------------------


def test_tail_keeps_ten_ops_beyond():
    values = [float(v) for v in range(30, 0, -1)]  # 1..30, unsorted
    t = stats.tail(values)
    assert t["value"] == 20.0
    assert (t["rank"], t["ops"], t["beyond"]) == (20, 30, 10)
    assert t["percentile"] == pytest.approx(100.0 * 20 / 30)
    assert t["rule_met"]


def test_tail_with_exactly_eleven_ops_is_the_minimum_and_meets_the_rule():
    t = stats.tail([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert (t["value"], t["rank"], t["beyond"], t["rule_met"]) == (1.0, 1, 10, True)


def test_tail_of_a_short_run_is_flagged():
    t = stats.tail([3.0, 1.0, 2.0])
    assert (t["value"], t["rank"], t["beyond"], t["rule_met"]) == (1.0, 1, 2, False)
    with pytest.raises(ValueError):
        stats.tail([])


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] with children a [1, 4] and b [3, 6] overlapping on [3, 4],
    # grandchild g [2, 3] under a, and c [9, 12] running past root's end.
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    selfs = spans.self_times(start, end, parent)
    assert selfs == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_per_op_sums_self_time_and_counts_by_name():
    rec = spans.Recorder(["cli.cli", "graph.bfs_distance", "meaning.pick_pair_at_distance"])
    rec.sid = [0, 2, 1, 1, 0, 1]
    rec.parent = [-1, 0, 1, 0, -1, 4]
    rec.op_of = [0, 0, 0, 0, 1, 1]
    rec.start = [0.0, 1.0, 1.5, 5.0, 20.0, 21.0]
    rec.end = [10.0, 3.0, 2.0, 6.0, 30.0, 22.0]
    rec.counts[0]["graph.bfs_distance.unreachable"] = 1
    out = spans.per_op(rec)
    assert out[0]["self_s"] == pytest.approx(
        {"cli.cli": 7.0, "meaning.pick_pair_at_distance": 1.5, "graph.bfs_distance": 1.5})
    assert out[0]["calls"] == {"cli.cli": 1, "meaning.pick_pair_at_distance": 1, "graph.bfs_distance": 2}
    assert out[0]["counts"] == {"meaning.pick_pair_at_distance.bfs_calls": 1,
                                "graph.bfs_distance.unreachable": 1}
    assert out[1]["self_s"] == pytest.approx({"cli.cli": 9.0, "graph.bfs_distance": 1.0})


def test_install_records_nested_calls_and_reports_missing_names():
    from meaninglab import graph, reasoning
    from meaninglab.meaning import gen_er
    from meaninglab.sampler import SampleParams, sample_symbol_graph

    specs = [
        {"name": "reasoning.separator", "module": "reasoning", "targets": ["separator"]},
        {"name": "graph.bfs_distance", "module": "graph", "targets": ["bfs_distance"]},
        {"name": "graph.Graph", "module": "graph", "targets": ["Graph.__init__"]},
        {"name": "spectral.gone", "module": "spectral", "targets": ["no_such_function"]},
        {"name": "nomodule.f", "module": "no_such_module", "targets": ["f"]},
    ]
    sg = sample_symbol_graph(gen_er(30, 0.1, 1), SampleParams(0.9, 0.0, 0.0, 0.0, 2), 0)
    originals = (reasoning.separator, reasoning.bfs_distance, graph.bfs_distance, graph.Graph.__init__)
    rec = spans.Recorder([s["name"] for s in specs])
    rec.op = 0
    status, uninstall = spans.install(rec, specs)
    try:
        reasoning.separator(sg, 0, 1, 3)
        graph.Graph(3, [(0, 1)])
    finally:
        uninstall()
    assert (reasoning.separator, reasoning.bfs_distance, graph.bfs_distance,
            graph.Graph.__init__) == originals
    assert status == {"reasoning.separator": "wrapped", "graph.bfs_distance": "wrapped",
                      "graph.Graph": "wrapped", "spectral.gone": "missing",
                      "nomodule.f": "missing"}
    names = [rec.names[s] for s in rec.sid]
    assert names == ["reasoning.separator", "graph.bfs_distance", "graph.Graph"]
    assert rec.parent == [-1, 0, -1]
    assert spans.per_op(rec)[0]["calls"].get("spectral.gone", 0) == 0


# -- reference speed -------------------------------------------------------------


def test_sampling_times_the_reference_during_a_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with reference.sampling() as (samples, spent):
        end = time.perf_counter() + 3.5 * reference.INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(samples) >= 2
    assert sum(samples) < spent[0] < 3.5 * reference.INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scale_reads_a_slower_reference_as_a_slower_host():
    ref = reference.REFERENCE_S
    assert reference.scale(3.0, [ref, ref]) == pytest.approx(3.0)
    assert reference.scale(3.0, [2 * ref, 2 * ref]) == pytest.approx(1.5)
    assert reference.scale(3.0, [ref, 3 * ref]) == pytest.approx(1.5)


# -- output checks and failure counting ------------------------------------------


def _sample_op(tmp_path: Path, name: str) -> tuple[list[str], Path, dict, dict]:
    import meaninglab.cli as cli_mod
    from meaninglab.meaning import gen_er

    out = tmp_path / name
    argv = ["sample", "--er", "200", "0.02", "--lambda", "2", "--p-minus", "1e-4",
            "--seed", "9", "--threads", "1", "--out", str(out)]
    ctx = {"edge_band": checks.sample_edge_band(argv, gen_er(200, 0.02, 1).edge_count)}
    return argv, out, ctx, worker.run_op(cli_mod, argv, out, ctx)


def test_corrupted_output_counts_as_a_failed_op(tmp_path):
    argv, _, _, first = _sample_op(tmp_path, "a")
    _, out, ctx, again = _sample_op(tmp_path, "b")
    assert first["ok"] and again["ok"] and first["digests"] == again["digests"]
    path = out / "symbol_graph.tsv"
    path.write_text(path.read_text()[:-3])  # last edge line cut mid-way
    bad = checks.check_op(argv, out, ctx)
    assert not bad["ok"]
    ops = [dict(again, kind="op", op=0, repeat_of=0, matches=True), dict(bad, kind="op", op=1)]
    failures, _ = run.find_failures(argv, ops)
    assert failures == {"op1": bad["reason"]}


def test_changed_bytes_and_missing_outputs_count_as_failed(tmp_path):
    argv, out, ctx, first = _sample_op(tmp_path, "a")
    ops = [dict(first, kind="op", op=0, repeat_of=0, matches=False), dict(first, kind="op", op=1),
           dict(first, kind="traced", op=1, repeat_of=1, matches=False)]
    failures, _ = run.find_failures(argv, ops)
    assert failures == {"op0": "output bytes differ from the warm-up at the same seed",
                        "traced1": "output bytes differ from op 1 at the same seed"}
    (out / "symbol_graph.tsv").unlink()
    assert "FileNotFoundError" in checks.check_op(argv, out, ctx)["reason"]


def test_sample_check_counts_edges_and_rejects_a_lost_node(tmp_path):
    argv, out, ctx, good = _sample_op(tmp_path, "a")
    assert good["ok"], good["reason"]
    path = out / "symbol_graph.tsv"
    lines = path.read_text().splitlines(keepends=True)
    assert good["units"] == sum(1 for line in lines if not line.startswith("#"))
    path.write_text("".join(line for line in lines if not line.startswith("#origin 399 ")))
    assert "symbol nodes" in checks.check_op(argv, out, ctx)["reason"]


def test_pooled_gamma_needs_enough_trials_and_a_fooled_separator():
    fooled = [{"trials": 40, "pos1": 40, "pos2": 39}] * 5
    assert checks.check_pooled(["gamma"], fooled)[0]
    assert not checks.check_pooled(["gamma"], fooled[:4])[0]
    separated = [{"trials": 40, "pos1": 40, "pos2": 30}] * 5
    assert not checks.check_pooled(["gamma"], separated)[0]


# -- compare verdicts ------------------------------------------------------------


def test_verdicts_follow_the_pair_rule():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [p * 0.8 for p in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, [p * 1.2 for p in parent], "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "unchanged"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1)["verdict"] == "worse"


# -- the benchmark definition --------------------------------------------------


def test_benchmark_json_matches_the_spec():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH / "spec.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    for w in bench["workloads"]:
        assert w["why"] == spec["workloads"][w["name"]]["why"]
    span_names = {s["name"] for s in spec["spans"]}
    counts = set(spans.count_names())
    for m in bench["per_layer"]:
        name = m["name"]
        if name.startswith(("setup.", "trace.")) or name in counts:
            continue
        base, _, kind = name.rpartition(".")
        assert kind in ("self_s", "calls") and base in span_names, name
