"""End-to-end command-line behavior, exit codes and file outputs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meaninglab
from meaninglab.bounds import bound_report
from meaninglab.cli import build_parser, cli
from meaninglab.sampler import read_symbol_graph, write_symbol_graph

TRIPLES = """\
/m/x1\t/rel/road\t/m/x2
/m/x2\t/rel/road\t/m/x3
/m/x3\t/rel/road\t/m/x4
/m/x4\t/rel/road\t/m/x5
/m/y1\t/rel/road\t/m/y2
"""


@pytest.fixture
def triples_path(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text(TRIPLES)
    return path


def run(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths --------------------------------------------------------


def test_sample_writes_symbol_graph(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys, "sample", "--er", "20", "0.1", "--out", str(out), "--seed", "4"
    )
    assert code == 0
    assert "symbol graph: 40 nodes" in stdout
    sg = read_symbol_graph(out / "symbol_graph.tsv")
    assert sg.graph.n == 40 and sg.seed == 4


def test_gamma_writes_csv(triples_path, tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys,
        "gamma", "--triples", str(triples_path), "--d", "2", "--trials", "10",
        "--out", str(out), "--allow-trivial",
    )
    assert code == 0
    lines = (out / "gamma.csv").read_text().splitlines()
    assert lines[0].startswith("n,d,lambda,")
    assert lines[1] == stdout.strip()
    assert lines[1].split(",")[0] == "7"


def test_bounds_text_output(capsys):
    code, stdout, _ = run(
        capsys,
        "bounds", "--n", "100", "--d", "2", "--lambda", "2", "--p-plus", "0.9",
        "--eps-plus", "1e-4", "--p-minus", "1e-7", "--ball-d", "5",
    )
    assert code == 0
    assert "gamma_star" in stdout
    assert "0.982362871295" in stdout
    assert "theorem1_regime        True" in stdout


def test_bounds_json_matches_library(capsys):
    code, stdout, _ = run(
        capsys,
        "bounds", "--n", "100", "--d", "2", "--lambda", "2", "--p-plus", "0.9",
        "--eps-plus", "1e-4", "--p-minus", "1e-7", "--ball-d", "5", "--ball-1", "4",
        "--json",
    )
    assert code == 0
    got = json.loads(stdout)
    want = bound_report(100, 2, 2, 0.9, 1e-7, 1e-4, 0.0, 5, 4).to_json_dict()
    assert got == want


def test_heatmap_writes_csv_and_svg(triples_path, tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys,
        "heatmap", "--triples", str(triples_path), "--d-max", "2",
        "--pairs-per-cell", "2", "--p-minus-grid", "0.001,0.01",
        "--out", str(out), "--allow-trivial",
    )
    assert code == 0
    assert "heatmap: 2 rows x 3 columns" in stdout
    assert (out / "heatmap.csv").exists()
    assert (out / "heatmap.svg").read_text().startswith("<svg ")


def test_spectral_writes_csv(triples_path, tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys,
        "spectral", "--triples", str(triples_path), "--d", "2", "--trials", "2",
        "--out", str(out), "--allow-trivial",
    )
    assert code == 0
    assert "spectral: " in stdout
    lines = (out / "spectral.csv").read_text().splitlines()
    assert lines[0].startswith("seed,n,lambda,")
    assert len(lines) == 3


def test_ingest_writes_edge_list(triples_path, tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "ingest", "--triples", str(triples_path), "--out", str(out))
    assert code == 0
    assert "ingested: nodes=7 edges=5" in stdout
    text = (out / "meaning_graph.tsv").read_text()
    assert text.startswith("# nodes 7\n")
    assert "# label 0 /m/x1" in text
    assert "0\t1" in text


def test_check_prints_report(capsys):
    code, stdout, _ = run(capsys, "check", "--er", "60", "0.05", "--d", "2")
    assert code == 0
    for name in ("nonzero-noise", "ball-small", "overall"):
        assert name in stdout


def test_help_exits_zero(capsys):
    assert cli(["--help"]) == 0
    assert cli(["gamma", "--help"]) == 0
    capsys.readouterr()


# -- nontriviality gate -------------------------------------------------


def test_gate_blocks_degenerate_run(triples_path, tmp_path, capsys):
    # Default eps_minus is zero, which the screen rejects.
    code, _, stderr = run(
        capsys,
        "gamma", "--triples", str(triples_path), "--d", "2", "--trials", "4",
        "--out", str(tmp_path / "run"),
    )
    assert code == 1
    assert "nontriviality screen failed" in stderr
    assert "--allow-trivial" in stderr


def test_gate_override(triples_path, tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "gamma", "--triples", str(triples_path), "--d", "2", "--trials", "4",
        "--out", str(tmp_path / "run"), "--allow-trivial",
    )
    assert code == 0


# -- exit codes ---------------------------------------------------------


def test_missing_source_is_usage_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "sample", "--out", str(tmp_path))
    assert code == 1
    assert "exactly one of --er or --triples" in stderr


def test_both_sources_is_usage_error(triples_path, tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "sample", "--er", "10", "0.1", "--triples", str(triples_path),
        "--out", str(tmp_path),
    )
    assert code == 1


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "sample", "--er", "10", "0.1", "--frobnicate")
    assert code == 1


BENCH_SPEC = json.loads((Path(__file__).resolve().parents[1] / "bench" / "spec.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(BENCH_SPEC["workloads"]))
def test_benchmark_argv_parses(workload, tmp_path):
    # bench/worker.py appends this suffix to every workload's argv, so a
    # subcommand that stopped accepting one of these flags would fail
    # every benchmark op; parsing alone shows it, and nothing runs.
    argv = BENCH_SPEC["workloads"][workload]["argv"]
    args = build_parser().parse_args(argv + ["--seed", "1", "--threads", "1", "--out", str(tmp_path)])
    assert args.command == argv[0] and args.seed == 1 and args.out == tmp_path


@pytest.mark.parametrize("workload", sorted(BENCH_SPEC["workloads"]))
def test_benchmark_argv_runs(workload, tmp_path, capsys):
    # One op of each workload as bench/worker.py runs it: the argv with its
    # suffix at the workload seed. A written symbol graph must read back and
    # rewrite to the same bytes, as bench/run.py's round trip requires.
    argv = BENCH_SPEC["workloads"][workload]["argv"]
    out = tmp_path / "out"
    code, _, _ = run(capsys, *argv, "--seed", "301", "--threads", "1", "--out", str(out))
    assert code == 0
    if argv[0] == "sample":
        written = out / "symbol_graph.tsv"
        write_symbol_graph(read_symbol_graph(written), tmp_path / "rewritten.tsv")
        assert (tmp_path / "rewritten.tsv").read_bytes() == written.read_bytes()


# Every subcommand's options, in help order, with their defaults: the groups
# the sampling commands share, then each command's own.
CONFIG = [("--config", None)]
OUT = [("--out", Path("."))]
RUN = [("--seed", 0), ("--threads", 1)]
SCREEN = [("--allow-trivial", False)]
SOURCE = [("--er", None), ("--graph-seed", 1), ("--triples", None), ("--prefix", "")]
CHANNEL = [("--p-plus", 0.9), ("--p-minus", 1e-6), ("--eps-plus", 1e-4), ("--eps-minus", 0.0), ("--lambda", 2)]
FOLD = [("--fold", False)]
SAMPLING = CONFIG + OUT + RUN + SOURCE + CHANNEL + FOLD
SCREENED = CONFIG + OUT + RUN + SCREEN + SOURCE + CHANNEL + FOLD
CLI_OPTIONS = {
    "sample": SAMPLING,
    "gamma": SCREENED
    + [("--d", 2), ("--d-tilde", None), ("--trials", 100), ("--representative", "first"), ("--fixed-pairs", False)],
    "bounds": CONFIG
    + CHANNEL
    + [("--n", None), ("--d", None), ("--ball-d", None), ("--ball-1", 1), ("--c2", 2.0), ("--c3", 2.0), ("--json", False)],
    "heatmap": SCREENED + [("--d-max", 5), ("--pairs-per-cell", 20), ("--p-minus-grid", "1e-6,1e-5,1e-4,1e-3,1e-2")],
    "spectral": SCREENED + [("--d", None), ("--d-tilde", None), ("--trials", 20)],
    "ingest": CONFIG + OUT + [("--triples", None), ("--prefix", "")],
    "check": CONFIG + SOURCE + CHANNEL + FOLD + [("--d", 2)],
}


def test_every_command_has_its_listed_options_and_defaults():
    commands = build_parser().commands
    assert list(commands) == list(CLI_OPTIONS)
    for name, sub in commands.items():
        got = [(a.option_strings[0], a.default) for a in sub._actions if a.dest != "help"]
        assert got == CLI_OPTIONS[name], name


BOUNDS_ARGV = ["bounds", "--n", "10", "--d", "1", "--ball-d", "1", "--json"]
CHECK_ARGV = ["check", "--er", "20", "0.1", "--d", "2"]
SAMPLE_ARGV = ["sample", "--er", "20", "0.1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (BOUNDS_ARGV, ["--fold"]),
        (BOUNDS_ARGV, ["--threads", "1"]),
        (BOUNDS_ARGV, ["--allow-trivial"]),
        (BOUNDS_ARGV, ["--seed", "3"]),
        (BOUNDS_ARGV, ["--out", "OUT"]),
        (CHECK_ARGV, ["--threads", "1"]),
        (CHECK_ARGV, ["--seed", "3"]),
        (CHECK_ARGV, ["--out", "OUT"]),
        (CHECK_ARGV, ["--allow-trivial"]),
        (["ingest", "--triples", "TRIPLES"], ["--threads", "1"]),
        (["ingest", "--triples", "TRIPLES"], ["--seed", "3"]),
        (["ingest", "--triples", "TRIPLES"], ["--allow-trivial"]),
        (SAMPLE_ARGV, ["--allow-trivial"]),
    ],
)
def test_flags_a_command_never_reads_are_usage_errors(triples_path, tmp_path, capsys, argv, flag):
    # Each of these used to be accepted and silently ignored.
    out = tmp_path / "run"
    subst = {"OUT": str(out), "TRIPLES": str(triples_path)}
    argv = [subst.get(a, a) for a in argv + flag]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert f"unrecognized arguments: {flag[0]}" in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (BOUNDS_ARGV, "fold"),
        (BOUNDS_ARGV, "seed"),
        (CHECK_ARGV, "threads"),
        (CHECK_ARGV, "allow-trivial"),
        (SAMPLE_ARGV, "allow-trivial"),
    ],
)
def test_config_keys_a_command_never_reads_are_unknown(tmp_path, capsys, argv, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: True if key in ("fold", "allow-trivial") else 1}))
    code, stdout, stderr = run(capsys, *argv, "--config", str(cfg))
    assert code == 1
    assert stdout == ""
    assert f"unknown config key {key!r}" in stderr


def test_bad_er_arguments(tmp_path, capsys):
    code, _, _ = run(capsys, "sample", "--er", "ten", "0.1", "--out", str(tmp_path))
    assert code == 1
    code, _, _ = run(capsys, "sample", "--er", "10", "1.7", "--out", str(tmp_path))
    assert code == 1


@pytest.mark.parametrize("n", [10**30, 2**32 + 1])
def test_er_node_count_past_the_pair_bound_names_the_flag(tmp_path, capsys, monkeypatch, n):
    # Past rng.MAX_PAIR_NODES pair indices overflow int64. The count is refused
    # in the flag's name before gen_er allocates anything.
    monkeypatch.setattr(sys.modules["meaninglab.cli"], "gen_er", lambda *a: pytest.fail("gen_er ran"))
    code, stdout, stderr = run(capsys, "sample", "--er", str(n), "0.0", "--out", str(tmp_path / "run"))
    assert code == 1 and stdout == ""
    assert stderr == f"error: --er node count must be at most 4294967296, got {len(str(n))} digits\n"


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 6.71 GiB for an array with shape (900000000,) and data type int64"),
         "error: out of memory: Unable to allocate 6.71 GiB for an array with shape (900000000,) and data type int64\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
)
def test_a_request_past_memory_is_one_error_line(tmp_path, capsys, monkeypatch, exc, line):
    # A sample too large for the memory at hand ends in one line, not a
    # traceback. The sampler is replaced, so nothing large is allocated.
    def sample(*args):
        raise exc

    monkeypatch.setattr(sys.modules["meaninglab.cli"], "sample_symbol_graph", sample)
    code, stdout, stderr = run(capsys, "sample", "--er", "20", "0.1", "--lambda", "3", "--out", str(tmp_path / "run"))
    assert (code, stdout, stderr) == (1, "", line)


def test_bad_probability_is_validation_error(tmp_path, capsys):
    code, _, _ = run(
        capsys, "sample", "--er", "10", "0.1", "--p-plus", "1.5", "--out", str(tmp_path)
    )
    assert code == 1


def test_missing_triples_file_is_io_error(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "ingest", "--triples", str(tmp_path / "nope.tsv"), "--out", str(tmp_path)
    )
    assert code == 2
    assert "i/o error" in stderr


def test_malformed_triples_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only\ttwo\n")
    code, _, stderr = run(capsys, "ingest", "--triples", str(bad), "--out", str(tmp_path))
    assert code == 2
    assert ":1" in stderr


def test_non_utf8_triples_is_io_error(tmp_path, capsys):
    bad = tmp_path / "utf16.tsv"
    bad.write_bytes(b"\xff\xfe/m/a\t/rel/road\t/m/b\n")
    code, _, stderr = run(capsys, "ingest", "--triples", str(bad), "--out", str(tmp_path / "run"))
    assert code == 2
    assert str(bad) in stderr and "UTF-8" in stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--trials", "0"],
        ["spectral", "--trials", "-1"],
        ["spectral", "--d", "0"],
        ["gamma", "--trials", "0"],
        ["gamma", "--d", "0"],
        ["heatmap", "--pairs-per-cell", "0"],
        ["heatmap", "--d-max", "0"],
        ["check", "--d", "0"],
        ["sample", "--threads", "0"],
        ["gamma", "--threads", "-2"],
    ],
)
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv):
    # spectral --trials 0 and -1 used to exit 0 and write an empty record.
    # Parsing rejects each count, so the screen never runs.
    out = tmp_path / "run"
    code, _, stderr = run(capsys, *argv, "--er", "30", "0.1", "--out", str(out))
    assert code == 1
    assert f"argument {argv[1]}: must be positive" in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--d-tilde", "-3"],
        ["spectral", "--d", "9", "--d-tilde", "-3"],
    ],
)
def test_negative_radii_are_usage_errors(tmp_path, capsys, argv):
    # Both used to exit 3 with "no fixture": the pick failed before anything
    # read the radius. Parsing rejects it, so the screen never runs.
    out = tmp_path / "run"
    code, _, stderr = run(capsys, *argv, "--er", "30", "0.1", "--allow-trivial", "--out", str(out))
    assert code == 1
    assert "argument --d-tilde: must be nonnegative, got -3" in stderr
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--c2", "nan"), ("--c3", "nan"), ("--c3", "inf")])
def test_bounds_rejects_non_finite_constants(capsys, flag, value):
    code, stdout, stderr = run(
        capsys, "bounds", "--n", "10", "--d", "1", "--ball-d", "1", flag, value, "--json"
    )
    assert code == 1
    assert stdout == ""
    assert "finite and positive" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "10", "--d", "2", "--ball-d", "1" + "0" * 200],
        ["bounds", "--n", "1" + "0" * 320, "--d", "2", "--ball-d", "3"],
        ["bounds", "--n", "10", "--d", "1" + "0" * 320, "--ball-d", "3"],
        ["bounds", "--n", "10", "--d", "2", "--ball-d", "3", "--lambda", "1" + "0" * 200],
        ["gamma", "--er", "50", "0.1", "--d", "1", "--trials", "1" + "0" * 30, "--allow-trivial"],
    ],
)
def test_huge_integer_flags_are_bad_values(tmp_path, capsys, argv):
    # Each value is too large for the float or the index it feeds, and
    # parsing refuses it by the flag's name (the flag before the huge value).
    flag = next(argv[i - 1] for i, value in enumerate(argv) if len(value) > 19)
    out = tmp_path / "run"
    code, stdout, stderr = run(capsys, *argv, *(["--out", str(out)] if argv[0] == "gamma" else []))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: argument {flag}: must be below 2**63, got ") and stderr.count("\n") == 1
    assert not out.exists()


def test_no_disconnected_fixture_exits_three(tmp_path, capsys):
    # A dense ER graph is connected, so the H2 fixture cannot exist. With
    # --threads 2 the error is raised in a worker process.
    for threads in ("1", "2"):
        code, _, stderr = run(
            capsys,
            "gamma", "--er", "20", "0.5", "--d", "2", "--trials", "4", "--threads", threads,
            "--out", str(tmp_path / "run"), "--allow-trivial",
        )
        assert code == 3
        assert stderr == "no fixture: no disconnected pair in the meaning graph\n"


def test_no_distance_fixture_exits_three(tmp_path, capsys):
    # Complete graph: every pair is at distance 1, nothing at the default
    # spectral probe distance ceil(ln 10) + 1 = 4.
    for threads in ("1", "2"):
        code, _, stderr = run(
            capsys,
            "spectral", "--er", "10", "1.0", "--trials", "2", "--threads", threads,
            "--out", str(tmp_path / "run"), "--allow-trivial",
        )
        assert code == 3
        assert stderr == "no fixture: no pair at distance 4 in the meaning graph\n"


# -- config overlay -----------------------------------------------------


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p-plus": 0.7, "lambda": 3, "seed": 5}))
    out = tmp_path / "run"
    code, _, _ = run(
        capsys,
        "sample", "--er", "10", "0.2", "--config", str(cfg), "--out", str(out),
    )
    assert code == 0
    sg = read_symbol_graph(out / "symbol_graph.tsv")
    assert sg.params.p_plus == 0.7
    assert sg.lam == 3
    assert sg.seed == 5


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p-plus": 0.7, "lambda": 3}))
    out = tmp_path / "run"
    code, _, _ = run(
        capsys,
        "sample", "--er", "10", "0.2", "--config", str(cfg),
        "--p-plus", "0.95", "--out", str(out),
    )
    assert code == 0
    sg = read_symbol_graph(out / "symbol_graph.tsv")
    assert sg.params.p_plus == 0.95
    assert sg.lam == 3


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p-plus": 0.7, "mystery": 1}))
    code, _, stderr = run(
        capsys, "sample", "--er", "10", "0.2", "--config", str(cfg), "--out", str(tmp_path)
    )
    assert code == 1
    assert "mystery" in stderr


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"handler": "x"}, "unknown config key 'handler'"),
        ({"trials": "10"}, "config key 'trials' must be a number"),
        ({"seed": 1.7}, "invalid int value: '1.7'"),
        ({"lambda": 2.5}, "invalid int value: '2.5'"),
        ({"d_tilde": "3"}, "config key 'd_tilde' must be a number"),
        ({"d_tilde": -1}, "argument --d-tilde: must be nonnegative, got -1"),
    ],
)
def test_config_values_get_flag_types(tmp_path, capsys, cfg, message):
    # Each used to end in a traceback or a silently truncated value.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, stderr = run(
        capsys, "gamma", "--er", "10", "0.2", "--allow-trivial",
        "--config", str(path), "--out", str(tmp_path / "run"),
    )
    assert code == 1
    assert message in stderr
    assert not (tmp_path / "run").exists()


def test_config_flags_and_lists(tmp_path, capsys):
    # A list fills a two-value flag; true sets a boolean flag and false leaves it off.
    for fold in (True, False):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"er": [10, 0.2], "fold": fold, "eps_minus": 0.1}))
        out = tmp_path / f"run-{fold}"
        code, _, _ = run(capsys, "sample", "--config", str(cfg), "--out", str(out))
        assert code == 0
        sg = read_symbol_graph(out / "symbol_graph.tsv")
        assert sg.n_meaning == 10 and sg.params.fold is fold and sg.params.eps_minus == 0.1


def test_bad_config_json_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, _ = run(
        capsys, "sample", "--er", "10", "0.2", "--config", str(cfg), "--out", str(tmp_path)
    )
    assert code == 1


# -- reproducibility ----------------------------------------------------


def test_reruns_are_byte_identical(triples_path, tmp_path, capsys):
    # A rerun, and a run with worker processes, write the same bytes.
    commands = [
        ["gamma", "--d", "2", "--trials", "8"],
        ["gamma", "--d", "2", "--trials", "3"],
        ["gamma", "--d", "2", "--trials", "3", "--fixed-pairs"],
        ["gamma", "--d", "2", "--trials", "3", "--representative", "uniform", "--lambda", "3"],
        ["heatmap", "--d-max", "3", "--pairs-per-cell", "4", "--p-minus-grid", "0,0.1"],
        ["spectral", "--d", "2", "--trials", "3"],
    ]
    for k, argv in enumerate(commands):
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"{k}{name}"
            code, _, _ = run(
                capsys,
                *argv, "--triples", str(triples_path), "--threads", threads,
                "--seed", "11", "--out", str(out), "--allow-trivial",
            )
            assert code == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outs[0] == outs[1] == outs[2]


def test_importing_the_cli_starts_no_process_pool_machinery():
    # The worker pool is imported only when a command starts one.
    src = Path(meaninglab.__file__).resolve().parents[1]
    code = "import sys, meaninglab.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"


def test_sample_rerun_byte_identical(tmp_path, capsys):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run(
            capsys, "sample", "--er", "15", "0.2", "--seed", "3", "--out", str(out)
        )
        assert code == 0
        blobs.append((out / "symbol_graph.tsv").read_bytes())
    assert blobs[0] == blobs[1]
