"""Pinned output bytes across versions, not just across reruns.

Every case runs one CLI command and compares the sha256 of each output
file (or of stdout, for commands that write no files) against
``tests/data/golden_sha256.json``. The first seven cases are the
``test_11`` commands; ``heatmap-large`` and ``gamma-large`` are large
enough that heat-map probes span several 64-source BFS chunks and pair
picking draws several batches of rejection attempts. The two extra
``sample`` cases run the cross-cluster similarity pass: without folding
it writes edges that carry both an ``S`` and an ``R`` line, and with
``--fold`` its noise moves into the structural passes.

A change that alters output bytes on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from meaninglab.cli import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_sha256.json"

# name -> (argv, writes files under --out)
CASES = {
    "sample": (["sample", "--er", "40", "0.1", "--graph-seed", "2", "--seed", "9"], True),
    "sample-dual-kind": (
        ["sample", "--er", "40", "0.1", "--graph-seed", "2", "--lambda", "3",
         "--p-minus", "0.01", "--eps-minus", "0.02", "--seed", "9"],
        True,
    ),
    "sample-fold": (
        ["sample", "--er", "40", "0.1", "--graph-seed", "2", "--lambda", "3",
         "--p-minus", "0.01", "--eps-minus", "0.02", "--fold", "--seed", "9"],
        True,
    ),
    "gamma": (
        ["gamma", "--er", "50", "0.06", "--graph-seed", "1", "--d", "2",
         "--trials", "12", "--seed", "3", "--allow-trivial"],
        True,
    ),
    "bounds": (
        ["bounds", "--n", "100", "--d", "2", "--lambda", "2", "--p-plus", "0.9",
         "--eps-plus", "1e-4", "--p-minus", "1e-7", "--ball-d", "5", "--json"],
        False,
    ),
    "heatmap": (
        ["heatmap", "--er", "60", "0.06", "--graph-seed", "4", "--d-max", "2",
         "--pairs-per-cell", "4", "--p-minus-grid", "1e-4,1e-2", "--seed", "5",
         "--allow-trivial"],
        True,
    ),
    "spectral": (
        ["spectral", "--er", "60", "0.08", "--graph-seed", "3", "--d", "2",
         "--trials", "3", "--seed", "8", "--allow-trivial"],
        True,
    ),
    "ingest": (["ingest", "--triples", str(DATA / "triples_small.tsv"), "--prefix", "/film/"], True),
    "check": (["check", "--er", "60", "0.05", "--d", "2"], False),
    "heatmap-large": (
        ["heatmap", "--er", "240", "0.012", "--graph-seed", "6", "--d-max", "4",
         "--pairs-per-cell", "70", "--p-minus-grid", "1e-5,2e-2", "--p-plus", "0.5",
         "--eps-plus", "0.3", "--lambda", "3", "--seed", "11", "--allow-trivial"],
        True,
    ),
    "gamma-large": (
        ["gamma", "--er", "300", "0.008", "--graph-seed", "2", "--d", "4",
         "--trials", "30", "--p-minus", "1e-3", "--seed", "13", "--allow-trivial"],
        True,
    ),
}


def output_hashes(name: str, out: Path) -> dict[str, str]:
    """Run one case; sha256 per output file name, or of stdout."""
    argv, writes = CASES[name]
    full = list(argv) + (["--out", str(out)] if writes else [])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli(full)
    assert code == 0, f"{name}: exit code {code}"
    if not writes:
        return {"<stdout>": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert output_hashes(name, tmp_path / name) == golden[name]


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: output_hashes(name, Path(tmp) / name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} cases -> {GOLDEN}")
