"""Pinned output bytes across versions, not just across reruns.

Every case runs one CLI command and compares the sha256 of each output
file (or of stdout, for commands that write no files) against
``tests/data/golden_sha256.json``. The first seven cases are the
``test_11`` commands; ``heatmap-large`` and ``gamma-large`` are large
enough that heat-map probes span several 64-source BFS chunks and pair
picks read ring table columns of several words. The two extra
``sample`` cases run the cross-cluster similarity pass: without folding
it writes edges that carry both an ``S`` and an ``R`` line, and with
``--fold`` its noise moves into the structural passes. ``sample-five-digit``
writes 12000 symbols, so its origin and edge lines hold ids of one to five
digits. ``bounds-text``
is the ``bounds`` case without ``--json``: the text report.
``heatmap-past-budget`` runs on 3000 meaning nodes, where one ring table
alone is over the tables' byte budget, so every pick reads its anchors'
rings from passes of their own.
``heatmap-no-disconnected-pair`` and ``heatmap-past-diameter`` ask for
distances past the meaning graph's diameter, so their last distance
columns are blank; the first graph is connected, so its disconnected
column is blank too, while the second's is filled.

A change that alters output bytes on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.

The spectral bytes must also not depend on which BLAS kernel OpenBLAS
picks for the CPU: the spectral golden argv and the benchmark's
spectral-cut argv run under several forced kernels and write the same
bytes under each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from meaninglab.cli import cli

ROOT = Path(__file__).resolve().parents[1]
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
    "sample-five-digit": (
        ["sample", "--er", "4000", "0.0005", "--graph-seed", "2", "--lambda", "3", "--seed", "9"],
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
    "bounds-text": (
        ["bounds", "--n", "100", "--d", "2", "--lambda", "2", "--p-plus", "0.9",
         "--eps-plus", "1e-4", "--p-minus", "1e-7", "--ball-d", "5"],
        False,
    ),
    "heatmap-past-budget": (
        ["heatmap", "--er", "3000", "0.0012", "--graph-seed", "5", "--d-max", "3",
         "--pairs-per-cell", "20", "--p-minus-grid", "1e-6,1e-3", "--seed", "2",
         "--allow-trivial"],
        True,
    ),
    "heatmap-no-disconnected-pair": (
        ["heatmap", "--er", "30", "0.1", "--graph-seed", "1", "--d-max", "12",
         "--pairs-per-cell", "5", "--p-minus-grid", "1e-4,1e-2", "--seed", "3",
         "--allow-trivial"],
        True,
    ),
    "heatmap-past-diameter": (
        ["heatmap", "--er", "40", "0.08", "--graph-seed", "3", "--d-max", "14",
         "--pairs-per-cell", "6", "--p-minus-grid", "1e-4,5e-2", "--lambda", "3",
         "--seed", "7", "--allow-trivial"],
        True,
    ),
}


def output_hashes(name: str, out: Path, extra: tuple[str, ...] = ()) -> dict[str, str]:
    """Run one case, with ``extra`` arguments appended; sha256 per output file name, or of stdout."""
    argv, writes = CASES[name]
    full = list(argv) + list(extra) + (["--out", str(out)] if writes else [])
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


@pytest.mark.parametrize("name", ["gamma-large", "heatmap-large", "spectral"])
def test_worker_processes_write_the_golden_bytes(name, tmp_path):
    # Each worker gets the meaning graph, with its ring tables and sizes, by pickle.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert output_hashes(name, tmp_path / name, ("--threads", "2")) == golden[name]


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)


# OpenBLAS kernels by the numpy CPU features they need: ``OPENBLAS_CORETYPE``
# forces one, and a kernel the CPU lacks would stop the child process.
KERNELS = {"Prescott": "SSE3", "Haswell": "AVX2", "SkylakeX": "AVX512_SKX"}


def runnable_kernels() -> list[str]:
    """The kernels in ``KERNELS`` that ``OPENBLAS_CORETYPE`` can select on this host, if any."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return []
    from numpy._core._multiarray_umath import __cpu_features__

    return [k for k, feature in KERNELS.items() if __cpu_features__.get(feature)]


SPECTRAL_ARGV = {
    "spectral": CASES["spectral"][0],
    "spectral-cut": json.loads((ROOT / "bench" / "spec.json").read_text(encoding="utf-8"))["workloads"]["spectral-cut"]["argv"],
}


@pytest.mark.skipif(
    len(runnable_kernels()) < 2,
    reason="needs numpy's OpenBLAS built with DYNAMIC_ARCH and a CPU that runs two of its kernels",
)
@pytest.mark.parametrize("name", sorted(SPECTRAL_ARGV))
def test_spectral_bytes_do_not_depend_on_the_blas_kernel(name, tmp_path):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = {}
    for kernel in runnable_kernels():
        out = tmp_path / kernel
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
        argv = [sys.executable, "-m", "meaninglab.cli", *SPECTRAL_ARGV[name], "--out", str(out)]
        subprocess.run(argv, env=env, check=True, capture_output=True)
        digests[kernel] = hashlib.sha256((out / "spectral.csv").read_bytes()).hexdigest()
    assert len(set(digests.values())) == 1, digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: output_hashes(name, Path(tmp) / name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} cases -> {GOLDEN}")
