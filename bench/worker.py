"""One workload's ops, run in a fresh interpreter started by ``run.py``.

Usage: ``python3 bench/worker.py CONFIG.json``. The config names the
workload's argv, the seed, the measuring time and whether to trace; the
worker writes its records to the config's ``result`` path. Every op is
one call of ``meaninglab.cli.cli(argv)`` with ``--threads 1``; its output
is checked and hashed outside the timed region. Op 0 runs at the
workload seed, first once untimed to warm up, then as the first timed
op, which must reproduce the warm-up's bytes. A fixed reference
computation (``reference.py``) is timed right before, during and right
after every untraced op, so its wall time can be scaled to reference
speed. With tracing, each op instead runs once plain and once traced
with the same seed, so the two timings pair up and the traced bytes
must match the plain ones.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import reference
import spans

# Op i runs at seed + OP_SEED_STRIDE * i, so op 0 runs at the workload seed.
OP_SEED_STRIDE = 1_000_003


def op_seed(seed: int, i: int) -> int:
    return seed + OP_SEED_STRIDE * i


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def run_op(cli_mod, argv: list[str], out: Path, ctx: dict, sample: bool = True) -> dict:
    """Run one CLI command into an empty ``out`` and check what it wrote.

    With ``sample``, the reference is timed around and during the op and
    the op's wall time is also given at reference speed (``scaled_s``).
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    captured = io.StringIO()
    error = ""
    refs = reference.measure() if sample else []
    during = reference.sampling() if sample else contextlib.nullcontext(([], [0.0]))
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0 = time.perf_counter()
        c0 = time.process_time()
        with during as (samples, spent):
            try:
                rc = cli_mod.cli(argv)
            except Exception as exc:  # a traceback is a failed op, not a failed run
                rc, error = None, repr(exc)
        wall = time.perf_counter() - t0 - spent[0]
        cpu = time.process_time() - c0 - spent[0]
    refs += samples
    if sample:
        refs += reference.measure()
    if rc == 0:
        rec = checks.check_op(argv, out, ctx)
    else:
        tail = (error or captured.getvalue())[-300:]
        rec = {"ok": False, "reason": f"exit code {rc}: {tail}", "units": 0, "values": {}}
    rec.update(wall_s=wall, cpu_s=cpu, digests=digests(out), reference_samples_s=refs,
               scaled_s=reference.scale(wall, refs) if refs else None)
    return rec


def main(config_path: str) -> None:
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    import meaninglab
    import meaninglab.cli as cli_mod

    src = Path(cfg["src"]).resolve()
    if src not in Path(meaninglab.__file__).resolve().parents:
        raise SystemExit(f"meaninglab imported from {meaninglab.__file__}, not from {src}")

    work = Path(cfg["work"])
    argv0, seed, ctx, trace = cfg["argv"], cfg["seed"], cfg["ctx"], cfg["trace"]
    rec = spans.Recorder([s["name"] for s in cfg["spans"]]) if trace else None

    def argv_for(i: int, out: Path) -> list[str]:
        return argv0 + ["--seed", str(op_seed(seed, i)), "--threads", "1", "--out", str(out)]

    warm = run_op(cli_mod, argv_for(0, work / "op0"), work / "op0", ctx)
    ops, repeats = [], []
    start = time.perf_counter()
    deadline = start + cfg["seconds"]
    i = 0
    while i < cfg["min_ops"] or time.perf_counter() < deadline:
        out = work / ("rerun" if i == 0 else "op")
        r = run_op(cli_mod, argv_for(i, out), out, ctx)
        r.update(kind="op", op=i, seed=op_seed(seed, i))
        if i == 0:
            r.update(repeat_of=0, matches=r["digests"] == warm["digests"])
            if not warm["ok"]:
                r.update(ok=False, reason=f"warm-up: {warm['reason']}")
        ops.append(r)
        if trace:
            rec.op = i
            status, uninstall = spans.install(rec, cfg["spans"])
            try:
                t = run_op(cli_mod, argv_for(i, work / "traced"), work / "traced", ctx,
                           sample=False)
            finally:
                uninstall()
                rec.op = -1
            t.update(kind="traced", op=i, seed=op_seed(seed, i), repeat_of=i,
                     matches=t["digests"] == r["digests"])
            repeats.append(t)
        i += 1
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "meaninglab_file": meaninglab.__file__,
        "warm_up": {k: warm[k] for k in ("wall_s", "ok", "reason", "digests")},
        "ops": ops,
        "repeats": repeats,
        "measured_s": measured_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["span_status"] = status
        result["counter_errors"] = rec.counter_errors
        result["per_op"] = {str(k): v for k, v in spans.per_op(rec).items()}
        rec.write_csv_gz(cfg["spans_out"])
    Path(cfg["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
