"""meaninglab benchmark: time CLI commands on fixed workloads, check them.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and bounds are listed in ``BENCHMARK.json``; each
workload's command, work unit, rationale and layer predictions, and the
list of traced functions, in ``bench/spec.json``.

With ``--trace 0`` a fresh worker interpreter runs one workload's CLI
command (``meaninglab.cli.cli(argv)``, ``--threads 1``) again and again for
``S`` seconds, op ``i`` at a seed derived from ``N``, after one untimed
warm-up op, and the end-to-end metrics are printed. With ``--trace 1``
each op runs once plain and once with spans around every traced
function, and the per-layer metrics are printed instead. Either way
every op's output is checked, op 0's bytes are recorded and must
reproduce, and a result file with the environment goes to
``bench/results/``. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Children run with one BLAS thread, so the load is single-threaded as on
the CLI's own ``--threads 1`` path and the second core stays idle. The
benchmark and everything it starts stay on one CPU.

The host's speed drifts by up to a factor of two over minutes, so every
time metric (``cmd_p50_s``, ``cmd_tail_s``, ``work_per_s``, ``setup_s``)
is reported at reference speed: each op's wall time is scaled by a fixed
reference computation timed before, during and after it, and each set-up
spawn's by the reference timed right before and after it (see
``reference.py``). Raw wall times are printed and kept in the result
file too.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# One BLAS thread here and in every child, set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_SPAWNS = 7
# Reference repetitions timed between two set-up spawns.
SETUP_REFERENCE_REPS = 25
IMPORTTIME_SPAWNS = 3
MIN_OPS = 2
# Everything, the worker included, must end well inside three minutes.
RUN_BUDGET_S = 170.0
ROUND_TRIP_ALLOWANCE_S = 15.0

SETUP_CODE = (
    "import time\n"
    "import meaninglab.cli as c\n"
    "t = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "c.build_parser()\n"
    "e = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    "print(repr(e), repr(e - t))\n"
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` so nothing outside it is read."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "blas_threads": 1,
    }


def measure_setup(env: dict, spawns: int) -> tuple[list[float], list[float], list[float]]:
    """Spawn-to-parser times of fresh interpreters, raw and at reference
    speed, and their build_parser times."""
    setup, scaled, parser = [], [], []
    ref_before = reference.measure(SETUP_REFERENCE_REPS)
    for _ in range(spawns):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        p = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
        if p.returncode != 0:
            raise BenchError(f"cannot import meaninglab.cli from {SRC}: {p.stderr.strip()[-400:]}")
        end, build = (float(x) for x in p.stdout.split())
        ref_after = reference.measure(SETUP_REFERENCE_REPS)
        setup.append(end - t0)
        scaled.append(reference.scale(end - t0, ref_before + ref_after))
        parser.append(build)
        ref_before = ref_after
    return setup, scaled, parser


def measure_imports(env: dict) -> dict[str, float]:
    """Median import self time of meaninglab's modules and of numpy as a whole."""
    own, numpy = [], []
    for _ in range(IMPORTTIME_SPAWNS):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import meaninglab.cli"],
                           env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        mine = numpy_us = 0
        for line in p.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)", line.strip())
            if not m:
                continue
            self_us, cumulative_us, name = int(m[1]), int(m[2]), m[3]
            if name.split(".")[0] == "meaninglab":
                mine += self_us
            elif name == "numpy":
                numpy_us = cumulative_us
        own.append(mine / 1e6)
        numpy.append(numpy_us / 1e6)
    return {
        "setup.import_meaninglab_s": statistics.median(own),
        "setup.import_numpy_s": statistics.median(numpy),
    }


def check_context(argv: list[str]) -> dict:
    """What op checks need to know beforehand: the sample edge band."""
    if argv[0] != "sample":
        return {}
    from meaninglab.meaning import gen_er

    n, p = int(argv[argv.index("--er") + 1]), float(argv[argv.index("--er") + 2])
    graph_seed = int(checks.argval(argv, "--graph-seed", "1"))
    return {"edge_band": checks.sample_edge_band(argv, gen_er(n, p, graph_seed).edge_count)}


def round_trip(path: Path, rewritten: Path) -> tuple[bool, str]:
    """Read a written symbol graph back and require the same bytes on rewrite."""
    from meaninglab.sampler import read_symbol_graph, write_symbol_graph

    try:
        write_symbol_graph(read_symbol_graph(path), rewritten)
    except (OSError, ValueError) as exc:
        return False, f"read_symbol_graph failed: {exc}"
    same = rewritten.read_bytes() == path.read_bytes()
    return same, "rewrite is byte-identical" if same else "rewrite differs from the file read"


def run_worker(cfg: dict, work: Path, deadline: float) -> dict:
    cfg_path = work / "worker.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    timeout = deadline - time.monotonic()
    try:
        p = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(cfg_path)],
                           env=child_env(), cwd=ROOT, capture_output=True, text=True,
                           timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if p.returncode != 0:
        raise BenchError(f"worker exited {p.returncode}: {p.stderr.strip()[-1200:]}")
    return json.loads(Path(cfg["result"]).read_text(encoding="utf-8"))


def find_failures(argv: list[str], ops: list[dict]):
    """Failed ops by key, and the pooled check's verdict.

    An op that repeats another at the same seed (op 0 against its warm-up,
    or a traced op against its plain twin) also fails when its bytes differ. A failed
    pooled check fails every plain op, since they form the pool.
    """
    failures: dict[str, str] = {}
    for o in ops:
        key = f"{o['kind']}{o['op']}"
        if not o["ok"]:
            failures[key] = o["reason"]
        elif not o.get("matches", True):
            twin = "the warm-up" if o["kind"] == "op" else f"op {o['repeat_of']}"
            failures[key] = f"output bytes differ from {twin} at the same seed"
    plain = [o for o in ops if o["kind"] == "op"]
    pooled = checks.check_pooled(argv, [o["values"] for o in plain if o["ok"]])
    if not pooled[0]:
        for o in plain:
            failures.setdefault(f"op{o['op']}", f"pooled check: {pooled[1]}")
    return failures, pooled


def layer_metrics(res: dict, names: list[str]) -> dict[str, float]:
    """Per-layer values: median self seconds per traced op, and op 0's counts."""
    per_op = res["per_op"]
    traced_ops = sorted(int(k) for k in per_op if int(k) >= 0)
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.self_s"] = statistics.median(
            per_op.get(str(op), {}).get("self_s", {}).get(name, 0.0) for op in traced_ops
        ) if traced_ops else 0.0
    # Counts come from op 0, which runs at the workload seed in every run.
    first = per_op.get("0", {})
    for name in names:
        out[f"{name}.calls"] = first.get("calls", {}).get(name, 0)
    out.update(dict.fromkeys(spans.count_names(), 0))
    out.update(first.get("counts", {}))
    plain = statistics.median(o["wall_s"] for o in res["ops"])
    traced = statistics.median(o["wall_s"] for o in res["repeats"])
    out["trace.overhead_s"] = traced - plain
    return out


def run(args, bench: dict, spec: dict) -> tuple[dict, dict]:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    wl = spec["workloads"][args.workload]
    argv = list(wl["argv"])
    trace = args.trace == 1
    env = child_env()
    record: dict = {
        "benchmark": "meaninglab",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": argv,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": environment(),
        "loadavg_before": _read("/proc/loadavg"),
    }

    record["cpu"] = reference.pin_to_one_cpu()
    # Set-up is sampled before and after the ops, to straddle the host's speed.
    setup, setup_scaled, parser = measure_setup(env, SETUP_SPAWNS // 2)
    sys.path.insert(0, str(SRC))
    ctx = check_context(argv)
    record["check_context"] = ctx

    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}"
    work = BENCH / ".work" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        per_op_trials = int(checks.argval(argv, "--trials", "0"))
        min_ops = MIN_OPS
        if argv[0] == "gamma":
            min_ops = max(min_ops, math.ceil(checks.GAMMA_MIN_TRIALS / per_op_trials))
        cfg = {
            "src": str(SRC), "work": str(work), "argv": argv, "seed": args.seed,
            "seconds": args.seconds, "min_ops": min_ops, "trace": trace, "ctx": ctx,
            "spans": spec["spans"], "result": str(work / "result.json"),
            "spans_out": str(RESULTS / f"{stem}.spans.csv.gz"),
        }
        res = run_worker(cfg, work, deadline - ROUND_TRIP_ALLOWANCE_S)
        more_setup, more_scaled, more_parser = measure_setup(env, SETUP_SPAWNS - len(setup))
        setup += more_setup
        setup_scaled += more_scaled
        parser += more_parser

        ops = res["ops"]
        failures, (pooled_ok, pooled_msg) = find_failures(argv, ops + res["repeats"])
        record["pooled_check"] = {"ok": pooled_ok, "detail": pooled_msg}
        if argv[0] == "sample" and ops[0]["ok"]:
            ok, msg = round_trip(work / "op0" / "symbol_graph.tsv", work / "roundtrip.tsv")
            record["round_trip"] = {"ok": ok, "detail": msg}
            if not ok:
                failures.setdefault("op0", f"round trip: {msg}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops) + len(res["repeats"])
    failed = len(failures)
    units = sum(o["units"] for o in ops)
    walls = [o["wall_s"] for o in ops]
    scaled = [o["scaled_s"] for o in ops]
    tail = stats.tail(scaled)
    e2e = {
        "cmd_p50_s": statistics.median(scaled),
        "cmd_tail_s": tail["value"],
        "work_per_s": units / sum(scaled),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setup_scaled),
        "ok_ratio": 1.0 - failed / attempted,
    }
    raw = {
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": stats.tail(walls)["value"],
        "work_per_s": units / sum(walls),
        "setup_s": statistics.median(setup),
    }
    record.update({
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "work_unit": wl["work_unit"],
        "tail": tail,
        "end_to_end": e2e,
        "end_to_end_raw_wall": raw,
        "reference_s": reference.REFERENCE_S,
        "setup_spawns_s": setup,
        "setup_spawns_scaled_s": setup_scaled,
        "build_parser_s": parser,
        "measured_s": res["measured_s"],
        "warm_up_wall_s": res["warm_up"]["wall_s"],
        "ops": [{k: o[k] for k in ("op", "seed", "wall_s", "scaled_s", "reference_samples_s",
                                   "cpu_s", "ok", "reason", "units")}
                for o in ops],
        "sha256_at_workload_seed": res["warm_up"]["digests"],
        "rerun_matches": all(o.get("matches", True) for o in ops + res["repeats"]),
        "meaninglab_file": res["meaninglab_file"],
    })
    if trace:
        layers = layer_metrics(res, [s["name"] for s in spec["spans"]])
        layers.update(measure_imports(env))
        layers["setup.build_parser_s"] = statistics.median(parser)
        record.update({
            "span_status": res["span_status"],
            "counter_errors": res["counter_errors"],
            "per_op": res["per_op"],
            "traced_ops": [{k: o[k] for k in ("op", "wall_s", "ok", "matches")}
                           for o in res["repeats"]],
            "layers": layers,
            "spans_file": str(Path(cfg["spans_out"]).relative_to(ROOT)),
        })
        wanted = bench["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
        record["unmeasured_metrics"] = [m["name"] for m in wanted if m["name"] not in layers]
    else:
        wanted = bench["end_to_end"]
        values = {m["name"]: e2e[m["name"]] for m in wanted}
    record["loadavg_after"] = _read("/proc/loadavg")
    record["elapsed_s"] = time.monotonic() - started
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return record, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
        if args.workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(spec['workloads'])}")
        if not (SRC / "meaninglab" / "__init__.py").is_file():
            raise BenchError(f"no meaninglab sources under {SRC}")
        record, metrics = run(args, bench, spec)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['ops'])} ops in {record['measured_s']:.1f} s, "
          f"{record['failed']}/{record['attempted']} failed (error_rate {record['error_rate']:.4f})")
    for key, reason in record["failures"].items():
        print(f"  failed {key}: {reason}")
    t = record["tail"]
    print(f"  cmd_tail_s is rank {t['rank']} of {t['ops']} ops (p{t['percentile']:.1f}, "
          f"{t['beyond']} ops beyond{'' if t['rule_met'] else '; fewer than ten ops beyond'})")
    print(f"  work unit: {record['work_unit']}; pooled check: {record['pooled_check']['detail']}")
    print(f"  times are at reference speed (reference {record['reference_s']} s, "
          f"see bench/reference.py); raw wall: "
          + ", ".join(f"{k} {v:.4g}" for k, v in record["end_to_end_raw_wall"].items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
