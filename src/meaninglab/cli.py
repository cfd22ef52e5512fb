"""Command-line front end.

Subcommands map one-to-one onto the package's experiment surface:
``sample`` draws a symbol graph, ``gamma`` estimates hypothesis
separation, ``bounds`` evaluates the closed forms, ``heatmap`` runs the
noise sweep, ``spectral`` runs coupled cut trials, ``ingest`` converts a
triples file, ``check`` screens an instance for triviality.

Exit codes: 0 success, 1 argument or validation error, 2 I/O error,
3 when the meaning graph cannot supply a requested fixture pair.
All emitted CSV/TSV/SVG files are byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import bound_report
from .experiments import emit_heatmap_csv, emit_svg_heatmap, heatmap
from .graph import write_edge_list
from .meaning import (
    MeaningGraph,
    TriplesFormatError,
    check_nontrivial,
    gen_er,
    load_triples,
    make_cut_pair,
    pick_pair_at_distance,
)
from .reasoning import (
    CSV_HEADER,
    DTildeMode,
    NoFixtureError,
    choose_d_tilde,
    estimate_gamma,
)
from .rng import MAX_PAIR_NODES, STREAM_SPECTRAL_TRIAL, run_tasks, stream, subseed
from .sampler import SIMILARITY, STRUCTURAL, SampleParams, sample_symbol_graph, write_symbol_graph
from .spectral import SPECTRAL_CSV_HEADER, SpectralTrial, coupled_cut_trial, spectral_csv_record


class _Parser(argparse.ArgumentParser):
    # A usage error is a ValueError, which cli() reports like any bad value: exit code 1.
    def error(self, message):
        raise ValueError(message)


def _int_at_least(least: int, what: str):
    """Argument type for integers from ``least`` up to ``2**63 - 1``.

    A smaller value is an error saying it must be ``what``. The upper bound
    keeps a value within the int64 index or the float it feeds, so a huge
    one is refused in the flag's name rather than by an overflow.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        if value >= 2**63:
            raise argparse.ArgumentTypeError(f"must be below 2**63, got {len(str(value))} digits")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")  # counts
_nonnegative_int = _int_at_least(0, "nonnegative")  # search radii


def build_parser() -> _Parser:
    # Each command takes only the flags it reads, except that the four
    # sampling commands share one set: one "--seed N --threads 1 --out DIR"
    # suffix drives them all, although sample starts no workers. Only the
    # three that run the screen take --allow-trivial. ``bounds`` takes no
    # --fold: its formulas always fold.
    config, out, run, screen, source, params, fold = (argparse.ArgumentParser(add_help=False) for _ in range(7))
    config.add_argument("--config", type=Path, default=None, help="JSON file with default argument values")
    out.add_argument("--out", type=Path, default=Path("."), help="output directory")
    run.add_argument("--seed", type=int, default=0, help="root seed for every stream")
    run.add_argument("--threads", type=_positive_int, default=1, help="worker processes for trial loops")
    screen.add_argument("--allow-trivial", action="store_true", help="run even when the nontriviality screen fails")
    source.add_argument("--er", nargs=2, metavar=("N", "P"), default=None, help="Erdos-Renyi meaning graph")
    source.add_argument("--graph-seed", type=int, default=1, help="seed for --er generation")
    source.add_argument("--triples", type=Path, default=None, help="head<TAB>rel<TAB>tail file")
    source.add_argument("--prefix", type=str, default="", help="relation prefix filter for --triples")
    params.add_argument("--p-plus", type=float, default=0.9)
    params.add_argument("--p-minus", type=float, default=1e-6)
    params.add_argument("--eps-plus", type=float, default=1e-4)
    params.add_argument("--eps-minus", type=float, default=0.0)
    params.add_argument("--lambda", dest="lam", type=_positive_int, default=2, help="replicas per meaning node")
    fold.add_argument("--fold", action="store_true", help="fold eps_minus into the structural probabilities")
    sampling = [config, out, run, source, params, fold]
    screened = [config, out, run, screen, source, params, fold]
    parser = _Parser(prog="meaninglab", description="noisy symbol-graph reasoning lab")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", parents=sampling, help="draw one symbol graph")
    sp.set_defaults(handler=_cmd_sample)

    sp = sub.add_parser("gamma", parents=screened, help="estimate hypothesis separation")
    sp.add_argument("--d", type=_positive_int, default=2, help="meaning distance for the connected hypothesis")
    sp.add_argument("--d-tilde", type=_nonnegative_int, default=None, help="symbol search radius (default lam*d+lam-1)")
    sp.add_argument("--trials", type=_positive_int, default=100)
    sp.add_argument("--representative", choices=("first", "uniform"), default="first")
    sp.add_argument("--fixed-pairs", action="store_true", help="reuse one fixture pair across trials")
    sp.set_defaults(handler=_cmd_gamma)

    sp = sub.add_parser("bounds", parents=[config, params], help="evaluate the closed-form bounds")
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--d", type=_positive_int, required=True)
    sp.add_argument("--ball-d", type=_positive_int, required=True, help="d-neighborhood size bound B(d)")
    sp.add_argument("--ball-1", type=_positive_int, default=1, help="1-neighborhood size bound B(1)")
    sp.add_argument("--c2", type=float, default=2.0)
    sp.add_argument("--c3", type=float, default=2.0)
    sp.add_argument("--json", action="store_true", help="print JSON instead of aligned text")
    sp.set_defaults(handler=_cmd_bounds)

    sp = sub.add_parser("heatmap", parents=screened, help="noise-versus-distance sweep")
    sp.add_argument("--d-max", type=_positive_int, default=5)
    sp.add_argument("--pairs-per-cell", type=_positive_int, default=20)
    sp.add_argument(
        "--p-minus-grid",
        type=str,
        default="1e-6,1e-5,1e-4,1e-3,1e-2",
        help="comma-separated row values",
    )
    sp.set_defaults(handler=_cmd_heatmap)

    sp = sub.add_parser("spectral", parents=screened, help="coupled cut-world trials")
    sp.add_argument("--d", type=_positive_int, default=None, help="meaning pair distance (default ceil(ln n)+1)")
    sp.add_argument("--d-tilde", type=_nonnegative_int, default=None, help="neighborhood radius (default lam*d)")
    sp.add_argument("--trials", type=_positive_int, default=20)
    sp.set_defaults(handler=_cmd_spectral)

    sp = sub.add_parser("ingest", parents=[config, out], help="triples file to edge list")
    sp.add_argument("--triples", type=Path, required=True)
    sp.add_argument("--prefix", type=str, default="")
    sp.set_defaults(handler=_cmd_ingest)

    sp = sub.add_parser("check", parents=[config, source, params, fold], help="nontriviality screen")
    sp.add_argument("--d", type=_positive_int, default=2)
    sp.set_defaults(handler=_cmd_check)
    parser.commands = sub.choices
    return parser


def _config_tokens(parser: argparse.ArgumentParser, path: Path) -> list[str]:
    """A JSON config file as ``--flag value`` tokens for ``parser``.

    Placed ahead of the command line, they are parsed with the same types
    and choices as typed flags, and any explicit flag after them wins.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad config JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    tokens: list[str] = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        action = parser._option_string_actions.get(flag)
        if action is None or action.dest in ("help", "config"):
            raise ValueError(f"unknown config key {key!r}")
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false, got {value!r}")
            tokens += [flag] if value else []
            continue
        values = value if isinstance(value, list) else [value]
        # A number must be a JSON number: "10" or true is a mistake, not 10.
        if action.type in (int, _positive_int, _nonnegative_int, float) and any(isinstance(v, (str, bool)) for v in values):
            raise ValueError(f"config key {key!r} must be a number, got {value!r}")
        tokens += [flag, *(str(v) for v in values)]
    return tokens


def _params(args: argparse.Namespace) -> SampleParams:
    return SampleParams(
        p_plus=args.p_plus,
        p_minus=args.p_minus,
        eps_plus=args.eps_plus,
        eps_minus=args.eps_minus,
        lam=args.lam,
        fold=getattr(args, "fold", False),  # bounds has no --fold: its formulas always fold
    )


def _load_graph(args: argparse.Namespace) -> MeaningGraph:
    has_er = getattr(args, "er", None) is not None
    has_triples = getattr(args, "triples", None) is not None
    if has_er == has_triples:
        raise ValueError("exactly one of --er or --triples is required")
    if has_er:
        try:
            n = int(args.er[0])
            p = float(args.er[1])
        except ValueError:
            raise ValueError(f"--er expects an integer and a probability, got {args.er}")
        if n > MAX_PAIR_NODES:  # past it, pair indices overflow int64
            raise ValueError(f"--er node count must be at most {MAX_PAIR_NODES}, got {len(str(n))} digits")
        return gen_er(n, p, args.graph_seed)
    return load_triples(args.triples, args.prefix)


def _gate_nontrivial(args: argparse.Namespace, gm: MeaningGraph, params: SampleParams, d: int) -> None:
    report = check_nontrivial(gm, params, d)
    if not report.overall and not args.allow_trivial:
        raise ValueError(
            "nontriviality screen failed (use --allow-trivial to override):\n" + report.render()
        )


def _outdir(args: argparse.Namespace) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


# -- handlers -----------------------------------------------------------


def _cmd_sample(args: argparse.Namespace) -> int:
    params = _params(args)
    gm = _load_graph(args)
    sg = sample_symbol_graph(gm, params, args.seed)
    path = _outdir(args) / "symbol_graph.tsv"
    write_symbol_graph(sg, path)
    kinds = sg.kind_array
    print(
        f"symbol graph: {sg.graph.n} nodes, {np.count_nonzero(kinds & STRUCTURAL)} structural,"
        f" {np.count_nonzero(kinds & SIMILARITY)} similarity -> {path}"
    )
    return 0


def _cmd_gamma(args: argparse.Namespace) -> int:
    params = _params(args)
    gm = _load_graph(args)
    _gate_nontrivial(args, gm, params, args.d)
    d_tilde = args.d_tilde
    if d_tilde is None:
        d_tilde = choose_d_tilde(DTildeMode.POSSIBILITY, params.lam, args.d)
    est = estimate_gamma(
        gm,
        args.d,
        params,
        d_tilde,
        args.trials,
        args.seed,
        representative=args.representative,
        fixed_pairs=args.fixed_pairs,
        threads=args.threads,
    )
    record = est.csv_record()
    path = _outdir(args) / "gamma.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n" + record + "\n")
    print(record)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = _params(args)
    report = bound_report(
        n=args.n,
        d=args.d,
        lam=params.lam,
        p_plus=params.p_plus,
        p_minus=params.p_minus,
        eps_plus=params.eps_plus,
        eps_minus=params.eps_minus,
        ball_d=args.ball_d,
        ball_1=args.ball_1,
        c2=args.c2,
        c3=args.c3,
    )
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.render_text())
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    params = _params(args)
    gm = _load_graph(args)
    try:
        grid = [float(x) for x in args.p_minus_grid.split(",") if x]
    except ValueError:
        raise ValueError(f"bad --p-minus-grid {args.p_minus_grid!r}")
    _gate_nontrivial(args, gm, params, args.d_max)
    table = heatmap(
        gm,
        grid,
        args.d_max,
        args.pairs_per_cell,
        params,
        args.seed,
        threads=args.threads,
    )
    out = _outdir(args)
    emit_heatmap_csv(table, out / "heatmap.csv")
    emit_svg_heatmap(table, out / "heatmap.svg")
    print(f"heatmap: {len(table.p_minus_grid)} rows x {table.d_max + 1} columns -> {out / 'heatmap.csv'}")
    return 0


def _cmd_spectral(args: argparse.Namespace) -> int:
    params = _params(args)
    gm = _load_graph(args)
    d = args.d if args.d is not None else math.ceil(math.log(max(gm.n, 2))) + 1
    _gate_nontrivial(args, gm, params, d)
    d_tilde = args.d_tilde
    if d_tilde is None:
        d_tilde = choose_d_tilde(DTildeMode.IMPOSSIBILITY, params.lam, d)
    tasks = [(gm, d, params, d_tilde, args.seed, t) for t in range(args.trials)]
    trials = run_tasks(_spectral_trial, tasks, args.threads)
    within = sum(trial.within_bound for trial in trials)
    path = _outdir(args) / "spectral.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SPECTRAL_CSV_HEADER + "\n")
        fh.write("\n".join(spectral_csv_record(trial) for trial in trials) + "\n")
    print(f"spectral: {within}/{args.trials} trials within bound -> {path}")
    return 0


def _spectral_trial(gm: MeaningGraph, d: int, params: SampleParams, d_tilde: int, seed: int, t: int) -> SpectralTrial:
    """Trial ``t`` of ``spectral``: a pair at distance d, its cut pair and their coupled trial."""
    # The pick reads the meaning graph's table of rings at d.
    pair = pick_pair_at_distance(gm, d, stream(seed, STREAM_SPECTRAL_TRIAL, t, 0))
    if pair is None:
        raise NoFixtureError(f"no pair at distance {d} in the meaning graph")
    cp = make_cut_pair(gm, *pair)
    return coupled_cut_trial(cp, params, d_tilde, subseed(seed, STREAM_SPECTRAL_TRIAL, t, 1))


def _cmd_ingest(args: argparse.Namespace) -> int:
    gm = load_triples(args.triples, args.prefix)
    path = _outdir(args) / "meaning_graph.tsv"
    write_edge_list(gm.graph, path, gm.labels)
    print(f"ingested: nodes={gm.n} edges={gm.edge_count} -> {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    params = _params(args)
    gm = _load_graph(args)
    report = check_nontrivial(gm, params, args.d)
    print(report.render())
    return 0


def cli(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of exiting."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # The command name is the first token: the top level has no options.
            tokens = _config_tokens(parser.commands[args.command], args.config)
            args = parser.parse_args(argv[:1] + tokens + argv[1:])
        return args.handler(args)
    except TriplesFormatError as exc:
        # Malformed input data reads as an I/O problem, not a usage one.
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        # An OverflowError is a value too large for the float or index it
        # feeds, a bad value like any other.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # A request too large for the memory at hand, such as numpy's
        # "Unable to allocate 6.71 GiB for an array ...", is a bad value too.
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except NoFixtureError as exc:
        print(f"no fixture: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
