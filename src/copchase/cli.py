"""Command-line driver: capture times, drunk capture times, cost of
drunkenness, strategy evaluation, parameter sweeps, and simulations."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time

from . import montecarlo
from .chain import (
    NonterminatingStrategyError,
    StrategyError,
    adversarial_survival_time,
    fixed_strategy_capture_distribution,
    read_strategy,
)
from .graphs import FamilySpec, Graph, GraphError, read_edge_list
from .montecarlo import SimulationError, TrialBudgetError
from .solver import (
    DEFAULT_STATE_CAP,
    ConvergenceError,
    CopNumberError,
    SolveOptions,
    StateSpaceError,
    _adversarial_start,
    _cop_number_start,
    _drunk_start,
    drunkenness_report,
    solve_drunk,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_INFINITE = 5

STATE_CAP_ENV = "COPCHASE_STATE_CAP"

_FAMILY_ALIASES = {"tree": "complete-tree"}
SWEEP_COLUMNS = ["family", "n", "c", "k", "ct", "dct", "F", "sweeps", "wall_time_s", "error"]


def _int_at_least(low: int):  # an argparse type: int(raw), refused below low
    def parse(raw: str) -> int:
        with contextlib.suppress(ValueError):
            if (value := int(raw)) >= low:
                return value
        raise argparse.ArgumentTypeError(f"invalid int value, at least {low}: {raw!r}")
    return parse


def _build_graph(args) -> Graph:
    if args.file and args.family:
        raise GraphError("give either --family or --file, not both")
    if args.file:
        return read_edge_list(args.file)
    if not args.family:
        raise GraphError("a graph source is required: --family or --file")
    family = _FAMILY_ALIASES.get(args.family, args.family)
    return FamilySpec(family=family, n=args.n, c=args.c, d=args.d, depth=args.depth).build()


def _state_cap(args) -> int:
    env = os.environ.get(STATE_CAP_ENV, DEFAULT_STATE_CAP)
    raw = env if args.state_cap is None else args.state_cap
    try:
        cap = int(raw)  # only the environment value can fail here
    except ValueError as exc:
        raise GraphError(f"{STATE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise GraphError(f"the state cap must be a positive integer, got {cap}")
    return cap


def _opts(args) -> SolveOptions:
    return SolveOptions(scheme=args.scheme, tolerance=args.tolerance,
                        max_sweeps=args.max_sweeps)


def _fmt(value, digits: int) -> str:
    if isinstance(value, list):
        return " ".join(_fmt(v, digits) for v in value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.{digits}g}"
    return str(value)


def _jsonable(value, digits: int):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf"
        value = float(f"{value:.{digits}g}")
        return int(value) if value.is_integer() and abs(value) < 2**53 else value
    return value


def _emit(args, payload: dict, labels: dict) -> None:
    """Print a command's answer, one dict of raw values, at --exact-digits:
    under --json the whole dict as one object, else a `label: value` line
    for each key that `labels` names, in its order, whose value is not None."""
    digits = args.exact_digits
    if args.json:
        print(json.dumps({key: _jsonable(value, digits) for key, value in payload.items()}))
        return
    for key, label in labels.items():
        if payload[key] is not None:
            print(f"{label}: {_fmt(payload[key], digits)}")


def _cmd_ct(args) -> int:
    g = _build_graph(args)
    start, value = _adversarial_start(g, args.k, _state_cap(args))
    _emit(args, {"command": "ct", "n": g.n, "k": args.k, "value": value,
                 "start": None if math.isinf(value) else list(start)},
          {"value": "capture time", "start": "optimal start"})
    return EXIT_INFINITE if math.isinf(value) else EXIT_OK


def _cmd_dct(args) -> int:
    g = _build_graph(args)
    opts = _opts(args)
    start, value, stats = _drunk_start(g, args.k, opts, _state_cap(args))
    _emit(args, {"command": "dct", "n": g.n, "k": args.k, "value": value, "start": list(start),
                 "sweeps": stats.sweeps, "scheme": opts.scheme},
          {"value": "expected capture time", "start": "optimal start", "sweeps": "sweeps"})
    return EXIT_OK


def _cmd_cod(args) -> int:
    g = _build_graph(args)
    report = drunkenness_report(g, _opts(args), args.max_cops, _state_cap(args))
    _emit(args, {"command": "cod", "n": g.n, "cops": report.cops, "ct": report.capture_time,
                 "dct": report.drunk_capture_time, "F": report.ratio},
          {"cops": "cops", "ct": "capture time", "dct": "drunk capture time",
           "F": "cost of drunkenness"})
    return EXIT_OK


def _cmd_eval_strategy(args) -> int:
    g = _build_graph(args)
    strategy = read_strategy(args.strategy)
    if args.mode == "adversarial":
        value = float(adversarial_survival_time(g, strategy))
        _emit(args, {"command": "eval-strategy", "mode": "adversarial", "value": value},
              {"value": "survival time"})
        return EXIT_INFINITE if math.isinf(value) else EXIT_OK
    dist = fixed_strategy_capture_distribution(g, strategy, args.max_rounds)
    if args.csv:
        dist.to_csv(sys.stdout)
    else:
        _emit(args, {"command": "eval-strategy", "mode": "drunk", "value": dist.expected_time(),
                     "residual": dist.residual, "rounds": dist.rounds,
                     "terminated": dist.terminated},
              {"value": "expected capture time", "residual": "residual"})
    if not dist.terminated:
        print(f"nonterminating strategy: residual {dist.residual:.3g} "
              f"after {dist.rounds} rounds", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _parse_list(raw: str, cast) -> list:
    values = [cast(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise GraphError(f"empty parameter list {raw!r}")
    return values


def _cmd_sweep(args) -> int:
    if not args.family:
        raise GraphError("sweep requires --family")
    family = _FAMILY_ALIASES.get(args.family, args.family)
    n_values = _parse_list(args.n_list, int) if args.n_list else [args.n]
    c_values = _parse_list(args.c_list, float) if args.c_list else [args.c]
    opts = _opts(args)
    cap = _state_cap(args)
    rows = []
    for n in n_values:
        for c in c_values:
            row = {**dict.fromkeys(SWEEP_COLUMNS, ""), "family": args.family, "n": n, "c": c,
                   "k": args.k}
            t0 = time.perf_counter()
            try:
                g = FamilySpec(family=family, n=n, c=c, d=args.d, depth=args.depth).build()
                k, _, ct = ((args.k, *_adversarial_start(g, args.k, cap)) if args.k
                            else _cop_number_start(g, args.max_cops, cap))
                _, dct, stats = _drunk_start(g, k, opts, cap)
                row.update(k=k, ct=_fmt(ct, args.exact_digits),
                           dct=_fmt(dct, args.exact_digits), sweeps=stats.sweeps)
                if not dct:  # k cops cover every vertex, so ct = 0 too
                    raise ValueError("F = ct / dct is undefined: dct = 0")
                row["F"] = _fmt(ct / dct, args.exact_digits)
            except Exception as exc:  # per-row failures recorded, run continues
                row["error"] = str(exc)
            row["wall_time_s"] = f"{time.perf_counter() - t0:.3f}"
            rows.append(row)
    with (open(args.output, "w", newline="", encoding="utf-8") if args.output
          else contextlib.nullcontext(sys.stdout)) as sink:
        writer = csv.DictWriter(sink, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.mode == "walk":
        if args.n is None or args.c is None:
            raise GraphError("walk mode requires --n and --c")
        exceedance = montecarlo.walk_deviation_check(args.n, args.c, args.trials, args.seed)
        _emit(args, {"command": "simulate", "mode": "walk", "exceedance": float(exceedance),
                     "trials": args.trials, "seed": args.seed},
              {"exceedance": "exceedance"})
        return EXIT_OK
    # a feedback policy's configuration is the drunk mode's one cop column
    montecarlo.check_trials(args.trials, args.k if args.mode == "random-cops" else 1)
    g = _build_graph(args)
    if args.mode == "drunk":
        if args.strategy:
            policy = read_strategy(args.strategy)
            start = None
        else:
            solution = solve_drunk(g, args.k, _opts(args), _state_cap(args))
            policy = solution.policy
            start, _ = solution.optimal_start()
        report = montecarlo.simulate_drunk_pursuit(
            g, policy, args.trials, args.seed, start=start, max_rounds=args.max_rounds)
    else:  # random-cops
        evader = {"greedy": "max-distance-greedy", "uniform": "uniform-random"}[args.evader]
        report = montecarlo.simulate_random_cops(
            g, args.k, evader, args.trials, args.seed, max_rounds=args.max_rounds)
    # raw mean and stderr: NaN (all trials censored) prints nan, or null in JSON
    _emit(args, {"command": "simulate", "mode": args.mode, **report.to_dict(),
                 "mean": report.mean, "stderr": report.stderr},
          {"trials": "trials", "mean": "mean capture time", "stderr": "standard error",
           "max": "max observed", "censored": "censored"})
    return EXIT_OK


def _parent(*flags: str, parents=(), **spec) -> argparse.ArgumentParser:
    """An option group for subcommands to list among their parents: the
    options of `parents`, then `add_argument(*flags, **spec)`."""
    group = argparse.ArgumentParser(add_help=False, parents=list(parents))
    group.add_argument(*flags, **spec)
    return group


def build_parser() -> argparse.ArgumentParser:
    family = _parent("--family", choices=["path", "cycle", "tree", "grid", "barbell", "lollipop"])
    family.add_argument("--n", type=int)
    family.add_argument("--c", type=float)
    family.add_argument("--d", type=int)
    family.add_argument("--depth", type=int)
    graph = _parent("--file", parents=[family],
                    help="edge-list file (first line 'n m', then 'u v' lines)")
    digits = _parent("--exact-digits", type=_int_at_least(0), default=6,
                     help="significant digits for numeric output (default 6)")
    output = _parent("--json", parents=[digits], action="store_true", help="emit a JSON object")
    cap = _parent("--state-cap", type=int, default=None,
                  help=f"state-count cap (default {DEFAULT_STATE_CAP}, or ${STATE_CAP_ENV})")
    drunk = _parent("--scheme", choices=["jacobi", "gauss-seidel"], default="jacobi",
                    help="drunk value-iteration scheme (default jacobi), read by dct, cod, "
                         "sweep and simulate --mode drunk. Either scheme solves dct, cod and "
                         "sweep on the graph's symmetry quotient, simulate on the full space")
    drunk.add_argument("--tolerance", type=float, default=1e-10)
    drunk.add_argument("--max-sweeps", type=int, default=10**6)
    cops = _parent("--k", type=int, default=1)
    max_cops = _parent("--max-cops", type=_int_at_least(1), default=3)
    max_rounds = _parent("--max-rounds", type=_int_at_least(0), default=None)

    parser = argparse.ArgumentParser(
        prog="copchase",
        description="capture times, drunk capture times, and cost of drunkenness "
                    "for pursuit games on graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("ct", parents=[graph, output, cap, cops], help="adversarial capture time")
    p.set_defaults(func=_cmd_ct, parser=p)
    p = sub.add_parser("dct", parents=[graph, output, drunk, cap, cops],
                       help="expected capture time against the drunk robber")
    p.set_defaults(func=_cmd_dct, parser=p)
    p = sub.add_parser("cod", parents=[graph, output, drunk, cap, max_cops],
                       help="cost of drunkenness at the cop number")
    p.set_defaults(func=_cmd_cod, parser=p)

    p = sub.add_parser("eval-strategy", parents=[graph, output, max_rounds],
                       help="evaluate a fixed cop strategy")
    p.add_argument("--strategy", required=True, help="strategy file, one configuration per line")
    p.add_argument("--mode", choices=["drunk", "adversarial"], default="drunk")
    p.add_argument("--csv", action="store_true", help="emit the capture distribution as CSV")
    p.set_defaults(func=_cmd_eval_strategy, parser=p)

    p = sub.add_parser("sweep", parents=[family, digits, drunk, cap, max_cops],
                       help="CSV table of ct/dct/F over parameter ranges")
    p.add_argument("--n-list", help="comma-separated n values")
    p.add_argument("--c-list", help="comma-separated c values")
    p.add_argument("--k", type=int, default=0, help="cop count; 0 detects the cop number")
    p.add_argument("--output", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_sweep, parser=p)

    p = sub.add_parser("simulate", parents=[graph, output, drunk, cap, cops, max_rounds],
                       help="Monte Carlo runs")
    p.add_argument("--mode", choices=["drunk", "random-cops", "walk"], required=True)
    p.add_argument("--evader", choices=["greedy", "uniform"], default="greedy")
    p.add_argument("--strategy", help="fixed strategy file (drunk mode)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, unknown = parser.parse_known_args(argv)
        # the top level takes no option but -h, so what precedes the subcommand
        # is its leftover, reported with its usage; the rest, with the subcommand's
        if top := argv[:argv.index(args.command)]:
            parser.error(f"unrecognized arguments: {' '.join(top)}")
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NonterminatingStrategyError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (StateSpaceError, CopNumberError, TrialBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (GraphError, StrategyError, SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an allocation that no cap foresaw
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_INFEASIBLE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
