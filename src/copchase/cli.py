"""Command-line driver: capture times, drunk capture times, cost of
drunkenness, strategy evaluation, parameter sweeps, and simulations."""

from __future__ import annotations

import argparse
import csv
import io
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
from .montecarlo import SimulationError
from .solver import (
    DEFAULT_STATE_CAP,
    ConvergenceError,
    CopNumberError,
    SolveOptions,
    StateSpaceError,
    _drunk_start,
    drunkenness_report,
    solve_adversarial,
    solve_at_cop_number,
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


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["path", "cycle", "tree", "grid", "barbell", "lollipop"])
    p.add_argument("--file", help="edge-list file (first line 'n m', then 'u v' lines)")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--depth", type=int)


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON object")
    p.add_argument("--exact-digits", type=int, default=6,
                   help="significant digits for numeric output (default 6)")


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=["jacobi", "gauss-seidel"], default="jacobi",
                   help="drunk value-iteration scheme (default jacobi), read by dct, "
                        "cod, sweep and simulate --mode drunk; ct ignores it. jacobi "
                        "solves dct, cod and sweep on the graph's symmetry quotient; "
                        "gauss-seidel updates rows in place on the full state space")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--max-sweeps", type=int, default=10**6)
    p.add_argument("--state-cap", type=int, default=None,
                   help=f"state-count cap (default {DEFAULT_STATE_CAP}, or ${STATE_CAP_ENV})")


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
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.{digits}g}"
    return str(value)


def _jsonable(value, digits: int):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value == int(value) and abs(value) < 2**53:
            return int(value)
        return float(f"{value:.{digits}g}")
    return value


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload))


def _cmd_ct(args) -> int:
    g = _build_graph(args)
    solution = solve_adversarial(g, args.k, _state_cap(args))
    value = solution.capture_time()
    digits = args.exact_digits
    if math.isinf(value):
        start = None
    else:
        start = list(solution.optimal_start()[0])
    if args.json:
        _emit_json({"command": "ct", "n": g.n, "k": args.k,
                    "value": _jsonable(value, digits), "start": start})
    else:
        print(f"capture time: {_fmt(value, digits)}")
        if start is not None:
            print("optimal start: " + " ".join(str(v) for v in start))
    return EXIT_INFINITE if math.isinf(value) else EXIT_OK


def _cmd_dct(args) -> int:
    g = _build_graph(args)
    opts = _opts(args)
    start, value, stats = _drunk_start(g, args.k, opts, _state_cap(args))
    digits = args.exact_digits
    if args.json:
        _emit_json({"command": "dct", "n": g.n, "k": args.k,
                    "value": _jsonable(value, digits), "start": list(start),
                    "sweeps": stats.sweeps, "scheme": opts.scheme})
    else:
        print(f"expected capture time: {_fmt(value, digits)}")
        print("optimal start: " + " ".join(str(v) for v in start))
        print(f"sweeps: {stats.sweeps}")
    return EXIT_OK


def _cmd_cod(args) -> int:
    g = _build_graph(args)
    report = drunkenness_report(g, _opts(args), args.max_cops, _state_cap(args))
    digits = args.exact_digits
    if args.json:
        _emit_json({"command": "cod", "n": g.n, "cops": report.cops,
                    "ct": _jsonable(report.capture_time, digits),
                    "dct": _jsonable(report.drunk_capture_time, digits),
                    "F": _jsonable(report.ratio, digits)})
    else:
        print(f"cops: {report.cops}")
        print(f"capture time: {_fmt(report.capture_time, digits)}")
        print(f"drunk capture time: {_fmt(report.drunk_capture_time, digits)}")
        print(f"cost of drunkenness: {_fmt(report.ratio, digits)}")
    return EXIT_OK


def _cmd_eval_strategy(args) -> int:
    g = _build_graph(args)
    strategy = read_strategy(args.strategy)
    digits = args.exact_digits
    if args.mode == "adversarial":
        value = adversarial_survival_time(g, strategy)
        if args.json:
            _emit_json({"command": "eval-strategy", "mode": "adversarial",
                        "value": _jsonable(float(value), digits)})
        else:
            print(f"survival time: {_fmt(float(value), digits)}")
        return EXIT_INFINITE if math.isinf(value) else EXIT_OK
    dist = fixed_strategy_capture_distribution(g, strategy, args.max_rounds)
    value = dist.expected_time()
    if args.csv:
        out = io.StringIO()
        dist.to_csv(out)
        sys.stdout.write(out.getvalue())
    elif args.json:
        _emit_json({"command": "eval-strategy", "mode": "drunk",
                    "value": _jsonable(value, digits),
                    "residual": _jsonable(dist.residual, digits),
                    "rounds": dist.rounds, "terminated": dist.terminated})
    else:
        print(f"expected capture time: {_fmt(value, digits)}")
        print(f"residual: {_fmt(dist.residual, digits)}")
    if not dist.terminated:
        print(f"nonterminating strategy: residual {dist.residual:.3g} "
              f"after {dist.rounds} rounds", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _parse_list(raw: str | None, cast):
    if raw is None:
        return [None]
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
            row = {"family": args.family, "n": n, "c": c, "k": args.k,
                   "ct": "", "dct": "", "F": "", "sweeps": "", "wall_time_s": "",
                   "error": ""}
            t0 = time.perf_counter()
            try:
                g = FamilySpec(family=family, n=n, c=c, d=args.d, depth=args.depth).build()
                adversarial = (solve_adversarial(g, args.k, cap) if args.k
                               else solve_at_cop_number(g, args.max_cops, cap))
                k, ct = adversarial.cop_values.k, adversarial.capture_time()
                del adversarial  # free its tables before the drunk solve
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
    sink = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(sink, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if args.output:
            sink.close()
    return EXIT_OK


def _cmd_simulate(args) -> int:
    digits = args.exact_digits
    if args.mode == "walk":
        if args.n is None or args.c is None:
            raise GraphError("walk mode requires --n and --c")
        exceedance = montecarlo.walk_deviation_check(args.n, args.c, args.trials, args.seed)
        if args.json:
            _emit_json({"command": "simulate", "mode": "walk",
                        "exceedance": _jsonable(float(exceedance), digits),
                        "trials": args.trials, "seed": args.seed})
        else:
            print(f"exceedance: {_fmt(float(exceedance), digits)}")
        return EXIT_OK
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
    if args.json:
        payload = {"command": "simulate", "mode": args.mode}
        payload.update(report.to_dict())
        payload["mean"] = _jsonable(payload["mean"], digits)
        payload["stderr"] = _jsonable(payload["stderr"], digits)
        _emit_json(payload)
    else:
        print(f"trials: {report.trials}")
        print(f"mean capture time: {_fmt(report.mean, digits)}")
        print(f"standard error: {_fmt(report.stderr, digits)}")
        print(f"max observed: {report.max_observed}")
        print(f"censored: {report.censored}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copchase",
        description="capture times, drunk capture times, and cost of drunkenness "
                    "for pursuit games on graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ct", help="adversarial capture time")
    _add_graph_args(p)
    _add_output_args(p)
    _add_solver_args(p)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_ct)

    p = sub.add_parser("dct", help="expected capture time against the drunk robber")
    _add_graph_args(p)
    _add_output_args(p)
    _add_solver_args(p)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=_cmd_dct)

    p = sub.add_parser("cod", help="cost of drunkenness at the cop number")
    _add_graph_args(p)
    _add_output_args(p)
    _add_solver_args(p)
    p.add_argument("--max-cops", type=int, default=3)
    p.set_defaults(func=_cmd_cod)

    p = sub.add_parser("eval-strategy", help="evaluate a fixed cop strategy")
    _add_graph_args(p)
    _add_output_args(p)
    p.add_argument("--strategy", required=True, help="strategy file, one configuration per line")
    p.add_argument("--mode", choices=["drunk", "adversarial"], default="drunk")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--csv", action="store_true", help="emit the capture distribution as CSV")
    p.set_defaults(func=_cmd_eval_strategy)

    p = sub.add_parser("sweep", help="CSV table of ct/dct/F over parameter ranges")
    _add_graph_args(p)
    _add_output_args(p)
    _add_solver_args(p)
    p.add_argument("--n-list", help="comma-separated n values")
    p.add_argument("--c-list", help="comma-separated c values")
    p.add_argument("--k", type=int, default=0, help="cop count; 0 detects the cop number")
    p.add_argument("--max-cops", type=int, default=3)
    p.add_argument("--output", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo runs")
    _add_graph_args(p)
    _add_output_args(p)
    _add_solver_args(p)
    p.add_argument("--mode", choices=["drunk", "random-cops", "walk"], required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--evader", choices=["greedy", "uniform"], default="greedy")
    p.add_argument("--strategy", help="fixed strategy file (drunk mode)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NonterminatingStrategyError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (StateSpaceError, CopNumberError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (GraphError, StrategyError, SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
