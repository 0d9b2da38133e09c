"""The three workloads: their command lines, their seeded input files, and
the check each command's output must pass.

A check raises CheckFailed with a one-line reason. Checks read the JSON or
CSV the command printed; a few compare against values printed earlier in the
same pass (stored in `results` under the earlier command's `key` before
that command's own checks, so one wrong value fails one command), and so a
pass runs its commands in list order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import inputs

WORKLOADS = ("exact-large", "strategy-sim", "family-sweep")

# Standard errors a Monte Carlo mean may lie from the exact value of the
# same pass. At 5 the chance of a false alarm is below 1e-6 per check.
MC_Z = 5.0
# Relative tolerance for values printed at 6 significant digits.
PRINT_RTOL = 2e-5

# Trivial invocation timed for setup_s: interpreter start, import, parsing.
SETUP_ARGV = ["ct", "--family", "path", "--n", "2", "--k", "1"]

SIZES = {
    "full": {
        "cycle": 120, "grid": 10, "barbell": 100,
        "sweep_path": 1000, "pinch_cycle": 200, "sim_path": 200, "sim_grid": 10,
        "trials": 100_000, "walk_n": 1000, "random_cops_rounds": 600,
        "lollipop": 150, "sweep_barbell": 60, "tree_depth": 6,
        "random_n": 40,
    },
    "tiny": {
        "cycle": 12, "grid": 4, "barbell": 10,
        "sweep_path": 30, "pinch_cycle": 20, "sim_path": 20, "sim_grid": 4,
        "trials": 2000, "walk_n": 100, "random_cops_rounds": 40,
        "lollipop": 20, "sweep_barbell": 10, "tree_depth": 3,
        "random_n": 16,
    },
}

# Values printed by the seed commit for full-scale instances that have no
# closed form here; a later change must print the same value to the 6
# printed digits.
RECORDED = {
    "ct:barbell": 51,
    "dct:cycle": 14.5167,
    "dct:grid": 3.53518,
    "dct:barbell": 41.9648,
    "eval:sweep_path": 498.988,
    "eval:pinch_cycle": 49.01,
    "dct:sim_path": 49.4679,
    "sweep:lollipop": {"ct": [75] * 5,
                       "dct": [42.2213, 43.3681, 43.8166, 43.6863, 43.1082]},
    "sweep:barbell": {"ct": [31] * 3, "dct": [19.9117, 22.6355, 25.2964]},
    "cod:tree": 4.2195,
}

LOLLIPOP_C = [0.2, 0.3, 0.41, 0.5, 0.6]
RANDOM_FACES = 3  # faces of sizes 15/15/14 at n=40 and 7/7/6 at n=16
BARBELL_C = [0.25, 0.5, 1.0]


class CheckFailed(Exception):
    """A command's output is wrong."""


@dataclass
class Command:
    sub: str                      # CLI subcommand; its time sums into <sub>_s
    argv: list[str]
    check: Callable[["Command", str, dict], None]
    expect: dict = field(default_factory=dict)
    key: str | None = None        # where later checks find this output

    def label(self) -> str:
        return " ".join(self.argv)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(float(a), float(b), rel_tol=PRINT_RTOL)


def _last_json(stdout: str) -> dict:
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise CheckFailed(f"no JSON object in output: {stdout[-200:]!r}") from exc


def check_setup(cmd: Command, stdout: str, results: dict) -> None:
    _require(stdout.splitlines()[:1] == ["capture time: 1"],
             f"trivial ct printed {stdout[:80]!r}")


def check_ct(cmd: Command, stdout: str, results: dict) -> None:
    d = results[cmd.key] = _last_json(stdout)
    _require(d["value"] == cmd.expect["ct"], f"ct {d['value']} != {cmd.expect['ct']}")
    _require(len(d["start"]) == d["k"], f"start {d['start']} does not place {d['k']} cops")


def check_ct_finite(cmd: Command, stdout: str, results: dict) -> None:
    """For instances without a closed form at this size."""
    d = results[cmd.key] = _last_json(stdout)
    _require(isinstance(d["value"], int), f"ct {d['value']!r} is not a finite integer")


def check_dct(cmd: Command, stdout: str, results: dict) -> None:
    d = results[cmd.key] = _last_json(stdout)
    value = d["value"]
    _require(isinstance(value, (int, float)) and value > 0, f"dct {value!r} is not positive")
    if "ct_key" in cmd.expect:
        ct = results[cmd.expect["ct_key"]]["value"]
        _require(ct / value >= 1, f"F = ct/dct = {ct}/{value} < 1")
    if "same_as" in cmd.expect:
        other = results[cmd.expect["same_as"]]["value"]
        _require(value == other, f"schemes disagree at printed digits: {value} != {other}")
    if "value" in cmd.expect:
        _require(_close(value, cmd.expect["value"]), f"dct {value} != {cmd.expect['value']}")
    if "per_vertex" in cmd.expect:
        lo, hi = cmd.expect["per_vertex"]
        _require(lo <= value / d["n"] <= hi, f"dct/n = {value / d['n']} outside [{lo}, {hi}]")


def check_survival(cmd: Command, stdout: str, results: dict) -> None:
    d = _last_json(stdout)
    _require(d["value"] == cmd.expect["value"],
             f"survival {d['value']} != {cmd.expect['value']}")


def check_distribution(cmd: Command, stdout: str, results: dict) -> None:
    d = results[cmd.key] = _last_json(stdout)
    _require(d["terminated"] is True, f"distribution did not terminate: residual {d['residual']}")
    if "per_vertex" in cmd.expect:
        lo, hi = cmd.expect["per_vertex"]
        _require(lo <= d["value"] / cmd.expect["n"] <= hi,
                 f"expected time / n = {d['value'] / cmd.expect['n']} outside [{lo}, {hi}]")
    if "value" in cmd.expect:
        _require(_close(d["value"], cmd.expect["value"]),
                 f"expected time {d['value']} != {cmd.expect['value']}")


def _check_report(cmd: Command, d: dict) -> None:
    """Trial count, and a histogram of the captured trials that matches the
    printed mean."""
    trials = cmd.expect["trials"]
    _require(d["trials"] == trials, f"trials {d['trials']} != {trials}")
    captured = trials - d["censored"]
    hist = d["histogram"]
    _require(sum(hist) == captured, f"histogram holds {sum(hist)} of {captured} captures")
    mean = sum(t * h for t, h in enumerate(hist)) / captured
    _require(_close(mean, d["mean"]), f"histogram mean {mean} != printed {d['mean']}")


def check_sim_drunk(cmd: Command, stdout: str, results: dict) -> None:
    d = _last_json(stdout)
    _require(d["censored"] == 0, f"{d['censored']} trials censored")
    _check_report(cmd, d)
    exact = results[cmd.expect["exact_key"]]["value"]
    z = abs(d["mean"] - exact) / d["stderr"]
    _require(z <= MC_Z, f"mean {d['mean']} is {z:.1f} standard errors from exact {exact}")


def check_random_cops(cmd: Command, stdout: str, results: dict) -> None:
    d = _last_json(stdout)
    _check_report(cmd, d)
    _require(d["mean"] > 0, f"mean capture time {d['mean']} is not positive")
    _require(d["censored"] <= d["trials"] / 100, f"{d['censored']} trials outlasted the cap")


def check_walk(cmd: Command, stdout: str, results: dict) -> None:
    d = _last_json(stdout)
    n, c = cmd.expect["n"], cmd.expect["c"]
    bound = 2 * n ** (1 - c * c / 4)
    _require(d["trials"] == cmd.expect["trials"], f"trials {d['trials']}")
    _require(0 <= d["exceedance"] <= bound, f"exceedance {d['exceedance']} > 2 n^(1-c^2/4) = {bound:.3g}")


def _check_f(ct: float, dct: float, f: float) -> None:
    _require(f >= 1, f"F = {f} < 1")
    _require(_close(f, ct / dct), f"F = {f} but ct/dct = {ct / dct}")


def check_sweep(cmd: Command, stdout: str, results: dict) -> None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    c_list = cmd.expect["c_list"]
    _require([float(r["c"]) for r in rows] == c_list, f"rows for c = {[r['c'] for r in rows]}")
    for r in rows:
        _require(r["error"] == "", f"c={r['c']}: {r['error']}")
        _require(int(r["k"]) == 1, f"c={r['c']}: cop number {r['k']} != 1")
        _check_f(float(r["ct"]), float(r["dct"]), float(r["F"]))
    recorded = cmd.expect.get("recorded")
    if recorded:
        _require([int(r["ct"]) for r in rows] == recorded["ct"], "ct column differs from record")
        _require(all(_close(r["dct"], v) for r, v in zip(rows, recorded["dct"])),
                 "dct column differs from record")
    if "f_min_c" in cmd.expect:
        best = min(rows, key=lambda r: float(r["F"]))
        _require(float(best["c"]) == cmd.expect["f_min_c"],
                 f"F is least at c={best['c']}, not near sqrt(2)-1")


def check_cod(cmd: Command, stdout: str, results: dict) -> None:
    d = _last_json(stdout)
    _require(d["cops"] == cmd.expect["cops"], f"cop number {d['cops']} != {cmd.expect['cops']}")
    _check_f(d["ct"], d["dct"], d["F"])
    if "ct" in cmd.expect:
        _require(d["ct"] == cmd.expect["ct"], f"ct {d['ct']} != {cmd.expect['ct']}")
    if "dct" in cmd.expect:
        _require(_close(d["dct"], cmd.expect["dct"]), f"dct {d['dct']} != {cmd.expect['dct']}")


def _full_only(scale: str, name: str, **ranges) -> dict:
    """Recorded value and asymptotic ranges; both hold only at full scale."""
    return {"value": RECORDED[name], **ranges} if scale == "full" else {}


def exact_large(s: dict, scale: str, rng: random.Random, work: str) -> list[Command]:
    """ct, dct and dct --scheme jacobi on a cycle, a grid and a barbell.

    The instances are the named family members, not relabeled copies, so
    that Gauss-Seidel sweep counts (which depend on vertex order) repeat.
    """
    n_cyc, n_grid, n_bar = s["cycle"], s["grid"], s["barbell"]
    instances = [
        ("cycle", ["--family", "cycle", "--n", str(n_cyc), "--k", "2"], (n_cyc + 1) // 4),
        ("grid", ["--family", "grid", "--n", str(n_grid), "--k", "2"], n_grid - 1),
        ("barbell", ["--family", "barbell", "--n", str(n_bar), "--c", "1.0", "--k", "1"],
         RECORDED["ct:barbell"] if scale == "full" else None),
    ]
    cmds = []
    for name, graph, ct in instances:
        ct_check, ct_expect = (check_ct_finite, {}) if ct is None else (check_ct, {"ct": ct})
        cmds.append(Command("ct", ["ct", *graph, "--json"], ct_check, ct_expect, f"ct:{name}"))
        cmds.append(Command("dct", ["dct", *graph, "--json"], check_dct,
                            {"ct_key": f"ct:{name}", **_full_only(scale, f"dct:{name}")},
                            f"dct:{name}"))
        cmds.append(Command("dct", ["dct", *graph, "--scheme", "jacobi", "--json"], check_dct,
                            {"ct_key": f"ct:{name}", "same_as": f"dct:{name}"},
                            f"dct-jacobi:{name}"))
    return cmds


def strategy_sim(s: dict, scale: str, rng: random.Random, work: str) -> list[Command]:
    """Fixed-strategy evaluation and Monte Carlo on relabeled graph files."""
    n_path, n_cyc, n_sim, n_grid = s["sweep_path"], s["pinch_cycle"], s["sim_path"], s["sim_grid"]
    trials = s["trials"]
    files = {}
    for name, n, edges, strategy in [
        ("sweep_path", n_path, inputs.path_edges(n_path), inputs.path_sweep(n_path)),
        ("pinch_cycle", n_cyc, inputs.cycle_edges(n_cyc), inputs.cycle_pinch(n_cyc)),
        ("sim_path", n_sim, inputs.path_edges(n_sim), None),
        ("sim_grid", n_grid * n_grid, inputs.grid_edges(n_grid), None),
    ]:
        perm = inputs.permutation(rng, n)
        graph = os.path.join(work, f"{name}.edges")
        inputs.write_edge_list(graph, n, edges, perm)
        files[name] = graph
        if strategy is not None:
            files[name + ".strategy"] = os.path.join(work, f"{name}.strategy")
            inputs.write_strategy(files[name + ".strategy"], strategy, perm)
    mc_seed = [str(rng.randrange(2**31)) for _ in range(4)]

    def eval_cmd(name, mode):
        return ["eval-strategy", "--file", files[name], "--strategy", files[name + ".strategy"],
                "--mode", mode, "--json"]

    return [
        Command("eval-strategy", eval_cmd("sweep_path", "drunk"), check_distribution,
                {"n": n_path, **_full_only(scale, "eval:sweep_path", per_vertex=(0.45, 0.5))},
                "eval:sweep_path"),
        Command("eval-strategy", eval_cmd("sweep_path", "adversarial"), check_survival,
                {"value": n_path - 1}),
        Command("eval-strategy", eval_cmd("pinch_cycle", "drunk"), check_distribution,
                {"n": n_cyc, **_full_only(scale, "eval:pinch_cycle", per_vertex=(0.2, 0.25))},
                "eval:pinch_cycle"),
        Command("eval-strategy", eval_cmd("pinch_cycle", "adversarial"), check_survival,
                {"value": (n_cyc - 1) // 2}),
        Command("simulate", ["simulate", "--file", files["sweep_path"], "--mode", "drunk",
                             "--strategy", files["sweep_path.strategy"], "--trials", str(trials),
                             "--seed", mc_seed[0], "--json"],
                check_sim_drunk, {"trials": trials, "exact_key": "eval:sweep_path"}),
        Command("dct", ["dct", "--file", files["sim_path"], "--k", "1", "--scheme", "jacobi",
                        "--json"],
                check_dct, _full_only(scale, "dct:sim_path", per_vertex=(0.23, 0.25)),
                "dct:sim_path"),
        Command("simulate", ["simulate", "--file", files["sim_path"], "--mode", "drunk",
                             "--k", "1", "--scheme", "jacobi", "--trials", str(trials),
                             "--seed", mc_seed[1], "--json"],
                check_sim_drunk, {"trials": trials, "exact_key": "dct:sim_path"}),
        Command("simulate", ["simulate", "--mode", "walk", "--n", str(s["walk_n"]), "--c", "3",
                             "--trials", str(trials), "--seed", mc_seed[2], "--json"],
                check_walk, {"n": s["walk_n"], "c": 3.0, "trials": trials}),
        # The round cap makes the cost independent of the seed: without it the
        # run lasts as long as the slowest of the trials, whose capture time
        # is the maximum of 10^5 draws and varies by about 10% between seeds.
        # About 25 of 10^5 trials outlast 600 rounds on G10.
        Command("simulate", ["simulate", "--file", files["sim_grid"], "--mode", "random-cops",
                             "--k", "2", "--evader", "uniform", "--trials", str(trials),
                             "--max-rounds", str(s["random_cops_rounds"]),
                             "--seed", mc_seed[3], "--json"],
                check_random_cops, {"trials": trials}),
    ]


def family_sweep(s: dict, scale: str, rng: random.Random, work: str) -> list[Command]:
    """The F curves of the paper's families, plus cod on asymmetric random
    graphs with cop number 2."""
    n_lol, n_bar, depth = s["lollipop"], s["sweep_barbell"], s["tree_depth"]
    lol_expect = {"c_list": LOLLIPOP_C}
    bar_expect = {"c_list": BARBELL_C}
    tree_expect = {"cops": 1, "ct": depth}  # a tree's capture time is its radius
    if scale == "full":
        lol_expect.update(recorded=RECORDED["sweep:lollipop"], f_min_c=0.41)
        bar_expect.update(recorded=RECORDED["sweep:barbell"])
        tree_expect.update(dct=RECORDED["cod:tree"])
    cmds = [
        Command("sweep", ["sweep", "--family", "lollipop", "--n", str(n_lol),
                          "--c-list", ",".join(map(str, LOLLIPOP_C))], check_sweep, lol_expect),
        Command("sweep", ["sweep", "--family", "barbell", "--n", str(n_bar),
                          "--c-list", ",".join(map(str, BARBELL_C))], check_sweep, bar_expect),
        Command("cod", ["cod", "--family", "tree", "--d", "2", "--depth", str(depth), "--json"],
                check_cod, tree_expect),
    ]
    n = s["random_n"]
    for i in range(3):
        edges = inputs.asymmetric_cop2_graph(rng, n, RANDOM_FACES)
        graph = os.path.join(work, f"random{i}.edges")
        inputs.write_edge_list(graph, n, edges, inputs.permutation(rng, n))
        cmds.append(Command("cod", ["cod", "--file", graph, "--json"], check_cod, {"cops": 2}))
    return cmds


_COMMAND_LISTS = {"exact-large": exact_large, "strategy-sim": strategy_sim, "family-sweep": family_sweep}


def build(workload: str, seed: int, work: str, scale: str = "full") -> list[Command]:
    """The workload's command list, writing its input files under `work`."""
    os.makedirs(work, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _COMMAND_LISTS[workload](SIZES[scale], scale, rng, work)
