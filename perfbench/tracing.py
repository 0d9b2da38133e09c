"""Span recording around the public functions of the program's layers, and
the per-layer metrics computed from the spans of one traced pass.

`Tracer.installed()` replaces each traced function by a recording wrapper
in every module that has bound the name (so `cli` calling
`solve_drunk` and `solver` calling its own `solve_adversarial` are both
seen), and puts the originals back on exit. Spans stay in memory.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

MODULES = ("copchase", "copchase.cli", "copchase.graphs", "copchase.solver",
           "copchase.chain", "copchase.montecarlo")

# (layer, defining module, function name); FamilySpec.build is a method.
TRACED = [
    ("graphs", "copchase.graphs", "FamilySpec.build"),
    ("graphs", "copchase.graphs", "read_edge_list"),
    ("graphs", "copchase.graphs", "validate"),
    ("solver", "copchase.solver", "solve_adversarial"),
    ("solver", "copchase.solver", "solve_drunk"),
    ("solver", "copchase.solver", "cop_number"),
    ("solver", "copchase.solver", "drunkenness_report"),
    ("chain", "copchase.chain", "read_strategy"),
    ("chain", "copchase.chain", "fixed_strategy_capture_distribution"),
    ("chain", "copchase.chain", "adversarial_survival_time"),
    ("montecarlo", "copchase.montecarlo", "simulate_drunk_pursuit"),
    ("montecarlo", "copchase.montecarlo", "simulate_random_cops"),
    ("montecarlo", "copchase.montecarlo", "walk_deviation_check"),
]
LAYERS = ("cli", "graphs", "solver", "chain", "montecarlo")


@dataclass
class Span:
    name: str
    command: int
    parent: int | None
    start: float
    end: float = math.nan
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _states(n: int, k: int) -> int:
    return math.comb(n + k - 1, k) * n


def _count_adversarial(a: dict, sol) -> dict:
    g, k = a["g"], a["k"]
    arrays = (sol.cop_values.values, sol.robber_values.values,
              sol.cop_policy.successor_idx, sol.robber_policy.target)
    return {"sweeps": sol.sweeps, "states": _states(g.n, k), "n": g.n, "k": k,
            "table_bytes": sum(x.nbytes for x in arrays), "instance": (g, k)}


def _count_drunk(a: dict, sol) -> dict:
    g, k = a["g"], a["k"]
    return {"sweeps": sol.stats.sweeps, "scheme": sol.scheme, "n": g.n, "k": k,
            "states": _states(g.n, k) if g.n > 1 else 1,
            "table_bytes": sol.values.values.nbytes + sol.policy.successor_idx.nbytes}


def _trial_rounds(a: dict, report) -> dict:
    return {"trial_rounds": sum(t * h for t, h in enumerate(report.histogram))}


COUNTERS = {
    "solver.solve_adversarial": _count_adversarial,
    "solver.solve_drunk": _count_drunk,
    "chain.fixed_strategy_capture_distribution": lambda a, d: {"rounds": d.rounds},
    "montecarlo.simulate_drunk_pursuit": _trial_rounds,
    "montecarlo.simulate_random_cops": _trial_rounds,
    "montecarlo.walk_deviation_check": lambda a, r: {"steps": a["n"] * a["trials"]},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.command = -1

    @contextlib.contextmanager
    def _recording(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.command, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def span(self, name: str, fn, args, kwargs):
        with self._recording(name) as span:
            result = fn(*args, **kwargs)
        counter = COUNTERS.get(name)
        if counter is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = counter(bound.arguments, result)
        return result

    @contextlib.contextmanager
    def cli_command(self, index: int):
        """Root span of one CLI command."""
        self.command = index
        with self._recording("cli.main") as span:
            yield span

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []  # (owner, attribute, original)
        try:
            for layer, module, qualname in TRACED:
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:  # a method: patch the class once
                    owner = getattr(sys.modules[module], owner_name)
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(f"{layer}.{qualname}", original))
                    continue
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for caller in MODULES:
                    mod = sys.modules[caller]
                    if getattr(mod, attr, None) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], failed_commands: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass. Times are self times summed
    over spans; counts come from the traced functions' return values."""
    own = _self_times(spans)
    by_name = defaultdict(list)
    for s, t in zip(spans, own):
        by_name[s.name].append((s, t))

    def total(*names):
        return sum(t for name in names for _, t in by_name[name])

    def calls(name):
        return len(by_name[name])

    def counted(name, key):
        return sum(s.counts.get(key, 0) for s, _ in by_name[name])

    m = {}
    m["cli.self_s"] = total("cli.main")
    m["graphs.build_s"] = total("graphs.FamilySpec.build", "graphs.read_edge_list")
    m["graphs.validate_s"] = total("graphs.validate")
    m["graphs.validate_calls"] = calls("graphs.validate")

    adv = "solver.solve_adversarial"
    drunk = "solver.solve_drunk"
    gs = [(s, t) for s, t in by_name[drunk] if s.counts.get("scheme") == "gauss-seidel"]
    jac = [(s, t) for s, t in by_name[drunk] if s.counts.get("scheme") == "jacobi"]
    m["solver.adversarial_s"] = total(adv)
    m["solver.adversarial_calls"] = calls(adv)
    m["solver.adversarial_sweeps"] = counted(adv, "sweeps")
    # distinct (graph, k) instances solved per command, over calls made
    distinct = defaultdict(set)
    for s, _ in by_name[adv]:
        if "instance" in s.counts:
            distinct[s.command].add(s.counts["instance"])
    useful = sum(len(v) for v in distinct.values())
    m["solver.adversarial_useful_ratio"] = _rate(useful, calls(adv))
    m["solver.drunk_gs_s"] = sum(t for _, t in gs)
    m["solver.drunk_gs_sweeps"] = sum(s.counts["sweeps"] for s, _ in gs)
    m["solver.drunk_jacobi_s"] = sum(t for _, t in jac)
    m["solver.drunk_jacobi_sweeps"] = sum(s.counts["sweeps"] for s, _ in jac)
    solves = [s for name in (adv, drunk) for s, _ in by_name[name] if s.counts]
    m["solver.states"] = sum(s.counts["states"] for s in solves)
    m["solver.state_updates"] = sum(s.counts["states"] * s.counts["sweeps"] for s in solves)
    m["solver.state_updates_per_s"] = _rate(
        m["solver.state_updates"],
        m["solver.adversarial_s"] + m["solver.drunk_gs_s"] + m["solver.drunk_jacobi_s"])
    m["solver.table_bytes"] = max((s.counts["table_bytes"] for s in solves), default=0)

    dist = "chain.fixed_strategy_capture_distribution"
    m["chain.distribution_s"] = total(dist)
    m["chain.distribution_rounds"] = counted(dist, "rounds")
    m["chain.s_per_round"] = _rate(m["chain.distribution_s"], m["chain.distribution_rounds"])
    m["chain.survival_s"] = total("chain.adversarial_survival_time")

    mc_drunk, mc_cops, mc_walk = ("montecarlo.simulate_drunk_pursuit",
                                  "montecarlo.simulate_random_cops",
                                  "montecarlo.walk_deviation_check")
    m["montecarlo.drunk_s"] = total(mc_drunk)
    m["montecarlo.drunk_trial_rounds"] = counted(mc_drunk, "trial_rounds")
    m["montecarlo.drunk_trial_rounds_per_s"] = _rate(m["montecarlo.drunk_trial_rounds"],
                                                     m["montecarlo.drunk_s"])
    m["montecarlo.random_cops_s"] = total(mc_cops)
    m["montecarlo.random_cops_trial_rounds"] = counted(mc_cops, "trial_rounds")
    m["montecarlo.walk_s"] = total(mc_walk)
    m["montecarlo.walk_steps_per_s"] = _rate(counted(mc_walk, "steps"), m["montecarlo.walk_s"])

    # an exception is charged to the layer of the innermost span it left
    errored_children = {s.parent for s in spans if s.error and s.parent is not None}
    for layer in LAYERS:
        m[f"{layer}.errors"] = 0
    for i, s in enumerate(spans):
        if s.error and i not in errored_children and s.layer != "cli":
            m[f"{s.layer}.errors"] += 1
    m["cli.errors"] = failed_commands
    return m


UNITS = {
    "self_s": "s", "build_s": "s", "validate_s": "s", "adversarial_s": "s",
    "drunk_gs_s": "s", "drunk_jacobi_s": "s", "distribution_s": "s", "survival_s": "s",
    "drunk_s": "s", "random_cops_s": "s", "walk_s": "s", "s_per_round": "s",
    "adversarial_useful_ratio": "ratio", "table_bytes": "B",
    "state_updates_per_s": "1/s", "drunk_trial_rounds_per_s": "1/s", "walk_steps_per_s": "1/s",
}


def unit(name: str) -> str:
    return UNITS.get(name.split(".", 1)[1], "count")


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as plain dicts, without the graph objects kept for counting."""
    return [{"name": s.name, "command": s.command, "parent": s.parent,
             "start": s.start, "end": s.end, "error": s.error,
             "counts": {k: v for k, v in s.counts.items() if k != "instance"}}
            for s in spans]


def solve_table(spans: list[Span], labels: list[str]) -> list[dict]:
    """One row per solve: the command it ran in, the instance, sweeps."""
    rows = []
    for s in spans:
        if s.name in ("solver.solve_adversarial", "solver.solve_drunk") and s.counts:
            rows.append({"command": labels[s.command],
                         "solve": s.counts.get("scheme", "adversarial"),
                         "n": s.counts["n"], "k": s.counts["k"],
                         "states": s.counts["states"], "sweeps": s.counts["sweeps"],
                         "seconds": s.end - s.start})
    return rows
