"""Robber random-walk machinery: transition matrices over the state space
augmented with an absorbing capture state, distribution evolution, and
evaluation of open-loop (fixed) cop strategies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .graphs import Graph, _bfs_distances

MASS_TOL = 1e-12
MAX_ROUND_CAP = 10**6


class StrategyError(ValueError):
    """Invalid cop strategy (bad configuration or illegal move)."""


class NonterminatingStrategyError(RuntimeError):
    """Fixed strategy left uncaptured mass after the round budget.

    Carries the partial expectation accumulated so far and the residual
    uncaptured probability mass.
    """

    def __init__(self, partial_sum: float, residual: float, rounds: int):
        super().__init__(
            f"strategy left residual mass {residual:.3g} after {rounds} rounds "
            f"(partial expected time {partial_sum:.6g})"
        )
        self.partial_sum = partial_sum
        self.residual = residual
        self.rounds = rounds


def as_config(x) -> tuple[int, ...]:
    """Canonical cop configuration: a sorted (nondecreasing) tuple."""
    if isinstance(x, (int, np.integer)):
        return (int(x),)
    cfg = tuple(sorted(int(v) for v in x))
    if not cfg:
        raise StrategyError("empty cop configuration")
    return cfg


def _check_config(g: Graph, cfg: tuple[int, ...]) -> None:
    for v in cfg:
        if not 0 <= v < g.n:
            raise StrategyError(f"cop vertex {v} out of range for n={g.n}")


# ---------------------------------------------------------------------------
# Transition matrices on V + {capture}; index n is the absorbing capture state
# ---------------------------------------------------------------------------


def base_transition(g: Graph) -> np.ndarray:
    """Robber's cop-free random walk on the augmented state space.

    Rows 0..n-1 are uniform over open neighborhoods; row n is the absorbing
    capture state. Requires n >= 2 so that every vertex has a neighbor.
    """
    n = g.n
    if n < 2:
        raise ValueError("base_transition requires n >= 2: the robber must move")
    flat, _, deg = g._neighbor_table(closed=False)
    mat = np.zeros((n + 1, n + 1))
    mat[np.repeat(np.arange(n), deg), flat] = np.repeat(1.0 / deg, deg)
    mat[n, n] = 1.0
    return mat


def cop_modified_transition(g: Graph, config) -> np.ndarray:
    """Robber walk with cops placed at `config`.

    Capture redirects: a robber sitting on a cop vertex is sent to the
    capture state (the cop just moved onto him), and any step into a cop
    vertex is redirected to the capture state.
    """
    cfg = as_config(config)
    _check_config(g, cfg)
    n = g.n
    mat = base_transition(g)
    occupied = sorted(set(cfg))
    for x in occupied:
        mat[:n, n] += mat[:n, x]
        mat[:n, x] = 0.0
        mat[x, :] = 0.0
        mat[x, n] = 1.0
    return mat


def placement_matrix(g: Graph, config) -> np.ndarray:
    """Placement-round matrix: identity except cop-vertex rows go to capture."""
    cfg = as_config(config)
    _check_config(g, cfg)
    n = g.n
    mat = np.eye(n + 1)
    for x in set(cfg):
        mat[x, x] = 0.0
        mat[x, n] = 1.0
    return mat


def uniform_placement(n: int) -> np.ndarray:
    """Initial robber distribution: uniform over vertices, nothing captured."""
    pi = np.full(n + 1, 1.0 / n)
    pi[n] = 0.0
    return pi


def evolve(pi: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """One step of distribution evolution: row vector times matrix."""
    pi = np.asarray(pi, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    if pi.ndim != 1 or matrix.shape != (pi.size, pi.size):
        raise ValueError(
            f"dimension mismatch: pi has size {pi.size}, matrix shape {matrix.shape}"
        )
    if np.any(pi < 0) or abs(pi.sum() - 1.0) > MASS_TOL:
        raise ValueError("pi is not a probability vector")
    return pi @ matrix


# ---------------------------------------------------------------------------
# Fixed (open-loop) strategies
# ---------------------------------------------------------------------------


class FixedStrategy:
    """Ordered list of cop configurations (x_0, x_1, ..., x_s).

    Configurations are canonicalized to sorted tuples; all must have the
    same cop count. Rounds beyond the last configuration hold it.
    """

    __slots__ = ("configs",)

    def __init__(self, configs: Iterable):
        cfgs = tuple(as_config(c) for c in configs)
        if not cfgs:
            raise StrategyError("strategy must contain at least one configuration")
        k = len(cfgs[0])
        if any(len(c) != k for c in cfgs):
            raise StrategyError("all configurations must use the same cop count")
        self.configs = cfgs

    @property
    def k(self) -> int:
        return len(self.configs[0])

    def __len__(self) -> int:
        return len(self.configs)

    def config_at(self, t: int) -> tuple[int, ...]:
        """Configuration for round t; the final one is held afterwards."""
        return self.configs[min(t, len(self.configs) - 1)]

    def __eq__(self, other) -> bool:
        return isinstance(other, FixedStrategy) and self.configs == other.configs

    def __repr__(self) -> str:
        return f"FixedStrategy({list(self.configs)!r})"


def _cops_can_move(g: Graph, src: tuple[int, ...], dst: tuple[int, ...]) -> bool:
    # Sorted tuples hide cop identities: legal iff some perfect matching
    # pairs each source cop with a destination inside its closed neighborhood.
    k = len(src)
    allowed = [
        [j for j, d in enumerate(dst) if d == s or d in g.adjacency[s]]
        for s in src
    ]
    match: list[int] = [-1] * k

    def assign(i: int, used: set[int]) -> bool:
        for j in allowed[i]:
            if j in used or match[j] == i:
                continue
            if match[j] < 0 or assign(match[j], used | {j}):
                match[j] = i
                return True
        return False

    for i in range(k):
        if not assign(i, set()):
            return False
    return True


def validate_strategy(g: Graph, strategy: FixedStrategy) -> None:
    """Check vertex ranges and per-cop move legality of consecutive rounds."""
    for cfg in strategy.configs:
        _check_config(g, cfg)
    for src, dst in zip(strategy.configs, strategy.configs[1:]):
        if not _cops_can_move(g, src, dst):
            raise StrategyError(f"illegal cop move {src} -> {dst}")


def default_round_cap(g: Graph) -> int:
    """Round budget 10 * D * max_degree**D, capped at 10**6."""
    return _round_cap(g, 10)


def _round_cap(g: Graph, multiplier: int) -> int:
    """multiplier * D * max_degree**D, capped at MAX_ROUND_CAP, in exact integers.
    The formula grows with D, so the eccentricities (each at most D) are
    taken one BFS at a time only until one saturates the cap."""
    max_degree = max(map(len, g.adjacency))
    d = 0
    for v in range(g.n):
        d = max(d, max(_bfs_distances(g, v)))
        if multiplier * d * max_degree**d >= MAX_ROUND_CAP:
            break
    return min(multiplier * d * max_degree**d, MAX_ROUND_CAP) if d else 1


@dataclass
class CaptureDistribution:
    """Per-round capture masses (q_0, q_1, ...) for a fixed strategy."""

    masses: list[float]
    residual: float
    terminated: bool

    @property
    def rounds(self) -> int:
        return len(self.masses) - 1

    def cumulative(self) -> list[float]:
        out, total = [], 0.0
        for q in self.masses:
            total += q
            out.append(total)
        return out

    def expected_time(self) -> float:
        return float(sum(t * q for t, q in enumerate(self.masses)))

    def to_csv(self, sink: TextIO) -> None:
        sink.write("t,q_t,cumulative\n")
        total = 0.0
        for t, q in enumerate(self.masses):
            total += q
            sink.write(f"{t},{q!r},{total!r}\n")


def fixed_strategy_capture_distribution(
    g: Graph, strategy: FixedStrategy, max_rounds: int | None = None
) -> CaptureDistribution:
    """Exact capture-time distribution of the drunk robber against `strategy`.

    The robber is placed uniformly at random; q_0 is the placement capture
    mass and q_t the mass captured exactly at round t. If the strategy is
    shorter than the capture horizon its last configuration is held, up to
    `max_rounds` rounds in total.
    """
    validate_strategy(g, strategy)
    if max_rounds is None:
        max_rounds = default_round_cap(g)
    n = g.n
    flat, _, deg = g._neighbor_table(closed=False)
    # on one vertex there is no step, and placement captures all the mass
    step = 1.0 / np.maximum(deg, 1)
    pi = np.full(n, 1.0 / n)  # uncaptured robber mass on each vertex
    masses = [_capture(pi, strategy.configs[0])]
    captured = masses[0]
    t = 0
    while 1.0 - captured > MASS_TOL and t < max_rounds:
        t += 1
        cops = strategy.config_at(t)
        mass = _capture(pi, cops)  # the cops step onto the robber
        pi = np.bincount(flat, np.repeat(pi * step, deg), n)
        mass += _capture(pi, cops)  # the robber steps onto a cop
        masses.append(mass)
        captured += mass
    residual = max(0.0, 1.0 - captured)
    return CaptureDistribution(
        masses=masses, residual=residual, terminated=residual <= MASS_TOL
    )


def _capture(pi: np.ndarray, config: tuple[int, ...]) -> float:
    """Remove and return the robber mass on the cop vertices of `config`."""
    cops = sorted(set(config))
    mass = float(pi[cops].sum())
    pi[cops] = 0.0
    return mass


def fixed_strategy_expected_time(
    g: Graph, strategy: FixedStrategy, max_rounds: int | None = None
) -> float:
    """Expected capture time sum(t * q_t) of the drunk robber; exact when the
    capture distribution terminates, otherwise raises with the partial sum."""
    dist = fixed_strategy_capture_distribution(g, strategy, max_rounds)
    value = dist.expected_time()
    if not dist.terminated:
        raise NonterminatingStrategyError(value, dist.residual, dist.rounds)
    return value


def adversarial_survival_time(g: Graph, strategy: FixedStrategy) -> float:
    """Worst-case survival of an omniscient invisible robber against a
    deterministic fixed strategy.

    Dynamic program over the mask of positions the robber can still occupy;
    the robber moves along edges or stays. Returns the first round at which
    the mask empties, or math.inf when the trace cycles without emptying.
    """
    validate_strategy(g, strategy)
    flat, _, size = g._neighbor_table(closed=True)
    alive = np.ones(g.n, dtype=bool)
    alive[list(strategy.configs[0])] = False
    if not alive.any():
        return 0
    last = len(strategy.configs) - 1
    seen: set[bytes] = set()
    t = 0
    while True:
        t += 1
        cops = list(strategy.config_at(t))
        alive[cops] = False
        alive = np.bincount(flat, np.repeat(alive, size), g.n) > 0
        alive[cops] = False
        if not alive.any():
            return t
        if t >= last:
            # strategy exhausted: dynamics are autonomous, so a repeated
            # mask means the robber survives forever
            if alive.tobytes() in seen:
                return math.inf
            seen.add(alive.tobytes())


# ---------------------------------------------------------------------------
# Strategy file format: one configuration per line, k space-separated
# vertex indices; round t on line t+1.
# ---------------------------------------------------------------------------


def read_strategy(source: str | TextIO) -> FixedStrategy:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_strategy(fh)
    configs = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        try:
            configs.append(tuple(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise StrategyError(f"bad strategy line {line!r}") from exc
    return FixedStrategy(configs)


def write_strategy(strategy: FixedStrategy, sink: str | TextIO) -> None:
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as fh:
            write_strategy(strategy, fh)
        return
    for cfg in strategy.configs:
        sink.write(" ".join(str(v) for v in cfg) + "\n")
