"""Seeded Monte Carlo oracles: drunk-robber pursuit under feedback or fixed
strategies, random-walking cop demos, and the simple-walk deviation check.

All randomness comes from counter-based Philox streams derived from the
master seed plus a (purpose, round) key, so reports are bit-reproducible
and independent of evaluation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .chain import FixedStrategy, _cops_can_move, _round_cap, validate_strategy
from .graphs import Graph, distance_matrix
from .solver import _occupancy
from .tables import FeedbackPolicy, _config_rank

RNG_NAME = "philox4x64"
_TAGS = {"placement": 0, "robber": 1, "cops": 2, "walk": 3, "evader": 4}
CENSOR_MULTIPLIER = 100

EVADER_HEURISTICS = ("max-distance-greedy", "uniform-random")


class SimulationError(RuntimeError):
    """Simulation aborted (undefined policy state or invalid inputs)."""


@dataclass(frozen=True)
class SeedSpec:
    """Master seed for a simulation; all streams derive from it.

    `stream(purpose, step)` yields the Philox generator for one purpose
    ("placement", "robber", "cops", "evader", "walk") and round index, so
    any draw is a pure function of (master, purpose, step).
    """

    master: int

    def stream(self, purpose: str, step: int) -> np.random.Generator:
        key = np.random.SeedSequence(
            entropy=self.master, spawn_key=(_TAGS[purpose], step)
        )
        return np.random.Generator(np.random.Philox(key))


def _as_seed(seed) -> SeedSpec:
    return seed if isinstance(seed, SeedSpec) else SeedSpec(int(seed))


@dataclass
class SimReport:
    trials: int
    mean: float
    stderr: float
    max_observed: int
    censored: int
    histogram: list[int]
    seed: int
    rng: str = RNG_NAME

    def to_dict(self) -> dict:
        """The report as JSON types; `mean` and `stderr` are None when every
        trial was censored."""
        return {
            "trials": self.trials,
            "mean": None if math.isnan(self.mean) else self.mean,
            "stderr": None if math.isnan(self.stderr) else self.stderr,
            "max": self.max_observed,
            "censored": self.censored,
            "histogram": self.histogram,
            "seed": self.seed,
            "rng": self.rng,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False)


def _report(T: np.ndarray, seed: int) -> SimReport:
    captured = T[T >= 0]
    censored = int((T < 0).sum())
    if captured.size == 0:
        return SimReport(len(T), math.nan, math.nan, 0, censored, [], seed)
    mean = float(captured.mean())
    if captured.size > 1:
        stderr = float(captured.std(ddof=1) / math.sqrt(captured.size))
    else:
        stderr = 0.0
    hist = np.bincount(captured).tolist()
    return SimReport(
        trials=len(T),
        mean=mean,
        stderr=stderr,
        max_observed=int(captured.max()),
        censored=censored,
        histogram=hist,
        seed=seed,
    )


def _check_robber_steps(g: Graph, before: np.ndarray, after: np.ndarray) -> None:
    for a, b in {(int(a), int(b)) for a, b in zip(before, after)}:
        if b not in g.adjacency[a]:
            raise SimulationError(f"robber stepped {a} -> {b} outside N({a})")


def _check_config_moves(g: Graph, configs, src_idx: np.ndarray, dst_idx: np.ndarray) -> None:
    for a, b in {(int(a), int(b)) for a, b in zip(src_idx, dst_idx)}:
        if not _cops_can_move(g, configs[a], configs[b]):
            raise SimulationError(f"illegal cop move {configs[a]} -> {configs[b]}")


def _pursue(caught: np.ndarray, max_rounds: int, master: int, cop_step, robber_step) -> SimReport:
    """Play rounds 1, 2, ..., max_rounds of the trials not `caught` at
    placement, and report their capture times; trials still running after
    max_rounds are censored. Each round calls cop_step(t, alive) and then,
    if any trial is left, robber_step(t, alive): a step moves the running
    trials `alive` and returns a mask of the ones it caught."""
    T = np.full(len(caught), -1, dtype=np.int64)
    T[caught] = 0
    alive = np.nonzero(~caught)[0]
    t = 0
    while alive.size and t < max_rounds:
        t += 1
        for step in (cop_step, robber_step):
            caught = step(t, alive)
            T[alive[caught]] = t
            alive = alive[~caught]
            if not alive.size:
                break
    return _report(T, master)


def simulate_drunk_pursuit(
    g: Graph,
    policy: FeedbackPolicy | FixedStrategy,
    trials: int,
    seed: int,
    start=None,
    max_rounds: int | None = None,
    validate_moves: bool = False,
) -> SimReport:
    """Simulate the drunk robber against a feedback policy or fixed strategy.

    Each trial places the robber uniformly (capture at T=0 when colocated),
    then alternates cop move / capture check / robber random step / capture
    check. Trials still running at `max_rounds` are censored. With
    `validate_moves`, an illegal cop or robber move raises SimulationError.
    """
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    seed = _as_seed(seed)
    if max_rounds is None:
        max_rounds = _round_cap(g, CENSOR_MULTIPLIER)
    n = g.n
    if isinstance(policy, FixedStrategy):
        validate_strategy(g, policy)
        occ = _occupancy(policy.configs[:1], n)[0]  # one row, rebuilt each round

        def move_cops(t, alive, ya):
            nonlocal occ
            occ = _occupancy([policy.config_at(t)], n)[0]
            return occ[ya]

        def occupied_at(alive, vertices):
            return occ[vertices]
    else:
        if start is None:
            raise SimulationError("feedback policies need an initial configuration")
        succ_idx = policy.successor_idx
        occupied = _occupancy(policy.configs, n)
        try:
            start_idx = _config_rank(n, policy.k, start)
        except (KeyError, ValueError) as exc:
            raise SimulationError(f"unknown start configuration {start!r}") from exc
        cfg = np.full(trials, start_idx, dtype=np.int64)

        def move_cops(t, alive, ya):
            nxt = succ_idx[cfg[alive], ya]
            if np.any(nxt < 0):
                bad = alive[np.nonzero(nxt < 0)[0][0]]
                state = (policy.configs[cfg[bad]], int(y[bad]))
                raise SimulationError(f"policy undefined at state {state}")
            if validate_moves:
                _check_config_moves(g, policy.configs, cfg[alive], nxt)
            cfg[alive] = nxt
            return occupied[nxt, ya]

        def occupied_at(alive, vertices):
            return occupied[cfg[alive], vertices]

    nbrs, deg = g._neighbor_table(closed=False)
    y = seed.stream("placement", 0).integers(0, n, size=trials)
    u = np.empty(trials)
    stepped = None  # outlives each call, or malloc trims and refaults the heap every round

    def cop_step(t, alive):
        # the round's full draw, whichever trials still run: the stream contract
        seed.stream("robber", t).random(out=u)
        return move_cops(t, alive, y[alive])

    def robber_step(t, alive):
        nonlocal stepped
        ya = y[alive]
        stepped = nbrs[ya, (u[alive] * deg[ya]).astype(np.int64)]
        if validate_moves:
            _check_robber_steps(g, ya, stepped)
        y[alive] = stepped
        return occupied_at(alive, stepped)

    return _pursue(occupied_at(np.arange(trials), y), max_rounds, seed.master,
                   cop_step, robber_step)


def simulate_random_cops(
    g: Graph,
    k: int,
    evader: str,
    trials: int,
    seed: int,
    max_rounds: int | None = None,
    start=None,
) -> SimReport:
    """Cops take independent uniform closed-neighborhood steps; the evader
    follows a heuristic. A finiteness demo, not an optimal-adversary oracle.

    Evaders: "max-distance-greedy" starts at and moves to (within N+) the
    vertex maximizing distance to the nearest cop, ties to the lowest index;
    "uniform-random" starts uniformly and steps uniformly over N+.
    """
    if evader not in EVADER_HEURISTICS:
        raise SimulationError(f"evader must be one of {EVADER_HEURISTICS}")
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    if k < 1:
        raise SimulationError("need at least one cop")
    seed = _as_seed(seed)
    if max_rounds is None:
        max_rounds = _round_cap(g, CENSOR_MULTIPLIER)
    n = g.n

    nbrs, deg = g._neighbor_table(closed=True)

    place = seed.stream("placement", 0)
    if start is None:
        cops = place.integers(0, n, size=(trials, k))
    else:
        cfg = tuple(sorted(start))
        if len(cfg) != k:
            raise SimulationError(f"start {start!r} does not place {k} cops")
        if cfg[0] < 0 or cfg[-1] >= n:  # a negative vertex would wrap around
            raise SimulationError(f"start {start!r} places a cop off the graph's {n} vertices")
        cops = np.tile(np.array(cfg, dtype=np.int64), (trials, 1))

    if evader == "uniform-random":
        y = seed.stream("evader", 0).integers(0, n, size=trials)
    else:
        dmat = np.array(distance_matrix(g), dtype=np.int64)

        def nearest_cop_dist(vertices: np.ndarray, cop_pos: np.ndarray) -> np.ndarray:
            # vertices (..., ) indexes rows of dmat; cop_pos (..., k)
            best = dmat[vertices, cop_pos[..., 0]]
            for j in range(1, k):
                np.minimum(best, dmat[vertices, cop_pos[..., j]], out=best)
            return best

        # the vertex farthest from the nearest starting cop, per trial
        y = nearest_cop_dist(np.arange(n)[:, None], cops[None]).argmax(axis=0)

    moved = None  # outlives each call, as `stepped` does in simulate_drunk_pursuit

    def cop_step(t, alive):
        nonlocal moved
        ucops = seed.stream("cops", t).random((trials, k))[alive]
        moved = nbrs[cops[alive], (ucops * deg[cops[alive]]).astype(np.int64)]
        cops[alive] = moved
        return (moved == y[alive, None]).any(axis=1)

    def robber_step(t, alive):
        ya = y[alive]
        if evader == "uniform-random":
            u = seed.stream("evader", t).random(trials)[alive]
            stepped = nbrs[ya, (u * deg[ya]).astype(np.int64)]
        else:
            cand = nbrs[ya]  # (a, width)
            dist = nearest_cop_dist(cand, cops[alive][:, None, :])
            stepped = cand[np.arange(len(ya)), dist.argmax(axis=1)]
        y[alive] = stepped
        return (cops[alive] == stepped[:, None]).any(axis=1)

    return _pursue((cops == y[:, None]).any(axis=1), max_rounds, seed.master,
                   cop_step, robber_step)


# Steps drawn per random block (this fixes the stream of each trial) and
# steps summed per slice of a block.
_WALK_CHUNK_STEPS = 8_000_000
_WALK_SLICE_STEPS = 1_000_000


def walk_deviation_check(n: int, c: float, trials: int, seed: int) -> float:
    """Fraction of n-step +/-1 walks leaving [-c*sqrt(n ln n), c*sqrt(n ln n)]
    at any time."""
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be >= 1")
    if not c > 2:
        raise ValueError(f"the deviation bound needs c > 2, got {c}")
    seed = _as_seed(seed)
    # |position| is an integer, so it exceeds the threshold iff it exceeds
    # the threshold's floor
    limit = math.floor(c * math.sqrt(n * math.log(n)))
    chunk = max(1, min(trials, _WALK_CHUNK_STEPS // n))
    rows = max(1, _WALK_SLICE_STEPS // n)
    exceeded = 0
    done = 0
    block = 0
    while done < trials:
        size = min(chunk, trials - done)
        g = seed.stream("walk", block)
        steps = g.integers(0, 2, size=(size, n), dtype=np.int8)
        steps *= 2
        steps -= 1
        # positions in int32 over slices of rows, not int64 over the chunk
        for lo in range(0, size, rows):
            positions = np.cumsum(steps[lo: lo + rows], axis=1, dtype=np.int32)
            np.abs(positions, out=positions)
            exceeded += int((positions > limit).any(axis=1).sum())
        done += size
        block += 1
    return exceeded / trials
