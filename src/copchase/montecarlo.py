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

from . import philox
from .chain import FixedStrategy, _cops_can_move, _round_cap, validate_strategy
from .graphs import Graph, _bfs_distances, _padded_flat
from .tables import FeedbackPolicy, _config_rank

RNG_NAME = "philox4x64"
_TAGS = {"placement": 0, "robber": 1, "cops": 2, "walk": 3, "evader": 4}
CENSOR_MULTIPLIER = 100

EVADER_HEURISTICS = ("max-distance-greedy", "uniform-random")


# Trials per piece of a round: a round draws its numbers and steps its
# running trials one piece at a time, so its temporaries do not grow with the
# trial count. A step casts a piece's int32 vertices to intp before it
# gathers with them, as numpy gathers by int32 indices at half the speed.
_PIECE_TRIALS = 1 << 16
# Budget for the per-trial state of one simulation (see trial_bytes).
MAX_TRIAL_BYTES = 1 << 30


class SimulationError(RuntimeError):
    """Simulation aborted (undefined policy state or invalid inputs)."""


class TrialBudgetError(SimulationError):
    """The per-trial state of a simulation would exceed MAX_TRIAL_BYTES."""


def trial_bytes(cop_columns: int) -> int:
    """Bytes a simulation holds per trial: an int64 capture time; an int64
    index, an int32 robber vertex and `cop_columns` int32 arrays (one per
    cop of a random-cops trial, a feedback policy's configuration, none
    under a fixed strategy) per running trial, twice over while they are
    compacted; and two one-byte masks. Every array is one-dimensional, so
    numpy compacts each by its mask alone."""
    return 8 + 2 * (8 + 4 * (1 + cop_columns)) + 2


def check_trials(trials: int, cop_columns: int, tables: tuple = ()) -> None:
    """SimulationError unless 1 <= trials, and TrialBudgetError if their
    state and the (bytes, name) `tables` would exceed MAX_TRIAL_BYTES;
    raised before anything is allocated."""
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    need = trials * trial_bytes(cop_columns)
    if need + sum(size for size, _ in tables) > MAX_TRIAL_BYTES:
        held = "".join(f" and a {size}-byte {name}" for size, name in tables)
        raise TrialBudgetError(f"{trials} trials need {need} bytes of trial state{held}, "
                               f"over the budget of {MAX_TRIAL_BYTES}")


def distance_table(g: Graph) -> np.ndarray:
    """All-pairs distances, an (n, n) int32 table filled one BFS row at a time."""
    dmat = np.empty((g.n, g.n), dtype=np.int32)
    for v in range(g.n):
        dmat[v] = _bfs_distances(g, v)
    return dmat


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


def _occupancy(configs, n: int) -> np.ndarray:
    """(len(configs), n) mask of the vertices each configuration occupies."""
    occupied = np.zeros((len(configs), n), dtype=bool)
    np.put_along_axis(occupied, np.array(configs), True, axis=1)
    return occupied


def _spans(size: int, width: int = 1):
    """Bounds (a, b) of consecutive pieces of range(size), each of at most a
    piece's worth of rows of `width` entries."""
    step = max(1, _PIECE_TRIALS // width)
    return ((a, min(a + step, size)) for a in range(0, size, step))


def _uniform_entries(rows: tuple, at: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Entry floor(u * size[v]) of each row v in `at` of `rows`, the (flat,
    first, size) of `Graph._neighbor_table`, for draws u in [0, 1). The int64
    index is written over u: a piece of k cops holds 3 x 8k bytes a trial, not 4."""
    flat, first, size = rows
    u *= size[at]
    idx = np.trunc(u, out=u.view(np.int64), casting="unsafe")
    idx += first[at]
    return flat[idx]


def _settle(T: np.ndarray, t: int, caught: np.ndarray, alive: np.ndarray,
            state: list) -> np.ndarray:
    """Give the caught running trials capture time t, compact alive and
    each state array to the trials still running, and return alive so
    compacted. Each array is compacted into the front of its own buffer, so
    rounds allocate no state arrays: the heap does not churn with them."""
    if caught.any():
        T[alive[caught]] = t
        keep = ~caught
        m = int(np.count_nonzero(keep))
        alive[:m] = alive[keep]
        alive = alive[:m]
        for i, s in enumerate(state):
            s[:m] = s[keep]
            state[i] = s[:m]
    return alive


def _pursue(caught: np.ndarray, state: list, max_rounds: int, master: int,
            cop_step, robber_step) -> SimReport:
    """Play rounds 1, 2, ..., max_rounds of the trials not `caught` at
    placement, and report their capture times; trials still running after
    max_rounds are censored. `state` lists the int32 per-trial arrays and
    holds their only references; `alive` holds the running trials' indices.
    Each round calls cop_step(t, alive, *state) and robber_step(t, alive,
    *state): a step moves the running trials in place and returns a mask of
    the ones it caught. The round then settles once: the trials either step
    caught get capture time t, and the state and `alive` are compacted to
    the trials still running. A trial the cops catch still takes its robber
    step, which reads only its own draws and cannot change its capture time."""
    T = np.full(len(caught), -1, dtype=np.int64)
    alive = _settle(T, 0, caught, np.arange(len(caught)), state)
    t = 0
    while alive.size and t < max_rounds:
        t += 1
        caught = cop_step(t, alive, *state)
        caught |= robber_step(t, alive, *state)
        alive = _settle(T, t, caught, alive, state)
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
    fixed = isinstance(policy, FixedStrategy)
    check_trials(trials, 0 if fixed else 1)
    seed = _as_seed(seed)
    if max_rounds is None:
        max_rounds = _round_cap(g, CENSOR_MULTIPLIER)
    n = g.n
    if fixed:
        validate_strategy(g, policy)
        occ = _occupancy(policy.configs[:1], n)[0]  # one row, rebuilt each round

        def cop_step(t, alive, y):
            nonlocal occ
            occ = _occupancy([policy.config_at(t)], n)[0]
            caught = np.empty(len(alive), dtype=bool)
            for a, b in _spans(len(alive)):
                caught[a:b] = occ[y[a:b].astype(np.intp)]
            return caught

        def occupied_at(vertices):
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

        def cop_step(t, alive, y, cfg):
            caught = np.empty(len(alive), dtype=bool)
            for a, b in _spans(len(alive)):
                ya = y[a:b].astype(np.intp)
                nxt = succ_idx[cfg[a:b], ya]
                if np.any(nxt < 0):
                    bad = a + np.nonzero(nxt < 0)[0][0]
                    where = (policy.configs[cfg[bad]], int(y[bad]))
                    raise SimulationError(f"policy undefined at state {where}")
                if validate_moves:
                    _check_config_moves(g, policy.configs, cfg[a:b], nxt)
                cfg[a:b] = nxt
                caught[a:b] = occupied[nxt, ya]
            return caught

        def occupied_at(vertices, cfg):
            return occupied[cfg, vertices]

    rows = g._neighbor_table(closed=False)
    buf = np.empty(min(trials, _PIECE_TRIALS))
    stepped = None  # outlives each call, or malloc trims and refaults the heap every round

    def robber_step(t, alive, y, *cfg):
        nonlocal stepped
        caught = np.empty(len(alive), dtype=bool)
        for a, b, u in philox.round_draws(seed.stream("robber", t), alive, buf):
            ya = y[a:b].astype(np.intp)
            stepped = _uniform_entries(rows, ya, u)  # u is this piece's own to overwrite
            if validate_moves:
                _check_robber_steps(g, ya, stepped)
            y[a:b] = stepped
            caught[a:b] = occupied_at(stepped, *(c[a:b] for c in cfg))
        return caught

    state = [seed.stream("placement", 0).integers(0, n, size=trials, dtype=np.int32)]
    if not fixed:
        state.append(np.full(trials, start_idx, dtype=np.int32))
    return _pursue(occupied_at(*state), state, max_rounds, seed.master, cop_step, robber_step)


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
    width = max(map(len, g.adjacency)) + 1  # of the greedy evader's padded candidate rows
    check_trials(trials, k, ((4 * g.n**2, "distance table"), (8 * g.n * width, "candidate table"))
                 if evader == "max-distance-greedy" else ())
    if k < 1:
        raise SimulationError("need at least one cop")
    seed = _as_seed(seed)
    if max_rounds is None:
        max_rounds = _round_cap(g, CENSOR_MULTIPLIER)
    n = g.n

    rows = g._neighbor_table(closed=True)

    place = seed.stream("placement", 0)
    if start is None:
        drawn = place.integers(0, n, size=(trials, k), dtype=np.int32)
        cops = [np.ascontiguousarray(column) for column in drawn.T]  # one array per cop
        del drawn
    else:
        cfg = tuple(sorted(start))
        if len(cfg) != k:
            raise SimulationError(f"start {start!r} does not place {k} cops")
        if cfg[0] < 0 or cfg[-1] >= n:  # a negative vertex would wrap around
            raise SimulationError(f"start {start!r} places a cop off the graph's {n} vertices")
        cops = [np.full(trials, v, dtype=np.int32) for v in cfg]

    def caught_by(cops, y) -> np.ndarray:
        caught = cops[0] == y
        for cop in cops[1:]:
            caught |= cop == y
        return caught

    if evader == "uniform-random":
        y = seed.stream("evader", 0).integers(0, n, size=trials, dtype=np.int32)
    else:
        dmat = distance_table(g)
        # closed rows of one width, for a first-hit argmax; a pad repeats its row's first entry
        candidates = _padded_flat(*rows)

        def nearest_cop_dist(vertices: np.ndarray, cops) -> np.ndarray:
            dist = dmat[vertices, cops[0]]
            for cop in cops[1:]:
                np.minimum(dist, dmat[vertices, cop], out=dist)
            return dist

        # the vertex farthest from the nearest starting cop, per trial, over
        # pieces of trials whose (n, piece) distance tables stay one piece big
        y = np.empty(trials, dtype=np.int32)
        for a, b in _spans(trials, n):
            dist = nearest_cop_dist(np.arange(n)[:, None], [c[None, a:b] for c in cops])
            y[a:b] = dist.argmax(axis=0)

    cop_buf = np.empty((min(trials, _PIECE_TRIALS), k))

    def cop_step(t, alive, *state):
        cops, y = state[:k], state[k]
        caught = np.zeros(len(alive), dtype=bool)
        for a, b, u in philox.round_draws(seed.stream("cops", t), alive, cop_buf):
            for i, cop in enumerate(cops):
                moved = _uniform_entries(rows, cop[a:b].astype(np.intp), u[:, i])
                cop[a:b] = moved
                caught[a:b] |= moved == y[a:b]
        return caught

    if evader == "uniform-random":
        buf = np.empty(min(trials, _PIECE_TRIALS))

        def move_robber(t, alive, cops, y):
            for a, b, u in philox.round_draws(seed.stream("evader", t), alive, buf):
                y[a:b] = _uniform_entries(rows, y[a:b].astype(np.intp), u)
                yield a, b
    else:
        def move_robber(t, alive, cops, y):
            for a, b in _spans(len(alive), width):
                cand = candidates[y[a:b]]  # (b - a, width)
                dist = nearest_cop_dist(cand, [c[a:b, None] for c in cops])
                y[a:b] = cand[np.arange(b - a), dist.argmax(axis=1)]
                yield a, b

    def robber_step(t, alive, *state):
        cops, y = state[:k], state[k]
        caught = np.empty(len(alive), dtype=bool)
        for a, b in move_robber(t, alive, cops, y):
            caught[a:b] = caught_by([c[a:b] for c in cops], y[a:b])
        return caught

    caught, state = caught_by(cops, y), [*cops, y]
    del cops, y  # `state` holds their only references, which compaction overwrites
    return _pursue(caught, state, max_rounds, seed.master, cop_step, robber_step)


# Steps drawn per random block (this fixes the stream of each trial) and
# steps drawn and summed per slice of a block (see `_walk_slices`).
_WALK_CHUNK_STEPS = 8_000_000
_WALK_SLICE_STEPS = 1 << 18


def _walk_slices(n: int, trials: int) -> tuple[int, int]:
    """Walks per random block and per slice: a slice holds a multiple of 8
    rows unless it is its block's only one (see `_walk_bits`)."""
    chunk = max(1, min(trials, _WALK_CHUNK_STEPS // n))
    return chunk, min(chunk, max(8, _WALK_SLICE_STEPS // n // 8 * 8))


def _walk_bits(seed: SeedSpec, n: int, trials: int):
    """Per slice of walks (see `_walk_slices`), block by block, the (walks,
    n) uint8 bits that `integers(0, 2, size=(walks in the block, n),
    dtype=np.int8)` would draw from the block's stream: that draw takes the
    bytes of the raw words, low byte first, and keeps each byte's top bit.
    Slices of a multiple of 8 steps read whole words, so the next slice's
    first step is the next word's low byte."""
    chunk, rows = _walk_slices(n, trials)
    for block, done in enumerate(range(0, trials, chunk)):
        size = min(chunk, trials - done)
        stream = seed.stream("walk", block).bit_generator
        for lo in range(0, size, rows):
            steps = min(rows, size - lo) * n
            raw = stream.random_raw(-(-steps // 8)).astype("<u8", copy=False).view(np.uint8)
            yield np.right_shift(raw[:steps], 7, out=raw[:steps]).reshape(-1, n)


def walk_deviation_check(n: int, c: float, trials: int, seed: int) -> float:
    """Fraction of n-step +/-1 walks leaving [-c*sqrt(n ln n), c*sqrt(n ln n)]
    at any time. TrialBudgetError if one slice of walks would exceed
    MAX_TRIAL_BYTES."""
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be >= 1")
    if not c > 2:
        raise ValueError(f"the deviation bound needs c > 2, got {c}")
    # |position| is an integer, so it exceeds the threshold iff it exceeds
    # the threshold's floor, and never exceeds n: a bound past n acts as n
    limit = math.floor(min(n, c * math.sqrt(n * math.log(n))))  # inf and nan too
    rows = _walk_slices(n, trials)[1]
    need = rows * n * 5  # a slice's int32 positions and the bytes of its raw words
    if need > MAX_TRIAL_BYTES:
        raise TrialBudgetError(f"{rows} walks of {n} steps need {need} bytes, "
                               f"over the budget of {MAX_TRIAL_BYTES}")
    positions = np.empty((rows, n), dtype=np.int32)  # every slice's buffer
    exceeded = 0
    for bits in _walk_bits(_as_seed(seed), n, trials):
        bits *= 2
        bits -= 1  # wraps 0 to 255: -1 as int8
        out = positions[:len(bits)]
        # in place in the buffer: a cumsum that widened int8 to int32 would
        # copy its input
        np.copyto(out, bits.view(np.int8))
        np.cumsum(out, axis=1, out=out)
        np.abs(out, out=out)
        exceeded += int((out.max(axis=1) > limit).sum())
    return exceeded / trials
