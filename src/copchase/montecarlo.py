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
    index, an int32 robber vertex and `cop_columns` int32 cop columns (the
    cops of a random-cops trial, a feedback policy's configuration, none
    under a fixed strategy) per running trial, twice over while they are
    compacted; two one-byte masks; and the int64 positions of the trials
    kept, through which numpy compacts the two-dimensional cop array."""
    return 8 + 2 * (8 + 4 * (1 + cop_columns)) + 2 + 8


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


def _drawn(gen: np.random.Generator, alive: np.ndarray, buf: np.ndarray):
    """The round's full-length draw of doubles from gen, one per trial (or
    one row of buf.shape[1] per trial), made one piece of len(buf) trials at
    a time into buf: yields (a, b, u) with u the draws of the running trials
    alive[a:b] of the piece. A Philox double is one 64-bit word, so pieces
    read the numbers that one trials-long draw would; draws past the last
    running trial are not made."""
    end = int(alive[-1]) + 1
    a = 0
    for lo in range(0, end, len(buf)):
        hi = min(lo + len(buf), end)
        u = buf[:hi - lo]
        gen.random(out=u)
        b = len(alive) if hi == end else int(alive.searchsorted(hi))
        if b > a:
            yield a, b, u[alive[a:b] - lo if lo else alive[a:b]]
        a = b


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
    """Give the caught running trials capture time t, compact the list of
    state arrays in place to the trials still running, and return alive
    compacted alike."""
    if caught.any():
        T[alive[caught]] = t
        keep = ~caught
        alive = alive[keep]
        state[:] = [s[keep] for s in state]
    return alive


def _pursue(caught: np.ndarray, state: list, max_rounds: int, master: int,
            cop_step, robber_step) -> SimReport:
    """Play rounds 1, 2, ..., max_rounds of the trials not `caught` at
    placement, and report their capture times; trials still running after
    max_rounds are censored. `state` lists the int32 per-trial arrays (first
    axis the trials) and holds their only references; after every step
    that catches a trial, they and `alive`, the running trials' indices, are
    compacted to the trials still running. Each round calls
    cop_step(t, alive, *state) and then, if any trial is left,
    robber_step(t, alive, *state): a step moves the running trials in place
    and returns a mask of the ones it caught."""
    T = np.full(len(caught), -1, dtype=np.int64)
    alive = _settle(T, 0, caught, np.arange(len(caught)), state)
    t = 0
    while alive.size and t < max_rounds:
        t += 1
        for step in (cop_step, robber_step):
            alive = _settle(T, t, step(t, alive, *state), alive, state)
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
        for a, b, u in _drawn(seed.stream("robber", t), alive, buf):
            ya = y[a:b].astype(np.intp)
            stepped = _uniform_entries(rows, ya, u)  # u is the piece's own gathered copy
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
        cops = place.integers(0, n, size=(trials, k), dtype=np.int32)
    else:
        cfg = tuple(sorted(start))
        if len(cfg) != k:
            raise SimulationError(f"start {start!r} does not place {k} cops")
        if cfg[0] < 0 or cfg[-1] >= n:  # a negative vertex would wrap around
            raise SimulationError(f"start {start!r} places a cop off the graph's {n} vertices")
        cops = np.tile(np.array(cfg, dtype=np.int32), (trials, 1))

    if evader == "uniform-random":
        y = seed.stream("evader", 0).integers(0, n, size=trials, dtype=np.int32)
    else:
        dmat = distance_table(g)
        # closed rows of one width, for a first-hit argmax; a pad repeats its row's first entry
        candidates = _padded_flat(*rows)

        def nearest_cop_dist(vertices: np.ndarray, cop_pos: np.ndarray) -> np.ndarray:
            return dmat[vertices[..., None], cop_pos].min(axis=-1)  # cop_pos (..., k)

        # the vertex farthest from the nearest starting cop, per trial, over
        # pieces of trials whose (n, piece) distance tables stay one piece big
        y = np.empty(trials, dtype=np.int32)
        for a, b in _spans(trials, n):
            y[a:b] = nearest_cop_dist(np.arange(n)[:, None], cops[None, a:b]).argmax(axis=0)

    cop_buf = np.empty((min(trials, _PIECE_TRIALS), k))

    def cop_step(t, alive, cops, y):
        caught = np.empty(len(alive), dtype=bool)
        for a, b, u in _drawn(seed.stream("cops", t), alive, cop_buf):
            moved = _uniform_entries(rows, cops[a:b].astype(np.intp), u)
            cops[a:b] = moved
            caught[a:b] = (moved == y[a:b, None]).any(axis=1)
        return caught

    if evader == "uniform-random":
        buf = np.empty(min(trials, _PIECE_TRIALS))

        def move_robber(t, alive, cops, y):
            for a, b, u in _drawn(seed.stream("evader", t), alive, buf):
                y[a:b] = _uniform_entries(rows, y[a:b].astype(np.intp), u)
                yield a, b
    else:
        def move_robber(t, alive, cops, y):
            for a, b in _spans(len(alive), width):
                cand = candidates[y[a:b]]  # (b - a, width)
                dist = nearest_cop_dist(cand, cops[a:b, None, :])
                y[a:b] = cand[np.arange(b - a), dist.argmax(axis=1)]
                yield a, b

    def robber_step(t, alive, cops, y):
        caught = np.empty(len(alive), dtype=bool)
        for a, b in move_robber(t, alive, cops, y):
            caught[a:b] = (cops[a:b] == y[a:b, None]).any(axis=1)
        return caught

    caught, state = (cops == y[:, None]).any(axis=1), [cops, y]
    del cops, y  # `state` holds them, and compaction frees them
    return _pursue(caught, state, max_rounds, seed.master, cop_step, robber_step)


# Steps drawn per random block (this fixes the stream of each trial) and
# steps drawn and summed per slice of a block. numpy draws bounded int8
# values four to a 32-bit word and drops a call's unused bytes, so slices of
# a multiple of 4 rows continue the block's stream exactly.
_WALK_CHUNK_STEPS = 8_000_000
_WALK_SLICE_STEPS = 1 << 18


def walk_deviation_check(n: int, c: float, trials: int, seed: int) -> float:
    """Fraction of n-step +/-1 walks leaving [-c*sqrt(n ln n), c*sqrt(n ln n)]
    at any time. TrialBudgetError if one slice of walks would exceed
    MAX_TRIAL_BYTES."""
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be >= 1")
    if not c > 2:
        raise ValueError(f"the deviation bound needs c > 2, got {c}")
    seed = _as_seed(seed)
    # |position| is an integer, so it exceeds the threshold iff it exceeds
    # the threshold's floor, and never exceeds n: a bound past n acts as n
    limit = math.floor(min(n, c * math.sqrt(n * math.log(n))))  # inf and nan too
    chunk = max(1, min(trials, _WALK_CHUNK_STEPS // n))
    rows = max(4, _WALK_SLICE_STEPS // n // 4 * 4)
    need = min(rows, chunk) * n * 5  # a slice's int32 positions and its int8 draw
    if need > MAX_TRIAL_BYTES:
        raise TrialBudgetError(f"{min(rows, chunk)} walks of {n} steps need {need} bytes, "
                               f"over the budget of {MAX_TRIAL_BYTES}")
    positions = np.empty((min(rows, chunk), n), dtype=np.int32)  # every slice's buffer
    exceeded = 0
    done = 0
    block = 0
    while done < trials:
        size = min(chunk, trials - done)
        g = seed.stream("walk", block)
        for lo in range(0, size, rows):
            out = positions[:min(rows, size - lo)]
            # in place in the buffer: a cumsum that widened int8 to int32 would
            # copy its input
            np.copyto(out, g.integers(0, 2, size=out.shape, dtype=np.int8))
            out *= 2
            out -= 1
            np.cumsum(out, axis=1, out=out)
            np.abs(out, out=out)
            exceeded += int((out.max(axis=1) > limit).sum())
        done += size
        block += 1
    return exceeded / trials
