"""Exact pursuit-game values: adversarial capture times via layered
retrograde analysis of the minimax game, and expected capture times against
the random-walking (drunk) robber via undiscounted value iteration, which
scalar answers run on the quotient by the graph's declared symmetry group.

States are pairs (cop configuration, robber vertex). Cop configurations are
canonical sorted k-tuples: cops are interchangeable and may share a vertex.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .chain import as_config
from .graphs import Graph, _padded_flat

INFINITE = math.inf
DEFAULT_STATE_CAP = 5_000_000
SCHEMES = ("jacobi", "gauss-seidel")


class StateSpaceError(RuntimeError):
    """State space exceeds the configured cap; raised before allocation."""


class ConvergenceError(RuntimeError):
    """Value iteration exhausted its sweep budget."""

    def __init__(self, sweeps: int, residual: float, tolerance: float):
        super().__init__(
            f"no convergence after {sweeps} sweeps: "
            f"residual {residual:.3g} > tolerance {tolerance:.3g}"
        )
        self.sweeps = sweeps
        self.residual = residual


class CopNumberError(RuntimeError):
    """No winning cop count found within the search cap."""


@dataclass(frozen=True)
class SolveOptions:
    scheme: str = "jacobi"
    tolerance: float = 1e-10
    max_sweeps: int = 10**6

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


class _StateSpace:
    """Cop configurations with successor and occupancy tables: one row per
    orbit of the configurations under a group of vertex permutations, with
    all n robber columns.

    By default the group is trivial and rows are all configurations in
    combinations_with_replacement order (see `_config_rank`). With
    `symmetric=True` it is the graph's declared group `g.symmetries`, and a
    row stands for its orbit's first (lexicographically smallest) member,
    rows ascending. The state cap then counts orbit rows x n x (2 + E) / 3:
    a Jacobi sweep holds 2 + E tables of that size (see `_drunk_jacobi`)
    where one over the full space holds 3.

    Values are invariant under the group: if s maps a successor x' of a row
    onto the row r, the value at (x', y) is the value at (r, s(y)). So a
    successor slot holds e * m + r: it reads row r of the table with its
    columns permuted by cols[e], one of the E group elements that some slot
    uses (e = 0 is the identity, the only one under the trivial group).
    """

    def __init__(self, g: Graph, k: int, state_cap: float, symmetric: bool = False):
        if k < 1:
            raise ValueError(f"cop count must be >= 1, got {k}")
        n = g.n
        self.group = g.symmetries if symmetric else np.arange(n)[None]
        m = math.comb(n + k - 1, k)
        order = len(self.group)
        if m * n > state_cap * order:  # there are at least m / |G| orbits
            per = "" if order == 1 else f" / {order} symmetries"
            raise StateSpaceError(
                f"{m} configurations x {n} robber vertices{per} = {m * n // order}"
                f"{'' if order == 1 else '+'} states exceeds cap {state_cap}"
            )
        self.g = g
        self.n = n
        self.k = k
        self.state_cap = state_cap
        if order == 1:
            self.configs = list(itertools.combinations_with_replacement(range(n), k))
        else:
            self.configs = self._successors[0]
        self.m = len(self.configs)
        self.occupied = _occupancy(self.configs, n)

    @functools.cached_property
    def _successors(self) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
        """The orbit representatives, `succ_padded`, `succ_count` and
        `cols`. Pieces of rows are expanded one at a time: every cop step
        from each row is listed, ranked and canonicalized in numpy, and the
        orbits not seen before become new pieces. Under the trivial group
        every configuration is a row from the start; otherwise the search
        starts from the all-at-0 orbit (rank 0, the least of all), so only
        representatives are expanded."""
        n, k, group = self.n, self.k, self.group
        table = _rank_table(n, k)
        closed = [self.g.closed_neighbors(v) for v in range(n)]
        size = np.array([len(row) for row in closed])
        width = int(size.max()) ** k  # the most cop steps from one configuration
        seen = np.zeros(math.comb(n + k - 1, k), dtype=bool)  # by rank
        if len(group) == 1:
            seen[:] = True
            frontier, reps = np.arange(len(seen)), np.array(self.configs, dtype=np.int64)
        else:
            seen[0] = True
            frontier, reps = np.zeros(1, dtype=np.int64), np.zeros((1, k), dtype=np.int64)
        orbits = len(frontier)
        pending = list(zip(_slices(frontier, width), _slices(reps, width)))
        found, rows, ranks, elems = [], [], [], []
        while pending:
            frontier, reps = pending.pop()
            found.append((frontier, reps))
            moves = itertools.chain.from_iterable(
                itertools.product(*(closed[v] for v in cfg)) for cfg in reps.tolist())
            cfgs = np.fromiter(itertools.chain.from_iterable(moves), dtype=np.int64).reshape(-1, k)
            # stable sorts only: numpy's default quicksort is separate code
            # that a process would otherwise page in (about 0.3 MB of RSS)
            cfgs.sort(axis=1, kind="stable")
            src = np.repeat(frontier, size[reps].prod(axis=1))
            # each row's distinct successors, ascending, so that a first-hit
            # argmin realizes the lexicographic tie-break
            own = _ranks(cfgs, table)
            at = np.lexsort((own, src))
            src, own = src[at], own[at]
            distinct = np.concatenate(([True], (src[1:] != src[:-1]) | (own[1:] != own[:-1])))
            src, at = src[distinct], at[distinct]
            rank, elem = _canonical(cfgs[at], group, table)
            rows.append(src)
            ranks.append(rank)
            elems.append(elem)
            # runs of a stable sort, not np.unique: its first call imports numpy.ma
            by_rank = np.argsort(rank, kind="stable")
            fresh = rank[by_rank]
            head = np.concatenate(([True], fresh[1:] != fresh[:-1]))
            fresh, first = fresh[head], by_rank[head]
            new = ~seen[fresh]
            fresh, first = fresh[new], first[new]
            seen[fresh] = True
            images = np.sort(group[elem[first, None], cfgs[at[first]]], axis=1, kind="stable")
            pending.extend(zip(_slices(fresh, width), _slices(images, width)))
            orbits += len(fresh)
            if orbits * n > self.state_cap:
                raise StateSpaceError(f"{orbits}+ configuration orbits x {n} robber "
                                      f"vertices exceeds cap {self.state_cap}")
        rep_ranks = np.concatenate([f for f, _ in found])
        by_rank = np.argsort(rep_ranks, kind="stable")
        rep_ranks = rep_ranks[by_rank]
        configs = list(map(tuple, np.concatenate([c for _, c in found])[by_rank].tolist()))
        m = len(rep_ranks)
        row = np.searchsorted(rep_ranks, np.concatenate(rows))
        ranks, elem = np.concatenate(ranks), np.concatenate(elems)
        used = np.flatnonzero(np.bincount(elem))  # holds 0: every row is its own successor
        if m * n * (2 + len(used)) > 3 * self.state_cap:
            raise StateSpaceError(
                f"{m} configuration orbits x {n} robber vertices x (2 + {len(used)} group "
                f"elements) / 3 = {m * n * (2 + len(used)) // 3} states exceeds cap "
                f"{self.state_cap}")
        slot = np.searchsorted(used, elem) * m + np.searchsorted(rep_ranks, ranks)
        count = np.bincount(row, minlength=m)
        succ = _padded_flat(slot[np.argsort(row, kind="stable")], count)
        return configs, succ, count, group[used]

    @property
    def succ_padded(self) -> np.ndarray:
        """Per-row successor slots (one independent step per cop), sorted by
        successor configuration so that a first-hit argmin realizes the
        lexicographic tie-break; short rows repeat their first entry, which
        never wins a min. Built on first use."""
        return self._successors[1]

    @property
    def succ_count(self) -> np.ndarray:
        return self._successors[2]

    @property
    def cols(self) -> np.ndarray:
        """(E, n) column permutations of the slots: the group elements used."""
        return self._successors[3]

    @functools.cached_property
    def walk(self) -> np.ndarray:
        """Cop-free robber walk matrix (n x n, rows uniform over N(v)). On one
        vertex the robber has no step and it is the 1 x 1 zero; every state
        is occupied there."""
        table, deg = self.g._neighbor_table(closed=False)
        walk = np.zeros((self.n, self.n))
        walk[np.arange(self.n)[:, None], table] = (1.0 / np.maximum(deg, 1))[:, None]
        return walk

    @functools.cached_property
    def levels(self) -> list[np.ndarray]:
        """Wavefront levels of the ascending row order: a row's level is one
        more than the highest level among its lower-numbered successors, or 0
        if it has none. The successor relation is symmetric (cops step on
        closed neighbourhoods of an undirected graph), so lower-numbered
        successors sit on lower levels, higher-numbered ones on higher
        levels, and rows of one level are never successors of each other."""
        level = []
        for x, (succ, count) in enumerate(zip(self.succ_padded.tolist(),
                                              self.succ_count.tolist())):
            lower = bisect.bisect_left(succ, x, 0, count)  # rows are sorted
            level.append(1 + max(level[s] for s in succ[:lower]) if lower else 0)
        level = np.array(level, dtype=np.int64)
        order = np.argsort(level, kind="stable")
        return np.split(order, np.cumsum(np.bincount(level))[:-1])


def _occupancy(configs, n: int) -> np.ndarray:
    """(len(configs), n) mask of the vertices each configuration occupies."""
    occupied = np.zeros((len(configs), n), dtype=bool)
    np.put_along_axis(occupied, np.array(configs), True, axis=1)
    return occupied


def _gathered_min(succ: np.ndarray, table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = entrywise min of table over the rows succ[i, :]; with
    `succ_padded`, over the successors of config i."""
    np.copyto(out, table[succ[:, 0]])
    for j in range(1, succ.shape[1]):
        np.minimum(out, table[succ[:, j]], out=out)
    return out


def _config_rank(n: int, k: int, config) -> int:
    """Row of `config` in the lexicographic order of the sorted k-tuples of
    range(n) (Knuth, TAOCP 4A, 7.2.1.3); KeyError if it is not one of them."""
    cfg = as_config(config)
    if len(cfg) != k or cfg[0] < 0 or cfg[-1] >= n:
        raise KeyError(cfg)
    # c_i + i is a k-subset of range(n + k - 1): count the subsets after it
    top = n + k - 1
    return math.comb(top, k) - 1 - sum(math.comb(top - 1 - c - i, k - i) for i, c in enumerate(cfg))


def _rank_table(n: int, k: int) -> np.ndarray:
    """table[i, r] = C(r, k - i), read by `_ranks`. Entries above C(n+k-1, k)
    are never read, and are capped there so that they fit in int64."""
    m = math.comb(n + k - 1, k)
    return np.array([[min(math.comb(r, k - i), m) for r in range(n + k)] for i in range(k)],
                    dtype=np.int64)


def _ranks(cfgs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """`_config_rank` of each sorted k-tuple along the last axis of cfgs."""
    k, top = cfgs.shape[-1], table.shape[1] - 1
    i = np.arange(k)
    return table[0, top] - 1 - table[i, top - 1 - cfgs - i].sum(axis=-1)


def _canonical(cfgs: np.ndarray, group: np.ndarray, table: np.ndarray):
    """Per sorted k-tuple row of cfgs, the least rank among its images under
    the group and the first element (row of group) that reaches it: a
    running minimum over slices of the group, each slice gathering at most
    max(`_SLICE_ENTRIES`, cfgs.size) entries."""
    best = np.full(len(cfgs), np.iinfo(np.int64).max)
    elem = np.zeros(len(cfgs), dtype=np.int64)
    step = max(1, _SLICE_ENTRIES // cfgs.size)
    for lo in range(0, len(group), step):
        ranks = _ranks(np.sort(group[lo: lo + step][:, cfgs], axis=-1, kind="stable"), table)
        first = ranks.argmin(axis=0)
        low = ranks[first, np.arange(len(cfgs))]
        better = low < best
        best[better] = low[better]
        elem[better] = lo + first[better]
    return best, elem


class ValueTable:
    """Map from (cop configuration, robber vertex) to a game value.

    `kind` records which game the values belong to: "adversarial" and
    "adversarial-robber" hold minimax round counts (math.inf on robber-win
    states), "drunk" holds expected capture times.
    """

    def __init__(self, kind: str, k: int, configs, values: np.ndarray):
        self.kind = kind
        self.k = k
        self.configs = configs
        self.values = values

    def value(self, config, y: int) -> float:
        return float(self.values[_config_rank(self.values.shape[1], self.k, config), y])

    def __getitem__(self, key) -> float:
        config, y = key
        return self.value(config, y)

    def config_means(self) -> np.ndarray:
        return self.values.mean(axis=1)

    def to_csv(self, sink: TextIO) -> None:
        cols = [f"x{i + 1}" for i in range(self.k)]
        sink.write(",".join(cols + ["y", "value"]) + "\n")
        for cfg, row in zip(self.configs, self.values):
            prefix = ",".join(str(v) for v in cfg)
            for y, val in enumerate(row):
                text = "inf" if math.isinf(val) else repr(float(val))
                sink.write(f"{prefix},{y},{text}\n")


class FeedbackPolicy:
    """Deterministic cop move per state: (configuration, robber) -> successor
    configuration. Undefined states (robber-win regions) map to None."""

    def __init__(self, k: int, configs, successor_idx: np.ndarray):
        self.k = k
        self.configs = configs
        self.successor_idx = successor_idx

    def successor(self, config, y: int):
        idx = self.successor_idx[_config_rank(self.successor_idx.shape[1], self.k, config), y]
        return None if idx < 0 else self.configs[idx]

    def undefined_count(self) -> int:
        return int((self.successor_idx < 0).sum())

    def to_csv(self, sink: TextIO) -> None:
        cols = [f"x{i + 1}" for i in range(self.k)]
        ucols = [f"u{i + 1}" for i in range(self.k)]
        sink.write(",".join(cols + ["y"] + ucols) + "\n")
        for cfg, row in zip(self.configs, self.successor_idx):
            prefix = ",".join(str(v) for v in cfg)
            for y, idx in enumerate(row):
                if idx < 0:
                    tail = ",".join("-" for _ in range(self.k))
                else:
                    tail = ",".join(str(v) for v in self.configs[idx])
                sink.write(f"{prefix},{y},{tail}\n")


class RobberPolicy:
    """Adversarial robber move per state: (configuration, robber) -> vertex."""

    def __init__(self, k: int, configs, target: np.ndarray):
        self.k = k
        self.configs = configs
        self.target = target

    def successor(self, config, y: int) -> int:
        return int(self.target[_config_rank(self.target.shape[1], self.k, config), y])


@dataclass(frozen=True)
class SweepStats:
    sweeps: int
    final_delta: float
    min_increment: float
    max_value: float


@dataclass(frozen=True)
class AdversarialSolution:
    cop_values: ValueTable      # value with the cops to move
    robber_values: ValueTable   # value with the robber to move
    cop_policy: FeedbackPolicy
    robber_policy: RobberPolicy
    sweeps: int

    def capture_time(self) -> float:
        return self.optimal_start()[1]

    def optimal_start(self) -> tuple[tuple[int, ...], float]:
        worst = self.cop_values.values.max(axis=1)
        best = int(worst.argmin())
        return self.cop_values.configs[best], float(worst[best])


@dataclass(frozen=True)
class DrunkSolution:
    values: ValueTable
    policy: FeedbackPolicy
    stats: SweepStats
    scheme: str

    def drunk_capture_time(self) -> float:
        return self.optimal_start()[1]

    def optimal_start(self) -> tuple[tuple[int, ...], float]:
        """The first configuration whose mean lies within 8 ulps of the
        least mean (see `_near_min`), and the least mean."""
        means = self.values.config_means()
        return self.values.configs[_near_min(means)], float(means.min())


def _near_min(means: np.ndarray) -> int:
    """Index of the first entry within 8 ulps of the minimum. Exact ties,
    such as mirror-image starts, then do not depend on the scheme or the
    summation order that rounded them apart."""
    low = means.min()
    return int(np.flatnonzero(means <= low + 8 * np.spacing(low))[0])


def solve_adversarial(
    g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP
) -> AdversarialSolution:
    """Minimax capture values for k cops against the adversarial robber.

    The values solve the two-phase backward induction
        R[x, y] = max over y' in N+(y) of C[x, y']
        C[x, y] = 1 + min over x' in one cop step of R[x', y]
    with C = 0 on occupied states. `_retrograde` decides each state once, in
    increasing order of value; states never decided keep C = inf and are the
    robber-win region (k below the cop number).
    """
    space = _StateSpace(g, k, state_cap)
    C, sweeps = _retrograde(space)
    R = np.empty_like(C)
    robber_target = np.empty(C.shape, dtype=np.int64)
    cop_policy = _adversarial_policy(space, C, R, robber_target)
    configs = space.configs
    return AdversarialSolution(
        cop_values=ValueTable("adversarial", k, configs, C),
        robber_values=ValueTable("adversarial-robber", k, configs, R),
        cop_policy=FeedbackPolicy(k, configs, cop_policy),
        robber_policy=RobberPolicy(k, configs, robber_target),
        sweeps=sweeps,
    )


# Entries gathered per slice of a retrograde layer; a layer gathered whole
# peaks at (frontier x table width) int64 entries.
_SLICE_ENTRIES = 2**13


def _retrograde(space: _StateSpace) -> tuple[np.ndarray, int]:
    """The cop-to-move table C by layered retrograde analysis, and the sweep
    count the fixpoint iteration from C = inf would take (one layer each).

    Layer t takes the cop-to-move states of value t. Each of them decrements
    the counter of every robber-to-move state that can step into it; a
    counter counts the robber's closed moves still undecided, so one that
    reaches 0 has value t, its largest. Every still-infinite cop-to-move
    state one cop step away from a robber state of value t then has value
    t + 1, its smallest. The pass stops at the first layer that decides no
    cop-to-move state. States are flat indices x * n + y.
    """
    n = space.n
    occupied = space.occupied.ravel()
    C = np.full(space.m * n, np.inf)
    C[occupied] = 0.0
    nbrs, size = space.g._neighbor_table(closed=True)
    # occupied robber states start decided at 0; decrements only take them
    # further below 0, so they never reach 0 again
    count = np.tile(size.astype(np.int32), space.m)
    count[occupied] = 0
    one = np.int32(1)  # a Python int sends np.subtract.at down its slow path
    cols = np.arange(nbrs.shape[1])
    succ = space.succ_padded
    frontier = np.flatnonzero(occupied)
    t = 0
    while True:
        robber = [frontier] if t == 0 else []  # occupied robber states: R = 0
        for f in _slices(frontier, len(cols)):
            x, y = np.divmod(f, n)
            pred = (x[:, None] * n + nbrs[y])[cols < size[y][:, None]]  # no pads
            np.subtract.at(count, pred, one)
            # a counter at 0 is never decremented again: free as scratch
            robber.append(_distinct(pred[count[pred] == 0], count))
        cop = [frontier[:0]]
        for r in _slices(np.concatenate(robber), succ.shape[1]):
            x, y = np.divmod(r, n)
            pred = (succ[x] * n + y[:, None]).ravel()  # pads repeat an entry
            pred = _distinct(pred[C[pred] == np.inf], C)  # scratch until set
            C[pred] = t + 1
            cop.append(pred)
        frontier = np.concatenate(cop)
        t += 1
        if not frontier.size:
            return C.reshape(space.m, n), t


def _slices(states: np.ndarray, width: int):
    """Consecutive pieces of `states` that gather at most `_SLICE_ENTRIES`
    entries from a table `width` wide."""
    step = max(1, _SLICE_ENTRIES // width)
    return (states[i: i + step] for i in range(0, len(states), step))


def _distinct(idx: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """idx with one entry kept per distinct value, in linear time; overwrites
    scratch[idx] with positions."""
    pos = np.arange(-1, -1 - len(idx), -1)
    scratch[idx] = pos
    return idx[scratch[idx] == pos]


def _robber_max(space: _StateSpace, C: np.ndarray, out: np.ndarray, target=None) -> np.ndarray:
    """out[x, y] = max of C[x] over N+(y), the robber's best reply, 0 on
    occupied states; `target` gets the first maximizing vertex (y there)."""
    table, size = space.g._neighbor_table(closed=True)
    # each row sliced to its own size: padding every row to the widest slows
    # graphs with a few high-degree vertices
    for y, count in enumerate(size.tolist()):
        nbp = table[y, :count]
        block = C[:, nbp]
        out[:, y] = block.max(axis=1)
        if target is not None:
            target[:, y] = nbp[block.argmax(axis=1)]
    out[space.occupied] = 0.0
    if target is not None:
        target[space.occupied] = np.nonzero(space.occupied)[1]
    return out


def _adversarial_policy(space: _StateSpace, C: np.ndarray, R: np.ndarray, target=None):
    """Cop policy minimizing the robber's best reply to the cop-to-move table
    C, undefined (-1) on robber-win states. Overwrites R with that reply."""
    policy = _argmin_policy(space, _robber_max(space, C, R, target))
    policy[C == np.inf] = -1
    return policy


def _argmin_policy(space: _StateSpace, table: np.ndarray) -> np.ndarray:
    """Per state, the first (lexicographically smallest) successor
    configuration minimizing `table`; occupied states hold."""
    out = np.empty((space.m, space.n), dtype=np.int64)
    for i, count in enumerate(space.succ_count.tolist()):
        succ = space.succ_padded[i, :count]
        out[i] = succ[table[succ].argmin(axis=0)]
    out[space.occupied] = np.nonzero(space.occupied)[0]
    return out


def capture_time(g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP) -> float:
    """min over starts of the worst-case capture time; math.inf iff k cops
    cannot win."""
    return solve_adversarial(g, k, state_cap).capture_time()


def solve_drunk(
    g: Graph,
    k: int,
    opts: SolveOptions | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> DrunkSolution:
    """Expected capture times against the drunk robber by value iteration.

    Iterates C[x, y] = 1 + min over cop steps x' of sum over y' in N(y) of
    P(x')[y, y'] * C[x', y'] from C = 0, where P(x') is the robber walk with
    capture mass removed (steps into cops and cop-occupied rows contribute
    zero). Jacobi sweeps read the previous table; Gauss-Seidel updates
    configuration rows in place in ascending order, run as wavefront levels.
    """
    if opts is None:
        opts = SolveOptions()
    space, C, stats = _drunk_table(g, k, opts, state_cap)
    return DrunkSolution(
        values=ValueTable("drunk", k, space.configs, C),
        policy=FeedbackPolicy(k, space.configs, _drunk_policy(space, C)),
        stats=stats,
        scheme=opts.scheme,
    )


def _drunk_table(g: Graph, k: int, opts: SolveOptions, state_cap: float, symmetric: bool = False):
    """The state space, drunk table and SweepStats of every drunk solve, by
    `opts.scheme`. With `symmetric`, Jacobi runs on the quotient by the
    graph's declared group (see `_StateSpace`); Gauss-Seidel always runs on
    the full space. On one vertex the cops start on the robber: the table is
    the 1 x 1 zero, and no sweep runs."""
    space = _StateSpace(g, k, state_cap, symmetric and opts.scheme == "jacobi")
    if g.n == 1:
        return space, np.zeros((1, 1)), SweepStats(0, 0.0, 0.0, 0.0)
    solve = _drunk_jacobi if opts.scheme == "jacobi" else _drunk_gauss_seidel
    return (space, *solve(space, opts))


def _smeared(space: _StateSpace, C: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[c, y] = expected next value at config c after the robber steps
    from y, with capture contributing zero.

    Equals the substochastic cop-modified walk applied to row c: the columns
    at cop vertices contribute nothing because the table is zero there, and
    the cop-occupied rows are masked out explicitly.
    """
    np.matmul(C, space.walk.T, out=out)
    out[space.occupied] = 0.0
    return out


def _drunk_jacobi(space: _StateSpace, opts: SolveOptions):
    """`_jacobi` with the successor min. Each sweep smears the table into
    stack[0] and copies it once per other group element e that a slot uses,
    with its columns permuted by cols[e], so that every slot e * m + r stays
    a plain row gather of the stack. Under the trivial group the stack is
    the smear alone."""
    cols = space.cols
    stack = np.empty((len(cols), space.m, space.n))

    def successor_min(C, out):
        _smeared(space, C, stack[0])
        for e in range(1, len(cols)):
            # mode="clip": with the default "raise", take fills `out` through a buffer
            np.take(stack[0], cols[e], axis=1, out=stack[e], mode="clip")
        _gathered_min(space.succ_padded, stack.reshape(-1, space.n), out)

    return _jacobi(space, successor_min, opts)


def _jacobi(space: _StateSpace, reduce, opts: SolveOptions):
    """Jacobi sweeps C <- 1 + reduce(C), zero on occupied states, from C = 0
    over the rows of `space`, until no entry moves by `opts.tolerance`: the
    table and its SweepStats. `reduce(C, out)` writes into out, per state,
    the successor reduction of the smeared table."""
    C = np.zeros((space.m, space.n))
    C_new = np.empty_like(C)
    min_increment = math.inf
    for sweep in range(1, opts.max_sweeps + 1):
        reduce(C, C_new)
        C_new += 1.0
        C_new[space.occupied] = 0.0
        diff = C_new - C
        delta = float(np.abs(diff).max())
        min_increment = min(min_increment, float(diff.min()))
        C, C_new = C_new, C
        if delta < opts.tolerance:
            return C, SweepStats(sweep, delta, min_increment, float(C.max()))
    raise ConvergenceError(opts.max_sweeps, delta, opts.tolerance)


# Levels with fewer rows than this run one row at a time: a block of one or
# two rows costs more calls than it saves (k=1 barbells and lollipops).
_BLOCK_MIN_ROWS = 3


def _drunk_gauss_seidel(space: _StateSpace, opts: SolveOptions):
    """Gauss-Seidel sweeps over the wavefront levels of `_StateSpace.levels`,
    each level updated as one block. A level reads lower levels already
    updated in this sweep and higher levels not yet updated, just as the
    ascending row loop does, so the table, sweeps and stats are the same bit
    for bit. Each row's smear stays one matrix-vector product (a batched
    product would sum in another order), and a row that did not change keeps
    the smear it has."""
    P = space.walk
    C = np.zeros((space.m, space.n))
    W = np.zeros_like(C)  # masked smear of the current table, row by row
    cops = np.array(space.configs)
    count = space.succ_count
    # each row's or level's own successors (padding to the widest row slows
    # cliques) and cop columns, built once per solve rather than once per sweep
    steps = []
    for rows in space.levels:
        if len(rows) < _BLOCK_MIN_ROWS:
            steps.extend((x, space.succ_padded[x, :count[x]], cops[x], (x, cops[x]))
                         for x in rows.tolist())
        else:
            cols = cops[rows]
            steps.append((rows, space.succ_padded[rows, :int(count[rows].max())],
                          (np.arange(len(rows))[:, None], cols), (rows[:, None], cols)))
    block = np.empty((max(map(len, space.levels)), space.n))
    min_increment = math.inf
    for sweep in range(1, opts.max_sweeps + 1):
        delta = 0.0
        for rows, succ, new_occupied, occupied in steps:
            if succ.ndim == 1:  # rows is one row x of a small level
                new = W[succ].min(axis=0)
            else:
                new = _gathered_min(succ, W, block[: len(rows)])
            new += 1.0
            new[new_occupied] = 0.0
            diff = new - C[rows]
            change = np.abs(diff).max(axis=-1)
            min_increment = min(min_increment, float(diff.min()))
            C[rows] = new
            if succ.ndim == 1:
                delta = max(delta, float(change))
                if change > 0:
                    np.matmul(P, new, out=W[rows])
                    W[occupied] = 0.0
            else:
                delta = max(delta, float(change.max()))
                for x in rows[change > 0].tolist():
                    np.matmul(P, C[x], out=W[x])
                W[occupied] = 0.0
        if delta < opts.tolerance:
            stats = SweepStats(sweep, delta, min_increment, float(C.max()))
            return C, stats
    raise ConvergenceError(opts.max_sweeps, delta, opts.tolerance)


def _drunk_policy(space: _StateSpace, C: np.ndarray) -> np.ndarray:
    return _argmin_policy(space, _smeared(space, C, np.empty_like(C)))


def drunk_capture_time(
    g: Graph,
    k: int,
    opts: SolveOptions | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> float:
    """min over starts of the uniform-placement expected capture time."""
    return _drunk_start(g, k, opts, state_cap)[1]


def _drunk_start(
    g: Graph,
    k: int,
    opts: SolveOptions | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[tuple[int, ...], float, SweepStats]:
    """The optimal start and drunk capture time of `solve_drunk`, and its
    sweep stats, without the policy: `_drunk_table` with `symmetric`, so
    Jacobi runs on the quotient by the graph's declared group, whose cap
    counts orbit rows and the table copies they need (see `_StateSpace`).
    The start is the first member of the first orbit whose mean is within
    `_near_min` of the least. On graphs of maximum degree 2 (paths, cycles)
    the quotient rows equal the full table's bit for bit; elsewhere they
    differ from it in the last bits, because the smear sums in another order.
    """
    if opts is None:
        opts = SolveOptions()
    space, C, stats = _drunk_table(g, k, opts, state_cap, symmetric=True)
    means = C.mean(axis=1)
    return space.configs[_near_min(means)], float(means.min()), stats


def extract_policy(table: ValueTable, g: Graph, state_cap: int = DEFAULT_STATE_CAP) -> FeedbackPolicy:
    """Greedy cop policy from a converged value table.

    Adversarial tables minimize the robber's best reply; drunk tables
    minimize the expected continuation. Robber-win states have no
    finite-valued successor and are left undefined.
    """
    space = _StateSpace(g, table.k, state_cap)
    if list(table.configs) != space.configs:
        raise ValueError("table does not match the graph's configuration space")
    if table.kind == "drunk":
        policy = _drunk_policy(space, table.values)
    elif table.kind == "adversarial":
        policy = _adversarial_policy(space, table.values, np.empty_like(table.values))
    else:
        raise ValueError(f"cannot extract a cop policy from a {table.kind!r} table")
    return FeedbackPolicy(table.k, space.configs, policy)


def policy_value(
    g: Graph,
    policy: FeedbackPolicy,
    tolerance: float = 1e-12,
    max_sweeps: int = 10**6,
) -> ValueTable:
    """Expected capture times induced by a fixed feedback policy on the
    cop-modified robber chains: `_jacobi` with the policy's gather,
    V[x, y] = 1 + (smeared V)[policy(x, y), y]. `tolerance` and
    `max_sweeps` take the values `SolveOptions` takes."""
    opts = SolveOptions(tolerance=tolerance, max_sweeps=max_sweeps)
    idx = policy.successor_idx
    if np.any(idx < 0):
        raise ValueError("policy is undefined on some states")
    space = _StateSpace(g, policy.k, math.inf)
    if idx.shape != (space.m, space.n):
        raise ValueError("policy does not match the graph's configuration space")
    cols = np.arange(space.n)
    W = np.empty((space.m, space.n))

    def policy_gather(V, out):
        out[...] = _smeared(space, V, W)[idx, cols]

    V, _ = _jacobi(space, policy_gather, opts)
    return ValueTable("drunk", policy.k, space.configs, V)


def cop_number(
    g: Graph, max_cops: int = 3, state_cap: int = DEFAULT_STATE_CAP
) -> int:
    """Least k with finite adversarial capture time, searched k = 1, 2, ...
    up to `max_cops`."""
    return solve_at_cop_number(g, max_cops, state_cap).cop_values.k


def solve_at_cop_number(
    g: Graph, max_cops: int = 3, state_cap: int = DEFAULT_STATE_CAP
) -> AdversarialSolution:
    """The adversarial solution at the cop number, searched as `cop_number`
    does."""
    for k in range(1, max_cops + 1):
        solution = solve_adversarial(g, k, state_cap)
        if math.isfinite(solution.capture_time()):
            return solution
        del solution  # free the losing tables before the larger solve
    raise CopNumberError(f"no winning configuration with up to {max_cops} cops")


@dataclass(frozen=True)
class DrunkennessReport:
    cops: int
    capture_time: float
    drunk_capture_time: float
    ratio: float
    adversarial_start: tuple[int, ...]
    drunk_start: tuple[int, ...]
    sweeps: int


def drunkenness_report(
    g: Graph,
    opts: SolveOptions | None = None,
    max_cops: int = 3,
    state_cap: int = DEFAULT_STATE_CAP,
) -> DrunkennessReport:
    """Capture time, drunk capture time, and their ratio at the cop number."""
    if g.n == 1:
        raise ValueError("cost of drunkenness is undefined on a single vertex")
    adversarial = solve_at_cop_number(g, max_cops, state_cap)
    cops = adversarial.cop_values.k
    adversarial_start, ct = adversarial.optimal_start()
    del adversarial  # free its tables before the drunk solve
    start, dct, stats = _drunk_start(g, cops, opts, state_cap)
    return DrunkennessReport(
        cops=cops,
        capture_time=ct,
        drunk_capture_time=dct,
        ratio=ct / dct,
        adversarial_start=adversarial_start,
        drunk_start=start,
        sweeps=stats.sweeps,
    )


def cost_of_drunkenness(
    g: Graph,
    opts: SolveOptions | None = None,
    max_cops: int = 3,
    state_cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Ratio of adversarial to drunk capture time at the cop number; >= 1."""
    return drunkenness_report(g, opts, max_cops, state_cap).ratio
