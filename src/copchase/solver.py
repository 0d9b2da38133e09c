"""Exact pursuit-game values: adversarial capture times via layered
retrograde analysis of the minimax game, and expected capture times against
the random-walking (drunk) robber via undiscounted value iteration, whose
Jacobi and Gauss-Seidel schemes share one sweep loop and one step. Scalar
answers of both games run on the quotient by the graph's declared symmetry
group and the swaps of twin vertices, with one robber column per twin class.

States are pairs (cop configuration, robber vertex). Cop configurations are
canonical sorted k-tuples: cops are interchangeable and may share a vertex.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _padded_flat, _ragged, twin_classes
from .lumping import TwinColumns
from .tables import FeedbackPolicy, RobberPolicy, ValueTable

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
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


class _StateSpace:
    """Cop configurations with successor and occupancy tables: one row per
    orbit of the configurations under a group of vertex permutations, and
    one column per class of vertices (`twins`, a `lumping.TwinColumns`).

    By default the group is trivial, every class is one vertex, rows are all
    configurations in combinations_with_replacement order (see
    `_config_rank`) and columns are the n vertices. With `symmetric=True`
    the group holds the graph's declared group `g.symmetries` and every swap
    of twins, a group too large to list, and the classes are the twin
    classes (see `graphs.twin_classes`). A row stands for its orbit's first
    (lexicographically smallest) member, rows ascending: within each class
    the cops sit on its first members, the most stacked first, and the
    declared group then picks the least such configuration. A cop at v steps
    only onto `steps[v]`, its closed neighbours among the first k of each class.

    The cap counts what a solve path holds: retrograde, rows x columns
    (checked as rows are found); drunk solves, (3m + P) x columns / 3 for two
    tables and the m + P rows of `_drunk`'s stack (m x n on the full space);
    and every path, the successor slots of `slots`, counted as the search
    lists them. Up front it bounds C(c+k-1, k) x c / (declared group order)
    for c columns, and by a table at the cap the bytes the search marks and
    lists (see `_successors`).

    Values are invariant under the group: if s maps a successor x' of a row
    onto the row r, the value at (x', y) is the value at (r, s(y)). So a
    successor slot reads a row of the table with its columns permuted by
    cols[e], one of the E declared elements that some slot uses (see
    `reads`). Twin swaps map every class onto itself, so they permute no
    column.

    A class column holds the value of the class's free members, which twin
    swaps that fix the row make equal, and an occupied member's value is 0;
    `occupied` marks the columns with no free member, which hold 0. Every
    space has this one layout: on the full space, and on a graph without
    twins, every class is one vertex, the columns are the vertices and the
    lumping is the identity.
    """

    def __init__(self, g: Graph, k: int, state_cap: float, symmetric: bool = False):
        if k < 1:
            raise ValueError(f"cop count must be >= 1, got {k}")
        n = g.n
        self.group = g.symmetries if symmetric else np.arange(n)[None]
        self.twins = TwinColumns(g, twin_classes(g) if symmetric else np.arange(n))
        c, order = self.twins.robber.n, len(self.group)
        m = math.comb(c + k - 1, k)  # distinct twin orbits, and at least m / |G| orbits
        if m * c > state_cap * order:
            per = "" if order == 1 else f" / {order} symmetries"
            raise StateSpaceError(f"{m} configurations x {c} robber columns{per} = "
                                  f"{m * c // order}+ states exceeds cap {state_cap}")
        kept = (self.twins.place < k).tolist()
        self.steps = [[w for w in g.closed_neighbors(v) if kept[w]] for v in range(n)]
        # the search marks a byte per configuration, lists one row's kept cop
        # steps at once, and under the trivial group every kept configuration
        # first, peaking near 10 int64 per cop
        search = math.comb(n + k - 1, k)
        listed = max(max(map(len, self.steps)) ** k,
                     math.comb(sum(kept) + k - 1, k) if order == 1 else 0)
        if max(search, 12 * 8 * k * listed) > 8 * state_cap:
            raise StateSpaceError(f"configuration search over {search} configurations, {listed} "
                                  f"listed at once, exceeds a table at cap {state_cap}")
        self.g, self.n, self.k, self.state_cap = g, n, k, state_cap
        self.col_group = self.twins.columns(self.group)
        if order > 1:
            self.configs = self._successors[0]
        else:  # the kept configurations that twin swaps do not lower
            cfgs = np.array(list(itertools.combinations_with_replacement(
                itertools.compress(range(n), kept), k)), dtype=np.int64)
            cfgs = cfgs[(self.twins.canonical(cfgs) == cfgs).all(axis=1)]
            self.configs = list(map(tuple, cfgs.tolist()))
        self.m = len(self.configs)
        self.shape = (self.m, c)
        self.occupied = self.twins.free(np.array(self.configs)) == 0

    @functools.cached_property
    def _successors(self) -> tuple[list, tuple, np.ndarray, tuple]:
        """The orbit representatives, `slots`, `cols` and `reads`. Pieces
        of rows are expanded one at a time: each cop's steps onto its kept
        closed neighbours are listed, put in twin-least form, ranked and
        canonicalized in numpy, and the orbits not seen before become new
        pieces. Under the trivial group every row is known
        from the start; otherwise the search starts from the all-at-0 orbit
        (rank 0, the least of all), so only representatives are expanded.
        Steps to twins of one another become one successor: they lie in one
        orbit, reached by one element. A row's cops sit on kept vertices and
        twins have equal neighbourhoods, so every step's twin-least form is a
        kept step's."""
        n, k, group = self.n, self.k, self.group
        columns = self.twins.robber.n
        table = _rank_table(n, k)
        size = np.array(list(map(len, self.steps)))
        width = int(size.max()) ** k  # the most cop steps from one configuration
        reps = np.array(self.configs if len(group) == 1 else [(0,) * k], dtype=np.int64)
        frontier = _ranks(reps, table)
        seen = np.zeros(math.comb(n + k - 1, k), dtype=bool)  # by rank
        seen[frontier] = True  # under the trivial group every row, and so every successor
        orbits, listed = len(frontier), 0
        pending = list(zip(_slices(frontier, width), _slices(reps, width)))
        found, rows, ranks, elems = [], [], [], []
        while pending:
            frontier, reps = pending.pop()
            found.append((frontier, reps))
            moves = itertools.chain.from_iterable(
                itertools.product(*(self.steps[v] for v in cfg)) for cfg in reps.tolist())
            cfgs = np.fromiter(itertools.chain.from_iterable(moves), dtype=np.int64).reshape(-1, k)
            # stable sorts only: numpy's default quicksort is separate code
            # that a process would otherwise page in (about 0.3 MB of RSS)
            cfgs.sort(axis=1, kind="stable")
            cfgs = self.twins.canonical(cfgs)
            src = np.repeat(frontier, size[reps].prod(axis=1))
            # each row's distinct successors, ascending, so that a first-hit
            # argmin realizes the lexicographic tie-break
            own = _ranks(cfgs, table)
            at = np.lexsort((own, src))
            src, own = src[at], own[at]
            distinct = np.concatenate(([True], (src[1:] != src[:-1]) | (own[1:] != own[:-1])))
            src, at = src[distinct], at[distinct]
            listed += len(src)
            if listed > self.state_cap:  # in int64, laid end to end
                raise StateSpaceError(f"{listed}+ successor slots exceeds cap {self.state_cap}")
            rank, elem = _canonical(cfgs[at], group, table, self.twins.canonical)
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
            images = self.twins.canonical(
                np.sort(group[elem[first, None], cfgs[at[first]]], axis=1, kind="stable"))
            pending.extend(zip(_slices(fresh, width), _slices(images, width)))
            orbits += len(fresh)
            if orbits * columns > self.state_cap:
                raise StateSpaceError(f"{orbits}+ configuration orbits x {columns} robber "
                                      f"columns exceeds cap {self.state_cap}")
        rep_ranks = np.concatenate([f for f, _ in found])
        by_rank = np.argsort(rep_ranks, kind="stable")
        rep_ranks = rep_ranks[by_rank]
        # under the trivial group the rows are the space's own list, in rank order
        configs = (self.configs if len(group) == 1 else
                   list(map(tuple, np.concatenate([c for _, c in found])[by_rank].tolist())))
        m = len(rep_ranks)
        row = np.searchsorted(rep_ranks, np.concatenate(rows))
        code = np.searchsorted(rep_ranks, np.concatenate(ranks))  # e * m + q: row q through e
        elem = np.concatenate(elems)
        used = np.flatnonzero(np.bincount(elem))  # holds 0: every row is its own successor
        code += np.searchsorted(used, elem) * m
        del rows, ranks, elems, elem  # each held raises the peak
        read = np.zeros(len(used) * m, dtype=bool)
        read[:m] = read[code] = True
        pairs = np.flatnonzero(read)  # the code of each slot
        count = np.bincount(row, minlength=m)
        # codes by row before the slots are made: the long-held slots then fill freed heap
        code = code[np.argsort(row, kind="stable")]
        slots = (np.searchsorted(pairs, code), np.cumsum(count) - count, count)
        return configs, slots, self.col_group[used], np.divmod(pairs, m)

    @property
    def slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row successor slots (one independent step per cop), laid end
        to end with each row's start and size as `Graph._neighbor_table` lays
        neighbour rows, sorted by successor configuration so that a first-hit
        argmin realizes the lexicographic tie-break. Built on first use."""
        return self._successors[1]

    @property
    def cols(self) -> np.ndarray:
        """(E, n) column permutations of the slots: the group elements used."""
        return self._successors[2]

    @property
    def reads(self) -> tuple[np.ndarray, np.ndarray]:
        """Per slot, the element (row of `cols`) and the row it reads: slot
        r < m reads row r through the identity, slot m + p the p-th of the P
        distinct (element > 0, row) pairs that slots read, in that order."""
        return self._successors[3]

    @functools.cached_property
    def stabilizers(self) -> np.ndarray:
        """(m, S) rows of `group` that map each row's configuration onto
        itself, up to twin swaps, identity first; short rows repeat it."""
        reps = np.array(self.configs)
        fixes = [np.all(self.twins.canonical(np.sort(s[reps], 1, kind="stable")) == reps, 1)
                 for s in self.group]
        row, elem = np.nonzero(np.array(fixes).T)
        size = np.bincount(row, minlength=self.m)
        return _padded_flat(elem, np.cumsum(size) - size, size)

    @functools.cached_property
    def walk(self) -> np.ndarray:
        """Cop-free robber walk matrix between the vertices, rows uniform
        over N(v), for the smear of a space that does not gather (see
        `gathers`). On one vertex the robber has no step and it is the
        1 x 1 zero; every state is occupied there."""
        flat, _, deg = self.g._neighbor_table(closed=False)
        walk = np.zeros((self.n, self.n))
        walk[np.repeat(np.arange(self.n), deg), flat] = np.repeat(1.0 / np.maximum(deg, 1), deg)
        return walk

    @functools.cached_property
    def gathers(self) -> bool:
        """Whether smears gather by `TwinColumns.smear`, not by products with
        `walk`: where classes lump, and where the robber's graph has maximum
        degree 1 or 2 (paths, cycles), whose weights 1 and 1/2 make each
        product exact, so that the gather's sum of at most two terms equals
        the BLAS product's sum of all n terms of a row bit for bit."""
        return self.twins.lumps or 0 < self.twins.robber._neighbor_table(closed=False)[2].max() <= 2

    @functools.cached_property
    def smear_plan(self):
        """`TwinColumns.smear_plan` of the rows (spaces that gather only)."""
        return self.twins.smear_plan(np.array(self.configs), self.occupied)

    @functools.cached_property
    def occupied_at(self) -> np.ndarray:
        """Flat indices of `occupied`, few per row: cheaper to write than the mask."""
        return np.flatnonzero(self.occupied)

    @functools.cached_property
    def capturable(self):
        """Flat indices of the free states where a cop can step onto the
        robber, whose value is 1 (a cop step onto a class's free member ends
        the game, which a class column does not record). Empty where classes
        are vertices: there the successor tables record that step."""
        if not self.twins.lumps:
            return np.empty(0, dtype=np.intp)
        return self.twins.capturable(np.array(self.configs), self.occupied)

    @functools.cached_property
    def levels(self) -> list[np.ndarray]:
        """Wavefront levels of the ascending row order: a row's level is one
        more than the highest level among the lower-numbered rows its slots
        read (see `reads`), or 0 if it reads none. Reads are symmetric (cops
        step on closed neighbourhoods, so an orbit that x reads steps back
        onto x's), so lower-numbered rows read sit on lower levels, higher
        ones on higher levels, and no row reads another of its own level."""
        flat, start, size = self.slots
        read, level = self.reads[1][flat].tolist(), []
        for x, (lo, hi) in enumerate(zip(start.tolist(), (start + size).tolist())):
            level.append(max([level[q] + 1 for q in read[lo:hi] if q < x], default=0))
        level = np.array(level, dtype=np.int64)
        return np.split(np.argsort(level, kind="stable"), np.cumsum(np.bincount(level))[:-1])


# A group of rows in the successor min reads slices of the table, not
# gathered copies, where its rows and lists step by one together in runs of
# at least this many table entries on average: a slice costs a call, and a
# gather a copy of its rows. Timed on cycles, paths, barbells, lollipops and
# trees (one thread, 2-core x86 VM), slices lost up to 760 entries per run
# (T(2,8)) and won from 1040 on (B(100,1)).
_RUN_ENTRIES = 1024

# Other groups gather pieces of rows of at most this many table entries: two
# such pieces are the min's only temporaries, where whole groups peaked at
# two copies of their rows (G10 k=2: 0.6 MB lower peak RSS; 2^13 made G10
# 30% slower). 2^15 was up to 10% faster on G10 and G12 k=2, but its 256 KB
# pieces of a 100-column table cross glibc's 128 KB mmap threshold, which put
# the peak RSS of `dct` on G10 k=2 in one of two modes 0.2 MB apart.
_PIECE_ENTRIES = 2**14


def _min_plan(flat: np.ndarray, start: np.ndarray, size: np.ndarray, shape: tuple[int, int]):
    """The plan of `_gathered_min` for lists laid end to end (see
    `_StateSpace.slots`) over a table of this shape. Where the lists, padded
    to the widest, hold no more rows than the table or the widest squared (a
    Gauss-Seidel level), each width class (widths in [2^i, 2^(i+1))) is read
    "whole", padded to its widest. Else per width class, the first row of each
    distinct list, padded, and the runs `_RUN_ENTRIES` allows, or None; then
    the other rows, and the first row of their list. Equal lists are equal
    padded rows (pads repeat an entry), found by one stable sort. A run is a
    row, one list entry per column, and a length: the rows from there on read
    the entries from there on."""
    (rows_read, columns), by_size = shape, np.argsort(size, kind="stable")
    exp = np.frexp(size[by_size])[1]  # sliced: np.split and np.diff took 10 us a level
    cuts = [0, *(np.flatnonzero(exp[1:] != exp[:-1]) + 1).tolist(), len(size)]
    classes = [by_size[a:b] for a, b in zip(cuts, cuts[1:])]
    if len(size) * size.max() <= max(rows_read, size.max() ** 2):
        return [(rows, _padded_flat(flat, start[rows], size[rows]), "whole")
                for rows in classes], (), ()
    groups, rest, src = [], [], []
    for rows in classes:
        lists = _padded_flat(flat, start[rows], size[rows])
        order = np.lexsort((*lists.T[::-1], size[rows]))  # the last key is the first
        head = np.concatenate(([True], np.diff(lists[order], axis=0).any(axis=1)))
        first = order[head]
        rest.append(rows[order[~head]])
        src.append(rows[first][np.cumsum(head)[~head] - 1])
        rows, lists = rows[first], lists[first]
        keys = np.column_stack([rows, lists])
        cut = np.flatnonzero(np.concatenate(([True], (np.diff(keys, axis=0) != 1).any(axis=1))))
        runs = None
        if len(rows) * columns >= _RUN_ENTRIES * len(cut):
            runs = list(zip(keys[cut].tolist(), np.diff(cut, append=len(rows)).tolist()))
        groups.append((rows, lists, runs))
    return groups, np.concatenate(rest), np.concatenate(src)


def _gathered_min(plan, table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = entrywise min of table over the rows of list i, by the lists'
    `_min_plan`: once per distinct list, over its own entries."""
    groups, rest, src = plan
    for rows, lists, runs in groups:
        if runs == "whole":  # one gather, where pieces would make a call per list entry
            out[rows] = table[lists].min(axis=1)
            continue
        if runs is None:
            step = max(1, _PIECE_ENTRIES // table.shape[1])
            for lo in range(0, len(rows), step):
                piece = slice(lo, lo + step)
                low = table[lists[piece, 0]]
                for j in range(1, lists.shape[1]):
                    np.minimum(low, table[lists[piece, j]], out=low)
                out[rows[piece]] = low
            continue
        for (row, *reads), length in runs:
            low = out[row: row + length]
            np.minimum(table[reads[0]: reads[0] + length], table[reads[-1]: reads[-1] + length],
                       out=low)  # a list of one entry repeats it
            for r in reads[1:-1]:
                np.minimum(low, table[r: r + length], out=low)
    if len(rest):
        out[rest] = out[src]
    return out


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


def _canonical(cfgs: np.ndarray, group: np.ndarray, table: np.ndarray, twins):
    """Per sorted k-tuple row of cfgs, the least rank among its images under
    the group, each image first put into the form `twins` gives (the least
    that twin swaps reach), and the first element (row of group) that
    reaches it: a running minimum over slices of the group, each slice
    gathering at most max(`_SLICE_ENTRIES`, cfgs.size) entries."""
    best = np.full(len(cfgs), np.iinfo(np.int64).max)
    elem = np.zeros(len(cfgs), dtype=np.int64)
    step = max(1, _SLICE_ENTRIES // cfgs.size)
    for lo in range(0, len(group), step):
        images = np.sort(group[lo: lo + step][:, cfgs], axis=-1, kind="stable")
        ranks = _ranks(twins(images), table)
        first = ranks.argmin(axis=0)
        low = ranks[first, np.arange(len(cfgs))]
        better = low < best
        best[better] = low[better]
        elem[better] = lo + first[better]
    return best, elem


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

    On a quotient, cop steps being symmetric, (r, z) is one step from
    (q, cols[e][z]) for each slot of row r that reads row q through e (see
    `_StateSpace.reads`); and (q, w) is decided with (q, s(w)) for each s
    in row q's stabilizer (see `_StateSpace`).
    A column z is a twin class, and a counter counts the robber's distinct
    class moves (the robber's graph is the twin quotient). A cop step onto a
    free twin of the robber's vertex leaves no trace in the slots, so the
    layer 0 pass decides the capturable states at 1.
    """
    m, n = space.shape
    occupied = space.occupied.ravel()
    C = np.full(m * n, np.inf)
    C[occupied] = 0.0
    flat, start, size = space.twins.robber._neighbor_table(closed=True)
    # occupied robber states start decided at 0; decrements only take them
    # further below 0, so they never reach 0 again
    count = np.tile(size.astype(np.int32), m)
    count[occupied] = 0
    one = np.int32(1)  # a Python int sends np.subtract.at down its slow path
    width = int(size.max())
    (succ, succ_start, succ_size), perms = space.slots, space.cols
    elem, row = space.reads
    stab = space.stabilizers if len(space.group) > 1 else None
    frontier = np.flatnonzero(occupied)
    C[space.capturable] = 1.0
    t = 0
    while True:
        robber = [frontier] if t == 0 else []  # occupied robber states: R = 0
        for f in _slices(frontier, width):
            y = f % n
            moves = size[y]
            pred = (f - y).repeat(moves) + flat[_ragged(start[y], moves)]
            np.subtract.at(count, pred, one)
            # a counter at 0 is never decremented again: free as scratch
            robber.append(_distinct(pred[count[pred] == 0], count))
        cop = [space.capturable if t == 0 else frontier[:0]]
        robber = np.concatenate(robber)  # in pieces of about `_SLICE_ENTRIES` slots
        ends = succ_size[robber // n].cumsum()
        cuts = [0, *(np.flatnonzero(np.diff(ends // _SLICE_ENTRIES)) + 1).tolist(), len(ends)]
        for a, b in zip(cuts, cuts[1:]):
            x, y = np.divmod(robber[a:b], n)
            moves = succ_size[x]
            s, z = succ[_ragged(succ_start[x], moves)], y.repeat(moves)
            pred = s * n + z if len(perms) == 1 else row[s] * n + perms[elem[s], z]
            pred = pred[C[pred] == np.inf]
            if stab is not None:
                q, w = np.divmod(pred, n)
                pred = (q[:, None] * n + space.col_group[stab[q], w[:, None]]).ravel()
            pred = _distinct(pred, C)  # scratch until set
            C[pred] = t + 1
            cop.append(pred)
        frontier = np.concatenate(cop)
        t += 1
        if not frontier.size:
            return C.reshape(m, n), t


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
    flat, start, size = space.g._neighbor_table(closed=True)
    for y, (lo, hi) in enumerate(zip(start.tolist(), (start + size).tolist())):
        nbp = flat[lo:hi]
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
    flat, start, _ = space.slots
    for i, succ in enumerate(np.split(flat, start[1:])):
        out[i] = succ[table[succ].argmin(axis=0)]
    out[space.occupied] = np.nonzero(space.occupied)[0]
    return out


def capture_time(g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP) -> float:
    """min over starts of the worst-case capture time; math.inf iff k cops cannot win."""
    return _adversarial_start(g, k, state_cap)[1]


def _adversarial_start(g: Graph, k: int, state_cap: int = DEFAULT_STATE_CAP):
    """The optimal start and capture time of `solve_adversarial` by
    `_retrograde` on the quotient by the declared group and twin swaps, with
    no robber table or policy: worst values are constant on orbits, whose
    first members are the rows."""
    space = _StateSpace(g, k, state_cap, symmetric=True)
    worst = _retrograde(space)[0].max(axis=1)
    best = int(worst.argmin())
    return space.configs[best], float(worst[best])


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
    zero). Both schemes run in the one sweep loop `_sweeps`: a Jacobi sweep
    reads the previous table; a Gauss-Seidel sweep writes configuration rows
    in ascending order, run as wavefront levels, and reads those written.
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
    `opts.scheme`. With `symmetric` both schemes run on the quotient by the
    graph's declared group and twin swaps (see `_StateSpace`), else on the
    full space. On one vertex the cops start on the robber: the table is
    the 1 x 1 zero, and no sweep runs."""
    space = _StateSpace(g, k, state_cap, symmetric)
    if g.n == 1:
        return space, np.zeros((1, 1)), SweepStats(0, 0.0, 0.0, 0.0)
    return (space, *_drunk(space, opts))


def _smeared(space: _StateSpace, C: np.ndarray, out: np.ndarray, scratch=None) -> np.ndarray:
    """out[c, y] = expected next value at config c after the robber steps
    from y, with capture contributing zero.

    Equals the substochastic cop-modified walk applied to row c: the columns
    at cop vertices contribute nothing because the table is zero there, and
    the cop-occupied rows are masked out explicitly. Where the space gathers
    (`_StateSpace.gathers`) see `TwinColumns.smear`, which reads `scratch`,
    a table like out, made here if None. All three are C-contiguous.
    """
    if space.gathers:
        if scratch is None:
            scratch = np.empty_like(out)
        space.twins.smear(space.smear_plan, C, out, scratch)
    else:
        np.matmul(C, space.walk.T, out=out)
    out.reshape(-1)[space.occupied_at] = 0.0
    return out


def _sweeps(space: _StateSpace, step, opts: SolveOptions):
    """Value-iteration sweeps of either scheme from C = 0 over the rows of
    `space`, until no entry moves by `opts.tolerance`: the table and its
    SweepStats. `step(C, out)` writes the next table into out (1 + the
    successor reduction, 0 on occupied states), reading the previous table
    C and, under Gauss-Seidel, the rows of out it has already written."""
    C = np.zeros(space.shape)
    C_new = np.empty_like(C)
    min_increment = math.inf
    for sweep in range(1, opts.max_sweeps + 1):
        step(C, C_new)
        diff = np.subtract(C_new, C, out=C)  # C is spent: the next step overwrites it
        low = float(diff.min())
        delta = max(float(diff.max()), -low)  # max |diff|: 0.0, never -0.0, if all are 0
        min_increment = min(min_increment, low)
        C, C_new = C_new, C
        if delta < opts.tolerance:
            return C, SweepStats(sweep, delta, min_increment, float(C.max()))
    raise ConvergenceError(opts.max_sweeps, delta, opts.tolerance)


def _drunk(space: _StateSpace, opts: SolveOptions):
    """`_sweeps` with 1 + the successor min of a stack of the m smear rows and
    the P pair rows that slots read (see `_StateSpace.reads`), one level of
    rows at a time: under Jacobi one level of every row, under Gauss-Seidel
    the wavefronts of `_StateSpace.levels`. Before a level's min the step
    smears the level before it (first the previous table's last, through the
    spent update) and copies the pair rows that read it, columns permuted, so
    Gauss-Seidel gives the ascending row loop's bits on the full space."""
    (m, columns), (elem, read), cols = space.shape, space.reads, space.cols
    if (states := (2 * m + len(read)) * columns) > 3 * space.state_cap:  # capped as 3 tables
        raise StateSpaceError(f"(2 x {m} table rows + {len(read)} stack rows) x {columns} robber "
                              f"columns / 3 = {states // 3} states exceeds cap {space.state_cap}")
    stack, (flat, start, size) = np.zeros((len(read), columns)), space.slots  # the smear of C = 0
    levels = space.levels if opts.scheme == "gauss-seidel" else [np.arange(m)]
    bounds, read, key = [0, *itertools.accumulate(map(len, levels))], read[m:], elem[m:]
    fixes = [None], [None]  # one level reads the space's, listed in its first sweep (peak RSS)
    if len(levels) > 1:  # each level's rows, and the pair rows that read it, laid end to end
        place = np.argsort(order := np.concatenate(levels))
        level = np.searchsorted(bounds, place[read], "right") - 1  # the level each pair row reads
        by_level = np.argsort(level, kind="stable")
        flat = np.concatenate((place, m + np.argsort(by_level)))[flat]
        start, size = start[order], size[order]
        read, key = place[read[by_level]], (level * len(cols) + key)[by_level]
        fixes = [np.sort(place[f // columns] * columns + f % columns)  # capturable, occupied
                 for f in (space.capturable, space.occupied_at)]
        cuts = (np.searchsorted(f, np.multiply(bounds, columns)).tolist() for f in fixes)
        fixes = [[f[a:b] for a, b in itertools.pairwise(cut)] for f, cut in zip(fixes, cuts)]
    pairs, ends = [[] for _ in levels], [0, *(count := np.bincount(key)).cumsum().tolist()]
    for q in np.flatnonzero(count).tolist():  # the pair rows of one (level, element) key
        a, b = ends[q], ends[q + 1]
        pairs[q // len(cols)].append((read[a:b], cols[q % len(cols)], slice(m + a, m + b)))
    steps = [(at, _min_plan(flat, start[at], size[at], stack.shape), *(f[i] for f in fixes),
              space.gathers and space.twins.smear_plan(
                  np.array([space.configs[x] for x in rows.tolist()]), space.occupied[rows]),
              pairs[i]) for i, (at, rows) in enumerate(zip(map(slice, bounds, bounds[1:]), levels))]
    scratch = np.empty((max(map(len, levels[:-1]), default=0), columns)) if space.gathers else None
    del flat, start, size  # only the plans read them (under Gauss-Seidel, copies)

    def step(C, out):
        src, smears, (at, _, _, occupied, gather, pairs) = C, stack.reshape(-1), steps[-1]
        for level in steps:
            prev, smear = src[at], stack[at]
            if space.gathers:
                space.twins.smear(gather, prev, smear, (out if src is C else scratch)[:len(prev)])
            elif len(steps) == 1:
                np.matmul(prev, space.walk.T, out=smear)
            else:  # changed rows (all the previous table's) one product each, as the row loop
                for i in range(len(prev)) if src is C else (prev != C[at]).any(1).nonzero()[0]:
                    np.matmul(space.walk, prev[i], out=smear[i])
            smears[space.occupied_at if occupied is None else occupied] = 0.0
            for rows, permuted, into in pairs:
                # mode="clip": with the default "raise", take fills `out` through a buffer
                stack[rows].take(permuted, axis=1, out=stack[into], mode="clip")
            at, plan, capturable, occupied, gather, pairs = level
            np.add(_gathered_min(plan, stack, new := out[at]), 1.0, out=new)
            out.reshape(-1)[space.capturable if capturable is None else capturable] = 1.0
            out.reshape(-1)[space.occupied_at if occupied is None else occupied] = 0.0
            src = out

    C, stats = _sweeps(space, step, opts)
    return (C[place] if len(levels) > 1 else C), stats


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
    """The optimal start, drunk capture time and sweep stats of `solve_drunk`
    without the policy, on the quotient by the declared group and twin swaps
    (`_drunk_table` with `symmetric`). The start is the first member of the
    first orbit whose mean is within `_near_min` of the least; a row's mean
    weighs each class column by its free members. Jacobi's rows equal the
    full table's bit for bit on twin-free graphs of maximum degree 2 (paths,
    cycles); elsewhere, and under Gauss-Seidel, they may differ in the last bits.
    """
    if opts is None:
        opts = SolveOptions()
    space, C, stats = _drunk_table(g, k, opts, state_cap, symmetric=True)
    free = space.twins.free(np.array(space.configs))
    means = np.multiply(free, C, out=free).sum(axis=1) / g.n
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
    cop-modified robber chains: `_sweeps` with the policy's gather,
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
    scratch = np.empty_like(W) if space.gathers else None

    def step(V, out):
        np.add(_smeared(space, V, W, scratch)[idx, cols], 1.0, out=out)
        out[space.occupied] = 0.0

    V, _ = _sweeps(space, step, opts)
    return ValueTable("drunk", policy.k, space.configs, V)


def cop_number(g: Graph, max_cops: int = 3, state_cap: int = DEFAULT_STATE_CAP) -> int:
    """Least k with finite adversarial capture time, searched k = 1, 2, ...
    up to `max_cops`."""
    return _cop_number_start(g, max_cops, state_cap)[0]


def _cop_number_start(g: Graph, max_cops: int = 3, state_cap: int = DEFAULT_STATE_CAP):
    """The cop number and `_adversarial_start` there."""
    for k in range(1, max_cops + 1):
        start, ct = _adversarial_start(g, k, state_cap)
        if math.isfinite(ct):
            return k, start, ct
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
    cops, adversarial_start, ct = _cop_number_start(g, max_cops, state_cap)
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
