"""Shared test helpers: deterministic graph factories, sweep strategies, the
padded successor min, the dense walk between twin classes, the successors
listed over full closed neighbourhoods, the game-tree minimax oracle and the
exact drunk-robber oracle."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

import copchase as cc
from copchase import montecarlo, solver


def complete_graph(n: int) -> cc.Graph:
    return cc.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_connected_graph(seed: int, n: int, extra_edge_prob: float = 0.3) -> cc.Graph:
    """Random spanning tree plus extra edges; deterministic for a given seed."""
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return cc.Graph(n, sorted(edges))


def path_sweep(n: int) -> cc.FixedStrategy:
    """Single cop walking one end of the path to the other."""
    return cc.FixedStrategy([(i,) for i in range(n)])


def cycle_opposite_sweep(n: int) -> cc.FixedStrategy:
    """Two cops from adjacent starts walking around the cycle in opposite
    directions, pinching the free arc."""
    rounds = (n - 1) // 2 + 1
    return cc.FixedStrategy(
        [tuple(sorted((t % n, (n - 1 - t) % n))) for t in range(rounds)]
    )


def slot_rows(space):
    """The successor slots of each row of a `solver._StateSpace`, one array
    per row, sliced from `slots`."""
    flat, start, size = space.slots
    return [flat[lo:lo + c] for lo, c in zip(start.tolist(), size.tolist())]


def padded_min(succ, table, out):
    """Reference successor min: out[i] = entrywise min of table over the
    rows succ[i, :], padded rows and all; with `_padded_flat(*space.slots)`,
    over the successors of config i."""
    np.copyto(out, table[succ[:, 0]])
    for j in range(1, succ.shape[1]):
        np.minimum(out, table[succ[:, j]], out=out)
    return out


def dense_class_walk(twins):
    """Reference robber walk between the classes of a `lumping.TwinColumns`:
    walk[K, L] is the share of N(y) in class L for y the least member of
    class K, which is equal over twins, counted one neighbour at a time."""
    reps = twins.members[twins.first].tolist()
    walk = np.zeros((len(reps), len(reps)))
    for K, y in enumerate(reps):
        for z in twins.g.neighbors(y):
            walk[K, twins.label[z]] += 1.0
    return walk / np.array([twins.g.degree(y) for y in reps])[:, None]


def listed_successors(space):
    """Reference successors of a `solver._StateSpace`: every joint cop step
    over each row's full closed neighbourhoods, put in twin-least form and
    canonicalized by `solver._canonical`. Per row, one (successor row,
    column permutation) pair per distinct twin-least successor, in ascending
    order of that successor."""
    table = solver._rank_table(space.n, space.k)
    ranks = solver._ranks(np.array(space.configs), table)
    pairs = []
    for cfg in space.configs:
        steps = np.array(np.meshgrid(*map(space.g.closed_neighbors, cfg), indexing="ij"))
        steps = steps.reshape(space.k, -1).T
        steps = space.twins.canonical(np.sort(steps, axis=1))
        own = steps[np.unique(solver._ranks(steps, table), return_index=True)[1]]
        rank, elem = solver._canonical(own, space.group, table, space.twins.canonical)
        rows = np.searchsorted(ranks, rank)
        assert np.array_equal(ranks[rows], rank)  # every successor orbit is a row
        pairs.append(list(zip(rows.tolist(), map(tuple, space.col_group[elem].tolist()))))
    return pairs


def minimax_capture_value(g, x, y, horizon, memo):
    """Plain game-tree recursion: cop to move, value = rounds to capture under
    optimal play, math.inf if capture cannot be forced within the horizon."""
    if x == y:
        return 0.0
    if horizon == 0:
        return math.inf
    key = (x, y, horizon)
    if key in memo:
        return memo[key]
    best = math.inf
    for x2 in g.closed_neighbors(x):
        if x2 == y:
            val = 1.0
        else:
            worst = 0.0
            for y2 in g.closed_neighbors(y):
                if y2 == x2:
                    continue  # stepping onto the cop ends the game at once
                worst = max(worst, minimax_capture_value(g, x2, y2, horizon - 1, memo))
            val = 1.0 + worst
        best = min(best, val)
    memo[key] = best
    return best


def exact_drunk_values(g, k, policy):
    """Exact expected capture times against the drunk robber by policy
    iteration in Fractions (Howard 1960; Bertsekas & Tsitsiklis 1991 for
    stochastic shortest paths), starting from `policy`, a proper
    (configuration row, robber) -> successor row array such as a float
    solver's. Returns the (configurations x n) value lists and the number of
    improvement rounds that changed the policy.

    A cop move onto the robber's vertex is worth 1, and a robber step onto a
    cop adds nothing after it; occupied states are worth 0. Evaluation solves
    the policy's linear system over the free states exactly; improvement
    switches a state only on a strict gain, so the iteration ends at an
    optimal policy.
    """
    n = g.n
    configs = list(itertools.combinations_with_replacement(range(n), k))
    index = {cfg: i for i, cfg in enumerate(configs)}
    succ = [sorted({index[tuple(sorted(c))]
                    for c in itertools.product(*(g.closed_neighbors(v) for v in cfg))})
            for cfg in configs]
    free = [(x, y) for x, cfg in enumerate(configs) for y in range(n) if y not in cfg]
    action = {s: int(policy[s]) for s in free}

    def after_cops(V, x2, y):
        """Expected value once the cops stand on x2 and the robber steps from y."""
        if y in configs[x2]:
            return Fraction(0)
        nbrs = g.neighbors(y)
        return Fraction(sum(V[x2][z] for z in nbrs), len(nbrs))

    rounds = 0
    while True:
        V = _evaluate(g, configs, free, action)
        changed = False
        for x, y in free:
            best = after_cops(V, action[x, y], y)
            for x2 in succ[x]:
                value = after_cops(V, x2, y)
                if value < best:
                    best, action[x, y], changed = value, x2, True
        if not changed:
            return V, rounds
        rounds += 1


def _evaluate(g, configs, free, action):
    """Values of a fixed cop policy: Gauss-Jordan elimination on sparse rows
    of V[s] - sum of P[s, s'] V[s'] = 1 over the free states s."""
    col = {s: i for i, s in enumerate(free)}
    rows, rhs = [], []
    for x, y in free:
        x2 = action[x, y]
        row = {col[x, y]: Fraction(1)}
        if y not in configs[x2]:
            nbrs = g.neighbors(y)
            for z in nbrs:
                if z not in configs[x2]:
                    c = col[x2, z]
                    row[c] = row.get(c, 0) - Fraction(1, len(nbrs))
        rows.append(row)
        rhs.append(Fraction(1))
    holders = [set() for _ in free]  # column -> rows with a nonzero there
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    for p, row in enumerate(rows):
        inv = 1 / row[p]  # nonzero: I - P is a nonsingular M-matrix for a proper policy
        row = rows[p] = {c: v * inv for c, v in row.items()}
        rhs[p] *= inv
        for r in holders[p] - {p}:
            factor = rows[r].pop(p)
            for c, v in row.items():
                if c != p:
                    value = rows[r].get(c, 0) - factor * v
                    if value:
                        rows[r][c] = value
                        holders[c].add(r)
                    else:
                        rows[r].pop(c, None)
                        holders[c].discard(r)
            rhs[r] -= factor * rhs[p]
        holders[p] = {p}
    V = [[Fraction(0)] * g.n for _ in configs]
    for (x, y), value in zip(free, rhs):
        V[x][y] = value
    return V


def lift_quotient(q, C):
    """The full (configurations x n) table of a table C over the rows of a
    symmetric `solver._StateSpace` q. Row x is C's row r for x's orbit with
    its columns permuted by the group element s that maps x onto r's
    configuration: the value at (x, y) is the value at (s(x), s(y)). Where
    twin classes lump (`q.twins`), s(y) is read at its class's column, and
    the vertices of x read 0."""
    table = solver._rank_table(q.n, q.k)
    configs = np.array(list(itertools.combinations_with_replacement(range(q.n), q.k)))
    ranks, elems = solver._canonical(configs, q.group, table, q.twins.canonical)
    rows = np.searchsorted(solver._ranks(np.array(q.configs), table), ranks)
    images = q.twins.canonical(np.sort(q.group[elems[:, None], configs], axis=1))
    assert np.array_equal(images, np.array(q.configs)[rows])  # s(x) is row r
    if not q.twins.lumps:
        return C[rows[:, None], q.group[elems]]
    lifted = C[rows[:, None], q.col_group[elems][:, q.twins.label]]
    lifted[montecarlo._occupancy(configs, q.n)] = 0.0
    return lifted
