"""Shared test helpers: deterministic graph factories, sweep strategies and
the game-tree minimax oracle."""

import math
import random

import copchase as cc


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
