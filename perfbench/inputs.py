"""Seeded input files for the benchmark: relabeled graphs, the strategies
that go with them, and random sparse graphs with cop number exactly 2.

Everything here is built from the standard library alone, so the inputs do
not depend on the program under test.
"""

from __future__ import annotations

import random


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i - 1, i) for i in range(1, n)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(0, n - 1)]


def grid_edges(n: int) -> list[tuple[int, int]]:
    """n x n grid with vertex r * n + c, matching the program's product order."""
    edges = []
    for r in range(n):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                edges.append((v, v + 1))
            if r + 1 < n:
                edges.append((v, v + n))
    return edges


def path_sweep(n: int) -> list[tuple[int, ...]]:
    """One cop walking the path from one end to the other."""
    return [(i,) for i in range(n)]


def cycle_pinch(n: int) -> list[tuple[int, ...]]:
    """Two cops from adjacent starts walking round the cycle in opposite
    directions until they meet."""
    return [(t % n, (n - 1 - t) % n) for t in range((n - 1) // 2 + 1)]


def write_edge_list(file: str, n: int, edges, perm: list[int]) -> None:
    """Write the program's edge-list format with vertex v renamed perm[v]."""
    lines = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    with open(file, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(lines)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in lines)


def write_strategy(file: str, configs, perm: list[int]) -> None:
    with open(file, "w", encoding="utf-8") as fh:
        for cfg in configs:
            fh.write(" ".join(str(perm[v]) for v in cfg) + "\n")


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def outerplanar_girth5(rng: random.Random, n: int, faces: int) -> list[tuple[int, int]]:
    """A Hamiltonian cycle on n vertices with chords splitting its inside
    into `faces` faces of near-equal size, each at least 5.

    The graph is outerplanar, so two cops suffice (Clarke 2002), and it has
    girth at least 5 and minimum degree 2, so one cop does not (Aigner and
    Fromme 1984): its cop number is exactly 2. Equal face sizes keep the
    solve cost of different draws close together.
    """
    total = n + 2 * (faces - 1)  # each chord is a side of two faces
    sizes = [total // faces + (i < total % faces) for i in range(faces)]
    if min(sizes) < 5:
        raise ValueError(f"{faces} faces of size >= 5 do not fit in {n} vertices")
    rng.shuffle(sizes)
    polygon = list(range(n))
    chords = []
    for size in sizes[:-1]:
        # cut off `size` consecutive polygon vertices with one chord
        i = rng.randrange(len(polygon))
        rotated = polygon[i:] + polygon[:i]
        chords.append((rotated[0], rotated[size - 1]))
        polygon = rotated[size - 1:] + rotated[:1]
    return cycle_edges(n) + chords


def has_trivial_refinement(n: int, edges) -> bool:
    """True when colour refinement separates every vertex, which proves the
    automorphism group trivial (the converse need not hold)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = [len(a) for a in adj]
    while True:
        signature = [(colour[v], tuple(sorted(colour[u] for u in adj[v]))) for v in range(n)]
        names = {s: i for i, s in enumerate(sorted(set(signature)))}
        refined = [names[s] for s in signature]
        if len(set(refined)) == len(set(colour)):
            return len(set(refined)) == n
        colour = refined


def asymmetric_cop2_graph(rng: random.Random, n: int, faces: int) -> list[tuple[int, int]]:
    """Draw outerplanar girth-5 graphs until one has a trivial automorphism
    group. A cycle with one chord is always mirror-symmetric, and so were
    all draws tried with three faces of equal size, so pick n and faces
    that give faces of two sizes."""
    attempts = 10_000
    for _ in range(attempts):
        edges = outerplanar_girth5(rng, n, faces)
        if has_trivial_refinement(n, edges):
            return edges
    raise ValueError(f"no asymmetric graph with n={n}, faces={faces} in {attempts} draws")
