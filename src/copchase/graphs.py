"""Undirected simple connected graphs: representation, family generators, file IO."""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

MAX_GENERATED_VERTICES = 10_000_000
MAX_GENERATED_EDGES = 10_000_000


class GraphError(ValueError):
    """Malformed or unsupported graph input."""


class Graph:
    """Immutable undirected simple connected graph with 0-based vertex labels.

    Vertices are 0..n-1; `adjacency[v]` is the sorted tuple of neighbors of v.
    Construction validates simplicity, symmetry of the edge list, index
    range, and connectivity.
    """

    __slots__ = ("n", "adjacency", "_edge_count", "_tables", "_symmetries")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not isinstance(n, int) or n < 1:
            raise GraphError(f"vertex count must be a positive integer, got {n!r}")
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if v in neighbor_sets[u]:
                raise GraphError(f"duplicate edge ({u}, {v})")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
            m += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(s)) for s in neighbor_sets)
        )
        object.__setattr__(self, "_edge_count", m)
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_symmetries", None)
        if min(_bfs_distances(self, 0)) < 0:
            raise GraphError("graph is not connected")

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def _neighbor_table(self, closed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted open or closed neighbourhoods laid end to end as int64, each
        row's start and each row's size; built once per graph, shared by every
        layer that steps the robber or the cops. Row v is flat[start[v]:][:size[v]],
        and flat[start[v] + floor(u * size[v])] is uniform over it for u in [0, 1)."""
        if self._tables is None:
            closed_rows = [self.closed_neighbors(v) for v in range(self.n)]
            object.__setattr__(self, "_tables", (_laid(self.adjacency), _laid(closed_rows)))
        return self._tables[1 if closed else 0]

    @property
    def symmetries(self) -> np.ndarray:
        """The declared symmetry group, a subgroup of the automorphism group,
        as a (group order, n) int64 array whose row s maps vertex v to s[v].
        Cycles declare the dihedral group, paths and barbells the mirror,
        grids the symmetries of the square; every other graph has the
        trivial group. Rows are distinct: the identity, then the declared
        order, which decides the element the drunk solver picks where several
        map a configuration alike (cycles list rotations first, so that few
        distinct elements serve every successor). Built on first use and
        checked against the edge set then."""
        declared = self._symmetries
        if not isinstance(declared, np.ndarray):
            group = _checked_symmetries(self, declared() if declared else [])
            object.__setattr__(self, "_symmetries", group)
        return self._symmetries

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Open neighborhood N(v)."""
        return self.adjacency[v]

    def closed_neighbors(self, v: int) -> tuple[int, ...]:
        """Closed neighborhood N+(v) = N(v) plus v itself, sorted."""
        return tuple(sorted(self.adjacency[v] + (v,)))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_count(self) -> int:
        return self._edge_count

    def edges(self) -> list[tuple[int, int]]:
        """Sorted edge list with u < v."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._edge_count})"


@dataclass(frozen=True)
class GraphDiagnostics:
    connected: bool
    diameter: int
    max_degree: int


def validate(g: Graph) -> GraphDiagnostics:
    """BFS-based diagnostics: connectivity, exact diameter, maximum degree."""
    diameter = 0
    for v in range(g.n):
        dist = _bfs_distances(g, v)
        diameter = max(diameter, max(dist))
    max_degree = max((g.degree(v) for v in range(g.n)), default=0)
    return GraphDiagnostics(connected=True, diameter=diameter, max_degree=max_degree)


def _laid(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows laid end to end as int64, each row's start and each row's size."""
    size = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=int(size.sum()))
    return flat, np.cumsum(size) - size, size


def _ragged(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices start[i], ..., start[i] + size[i] - 1 of each row i, laid end to end."""
    ends = size.cumsum()  # methods: small slices pay for np.cumsum's dispatch
    return np.arange(ends[-1] if len(ends) else 0) + (start - ends + size).repeat(size)


def _padded_flat(flat: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Rows of flat, row i the size[i] >= 1 entries from start[i], as one
    table as wide as the widest, short rows padded with their first entry."""
    width = np.arange(int(size.max()))
    at = np.where(width < size[:, None], width, 0)
    at += start[:, None]
    return flat[at]


def _declared(g: Graph, symmetries: Callable[[], Sequence]) -> Graph:
    """g with a declared symmetry group: `symmetries()` returns its elements,
    one vertex permutation per row. The group of a large cycle does not fit
    in memory, so it is built only when `g.symmetries` is first read."""
    object.__setattr__(g, "_symmetries", symmetries)
    return g


def _checked_symmetries(g: Graph, perms) -> np.ndarray:
    """The identity and then `perms`, each row kept at its first occurrence;
    GraphError unless every row is a vertex permutation that maps the edge
    set onto itself."""
    n = g.n
    declared = np.asarray(perms, dtype=np.int64)
    if declared.size and declared.shape[-1] != n:
        raise GraphError(f"declared symmetries must permute {n} vertices")
    rows = np.vstack([np.arange(n), declared.reshape(-1, n)])
    order = np.lexsort(rows.T)  # stable: equal rows stay in declared order
    ranked = rows[order]
    first = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
    # not np.unique, which imports numpy.ma; stable sorts, as in the solver
    group = rows[np.sort(order[first], kind="stable")]
    edges = np.array(g.edges(), dtype=np.int64).reshape(-1, 2)
    codes = edges[:, 0] * n + edges[:, 1]  # sorted: g.edges() is
    for perm in group:
        if not np.array_equal(np.sort(perm, kind="stable"), np.arange(n)):
            raise GraphError(f"declared symmetry {perm.tolist()} is not a vertex permutation")
        image = perm[edges]
        if not np.array_equal(np.sort(image.min(axis=1) * n + image.max(axis=1), kind="stable"),
                              codes):
            raise GraphError(f"declared symmetry {perm.tolist()} is not an automorphism")
    return group


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def twin_classes(g: Graph) -> np.ndarray:
    """Per vertex, the index of its twin class, classes numbered in the order
    of their least members. Twins have equal open neighbourhoods (nonadjacent
    twins, such as the leaves of a star) or equal closed ones (adjacent twins,
    such as the members of a clique), so swapping two of them is an
    automorphism. No vertex has twins of both kinds: if N(u) = N(v) and
    N[u] = N[w], then w is in N(v), v in N[w] = N[u], and v would be its own
    neighbour. The classes found by hashing the neighbourhoods, in O(n + m),
    thus partition the vertices."""
    keys, opened, closed = [], {}, {}
    for v, nbrs in enumerate(g.adjacency):
        at = bisect.bisect(nbrs, v)
        key = (nbrs, nbrs[:at] + (v,) + nbrs[at:])
        keys.append(key)
        opened.setdefault(key[0], []).append(v)
        closed.setdefault(key[1], []).append(v)
    label = [0] * g.n
    classes = 0
    for v, (open_key, closed_key) in enumerate(keys):
        first = min(opened[open_key][0], closed[closed_key][0])  # v itself if it has no twin
        if first == v:
            label[v], classes = classes, classes + 1
        else:
            label[v] = label[first]
    return np.array(label, dtype=np.int64)


def twin_quotient(g: Graph, label: np.ndarray) -> Graph:
    """The graph on the classes of `label`, two classes adjacent where their
    members are; for twin classes (see `twin_classes`) the neighbours of a
    class's least member tell every edge at the class."""
    classes = int(label.max()) + 1
    first = np.full(classes, g.n)
    np.minimum.at(first, label, np.arange(g.n))
    flat, start, deg = g._neighbor_table(closed=False)
    row = np.repeat(np.arange(classes), deg[first])
    ends = label[flat[_ragged(start[first], deg[first])]]
    codes = (row * classes + ends)[ends > row]
    codes = np.sort(codes, kind="stable")
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))[:len(codes)]]
    return Graph(classes, zip(*(half.tolist() for half in np.divmod(codes, classes))))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _check_size(what: str, n: int, m: int) -> None:
    """GraphError before any edge is listed if a generated graph of n
    vertices and m edges is too large."""
    if n > MAX_GENERATED_VERTICES:
        raise GraphError(f"{what} would have more than {MAX_GENERATED_VERTICES} vertices")
    if m > MAX_GENERATED_EDGES:
        raise GraphError(f"{what} would have more than {MAX_GENERATED_EDGES} edges")


def path(n: int) -> Graph:
    """Path on n >= 1 vertices, edges {i-1, i}."""
    if n < 1:
        raise GraphError(f"path requires n >= 1, got {n}")
    _check_size(f"path({n})", n, n - 1)
    return _declared(Graph(n, [(i - 1, i) for i in range(1, n)]), lambda: np.arange(n)[::-1])


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, edges {i, i+1 mod n}."""
    if n < 3:
        raise GraphError(f"cycle requires n >= 3, got {n}")
    _check_size(f"cycle({n})", n, n)

    def dihedral():
        v, shift = np.arange(n), np.arange(n)[:, None]
        return np.vstack([(v + shift) % n, (shift - v) % n])  # rotations, reflections

    return _declared(Graph(n, [(i, (i + 1) % n) for i in range(n)]), dihedral)


def complete_tree(d: int, depth: int) -> Graph:
    """Rooted tree where every non-leaf vertex has d children, labelled
    breadth-first with the root at 0.

    Has (d**(depth+1) - 1) / (d - 1) vertices; leaves sit at `depth`.
    """
    if d < 2:
        raise GraphError(f"complete_tree requires branching d >= 2, got {d}")
    if depth < 0:
        raise GraphError(f"complete_tree requires depth >= 0, got {depth}")
    n = width = 1  # one level at a time, stopping past the cap: d ** (depth + 1) may not fit memory
    for _ in range(depth):
        if n > MAX_GENERATED_VERTICES:
            break
        width *= d
        n += width
    _check_size(f"complete_tree({d}, {depth})", n, n - 1)
    edges = []
    # breadth-first labelling: children of vertex i are d*i+1 .. d*i+d
    for child in range(1, n):
        parent = (child - 1) // d
        edges.append((parent, child))
    return Graph(n, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: vertex (u, v) flattened row-major to u*|V(h)| + v.

    (u1,v1) ~ (u2,v2) iff u1 == u2 and v1 ~ v2, or v1 == v2 and u1 ~ u2.
    """
    nh = h.n
    _check_size("the cartesian product", g.n * nh, g.n * h.edge_count() + g.edge_count() * nh)
    edges = []
    for u in range(g.n):
        base = u * nh
        for v1, v2 in h.edges():
            edges.append((base + v1, base + v2))
    for u1, u2 in g.edges():
        for v in range(nh):
            edges.append((u1 * nh + v, u2 * nh + v))
    return Graph(g.n * nh, edges)


def grid(n: int) -> Graph:
    """Square grid: the Cartesian product of two paths on n vertices."""

    _check_size(f"grid({n})", n * n, 2 * n * (n - 1))  # before the factor paths are built

    def square():  # the 8 symmetries of the square: transpose or not, then flip either axis
        i, j = np.divmod(np.arange(n * n), n)
        return [a * n + b for u, v in ((i, j), (j, i))
                for a in (u, n - 1 - u) for b in (v, n - 1 - v)]

    return _declared(cartesian_product(path(n), path(n)), square)


def _clique_size(n: int, c: float) -> int:
    if not 0 <= c < math.inf:  # also rejects nan
        raise GraphError(f"clique ratio c must be finite and nonnegative, got {c}")
    m = math.floor(min(c * n, MAX_GENERATED_VERTICES + 1))  # inf too: refused by _check_size
    if c > 0 and m < 1:
        raise GraphError(f"clique ratio c={c} yields an empty clique at n={n}")
    return m


def _path_with_cliques(family: str, n: int, c: float, ends: tuple[int, ...]) -> tuple[Graph, int]:
    """Path on n vertices with a clique of floor(c*n) vertices at each path
    vertex in `ends`, and each clique's vertex count off the path. The
    cliques' extra vertices follow the path, one clique after another."""
    if n < 2:
        raise GraphError(f"{family} requires n >= 2, got {n}")
    extra = max(_clique_size(n, c) - 1, 0)
    _check_size(f"{family}({n}, {c})", n + len(ends) * extra,
                n - 1 + len(ends) * math.comb(extra + 1, 2))
    edges = [(i - 1, i) for i in range(1, n)]
    for j, end in enumerate(ends):
        members = [end, *range(n + j * extra, n + (j + 1) * extra)]
        edges.extend((u, v) for i, u in enumerate(members) for v in members[i + 1:])
    return Graph(n + len(ends) * extra, edges), extra


def barbell(n: int, c: float) -> Graph:
    """Path on n vertices with a clique of floor(c*n) vertices attached at
    each end; the path endpoints are members of their cliques.

    Vertices: 0..n-1 the path, then n..n+m-2 the first clique's extra
    vertices (sharing endpoint 0), then the second clique's (sharing n-1).
    c == 0 degenerates to the bare path.
    """
    g, extra = _path_with_cliques("barbell", n, c, (0, n - 1))

    def mirror():  # reverse the path and swap the cliques' extra vertices
        return [*range(n - 1, -1, -1), *range(n + extra, g.n), *range(n, n + extra)]

    return _declared(g, mirror)


def lollipop(n: int, c: float) -> Graph:
    """Path on n vertices with a clique of floor(c*n) vertices sharing
    endpoint 0. c == 0 degenerates to the bare path."""
    return _path_with_cliques("lollipop", n, c, (0,))[0]


FAMILY_TAGS = ("path", "cycle", "complete-tree", "grid", "barbell", "lollipop", "custom")


@dataclass(frozen=True)
class FamilySpec:
    """Parameterized graph family; `build()` produces the graph."""

    family: str
    n: int | None = None
    c: float | None = None
    d: int | None = None
    depth: int | None = None

    def __post_init__(self):
        if self.family not in FAMILY_TAGS:
            raise GraphError(f"unknown family {self.family!r}")

    def build(self) -> Graph:
        fam = self.family
        if fam == "path":
            return path(self._require("n"))
        if fam == "cycle":
            return cycle(self._require("n"))
        if fam == "complete-tree":
            return complete_tree(self._require("d"), self._require("depth"))
        if fam == "grid":
            return grid(self._require("n"))
        if fam == "barbell":
            return barbell(self._require("n"), self._require("c"))
        if fam == "lollipop":
            return lollipop(self._require("n"), self._require("c"))
        raise GraphError("custom families are built from edge-list files")

    def _require(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise GraphError(f"family {self.family!r} requires parameter {name!r}")
        return value


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation: vertex v becomes perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("perm must be a permutation of 0..n-1")
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])

    def conjugated():  # s becomes perm . s . perm^-1
        p, group = np.asarray(perm, dtype=np.int64), g.symmetries
        out = np.empty_like(group)
        out[:, p] = p[group]
        return out

    return _declared(h, conjugated)


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" with u < v.
# ---------------------------------------------------------------------------


def read_edge_list(source: str | TextIO) -> Graph:
    """Parse the edge-list text format; rejects duplicates, self-loops, unconnectable headers."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_edge_list(fh)
    lines = [line.strip() for line in source if line.strip()]
    if not lines:
        raise GraphError("empty edge-list file")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphError(f"bad header {lines[0]!r}") from exc
    if n > m + 1:  # checked before Graph allocates a set per vertex
        raise GraphError(f"graph is not connected: {n} vertices need at least {n - 1} edges")
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"bad edge line {line!r}") from exc
        if u >= v:
            raise GraphError(f"edge lines must have u < v, got {line!r}")
        edges.append((u, v))
    return Graph(n, edges)


def write_edge_list(g: Graph, sink: str | TextIO) -> None:
    """Write the edge-list text format with sorted edges."""
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
        return
    edges = g.edges()
    sink.write(f"{g.n} {len(edges)}\n")
    for u, v in edges:
        sink.write(f"{u} {v}\n")
