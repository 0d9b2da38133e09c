import io
import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest

import copchase as cc
from copchase.graphs import GraphError, _declared

from conftest import complete_graph, random_connected_graph


def test_path_shape():
    g = cc.path(5)
    assert g.n == 5
    assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert cc.validate(g).diameter == 4


def test_path_single_vertex():
    g = cc.path(1)
    assert g.n == 1
    assert g.edge_count() == 0


def test_path_rejects_zero():
    with pytest.raises(GraphError):
        cc.path(0)


def test_cycle_shape():
    g = cc.cycle(4)
    assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    g3 = cc.cycle(3)
    assert all(g3.degree(v) == 2 for v in range(3))
    with pytest.raises(GraphError):
        cc.cycle(2)


def test_complete_tree_counts():
    assert cc.complete_tree(2, 2).n == 7
    assert cc.complete_tree(3, 0).n == 1
    star = cc.complete_tree(3, 1)
    assert star.n == 4
    assert star.degree(0) == 3 and all(star.degree(v) == 1 for v in (1, 2, 3))
    with pytest.raises(GraphError):
        cc.complete_tree(1, 3)
    with pytest.raises(GraphError):
        cc.complete_tree(2, -1)
    with pytest.raises(GraphError):
        cc.complete_tree(10, 9)  # vertex-count overflow


def test_complete_tree_breadth_first_labels():
    g = cc.complete_tree(2, 2)
    assert g.neighbors(0) == (1, 2)
    assert g.neighbors(1) == (0, 3, 4)
    assert g.neighbors(6) == (2,)


@pytest.mark.parametrize("d,depth", [(2, 1), (2, 3), (3, 2)])
def test_tree_edge_count(d, depth):
    g = cc.complete_tree(d, depth)
    assert g.edge_count() == g.n - 1


def test_cartesian_product_counts():
    g = cc.cartesian_product(cc.path(3), cc.path(3))
    assert g.n == 9 and g.edge_count() == 12
    # |E(G x H)| = |V(G)||E(H)| + |V(H)||E(G)|
    for a, b in [(cc.path(4), cc.cycle(5)), (cc.cycle(3), cc.path(2))]:
        prod = cc.cartesian_product(a, b)
        assert prod.edge_count() == a.n * b.edge_count() + b.n * a.edge_count()


def test_cartesian_identity_factor():
    g = cc.cartesian_product(cc.path(6), cc.path(1))
    assert g == cc.path(6)


def test_two_by_two_grid_is_four_cycle():
    g = cc.grid(2)
    assert g.n == 4 and g.edge_count() == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_product_diameter_adds():
    assert cc.validate(cc.cartesian_product(cc.path(4), cc.path(4))).diameter == 6


def test_barbell_counts():
    assert cc.barbell(10, 1).n == 28
    assert cc.barbell(10, 0) == cc.path(10)
    # vertex count / n approaches 1 + 2c
    for n in (50, 100, 200):
        assert abs(cc.barbell(n, 1.0).n / n - 3.0) < 0.05
    with pytest.raises(GraphError):
        cc.barbell(1, 1)
    with pytest.raises(GraphError):
        cc.barbell(10, 0.05)  # floor(c*n) = 0 with c > 0
    with pytest.raises(GraphError):
        cc.barbell(10, -1)


def test_barbell_structure():
    g = cc.barbell(4, 1.0)  # path 0-1-2-3, K4 cliques at both ends
    assert g.n == 4 + 2 * 3
    assert g.degree(0) == 4  # 3 clique mates + path neighbor
    assert g.degree(1) == 2


@pytest.mark.parametrize("build", [
    lambda: cc.path(10**9), lambda: cc.cycle(cc.graphs.MAX_GENERATED_VERTICES + 1),
    lambda: cc.barbell(10**8, 0), lambda: cc.lollipop(10, 1e300), lambda: cc.barbell(10, 1e300),
    lambda: cc.barbell(10, float("inf")), lambda: cc.lollipop(10, float("nan")),
    lambda: cc.barbell(10, -float("inf")),
], ids=["path", "cycle", "barbell-n", "lollipop-c", "barbell-c", "inf", "nan", "-inf"])
def test_generators_reject_outside_input_before_listing_edges(build):
    # each fails at once, before a list of edges or vertices is built
    with pytest.raises(GraphError, match="would have more than|finite and nonnegative"):
        build()


def test_lollipop_counts():
    assert cc.lollipop(10, 1).n == 19
    assert cc.lollipop(10, 0) == cc.path(10)
    for n in (50, 100, 200):
        assert abs(cc.lollipop(n, 1.0).n / n - 2.0) < 0.05


@pytest.mark.parametrize("build, n, edges, symmetries", [
    # path 0-1-2-3 with a K2 at each end: extra vertex 4 at 0, 5 at 3
    (cc.barbell(4, 0.5), 6, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 5)],
     [[0, 1, 2, 3, 4, 5], [3, 2, 1, 0, 5, 4]]),
    (cc.barbell(3, 1), 7, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 5), (2, 6), (3, 4), (5, 6)],
     [[0, 1, 2, 3, 4, 5, 6], [2, 1, 0, 5, 6, 3, 4]]),
    (cc.barbell(5, 0), 5, [(0, 1), (1, 2), (2, 3), (3, 4)], [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]]),
    (cc.lollipop(4, 0.75), 6, [(0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (4, 5)],
     [[0, 1, 2, 3, 4, 5]]),
    (cc.lollipop(3, 0.34), 3, [(0, 1), (1, 2)], [[0, 1, 2]]),  # a clique of one vertex
])
def test_barbell_and_lollipop_edges(build, n, edges, symmetries):
    assert build.n == n
    assert build.edges() == edges
    assert build.symmetries.tolist() == symmetries


def test_validate_diagnostics():
    assert cc.validate(cc.path(5)) == cc.GraphDiagnostics(True, 4, 2)
    assert cc.validate(cc.cycle(6)) == cc.GraphDiagnostics(True, 3, 2)
    assert cc.validate(cc.complete_tree(2, 3)) == cc.GraphDiagnostics(True, 6, 3)


@pytest.mark.parametrize(
    "g",
    [
        cc.path(7),
        cc.cycle(5),
        cc.complete_tree(2, 3),
        cc.grid(3),
        cc.barbell(6, 0.5),
        cc.lollipop(6, 1.0),
    ],
    ids=["path", "cycle", "tree", "grid", "barbell", "lollipop"],
)
def test_generator_invariants(g):
    # simple and symmetric, sorted adjacency, indices in range
    for v in range(g.n):
        nbrs = g.adjacency[v]
        assert list(nbrs) == sorted(set(nbrs))
        assert v not in nbrs
        for u in nbrs:
            assert 0 <= u < g.n
            assert v in g.adjacency[u]


def test_constructor_rejections():
    with pytest.raises(GraphError):
        cc.Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        cc.Graph(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(GraphError):
        cc.Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        cc.Graph(4, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(GraphError):
        cc.Graph(0, [])


def test_graph_immutable():
    g = cc.path(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_relabel_preserves_structure():
    g = random_connected_graph(11, 9)
    perm = [3, 1, 4, 0, 8, 7, 2, 6, 5]
    h = cc.relabel(g, perm)
    assert h.n == g.n and h.edge_count() == g.edge_count()
    assert sorted(g.degree(v) for v in range(g.n)) == sorted(
        h.degree(v) for v in range(h.n)
    )
    assert cc.validate(g).diameter == cc.validate(h).diameter
    with pytest.raises(GraphError):
        cc.relabel(g, [0, 0, 1, 2, 3, 4, 5, 6, 7])


def test_complete_graph_helper():
    k4 = complete_graph(4)
    assert k4.edge_count() == 6 and cc.validate(k4).diameter == 1


def test_family_spec():
    assert cc.FamilySpec("path", n=5).build() == cc.path(5)
    assert cc.FamilySpec("complete-tree", d=2, depth=2).build().n == 7
    assert cc.FamilySpec("grid", n=3).build() == cc.grid(3)
    with pytest.raises(GraphError):
        cc.FamilySpec("moebius", n=5)
    with pytest.raises(GraphError):
        cc.FamilySpec("barbell", n=5).build()  # missing c


def test_edge_list_round_trip(tmp_path):
    g = cc.barbell(5, 0.4)
    target = str(tmp_path / "g.edges")
    cc.write_edge_list(g, target)
    again = cc.read_edge_list(target)
    assert again == g
    assert len(g.symmetries) == 2 and len(again.symmetries) == 1  # files declare no group


def test_edge_list_parser_rejections():
    assert cc.read_edge_list(io.StringIO("2 1\n0 1\n")).n == 2
    for text in [
        "",
        "2\n",
        "2 2\n0 1\n",          # wrong edge count
        "2 1\n1 0\n",          # u >= v
        "2 1\n0 0\n",          # self-loop
        "3 3\n0 1\n0 1\n1 2\n",  # duplicate
        "2 1\na b\n",
    ]:
        with pytest.raises(GraphError):
            cc.read_edge_list(io.StringIO(text))


@pytest.mark.parametrize("n", [3, 3_000_000, 10**9])
def test_edge_list_header_too_sparse_to_connect(n):
    # n vertices need n - 1 edges to be connected; the header is rejected
    # before a neighbour set is allocated per vertex (a 3,000,000-vertex
    # header took 750 MB that way)
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match=f"{n} vertices need at least {n - 1} edges"):
            cc.read_edge_list(io.StringIO(f"{n} 1\n0 1\n"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert cc.read_edge_list(io.StringIO("3 2\n0 1\n1 2\n")).n == 3


@pytest.mark.parametrize("build, what", [
    (lambda: cc.complete_tree(2, 10**8), "complete_tree(2, 100000000)"),
    (lambda: cc.complete_tree(10**9, 10**7), "complete_tree(1000000000, 10000000)"),
    (lambda: cc.grid(10**6), "grid(1000000)"),
], ids=["tree-deep", "tree-wide", "grid"])
def test_oversized_family_is_refused_before_it_is_built(build, what):
    # the vertex count is bounded level by level: d ** (depth + 1) took 0.74 s
    # and 70 MB at d = 2, and did not finish in 120 s at d = 10^9; grid(10^6)
    # built its 10^6-vertex factor path (621 MB max RSS) before the check
    tracemalloc.start()
    began = time.perf_counter()
    try:
        with pytest.raises(GraphError, match=rf"^{re.escape(what)} would have more than 10000000 vertices$"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - began < 1 and peak < 2**20


def automorphisms(g):
    """Every automorphism of g, enumerated by networkx."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    return {tuple(m[v] for v in range(g.n))
            for m in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter()}


SYMMETRIC_FAMILIES = (
    [(f"P{n}", cc.path(n), min(n, 2)) for n in (1, 2, 5, 6)]
    + [(f"C{n}", cc.cycle(n), 2 * n) for n in (3, 4, 5, 8)]
    + [(f"G{n}", cc.grid(n), 1 if n == 1 else 8) for n in (1, 2, 3, 4)]
    + [(f"B{n},{c}", cc.barbell(n, c), 2) for n, c in [(2, 0), (4, 0.25), (4, 1.0), (5, 0.6)]]
)


@pytest.mark.parametrize("name,g,order", SYMMETRIC_FAMILIES,
                         ids=[name for name, _, _ in SYMMETRIC_FAMILIES])
def test_declared_group_is_a_subgroup_of_aut(name, g, order):
    group = {tuple(s) for s in g.symmetries.tolist()}
    assert len(group) == len(g.symmetries) == order
    assert g.symmetries[0].tolist() == list(range(g.n))  # identity first
    assert group <= automorphisms(g)
    for s, t in itertools.product(group, repeat=2):  # closed under composition
        assert tuple(s[v] for v in t) in group


def test_other_graphs_declare_the_trivial_group():
    for g in [cc.complete_tree(2, 2), cc.lollipop(6, 0.5), complete_graph(4),
              cc.cartesian_product(cc.path(2), cc.path(3)), random_connected_graph(3, 6)]:
        assert g.symmetries.tolist() == [list(range(g.n))]


def test_declared_non_automorphism_is_rejected():
    with pytest.raises(GraphError, match="not an automorphism"):
        _declared(cc.path(4), lambda: [[1, 0, 2, 3]]).symmetries
    with pytest.raises(GraphError, match="not a vertex permutation"):
        _declared(cc.path(4), lambda: [[0, 0, 2, 3]]).symmetries
    with pytest.raises(GraphError):
        _declared(cc.path(4), lambda: [[0, 1, 2]]).symmetries


def test_relabel_conjugates_the_group():
    perm = [3, 0, 5, 1, 4, 2]
    for g in [cc.cycle(6), cc.path(6), random_connected_graph(5, 6)]:
        h = cc.relabel(g, perm)
        expected = set()
        for s in g.symmetries.tolist():  # perm[v] maps to perm[s[v]]
            t = [0] * g.n
            for v in range(g.n):
                t[perm[v]] = perm[s[v]]
            expected.add(tuple(t))
        assert {tuple(t) for t in h.symmetries.tolist()} == expected
        assert h.symmetries[0].tolist() == list(range(g.n))
        assert {tuple(t) for t in h.symmetries.tolist()} <= automorphisms(h)


def brute_twin_classes(g):
    """Twin classes by comparing every pair's open and closed neighbourhoods,
    numbered in the order of their least members."""
    label = list(range(g.n))
    for v in range(g.n):
        for u in range(v):
            if (g.neighbors(u) == g.neighbors(v)
                    or g.closed_neighbors(u) == g.closed_neighbors(v)):
                label[v] = label[u]
                break
    first = sorted(set(label))
    return [first.index(c) for c in label]


TWIN_CASES = [
    ("P1", cc.path(1), [0]),
    ("P2", cc.path(2), [0, 0]),  # closed twins
    ("P3", cc.path(3), [0, 1, 0]),  # open twins: the ends
    ("star", cc.complete_tree(3, 1), [0, 1, 1, 1]),  # open twins: the leaves
    ("C4", cc.cycle(4), [0, 1, 0, 1]),
    ("K4", complete_graph(4), [0, 0, 0, 0]),
    ("B4,0.5", cc.barbell(4, 0.5), [0, 1, 2, 3, 4, 5]),  # pendant clique mates: no twins
    ("B3,1", cc.barbell(3, 1.0), [0, 1, 2, 3, 3, 4, 4]),  # the cliques' extra vertices
    ("L4,0.75", cc.lollipop(4, 0.75), [0, 1, 2, 3, 4, 4]),
]


@pytest.mark.parametrize("name,g,label", TWIN_CASES, ids=[c[0] for c in TWIN_CASES])
def test_twin_classes_small(name, g, label):
    assert cc.graphs.twin_classes(g).tolist() == label == brute_twin_classes(g)


@pytest.mark.parametrize("g, n, classes", [
    (cc.complete_tree(2, 6), 127, 95),  # sibling leaves pair up
    (cc.barbell(100, 1.0), 298, 102),   # each clique's 99 extra vertices
    (cc.lollipop(150, 0.6), 239, 151),
], ids=["T(2,6)", "B(100,1)", "L(150,0.6)"])
def test_twin_class_counts(g, n, classes):
    label = cc.graphs.twin_classes(g)
    assert g.n == n and label.max() + 1 == classes
    assert label.tolist() == brute_twin_classes(g)


def test_twin_classes_of_relabeled_graphs():
    # relabeling maps classes onto classes, and swapping two twins is an
    # automorphism
    for seed, g in enumerate([cc.barbell(6, 0.5), cc.barbell(5, 1.0), cc.lollipop(7, 0.6),
                              cc.lollipop(5, 1.0), cc.complete_tree(2, 3)]):
        perm = np.random.default_rng(seed).permutation(g.n).tolist()
        h = cc.relabel(g, perm)
        label, relabeled = cc.graphs.twin_classes(g), cc.graphs.twin_classes(h)
        assert relabeled.tolist() == brute_twin_classes(h)
        assert label.max() == relabeled.max() < g.n - 1
        for u, v in itertools.combinations(range(g.n), 2):
            assert (label[u] == label[v]) == (relabeled[perm[u]] == relabeled[perm[v]])
        symmetric = automorphisms(h)
        for u, v in itertools.combinations(range(h.n), 2):
            if relabeled[u] == relabeled[v]:
                swap = list(range(h.n))
                swap[u], swap[v] = v, u
                assert tuple(swap) in symmetric


def test_asymmetric_graph_has_no_twins():
    g = random_connected_graph(5, 10, 0.3)
    assert len(automorphisms(g)) == 1  # twins would give a swap
    assert cc.graphs.twin_classes(g).tolist() == list(range(g.n))


@pytest.mark.parametrize("name,g,label", TWIN_CASES, ids=[c[0] for c in TWIN_CASES])
def test_twin_quotient_edges(name, g, label):
    q = cc.graphs.twin_quotient(g, np.array(label))
    assert q.n == max(label) + 1
    assert q.edges() == sorted({(min(label[u], label[v]), max(label[u], label[v]))
                                for u, v in g.edges() if label[u] != label[v]})


@pytest.mark.parametrize("build", [
    lambda: cc.barbell(10, 1.0), lambda: cc.lollipop(12, 1.0), lambda: cc.path(60),
    lambda: cc.cycle(60), lambda: cc.complete_tree(2, 6), lambda: cc.grid(6),
], ids=["barbell", "lollipop", "path", "cycle", "tree", "grid"])
def test_edge_cap_holds_before_edges_are_listed(build, monkeypatch):
    # the edge count comes from a formula: no Graph is built
    monkeypatch.setattr(cc.graphs, "MAX_GENERATED_EDGES", 50)
    real = cc.graphs.Graph

    def unbuilt(n, edges):
        if n > 8:  # the grid's factors, P6, are built first
            raise AssertionError("edges were listed")
        return real(n, edges)

    monkeypatch.setattr(cc.graphs, "Graph", unbuilt)
    with pytest.raises(GraphError, match="more than 50 edges"):
        build()


def test_edge_cap_admits_the_graphs_under_it(monkeypatch):
    monkeypatch.setattr(cc.graphs, "MAX_GENERATED_EDGES", 50)
    assert cc.barbell(10, 0.5).edge_count() == 9 + 2 * 10
    assert cc.lollipop(10, 0.9).edge_count() == 9 + 36
    assert cc.path(51).edge_count() == 50
    assert cc.cycle(50).edge_count() == 50
