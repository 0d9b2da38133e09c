"""Differential tests on seeded random small graphs: the solver's policy
evaluator and the fixed-strategy capture distribution against the dense
cop-modified-chain reference, the policy evaluator against its own former
loop, Jacobi and wavefront Gauss-Seidel against the row-by-row loop, the
retrograde adversarial solve against the fixpoint sweep loop and its quotient against
the full solve, the successor min over distinct lists against the padded one,
the lumped smear's gather tables against the dense walk between twin classes,
the successors of kept cop steps against those of every cop step,
both drunk schemes and the symmetry quotient against exact values and
against each other, and configuration ranking against enumeration."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copchase as cc
from copchase import solver
from copchase.chain import MASS_TOL
from copchase.graphs import _padded_flat
from copchase.solver import SolveOptions, SweepStats, _drunk_start, _StateSpace
from copchase.tables import _config_rank

from conftest import (dense_class_walk, exact_drunk_values, lift_quotient, listed_successors,
                      minimax_capture_value, padded_min, random_connected_graph, slot_rows)

# derandomized: every run draws the same examples
SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def graph_instances(n_min, n_max):
    """Seeded random connected graphs on n_min..n_max vertices, with 1-3 cops."""
    return st.builds(
        lambda seed, n, k, p: (random_connected_graph(seed, n, p), k),
        st.integers(0, 2**31 - 1),
        st.integers(n_min, n_max),
        st.integers(1, 3),
        st.sampled_from([0.1, 0.3, 0.6]),
    )


instances = graph_instances(2, 7)
gs_instances = graph_instances(3, 8)
adversarial_instances = graph_instances(2, 8)

NAMED = {
    "cycle12": (cc.cycle(12), 2),
    "grid4": (cc.grid(4), 2),
    "barbell10": (cc.barbell(10, 1.0), 1),
    "lollipop20": (cc.lollipop(20, 0.41), 1),
    "tree2x3": (cc.complete_tree(2, 3), 1),
}


def fixpoint_adversarial(space):
    """Reference adversarial solve: sweep the two-phase backward induction
    over the whole table from C = inf until nothing changes; the cop-to-move
    table and the sweep count, the final unchanged sweep included."""
    m, n = space.m, space.n
    C = np.full((m, n), np.inf)
    C[space.occupied] = 0.0
    R = np.empty_like(C)
    C_new = np.empty_like(C)
    sweeps = 0
    while True:
        sweeps += 1
        solver._robber_max(space, C, R)
        padded_min(_padded_flat(*space.slots), R, C_new)
        C_new += 1.0
        C_new[space.occupied] = 0.0
        if np.array_equal(C_new, C):
            return C, sweeps
        C, C_new = C_new, C
        if sweeps > m * n + 3:
            raise AssertionError("reference fixpoint did not stabilize")


def assert_retrograde_matches_fixpoint(g, k):
    """Returns whether k cops win on g."""
    sol = cc.solve_adversarial(g, k)
    space = _StateSpace(g, k, math.inf)
    C, sweeps = fixpoint_adversarial(space)
    R = np.empty_like(C)
    target = np.empty(C.shape, dtype=np.int64)
    policy = solver._adversarial_policy(space, C, R, target)
    assert np.array_equal(sol.cop_values.values, C)
    assert np.array_equal(sol.robber_values.values, R)
    assert np.array_equal(sol.cop_policy.successor_idx, policy)
    assert np.array_equal(sol.robber_policy.target, target)
    assert sol.sweeps == sweeps
    assert np.array_equal(cc.extract_policy(sol.cop_values, g).successor_idx, policy)
    return math.isfinite(sol.capture_time())


@SETTINGS
@given(adversarial_instances)
def test_retrograde_matches_fixpoint(instance):
    assert_retrograde_matches_fixpoint(*instance)


ADVERSARIAL_NAMED = dict(NAMED, **{
    "cycle12-k1": (cc.cycle(12), 1),  # robber-win
    "grid4-k1": (cc.grid(4), 1),      # robber-win
})


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_NAMED))
@pytest.mark.parametrize("slice_entries", [1, 10**9])
def test_retrograde_matches_fixpoint_named(name, slice_entries, monkeypatch):
    # 1 gathers one state per slice, 10**9 a whole layer at once
    monkeypatch.setattr(solver, "_SLICE_ENTRIES", slice_entries)
    g, k = ADVERSARIAL_NAMED[name]
    assert assert_retrograde_matches_fixpoint(g, k) == ("k1" not in name)


def test_retrograde_matches_fixpoint_on_both_outcomes():
    # a fixed grid of seeded graphs that holds cop wins and robber wins
    wins = {assert_retrograde_matches_fixpoint(random_connected_graph(seed, n, p), k)
            for seed, (n, k, p) in enumerate(itertools.product(
                range(2, 9), range(1, 4), [0.1, 0.3, 0.6]))}
    assert wins == {True, False}


@st.composite
def family_instances(draw):
    """Cycles, paths, grids and barbells of up to 22 vertices with their
    declared groups, half of them relabeled, and 1-3 cops; one cop loses on
    cycles of 4 or more vertices and on grids."""
    family = draw(st.sampled_from(["cycle", "path", "grid", "barbell"]))
    if family == "cycle":
        g = cc.cycle(draw(st.integers(3, 9)))
    elif family == "path":
        g = cc.path(draw(st.integers(2, 9)))
    elif family == "grid":
        g = cc.grid(draw(st.integers(2, 4)))
    else:
        g = cc.barbell(draw(st.integers(2, 8)), draw(st.sampled_from([0.5, 1.0])))
    if draw(st.booleans()):
        g = cc.relabel(g, draw(st.permutations(range(g.n))))  # a conjugated group
    return g, draw(st.integers(1, 3))


def assert_quotient_retrograde_matches(g, k):
    """The quotient pass lifts to the full solve's cop table with as many
    layers, and `_adversarial_start` picks its start; returns whether k
    cops win."""
    full = cc.solve_adversarial(g, k)
    q = _StateSpace(g, k, math.inf, symmetric=True)
    C, layers = solver._retrograde(q)
    assert np.array_equal(lift_quotient(q, C), full.cop_values.values)
    assert layers == full.sweeps
    assert solver._adversarial_start(g, k) == full.optimal_start()
    return math.isfinite(full.capture_time())


@pytest.mark.parametrize("slice_entries", [1, 10**9])
@SETTINGS
@given(family_instances())
def test_quotient_retrograde_matches_full(slice_entries, instance):
    with mock.patch.object(solver, "_SLICE_ENTRIES", slice_entries):
        assert_quotient_retrograde_matches(*instance)


QUOTIENT_ADVERSARIAL = {
    "grid5": (cc.grid(5), 2),  # rows whose stabilizer is not trivial
    "grid4-k1": (cc.grid(4), 1),
    "cycle12-k1": (cc.cycle(12), 1),
    "cycle9-k3": (cc.cycle(9), 3),
    "barbell10": (cc.barbell(10, 1.0), 1),
    "lollipop20": (cc.lollipop(20, 0.41), 1),
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_ADVERSARIAL))
@pytest.mark.parametrize("slice_entries", [1, 10**9])
def test_quotient_retrograde_matches_full_named(name, slice_entries, monkeypatch):
    monkeypatch.setattr(solver, "_SLICE_ENTRIES", slice_entries)
    g, k = QUOTIENT_ADVERSARIAL[name]
    assert assert_quotient_retrograde_matches(g, k) == ("k1" not in name)


def assert_gathered_min_matches_padded(g, k, seed=0):
    for symmetric in (False, True):
        space = _StateSpace(g, k, math.inf, symmetric=symmetric)
        table = np.random.default_rng(seed).random((len(space.cols) * space.m, space.n))
        padded = padded_min(_padded_flat(*space.slots), table, np.empty((space.m, space.n)))
        # gathered rows, runs of slices wherever any, then every list at once
        for shape in ((0, 0), (0, 10**9), (10**9, 0)):
            plan, = solver._min_plan(*space.slots, shape)
            for piece_entries in (1, solver._PIECE_ENTRIES):  # a row per piece, then the default
                with mock.patch.object(solver, "_PIECE_ENTRIES", piece_entries):
                    out = np.full((space.m, space.n), np.nan)
                    assert np.array_equal(solver._gathered_min(plan, table, out), padded)


@SETTINGS
@given(st.one_of(graph_instances(2, 8), family_instances()), st.integers(0, 2**31 - 1))
def test_gathered_min_matches_padded_min(instance, seed):
    assert_gathered_min_matches_padded(*instance, seed)


@pytest.mark.parametrize("g", [cc.lollipop(150, 0.6), cc.lollipop(20, 0.41),
                               cc.barbell(100, 1.0), cc.barbell(10, 1.0), cc.grid(6)],
                         ids=["L150", "L20", "B100", "B10", "G6"])
def test_gathered_min_matches_padded_min_named(g):
    assert_gathered_min_matches_padded(g, 1)


def row_by_row(space, opts):
    """Reference value iteration by `opts.scheme`: one configuration row at a
    time, in ascending order. Under Gauss-Seidel each row reads the rows
    before it as updated in this sweep, smeared one row at a time; under
    Jacobi every row reads the previous table, smeared whole once a sweep."""
    P = space.walk
    C = np.zeros((space.m, space.n))
    W = np.zeros_like(C)  # masked smear of the current table, row by row
    rows = [(succ, np.flatnonzero(occupied))
            for succ, occupied in zip(slot_rows(space), space.occupied)]
    min_increment = math.inf
    for sweep in range(1, opts.max_sweeps + 1):
        if opts.scheme == "jacobi":
            W = C @ P.T
            W[space.occupied] = 0.0
        delta = 0.0
        for x, (succ, occ) in enumerate(rows):
            new_row = W[succ].min(axis=0)
            new_row += 1.0
            new_row[occ] = 0.0
            diff = new_row - C[x]
            delta = max(delta, float(np.abs(diff).max()))
            min_increment = min(min_increment, float(diff.min()))
            C[x] = new_row
            if opts.scheme == "gauss-seidel":
                w = P @ new_row
                w[occ] = 0.0
                W[x] = w
        if delta < opts.tolerance:
            return C, SweepStats(sweep, delta, min_increment, float(C.max()))
    raise AssertionError("reference value iteration did not converge")


def assert_matches_row_loop(g, k, opts=SolveOptions(scheme="gauss-seidel")):
    sol = cc.solve_drunk(g, k, opts)
    space = _StateSpace(g, k, math.inf)
    C, stats = row_by_row(space, opts)
    assert np.array_equal(sol.values.values, C)
    assert np.array_equal(sol.policy.successor_idx, solver._drunk_policy(space, C))
    assert sol.stats == stats


@SETTINGS
@given(gs_instances)
def test_gauss_seidel_matches_row_loop(instance):
    g, k = instance
    assert_matches_row_loop(g, k)
    assert_matches_row_loop(g, k, SolveOptions(scheme="gauss-seidel", tolerance=1e-300))


@pytest.mark.parametrize("name", sorted(NAMED))
@pytest.mark.parametrize("block_rows", [1, 3, 10**9])
def test_gauss_seidel_matches_row_loop_named(name, block_rows, monkeypatch):
    # each level runs in blocks of at most this many rows: 1 runs every row
    # alone, 10**9 every level as one block; rows of a level never read each other
    levels = solver._StateSpace.levels.func
    monkeypatch.setattr(solver._StateSpace, "levels", property(lambda space: [
        block for rows in levels(space)
        for block in np.split(rows, range(block_rows, len(rows), block_rows))]))
    assert_matches_row_loop(*NAMED[name])


@SETTINGS
@given(gs_instances)
def test_jacobi_matches_row_loop(instance):
    # Jacobi is the level loop with one level: every row reads the smear of
    # the previous table, taken as one product
    g, k = instance
    assert_matches_row_loop(g, k, SolveOptions(scheme="jacobi"))
    assert_matches_row_loop(g, k, SolveOptions(scheme="jacobi", tolerance=1e-300))


@pytest.mark.parametrize("name", sorted(NAMED))
def test_jacobi_matches_row_loop_named(name):
    assert_matches_row_loop(*NAMED[name], SolveOptions(scheme="jacobi"))


@pytest.mark.parametrize("name", sorted(NAMED))
def test_wavefront_levels(name):
    g, k = NAMED[name]
    for symmetric in (False, True):
        space = _StateSpace(g, k, math.inf, symmetric)
        levels = space.levels
        assert np.array_equal(np.sort(np.concatenate(levels)), np.arange(space.m))
        level = np.empty(space.m, dtype=np.int64)
        for i, rows in enumerate(levels):
            assert len(rows) > 0 and np.all(np.diff(rows) > 0)
            level[rows] = i
        for x, slots in enumerate(slot_rows(space)):
            succ = space.reads[1][slots]  # the row each slot reads
            assert np.all(level[succ[succ < x]] < level[x])
            assert np.all(level[succ[succ != x]] != level[x])  # a level never reads itself
            if np.any(succ < x):
                assert level[x] == 1 + level[succ[succ < x]].max()
            else:
                assert level[x] == 0


def dense_policy_value(g, policy, tolerance=1e-12, max_sweeps=10**6):
    """Reference evaluator: one dense cop-modified transition block per
    successor configuration the policy uses, applied to that row."""
    n = g.n
    configs = list(policy.configs)
    idx = policy.successor_idx
    blocks = {
        int(c): cc.cop_modified_transition(g, configs[int(c)])[:n, :n] for c in np.unique(idx)
    }
    occupied = np.zeros(idx.shape, dtype=bool)
    for i, cfg in enumerate(configs):
        occupied[i, list(cfg)] = True
    V = np.zeros(idx.shape)
    for _ in range(max_sweeps):
        rows = {c: b @ V[c] for c, b in blocks.items()}
        V_new = np.empty_like(V)
        for c, row in rows.items():
            sel = idx == c
            V_new[sel] = row[np.nonzero(sel)[1]]
        V_new += 1.0
        V_new[occupied] = 0.0
        delta = float(np.abs(V_new - V).max())
        V = V_new
        if delta < tolerance:
            return V
    raise AssertionError("reference evaluation did not converge")


@SETTINGS
@given(instances)
def test_policy_value_matches_dense_reference(instance):
    g, k = instance
    policies = [cc.solve_drunk(g, k).policy]
    adversarial = cc.solve_adversarial(g, k)
    if adversarial.cop_policy.undefined_count() == 0:  # cop-win: defined everywhere
        policies.append(adversarial.cop_policy)
    for policy in policies:
        fast = cc.policy_value(g, policy).values
        assert np.abs(fast - dense_policy_value(g, policy)).max() <= 1e-12


@SETTINGS
@given(instances)
def test_policy_value_of_jacobi_policy_is_the_jacobi_table(instance):
    # a tolerance below every nonzero residual stops both iterations only at
    # exact fixed points, and the greedy policy's fixed point is the table's
    g, k = instance
    exact = 1e-300
    sol = cc.solve_drunk(g, k, SolveOptions(scheme="jacobi", tolerance=exact))
    assert sol.stats.final_delta == 0.0
    assert np.array_equal(cc.policy_value(g, sol.policy, tolerance=exact).values,
                          sol.values.values)


def quotient_jacobi(g, k, opts):
    q = _StateSpace(g, k, math.inf, symmetric=True)
    C, stats = solver._drunk(q, opts)
    return q, C, stats


# family members of 2 to 8 vertices, each with its declared group
SMALL_FAMILIES = ([cc.path(n) for n in range(2, 9)] + [cc.cycle(n) for n in range(3, 9)]
                  + [cc.grid(2)] + [cc.barbell(n, c) for n, c in
                                    [(2, 1.0), (3, 1.0), (4, 0.5), (4, 0.75), (6, 0.34)]])


@st.composite
def exact_instances(draw):
    if draw(st.booleans()):
        g = random_connected_graph(draw(st.integers(0, 2**31 - 1)), draw(st.integers(2, 8)),
                                   draw(st.sampled_from([0.1, 0.3, 0.6])))
    else:
        g = draw(st.sampled_from(SMALL_FAMILIES))
        if draw(st.booleans()):
            g = cc.relabel(g, draw(st.permutations(range(g.n))))  # a conjugated group
    return g, draw(st.integers(1, 2))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(exact_instances())
def test_drunk_solvers_match_exact_values(instance):
    g, k = instance
    opts = {scheme: SolveOptions(scheme=scheme, tolerance=1e-300) for scheme in solver.SCHEMES}
    jacobi = cc.solve_drunk(g, k, opts["jacobi"])
    gauss_seidel = cc.solve_drunk(g, k, opts["gauss-seidel"])
    q, C, stats = quotient_jacobi(g, k, opts["jacobi"])
    quotient_gauss_seidel, gauss_seidel_stats = solver._drunk(q, opts["gauss-seidel"])
    V, rounds = exact_drunk_values(g, k, jacobi.policy.successor_idx)
    assert rounds == 0  # the float policy is optimal, ties allowed
    exact = np.array(V, dtype=float)
    # rounds == 0: V is also the exact value of the float policy itself
    evaluated = cc.policy_value(g, jacobi.policy, tolerance=1e-300).values
    for table in (jacobi.values.values, gauss_seidel.values.values, lift_quotient(q, C),
                  lift_quotient(q, quotient_gauss_seidel), evaluated):
        assert np.all(np.abs(table - exact) <= 1e-14 * exact)
    if len(g.symmetries) == 1 and not q.twins.lumps:  # the quotient is the full space
        assert np.array_equal(C, jacobi.values.values) and stats == jacobi.stats
        assert np.array_equal(quotient_gauss_seidel, gauss_seidel.values.values)
        assert gauss_seidel_stats == gauss_seidel.stats
    means = [sum(row) for row in V]
    best = {cfg for cfg, mean in zip(jacobi.values.configs, means) if mean == min(means)}
    # _drunk_start's starts are the quotient's: both schemes solve that space
    starts = {jacobi.optimal_start()[0], gauss_seidel.optimal_start()[0],
              _drunk_start(g, k, opts["jacobi"])[0], _drunk_start(g, k, opts["gauss-seidel"])[0]}
    assert starts <= best


def own_loop_policy_value(g, policy, tolerance=1e-12, max_sweeps=10**6):
    """`policy_value` as its own Jacobi loop, before it shared the drunk
    solve's: the table it must equal bit for bit."""
    idx = policy.successor_idx
    space = _StateSpace(g, policy.k, math.inf)
    cols = np.arange(space.n)
    V = np.zeros((space.m, space.n))
    W = np.empty_like(V)
    for _ in range(max_sweeps):
        solver._smeared(space, V, W)
        V_new = W[idx, cols]
        V_new += 1.0
        V_new[space.occupied] = 0.0
        delta = float(np.abs(V_new - V).max())
        V = V_new
        if delta < tolerance:
            return V
    raise AssertionError("reference evaluation did not converge")


@SETTINGS
@given(exact_instances())
def test_policy_value_matches_its_own_loop(instance):
    g, k = instance
    for scheme in solver.SCHEMES:
        policy = cc.solve_drunk(g, k, SolveOptions(scheme=scheme)).policy
        assert np.array_equal(cc.policy_value(g, policy).values,
                              own_loop_policy_value(g, policy))


def test_exact_oracle_closed_forms():
    # one cop on P3 catches the robber in one round from anywhere but its own
    # vertex: from an end the cop steps to the centre, which the robber must
    # step onto; so every start has mean (0 + 1 + 1) / 3
    g = cc.path(3)
    V, _ = exact_drunk_values(g, 1, cc.solve_drunk(g, 1).policy.successor_idx)
    assert [sum(row) / 3 for row in V] == [Fraction(2, 3)] * 3
    # P2 with the cops stacked or apart: a lone cop catches in one round
    g = cc.path(2)
    V, _ = exact_drunk_values(g, 2, cc.solve_drunk(g, 2).policy.successor_idx)
    assert V == [[0, 1], [0, 0], [1, 0]]


QUOTIENT_CASES = ([(f"C{n}", cc.cycle(n), k) for n in (3, 4, 7, 12, 16) for k in (1, 2, 3)]
                  + [(f"P{n}", cc.path(n), k) for n in (2, 5, 8, 13) for k in (1, 2, 3)]
                  + [("G3", cc.grid(3), 2), ("G5", cc.grid(5), 2), ("G6", cc.grid(6), 1),
                     ("B8", cc.barbell(8, 0.5), 1), ("B10", cc.barbell(10, 1.0), 2),
                     ("B20", cc.barbell(20, 0.4), 1)])


@pytest.mark.parametrize("name,g,k", QUOTIENT_CASES, ids=[c[0] for c in QUOTIENT_CASES])
@pytest.mark.parametrize("tolerance", [1e-10, 1e-300])
def test_quotient_lifts_to_the_full_jacobi_table(name, g, k, tolerance):
    opts = SolveOptions(scheme="jacobi", tolerance=tolerance)
    full = cc.solve_drunk(g, k, opts)
    q, C, stats = quotient_jacobi(g, k, opts)
    lifted = lift_quotient(q, C)
    assert stats.sweeps == full.stats.sweeps
    if max(map(g.degree, range(g.n))) <= 2:  # a two-term smear sums alike in any order
        assert np.array_equal(lifted, full.values.values) and stats == full.stats
    else:
        assert np.abs(lifted - full.values.values).max() <= 1e-12 * full.values.values.max()
    means = full.values.config_means()
    assert _drunk_start(g, k, opts)[1] == pytest.approx(means.min(), rel=1e-12)


@st.composite
def twin_instances(draw):
    """Seeded relabeled graphs of 2 to 8 vertices with twins, and 1 or 2
    cops: a random connected graph on 1 to 5 vertices to which each new
    vertex joins as an open or closed twin of an existing one, or a small
    family member with twins and its declared group."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        base = (random_connected_graph(draw(st.integers(0, 2**31 - 1)), n,
                                       draw(st.sampled_from([0.1, 0.3, 0.6])))
                if n > 1 else cc.path(1))
        adj = [set(base.neighbors(v)) for v in range(n)]
        for _ in range(draw(st.integers(1, 8 - n))):
            v = draw(st.integers(0, len(adj) - 1))
            nbrs = adj[v] | ({v} if draw(st.booleans()) or not adj[v] else set())
            for u in nbrs:
                adj[u].add(len(adj))
            adj.append(nbrs)
        g = cc.Graph(len(adj), [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v])
    else:
        g = draw(st.sampled_from(TWIN_FAMILIES))
    return cc.relabel(g, draw(st.permutations(range(g.n)))), draw(st.integers(1, 2))


TWIN_FAMILIES = [cc.path(2), cc.path(3), cc.cycle(4), cc.grid(2), cc.complete_tree(2, 2),
                 cc.complete_tree(3, 1), cc.barbell(2, 1.5), cc.barbell(3, 1.0),
                 cc.lollipop(4, 0.75), cc.lollipop(5, 0.6)]


def lumped_space(g, k):
    q = _StateSpace(g, k, math.inf, symmetric=True)
    assert q.twins.lumps  # the instance has twins
    return q


@SETTINGS
@given(twin_instances())
def test_lumped_retrograde_matches_full_and_minimax(instance):
    g, k = instance
    q = lumped_space(g, k)
    C, _ = solver._retrograde(q)
    full = cc.solve_adversarial(g, k)
    assert np.array_equal(lift_quotient(q, C), full.cop_values.values)
    start, ct = solver._adversarial_start(g, k)
    assert (start, ct) == full.optimal_start()
    if k == 1:  # the game-tree oracle moves one cop
        memo = {}
        horizon = g.n + 1
        assert ct == min(max(minimax_capture_value(g, x, y, horizon, memo) for y in range(g.n))
                         for x in range(g.n))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(twin_instances())
def test_lumped_jacobi_matches_exact_values(instance):
    g, k = instance
    opts = SolveOptions(scheme="jacobi", tolerance=1e-300, max_sweeps=10**4)
    q = lumped_space(g, k)
    C, _ = solver._drunk(q, opts)
    V, rounds = exact_drunk_values(g, k, cc.solve_drunk(g, k, opts).policy.successor_idx)
    assert rounds == 0
    exact = np.array(V, dtype=float)
    assert np.all(np.abs(lift_quotient(q, C) - exact) <= 1e-14 * exact)
    means = [sum(row) / g.n for row in V]
    configs = list(itertools.combinations_with_replacement(range(g.n), k))
    start, dct, _ = _drunk_start(g, k, opts)
    assert abs(dct - float(min(means))) <= 1e-14 * float(min(means))
    assert start == min(cfg for cfg, mean in zip(configs, means) if mean == min(means))


@SETTINGS
@given(twin_instances())
def test_smear_plan_lists_the_dense_class_walk(instance):
    # column K of the smear's class and weight tables lists the nonzeros of
    # row K of the dense walk, bit for bit, and adds nothing below them;
    # both graphs' neighbour rows are their sorted neighbourhoods
    g, k = instance
    q = lumped_space(g, k)
    walk = dense_class_walk(q.twins)
    cols, weight = q.twins.walk
    assert cols.shape == weight.shape and cols.shape[1] == len(walk)
    for K, row in enumerate(walk):
        steps = np.flatnonzero(row)
        assert np.array_equal(cols[:len(steps), K], steps)
        assert np.array_equal(weight[:len(steps), K], row[steps])
        assert not weight[len(steps):, K].any()
    for h in (g, q.twins.robber):
        for closed, rows in ((False, h.neighbors), (True, h.closed_neighbors)):
            flat, start, size = h._neighbor_table(closed)
            assert flat.dtype == np.int64 and len(flat) == 2 * h.edge_count() + closed * h.n
            for v in range(h.n):
                assert flat[start[v]: start[v] + size[v]].tolist() == list(rows(v))


def orbit_minima(g, k):
    """The least member of each orbit of k-cop configurations under the
    declared group and every swap of twins, by closing each orbit under the
    group's rows and the swaps of twins next in their class."""
    label = cc.graphs.twin_classes(g).tolist()
    members = {}
    for v, cls in enumerate(label):
        members.setdefault(cls, []).append(v)
    moves = [s.tolist() for s in g.symmetries]
    for group in members.values():
        for u, v in zip(group, group[1:]):
            swap = list(range(g.n))
            swap[u], swap[v] = v, u
            moves.append(swap)
    least, seen = [], set()
    for cfg in itertools.combinations_with_replacement(range(g.n), k):
        if cfg in seen:
            continue
        orbit, todo = {cfg}, [cfg]
        while todo:
            x = todo.pop()
            for s in moves:
                y = tuple(sorted(s[v] for v in x))
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        seen |= orbit
        least.append(min(orbit))
    return sorted(least)


RELABELED_TWIN_FAMILIES = TWIN_FAMILIES + [
    cc.relabel(g, np.random.default_rng(i).permutation(g.n).tolist())
    for i, g in enumerate(TWIN_FAMILIES)]


@pytest.mark.parametrize("g", RELABELED_TWIN_FAMILIES, ids=lambda g: repr(g))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_lumped_rows_are_the_least_members_of_their_orbits(g, k):
    assert lumped_space(g, k).configs == orbit_minima(g, k)


def assert_kept_steps_reach_every_successor(g, k):
    # cops step only onto the first k members of each twin class; the slots
    # must still read every successor orbit of every cop step, through the
    # same element, in the same order
    q = lumped_space(g, k)
    elem, row = q.reads
    pairs = list(zip(row.tolist(), map(tuple, q.cols[elem].tolist())))
    slots = [[pairs[s] for s in succ.tolist()] for succ in slot_rows(q)]
    assert slots == listed_successors(q)


@pytest.mark.parametrize("k", [1, 2, 3])
@SETTINGS
@given(twin_instances())
def test_kept_steps_reach_every_successor(k, instance):
    assert_kept_steps_reach_every_successor(instance[0], k)


@pytest.mark.parametrize("g,k", [(g, k) for g in RELABELED_TWIN_FAMILIES for k in (1, 2, 3)]
                         + [(cc.lollipop(10, 6.0), 3), (cc.barbell(8, 1.0), 3)],
                         ids=lambda v: repr(v))
def test_kept_steps_reach_every_successor_named(g, k):
    assert_kept_steps_reach_every_successor(g, k)


LUMPED_NAMED = {
    "B10-k2": (cc.barbell(10, 1.0), 2), "L20-k2": (cc.lollipop(20, 0.41), 2),
    "B20": (cc.barbell(20, 0.4), 1), "T(2,4)": (cc.complete_tree(2, 4), 1),
    "T(3,3)": (cc.complete_tree(3, 3), 1), "L150": (cc.lollipop(150, 0.6), 1),
}


@pytest.mark.parametrize("name", sorted(LUMPED_NAMED))
def test_lumped_quotient_lifts_to_the_full_tables(name):
    g, k = LUMPED_NAMED[name]
    q = lumped_space(g, k)
    full = cc.solve_adversarial(g, k)
    assert np.array_equal(lift_quotient(q, solver._retrograde(q)[0]), full.cop_values.values)
    drunk = cc.solve_drunk(g, k)
    C, stats = solver._drunk(q, SolveOptions())
    lifted = lift_quotient(q, C)
    assert np.abs(lifted - drunk.values.values).max() <= 1e-12 * drunk.values.values.max()
    assert stats.sweeps == drunk.stats.sweeps
    assert _drunk_start(g, k)[0] == drunk.optimal_start()[0]


# full spaces whose successor slots fit the default cap laid end to end,
# refused while every row was padded to the widest
NEWLY_ADMITTED = {"K(1,79)-k2": (cc.Graph(80, [(0, v) for v in range(1, 80)]), 2)}


@pytest.mark.parametrize("name", sorted(NEWLY_ADMITTED))
def test_admitted_full_space_matches_the_quotient(name):
    g, k = NEWLY_ADMITTED[name]
    drunk = cc.solve_drunk(g, k)
    q, C, _ = solver._drunk_table(g, k, SolveOptions(), solver.DEFAULT_STATE_CAP, symmetric=True)
    lifted = lift_quotient(q, C)
    scale = drunk.values.values.max()
    assert np.abs(lifted - drunk.values.values).max() <= 1e-9 * scale
    # the policy reaches the quotient's values: it is optimal
    assert np.abs(cc.policy_value(g, drunk.policy).values - lifted).max() <= 1e-9 * scale
    start, dct, _ = _drunk_start(g, k)
    assert drunk.optimal_start() == (start, pytest.approx(dct, rel=1e-9))
    assert_quotient_retrograde_matches(g, k)
    assert cc.solve_adversarial(g, k).capture_time() == cc.capture_time(g, k)


def loop_base_transition(g):
    """Reference walk matrix: one row of the augmented matrix at a time."""
    n = g.n
    mat = np.zeros((n + 1, n + 1))
    for v in range(n):
        nbrs = g.adjacency[v]
        mat[v, list(nbrs)] = 1.0 / len(nbrs)
    mat[n, n] = 1.0
    return mat


def dense_capture_distribution(g, strategy, max_rounds):
    """Reference capture distribution: the placement matrix, then one dense
    cop-modified transition matrix per round."""
    n = g.n
    pi = cc.uniform_placement(n) @ cc.placement_matrix(g, strategy.configs[0])
    masses = [float(pi[n])]
    captured = float(pi[n])
    t = 0
    while 1.0 - captured > MASS_TOL and t < max_rounds:
        t += 1
        pi = pi @ cc.cop_modified_transition(g, strategy.config_at(t))
        masses.append(float(pi[n]) - captured)
        captured = float(pi[n])
    return masses, max(0.0, 1.0 - captured) <= MASS_TOL


@st.composite
def strategy_instances(draw):
    """A graph, a legal strategy of k cops (each cop steps within its closed
    neighbourhood) and a round budget; cops may share a vertex."""
    n = draw(st.integers(2, 8))
    g = random_connected_graph(draw(st.integers(0, 2**31 - 1)), n,
                               draw(st.sampled_from([0.1, 0.3, 0.6])))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        cops = [draw(st.integers(0, n - 1))] * k  # stacked from the start
    else:
        cops = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    configs = [tuple(cops)]
    for _ in range(draw(st.integers(0, 6))):  # the last configuration is held
        cops = [draw(st.sampled_from(g.closed_neighbors(v))) for v in cops]
        configs.append(tuple(cops))
    max_rounds = draw(st.sampled_from([1, 3, 10, 10**6]))  # the small ones cut
    return g, cc.FixedStrategy(configs), max_rounds


@SETTINGS
@given(strategy_instances())
def test_capture_distribution_matches_dense_chain(instance):
    g, strategy, max_rounds = instance
    dist = cc.fixed_strategy_capture_distribution(g, strategy, max_rounds)
    masses, terminated = dense_capture_distribution(g, strategy, max_rounds)
    assert dist.rounds == len(masses) - 1
    assert dist.terminated == terminated
    assert np.abs(np.array(dist.masses) - masses).max() <= 1e-15
    assert np.array_equal(cc.base_transition(g), loop_base_transition(g))


def test_config_rank_is_enumeration_index():
    for n in range(1, 9):
        for k in range(1, 5):
            configs = itertools.combinations_with_replacement(range(n), k)
            for i, cfg in enumerate(configs):
                assert _config_rank(n, k, cfg) == i
                assert _config_rank(n, k, cfg[::-1]) == i


def test_lookups_reject_foreign_configs():
    g = cc.path(4)
    adversarial = cc.solve_adversarial(g, 2)
    drunk = cc.solve_drunk(g, 2)
    assert drunk.values.value((3, 0), 1) == drunk.values.value((0, 3), 1)
    for bad in [(4, 0), (-1, 2), (1,), (0, 1, 2)]:
        with pytest.raises(KeyError):
            drunk.values.value(bad, 0)
        with pytest.raises(KeyError):
            adversarial.cop_values[bad, 0]
        with pytest.raises(KeyError):
            drunk.policy.successor(bad, 0)
        with pytest.raises(KeyError):
            adversarial.robber_policy.successor(bad, 0)
    for y in [-1, g.n]:  # a negative robber vertex must not wrap around
        with pytest.raises(KeyError):
            drunk.values.value((0, 1), y)
        with pytest.raises(KeyError):
            adversarial.cop_values[(0, 1), y]
        with pytest.raises(KeyError):
            drunk.policy.successor((0, 1), y)
        with pytest.raises(KeyError):
            adversarial.robber_policy.successor((0, 1), y)


def test_simulation_rejects_unknown_start():
    g = cc.path(4)
    policy = cc.solve_drunk(g, 1).policy
    report = cc.simulate_drunk_pursuit(g, policy, 20, seed=1, start=(1,))
    assert report.censored == 0
    for bad in [(4,), (-1,), (0, 1), ("a",)]:
        with pytest.raises(cc.SimulationError):
            cc.simulate_drunk_pursuit(g, policy, 20, seed=1, start=bad)
    for bad in [(4,), (-1,), (0, 1)]:  # a negative vertex must not wrap around
        with pytest.raises(cc.SimulationError):
            cc.simulate_random_cops(g, 1, "uniform-random", 20, seed=1, start=bad)
