"""Differential tests on seeded random small graphs: the solver's policy
evaluator and the fixed-strategy capture distribution against the dense
cop-modified-chain reference, the policy evaluator against its own former
loop, wavefront Gauss-Seidel against the row-by-row loop, the retrograde
adversarial solve against the fixpoint sweep loop, both drunk schemes and
the symmetry quotient against exact values and against each other, and
configuration ranking against enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copchase as cc
from copchase import solver
from copchase.chain import MASS_TOL
from copchase.solver import (SolveOptions, SweepStats, _config_rank, _drunk_start, _near_min,
                             _StateSpace)

from conftest import exact_drunk_values, lift_quotient, random_connected_graph

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
        solver._gathered_min(space.succ_padded, R, C_new)
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


def row_by_row_gauss_seidel(space, opts):
    """Reference Gauss-Seidel: one configuration row at a time, in ascending
    order, each row reading the rows before it as updated in this sweep."""
    P = space.walk
    C = np.zeros((space.m, space.n))
    W = np.zeros_like(C)  # masked smear of the current table, row by row
    rows = [(space.succ_padded[x, :count], np.flatnonzero(space.occupied[x]))
            for x, count in enumerate(space.succ_count.tolist())]
    min_increment = math.inf
    for sweep in range(1, opts.max_sweeps + 1):
        delta = 0.0
        for x, (succ, occ) in enumerate(rows):
            new_row = W[succ].min(axis=0)
            new_row += 1.0
            new_row[occ] = 0.0
            diff = new_row - C[x]
            delta = max(delta, float(np.abs(diff).max()))
            min_increment = min(min_increment, float(diff.min()))
            C[x] = new_row
            w = P @ new_row
            w[occ] = 0.0
            W[x] = w
        if delta < opts.tolerance:
            return C, SweepStats(sweep, delta, min_increment, float(C.max()))
    raise AssertionError("reference Gauss-Seidel did not converge")


def assert_gauss_seidel_matches_rows(g, k, opts=SolveOptions(scheme="gauss-seidel")):
    sol = cc.solve_drunk(g, k, opts)
    space = _StateSpace(g, k, math.inf)
    C, stats = row_by_row_gauss_seidel(space, opts)
    assert np.array_equal(sol.values.values, C)
    assert np.array_equal(sol.policy.successor_idx, solver._drunk_policy(space, C))
    assert sol.stats == stats


@SETTINGS
@given(gs_instances)
def test_gauss_seidel_matches_row_loop(instance):
    g, k = instance
    assert_gauss_seidel_matches_rows(g, k)
    assert_gauss_seidel_matches_rows(g, k, SolveOptions(scheme="gauss-seidel", tolerance=1e-300))


@pytest.mark.parametrize("name", sorted(NAMED))
@pytest.mark.parametrize("block_min_rows", [1, 3, 10**9])
def test_gauss_seidel_matches_row_loop_named(name, block_min_rows, monkeypatch):
    # 1 runs every level as a block, 10**9 runs every row alone
    monkeypatch.setattr(solver, "_BLOCK_MIN_ROWS", block_min_rows)
    assert_gauss_seidel_matches_rows(*NAMED[name])


@pytest.mark.parametrize("name", sorted(NAMED))
def test_wavefront_levels(name):
    g, k = NAMED[name]
    space = _StateSpace(g, k, math.inf)
    levels = space.levels
    assert np.array_equal(np.sort(np.concatenate(levels)), np.arange(space.m))
    level = np.empty(space.m, dtype=np.int64)
    for i, rows in enumerate(levels):
        assert len(rows) > 0 and np.all(np.diff(rows) > 0)
        level[rows] = i
    for x, count in enumerate(space.succ_count.tolist()):
        succ = space.succ_padded[x, :count]
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
    C, stats = solver._drunk_jacobi(q, opts)
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
    V, rounds = exact_drunk_values(g, k, jacobi.policy.successor_idx)
    assert rounds == 0  # the float policy is optimal, ties allowed
    exact = np.array(V, dtype=float)
    for table in (jacobi.values.values, gauss_seidel.values.values, lift_quotient(q, C)):
        assert np.all(np.abs(table - exact) <= 1e-14 * exact)
    if len(g.symmetries) == 1:  # the quotient is the full space
        assert np.array_equal(C, jacobi.values.values) and stats == jacobi.stats
    means = [sum(row) for row in V]
    best = {cfg for cfg, mean in zip(jacobi.values.configs, means) if mean == min(means)}
    starts = {jacobi.optimal_start()[0], gauss_seidel.optimal_start()[0],
              q.configs[_near_min(C.mean(axis=1))],
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


def test_simulation_rejects_unknown_start():
    g = cc.path(4)
    policy = cc.solve_drunk(g, 1).policy
    report = cc.simulate_drunk_pursuit(g, policy, 20, seed=1, start=(1,))
    assert report.censored == 0
    for bad in [(4,), (-1,), (0, 1), ("a",)]:
        with pytest.raises(cc.SimulationError):
            cc.simulate_drunk_pursuit(g, policy, 20, seed=1, start=bad)
