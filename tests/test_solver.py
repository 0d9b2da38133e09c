import io
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import copchase as cc
from copchase import solver
from copchase.solver import SweepStats, _drunk_start, _StateSpace

from conftest import (complete_graph, listed_successors, minimax_capture_value,
                      random_connected_graph, slot_rows)


# ---------------------------------------------------------------------------
# independent oracle: exhaustive bounded-horizon minimax for one cop
# ---------------------------------------------------------------------------


def assert_matches_minimax(g):
    horizon = g.n * g.n
    sol = cc.solve_adversarial(g, 1)
    table = sol.cop_values
    finite = table.values[np.isfinite(table.values)]
    if finite.size:
        assert finite.max() < horizon  # horizon is a valid cutoff
    memo = {}
    for x in range(g.n):
        for y in range(g.n):
            assert table.value((x,), y) == minimax_capture_value(g, x, y, horizon, memo)


@pytest.mark.parametrize(
    "g",
    [
        cc.path(4),
        cc.path(6),
        cc.cycle(5),
        cc.complete_tree(2, 1),
        cc.complete_tree(3, 1),
        complete_graph(4),
        random_connected_graph(41, 5),
        random_connected_graph(42, 6, extra_edge_prob=0.5),
    ],
    ids=["P4", "P6", "C5", "T21", "star", "K4", "rand5", "rand6"],
)
def test_adversarial_matches_minimax(g):
    assert_matches_minimax(g)


# ---------------------------------------------------------------------------
# adversarial values
# ---------------------------------------------------------------------------


def test_capture_time_closed_forms():
    assert cc.capture_time(cc.path(5), 1) == 2
    assert cc.capture_time(cc.path(9), 1) == 4
    assert cc.capture_time(cc.cycle(11), 2) == 3
    assert cc.capture_time(cc.grid(4), 2) == 3
    assert cc.capture_time(cc.path(2), 1) == 1


def test_cycle_one_cop_is_robber_win():
    sol = cc.solve_adversarial(cc.cycle(4), 1)
    assert math.isinf(sol.capture_time())
    # every start has an escaping robber reply
    assert np.all(np.isinf(sol.cop_values.values.max(axis=1)))


def test_total_occupation_wins():
    g = random_connected_graph(7, 5)
    sol = cc.solve_adversarial(g, g.n)
    assert np.all(np.isfinite(sol.cop_values.values))


def test_adversarial_values_are_integers():
    sol = cc.solve_adversarial(random_connected_graph(9, 7), 1)
    vals = sol.cop_values.values
    finite = vals[np.isfinite(vals)]
    assert np.array_equal(finite, np.round(finite))
    assert finite.min() >= 0


def test_policy_play_reproduces_values():
    # following the extracted cop and robber policies from any state plays a
    # game of exactly the tabulated length
    g = cc.path(7)
    sol = cc.solve_adversarial(g, 1)
    for x0 in range(g.n):
        for y0 in range(g.n):
            expected = sol.cop_values.value((x0,), y0)
            x, y = (x0,), y0
            rounds = 0
            while y not in x:
                rounds += 1
                x = sol.cop_policy.successor(x, y)
                if y in x:
                    break
                y = sol.robber_policy.successor(x, y)
                assert rounds <= expected + 1
            assert rounds == expected


@pytest.mark.parametrize("g, k", [(cc.barbell(100, 1.0), 1), (cc.grid(10), 2)])
def test_adversarial_memory_in_bytes(g, k):
    # the solve's own tables (values, replies, policies) dominate; scratch
    # gathered per retrograde layer must stay small beside them
    g._neighbor_table(closed=True)
    tracemalloc.start()
    try:
        sol = cc.solve_adversarial(g, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * sol.cop_values.values.nbytes


def test_drunk_memory_in_bytes():
    # a Jacobi sweep holds the table, the next one, the smear and the
    # successor min's scratch, and takes its residual into the spent table;
    # a sweep that held a residual table of its own would peak above 6
    # tables (6.6 on G10 k=2)
    g = cc.grid(10)
    g._neighbor_table(closed=True)
    tracemalloc.start()
    try:
        sol = cc.solve_drunk(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * sol.values.values.nbytes


def test_quotient_drunk_memory_in_bytes():
    # the quotient Jacobi stacks the m smear rows and the P pair rows that
    # slots read (G10 k=2: 675 + 833), not a copy of all m rows per group
    # element in use (8 x 675), which peaked at 11.9 tables
    g = cc.grid(10)
    g._neighbor_table(closed=True)
    space = _StateSpace(g, 2, math.inf, symmetric=True)
    tracemalloc.start()
    try:
        _drunk_start(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * space.m * space.shape[1] * 8


def test_lumped_drunk_memory_in_bytes():
    # a lumped Jacobi solve holds C, its update and the stack; the means
    # count free members only after the sweeps, and the smear reads its
    # class steps off the neighbour rows and takes the update as scratch.
    # A dense class walk and a scratch table of its own peaked at 7.9
    # tables on L(150, 0.6)
    g = cc.lollipop(150, 0.6)
    g._neighbor_table(closed=True)
    space = _StateSpace(g, 1, math.inf, symmetric=True)
    assert space.twins.lumps
    tracemalloc.start()
    try:
        _drunk_start(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * space.m * space.shape[1] * 8


@pytest.mark.parametrize("g,k", [(cc.lollipop(150, 0.6), 1), (cc.cycle(120), 2), (cc.grid(10), 2)],
                         ids=["L150k1", "C120k2", "G10k2"])
def test_gauss_seidel_memory_in_bytes(g, k):
    # both schemes hold the table, its update and the stack; Gauss-Seidel
    # builds each level's state once, beside them. A copy of the class walk
    # per level peaked at 2.5 x Jacobi's on L(150, 0.6), and the per-level
    # masks and buffers at 1.8 x on C120 k=2
    peaks = {}
    for scheme in solver.SCHEMES:
        opts = cc.SolveOptions(scheme=scheme)
        _drunk_start(g, k, opts)  # the graph's cached tables and group first
        tracemalloc.start()
        try:
            _drunk_start(g, k, opts)
            peaks[scheme] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["gauss-seidel"] <= 1.25 * peaks["jacobi"]


@pytest.mark.parametrize("start", [solver._adversarial_start, _drunk_start],
                         ids=["adversarial", "drunk"])
def test_star_solves_in_bytes(start):
    # K(1, 3999) lumps to two classes; its neighbour rows hold n + 2m and
    # 2m entries, where rows padded to the centre's 4000 peaked near 400 MB
    g = cc.Graph(4000, [(0, v) for v in range(1, 4000)])
    tracemalloc.start()
    try:
        config, value = start(g, 1)[:2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    # from the centre the cop catches the robber in one round, or at once if
    # it was placed there
    assert config == (0,) and value == pytest.approx(3999 / 4000 if start is _drunk_start else 1)


def read_pairs(q):
    """The distinct (column permutation, row) pairs through a non-identity
    group element that the successors of q's rows read, found by listing
    every cop step of every row and canonicalizing it on its own."""
    table = solver._rank_table(q.n, q.k)
    ranks = solver._ranks(np.array(q.configs), table)
    pairs = set()
    for cfg in q.configs:
        steps = np.sort(np.array(list(itertools.product(
            *(q.g.closed_neighbors(v) for v in cfg)))), axis=1)
        rank, elem = solver._canonical(q.twins.canonical(steps), q.group, table,
                                       q.twins.canonical)
        rows = np.searchsorted(ranks, rank)
        assert np.array_equal(ranks[rows], rank)
        pairs |= {(tuple(q.col_group[e].tolist()), r)
                  for e, r in zip(elem.tolist(), rows.tolist()) if e}
    return pairs


@pytest.mark.parametrize("g,k", [
    (cc.cycle(8), 2), (cc.cycle(9), 3), (cc.grid(4), 2), (cc.grid(3), 3),
    (cc.barbell(6, 1.0), 1), (cc.barbell(4, 1.0), 2), (cc.path(9), 2),
    (cc.complete_tree(2, 3), 1), (cc.complete_tree(2, 2), 2)],
    ids=["C8k2", "C9k3", "G4k2", "G3k3", "B6", "B4k2", "P9k2", "T23", "T22k2"])
def test_jacobi_stack_holds_the_read_pairs(g, k, monkeypatch):
    # the stack is the smear's m rows, then exactly the P pairs that some
    # slot reads, each its row's smear with its element's columns permuted
    q = _StateSpace(g, k, math.inf, symmetric=True)
    m, columns = q.shape
    elem, row = q.reads
    pairs = read_pairs(q)
    assert len(row) == m + len(pairs)
    assert np.array_equal(elem[:m], np.zeros(m)) and np.array_equal(row[:m], np.arange(m))
    assert {(tuple(q.cols[e].tolist()), r)
            for e, r in zip(elem[m:].tolist(), row[m:].tolist())} == pairs
    slots = q.slots[0]
    assert set(slots.tolist()) >= set(range(m, len(row)))  # every pair row is read
    stacks = []
    gathered_min = solver._gathered_min

    def spy(plan, table, out):
        stacks.append(table.copy())
        return gathered_min(plan, table, out)

    monkeypatch.setattr(solver, "_gathered_min", spy)
    solver._drunk(q, cc.SolveOptions(max_sweeps=3, tolerance=1e300))
    stack = stacks[-1]
    assert stack.shape == (m + len(pairs), columns)
    assert np.array_equal(stack[m:], stack[row[m:, None], q.cols[elem[m:]]])


def test_cop_number():
    assert cc.cop_number(cc.path(6)) == 1
    assert cc.cop_number(cc.cycle(7)) == 2
    assert cc.cop_number(cc.grid(3)) == 2
    assert cc.cop_number(complete_graph(5)) == 1
    with pytest.raises(cc.CopNumberError):
        cc.cop_number(cc.cycle(6), max_cops=1)
    with pytest.raises(cc.CopNumberError):  # the search runs on the grid's quotient
        cc.cop_number(cc.grid(3), max_cops=1)
    with pytest.raises(cc.CopNumberError):
        cc.drunkenness_report(cc.grid(4), max_cops=1)


# ---------------------------------------------------------------------------
# drunk values
# ---------------------------------------------------------------------------


def test_drunk_hand_values():
    # P2: robber placed on the cop with probability 1/2, else caught at t=1
    assert cc.drunk_capture_time(cc.path(2), 1) == pytest.approx(0.5, abs=1e-9)
    # P3: from any start the non-colocated robber is caught in one round
    assert cc.drunk_capture_time(cc.path(3), 1) == pytest.approx(2 / 3, abs=1e-9)
    # C3 is vertex-transitive with every pair adjacent
    assert cc.drunk_capture_time(cc.cycle(3), 1) == pytest.approx(2 / 3, abs=1e-9)


def test_drunk_single_vertex():
    assert cc.drunk_capture_time(cc.path(1), 1) == 0.0
    assert cc.capture_time(cc.path(1), 1) == 0


@pytest.mark.parametrize("scheme", cc.solver.SCHEMES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_vertex_takes_the_general_path(k, scheme):
    # the cops start on the robber: every entry point returns the zero table,
    # and the solve reports no sweep
    g, opts = cc.path(1), cc.SolveOptions(scheme=scheme)
    sol = cc.solve_drunk(g, k, opts)
    assert sol.values.configs == [(0,) * k]
    assert sol.values.values.tolist() == [[0.0]]
    assert sol.policy.successor_idx.tolist() == [[0]]
    assert sol.stats == SweepStats(0, 0.0, 0.0, 0.0)
    assert sol.optimal_start() == ((0,) * k, 0.0)
    assert _drunk_start(g, k, opts) == ((0,) * k, 0.0, SweepStats(0, 0.0, 0.0, 0.0))
    assert cc.drunk_capture_time(g, k, opts) == 0.0
    assert cc.extract_policy(sol.values, g).successor_idx.tolist() == [[0]]
    assert cc.policy_value(g, sol.policy).values.tolist() == [[0.0]]
    # the cap counts the one state, as the adversarial solve's does
    for solve in (cc.solve_drunk, cc.drunk_capture_time):
        with pytest.raises(cc.StateSpaceError):
            solve(g, k, opts, state_cap=0)
    with pytest.raises(cc.StateSpaceError):
        cc.solve_adversarial(g, k, state_cap=0)


def test_solve_options_validation():
    assert cc.SolveOptions().scheme == "jacobi"
    with pytest.raises(ValueError):
        cc.SolveOptions(scheme="sor")
    policy = cc.solve_drunk(cc.path(3), 1).policy
    for tolerance in (0, math.inf, math.nan):
        with pytest.raises(ValueError):
            cc.SolveOptions(tolerance=tolerance)
        with pytest.raises(ValueError):
            cc.policy_value(cc.path(3), policy, tolerance=tolerance)
    with pytest.raises(ValueError):
        cc.SolveOptions(max_sweeps=0)


def test_state_cap_raises_before_allocation():
    with pytest.raises(cc.StateSpaceError):
        cc.solve_drunk(cc.path(50), 3, state_cap=1000)
    with pytest.raises(cc.StateSpaceError):
        cc.solve_adversarial(cc.path(50), 3, state_cap=1000)


def test_quotient_cap_counts_the_permuted_copies():
    # Jacobi on a quotient holds C, its update and a stack of the m smear rows
    # and the P permuted pair rows that slots read, counted as (3m + P) x
    # columns / 3 where the full space's 3 tables count m x n; the retrograde
    # pass holds orbit rows x columns, and answers where Jacobi is refused
    g = cc.grid(5)
    space = _StateSpace(g, 2, math.inf, symmetric=True)
    m, rows = space.m, len(space.reads[1])
    assert m < rows < len(space.cols) * m and m * g.n * 3 < math.comb(26, 2) * g.n
    fits = -(-(2 * m + rows) * g.n // 3)
    assert cc.drunk_capture_time(g, 2, state_cap=fits) == cc.drunk_capture_time(g, 2)
    with pytest.raises(cc.StateSpaceError, match=f"{rows} stack rows"):
        cc.drunk_capture_time(g, 2, state_cap=fits - 1)
    assert cc.capture_time(g, 2, state_cap=fits - 1) == cc.capture_time(g, 2) == 4
    assert cc.capture_time(g, 2, state_cap=m * g.n) == 4


def test_lumped_cap_counts_twin_classes():
    # the up-front bound counts C(c+k-1, k) x c for c twin classes, not the
    # vertices: L(20, 0.41) has 27 vertices in 21 classes, and its lumped
    # k=1 space of 21 x 21 states solves at a cap the vertex count refuses
    g = cc.lollipop(20, 0.41)
    space = _StateSpace(g, 1, math.inf, symmetric=True)
    assert g.n == 27 and space.shape == (21, 21)
    cap = 21 * 21
    assert cc.drunk_capture_time(g, 1, state_cap=cap) == cc.drunk_capture_time(g, 1)
    assert cc.capture_time(g, 1, state_cap=cap) == cc.capture_time(g, 1)
    with pytest.raises(cc.StateSpaceError, match="x 21 robber columns"):
        cc.drunk_capture_time(g, 1, state_cap=cap - 1)
    with pytest.raises(cc.StateSpaceError):  # the full space counts every vertex
        cc.solve_drunk(g, 1, state_cap=cap)


@pytest.mark.parametrize("solve,answer", [
    (lambda g, cap: cc.solve_adversarial(g, 2, state_cap=cap).capture_time(), cc.capture_time),
    (lambda g, cap: cc.solve_drunk(g, 2, cc.SolveOptions(scheme="gauss-seidel"),
                                   state_cap=cap).drunk_capture_time(), cc.drunk_capture_time)],
    ids=["adversarial", "gauss-seidel"])
def test_star_successor_slots_fit_the_cap(solve, answer):
    # the full space of K(1, 59) at k=2 is 1,830 rows x 60 columns = 109,800
    # states, and from the centre the cops reach all 1,830 configurations:
    # padded to that row the slots would be 1,830 x 1,830, but laid end to
    # end they are 15,872, well inside the cap
    g = cc.Graph(60, [(0, v) for v in range(1, 60)])
    assert len(_StateSpace(g, 2, 200_000).slots[0]) == 15_872
    assert solve(g, 200_000) == pytest.approx(answer(g, 2, state_cap=200_000), rel=1e-12)


def test_successor_slots_are_capped_as_the_search_lists_them():
    # the full space of K60 at k=2 is 1,830 rows x 60 columns = 109,800
    # states, but every configuration reaches every other: 3.35M slots. The
    # search refuses them once those it has listed pass the cap, long before
    # it holds them all
    g = complete_graph(60)
    g._neighbor_table(closed=True)
    m = math.comb(61, 2)
    tracemalloc.start()
    try:
        with pytest.raises(cc.StateSpaceError, match=r"^\d+\+ successor slots exceeds cap 200000$"):
            cc.solve_drunk(g, 2, state_cap=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m  # under the int64 slots of every row


@pytest.mark.parametrize("g,k,symmetric,layers,sweeps", [
    (cc.grid(4), 2, False, 7, 6),
    (cc.lollipop(12, 0.5), 2, False, 13, 13),
    (cc.lollipop(12, 0.5), 2, True, 13, 13),
    (random_connected_graph(42, 9), 2, True, 4, 5)],
    ids=["G4k2 full", "L12k2 full", "L12k2 lumped", "rand9k2 quotient"])
def test_trivial_group_search_keeps_the_one_configuration_list(g, k, symmetric, layers, sweeps):
    # under the trivial group every row is known before the search, so the
    # successor cache holds the space's own list, not a copy of it
    space = _StateSpace(g, k, math.inf, symmetric=symmetric)
    assert len(space.group) == 1
    assert space._successors[0] is space.configs
    assert [[(s, tuple(range(space.shape[1]))) for s in succ.tolist()]
            for succ in slot_rows(space)] == listed_successors(space)
    assert solver._retrograde(space)[1] == layers
    assert solver._drunk(space, cc.SolveOptions())[1].sweeps == sweeps


def twin_free_graphs():
    """Seeded random graphs without twins, 1 or 2 cops each."""
    graphs = (random_connected_graph(seed, 5 + seed % 6, 0.1 * (seed % 4)) for seed in range(60))
    free = [g for g in graphs if cc.graphs.twin_classes(g).max() == g.n - 1]
    return [(g, 1 + i % 2) for i, g in enumerate(free[:8])]


@pytest.mark.parametrize("g,k", twin_free_graphs())
@pytest.mark.parametrize("symmetric", [False, True], ids=["full", "quotient"])
def test_capturable_states_hold_1_without_the_seed(g, k, symmetric):
    # where every class is one vertex the successor slots record a cop's
    # step onto the robber, so the space lists no capturable states to seed
    # at 1 and the tables hold 1 there all the same; a seed changes nothing
    space = _StateSpace(g, k, math.inf, symmetric)
    capturable = space.twins.capturable(np.array(space.configs), space.occupied)
    assert not space.twins.lumps and len(capturable) and not len(space.capturable)
    seeded = _StateSpace(g, k, math.inf, symmetric)
    seeded.capturable = capturable  # the cached property, as where classes lump
    for solve in (solver._retrograde,
                  lambda unsolved: solver._drunk(unsolved, cc.SolveOptions())):
        (table, count), (seeded_table, seeded_count) = solve(space), solve(seeded)
        assert np.all(table.reshape(-1)[capturable] == 1.0)
        assert np.array_equal(table, seeded_table) and count == seeded_count


@pytest.mark.parametrize("g,listed", [
    (cc.Graph(30, [(0, v) for v in range(1, 30)]), 4**3),  # kept steps from the centre
    (cc.complete_tree(2, 3), math.comb(17, 3))],  # every configuration
    ids=["star", "tree"])
def test_search_is_capped_in_bytes(g, listed):
    # with twins the orbit search lists and canonicalizes one row's kept cop
    # steps at once, and under the trivial group every kept configuration
    # first, counted as 12 int64 per cop each against the 8 bytes per state
    # of a table at the cap. A cop steps only onto the first 3 members of a
    # twin class: 3 cops on K(1, 29) have 7 x 2 lumped states and 4^3 steps
    # from the centre, onto itself and 3 leaves; T(2, 3)'s classes are leaf
    # pairs, all kept, so C(17, 3) configurations and 4^3 steps.
    # The search also lists a slice of steps from several rows at once.
    fits = 12 * 3 * listed
    with pytest.raises(cc.StateSpaceError, match=f"{listed} listed at once"):
        cc.capture_time(g, 3, state_cap=fits - 1)
    g._neighbor_table(closed=True)
    tracemalloc.start()
    try:
        assert cc.capture_time(g, 3, state_cap=fits) == cc.capture_time(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * fits + 12 * 8 * 3 * solver._SLICE_ENTRIES


def test_convergence_error_carries_residual():
    # both schemes raise from the one sweep loop; the first sweep moves the
    # free states from 0 to 1
    for scheme in cc.solver.SCHEMES:
        with pytest.raises(cc.ConvergenceError) as err:
            cc.solve_drunk(cc.path(5), 1, cc.SolveOptions(scheme=scheme, max_sweeps=1))
        assert err.value.sweeps == 1 and err.value.residual == 1.0


@pytest.mark.parametrize(
    "g,k",
    [
        (cc.path(9), 1),
        (cc.cycle(8), 2),
        (cc.complete_tree(2, 2), 1),
        (random_connected_graph(55, 8), 1),
        (random_connected_graph(56, 6), 2),
    ],
    ids=["P9", "C8k2", "T22", "rand8", "rand6k2"],
)
def test_scheme_agreement(g, k):
    opts = cc.SolveOptions(scheme="gauss-seidel", tolerance=1e-10)
    gs = cc.solve_drunk(g, k, opts)
    ja = cc.solve_drunk(g, k, cc.SolveOptions(scheme="jacobi", tolerance=1e-10))
    assert np.abs(gs.values.values - ja.values.values).max() <= 10 * opts.tolerance
    # monotone from below and bounded by the stationary-cop bound D * max_deg**D
    diag = cc.validate(g)
    bound = diag.diameter * float(diag.max_degree) ** diag.diameter
    for sol in (gs, ja):
        assert sol.stats.min_increment >= 0
        assert sol.stats.max_value <= bound


def test_dct_nonincreasing_in_cops():
    g = cc.path(6)
    values = [cc.drunk_capture_time(g, k) for k in (1, 2, 3)]
    assert values[1] <= values[0] + 1e-9
    assert values[2] <= values[1] + 1e-9


def test_drunk_diagonal_is_zero():
    sol = cc.solve_drunk(cc.cycle(5), 2)
    for i, cfg in enumerate(sol.values.configs):
        for v in cfg:
            assert sol.values.values[i, v] == 0.0


def test_masked_smear_equals_chain_block():
    # the solver's masked walk smear must equal the substochastic block of
    # the cop-modified chain applied to the same (zero-diagonal) table row
    g = random_connected_graph(77, 7)
    space = _StateSpace(g, 2, 10**6)
    rng = np.random.default_rng(5)
    table = rng.random((space.m, space.n))
    table[space.occupied] = 0.0
    smear = np.matmul(table, space.walk.T)
    smear[space.occupied] = 0.0
    for i in (0, 3, space.m - 1):
        cfg = space.configs[i]
        block = cc.cop_modified_transition(g, cfg)[: g.n, : g.n]
        assert np.abs(block @ table[i] - smear[i]).max() <= 1e-12


def test_policy_value_reproduces_table():
    for g, k in [(cc.path(5), 1), (cc.cycle(6), 2), (random_connected_graph(8, 8), 1)]:
        sol = cc.solve_drunk(g, k)
        pv = cc.policy_value(g, sol.policy)
        assert np.abs(pv.values - sol.values.values).max() <= 1e-8


def test_policy_value_builds_no_successor_table(monkeypatch):
    # policy_value reads the walk, the occupancy and the configurations only
    sol = cc.solve_drunk(cc.cycle(6), 2)

    def unbuilt(self):
        raise AssertionError("successor table built")

    monkeypatch.setattr(_StateSpace, "_successors", property(unbuilt))
    pv = cc.policy_value(cc.cycle(6), sol.policy)
    assert np.abs(pv.values - sol.values.values).max() <= 1e-8


@pytest.mark.parametrize("limits", [{"max_sweeps": 0}, {"tolerance": 0, "max_sweeps": 10},
                                    {"tolerance": -1e-9, "max_sweeps": 10}])
def test_policy_value_takes_the_solve_limits(limits):
    g = cc.path(3)
    policy = cc.solve_drunk(g, 1).policy
    with pytest.raises(ValueError):
        cc.policy_value(g, policy, **limits)


def test_scalar_answers_build_no_policy(monkeypatch):
    def no_policy(space, C):
        raise AssertionError("scalar answers read no policy")

    monkeypatch.setattr(cc.solver, "_drunk_policy", no_policy)
    for scheme in cc.solver.SCHEMES:
        opts = cc.SolveOptions(scheme=scheme)
        assert _drunk_start(cc.path(3), 1, opts)[1] == pytest.approx(2 / 3)
        assert cc.drunkenness_report(cc.cycle(5), opts).cops == 2


def test_scalar_capture_times_build_no_policy(monkeypatch):
    def no_policy(*args):
        raise AssertionError("scalar capture times read no policy")

    monkeypatch.setattr(cc.solver, "_adversarial_policy", no_policy)
    assert cc.capture_time(cc.cycle(7), 2) == 2.0
    assert cc.capture_time(cc.cycle(7), 1) == math.inf
    assert cc.cop_number(cc.grid(3)) == 2
    assert cc.cost_of_drunkenness(cc.cycle(5)) == pytest.approx(5 / 3)
    assert cc.drunkenness_report(cc.grid(4)).adversarial_start == (1, 10)


def test_extract_policy_matches_solution():
    g = cc.path(5)
    sol = cc.solve_drunk(g, 1)
    again = cc.extract_policy(sol.values, g)
    assert np.array_equal(again.successor_idx, sol.policy.successor_idx)
    # cop at 0, robber at 3: step toward the robber
    assert sol.policy.successor((0,), 3) == (1,)
    # adjacent robber: capture move worth one round
    assert sol.values.value((0,), 1) == pytest.approx(1.0, abs=1e-9)
    # diagonal states may hold
    assert sol.policy.successor((2,), 2) == (2,)


def test_extract_policy_adversarial():
    g = cc.cycle(4)
    sol = cc.solve_adversarial(g, 1)
    policy = cc.extract_policy(sol.cop_values, g)
    assert policy.undefined_count() > 0  # robber-win states have no move
    assert np.array_equal(policy.successor_idx, sol.cop_policy.successor_idx)
    with pytest.raises(ValueError):
        cc.extract_policy(sol.robber_values, g)


def test_policy_value_rejects_undefined():
    sol = cc.solve_adversarial(cc.cycle(4), 1)
    with pytest.raises(ValueError):
        cc.policy_value(cc.cycle(4), sol.cop_policy)


def test_automorphism_invariance_small():
    g = random_connected_graph(60, 7)
    rng = random.Random(61)
    perm = list(range(7))
    rng.shuffle(perm)
    h = cc.relabel(g, perm)
    assert cc.capture_time(g, 1) == cc.capture_time(h, 1)
    assert cc.drunk_capture_time(g, 1) == pytest.approx(
        cc.drunk_capture_time(h, 1), abs=1e-9
    )


def test_cost_of_drunkenness_small():
    assert cc.cost_of_drunkenness(cc.path(3)) == pytest.approx(1.5, abs=1e-9)
    report = cc.drunkenness_report(cc.cycle(6))
    assert report.cops == 2
    assert report.ratio >= 1.0
    with pytest.raises(ValueError):
        cc.cost_of_drunkenness(cc.path(1))


def test_value_table_access_and_csv():
    sol = cc.solve_adversarial(cc.cycle(4), 1)
    table = sol.cop_values
    assert table[(0,), 0] == 0.0
    assert table.value(0, 1) == 1.0  # bare int accepted for one cop
    out = io.StringIO()
    table.to_csv(out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "x1,y,value"
    assert len(lines) == 1 + 4 * 4
    assert any(line.endswith(",inf") for line in lines[1:])


def test_policy_csv():
    sol = cc.solve_drunk(cc.cycle(5), 2)
    out = io.StringIO()
    sol.policy.to_csv(out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "x1,x2,y,u1,u2"
    assert len(lines) == 1 + len(sol.values.configs) * 5


def test_optimal_start_reporting():
    sol = cc.solve_adversarial(cc.path(9), 1)
    cfg, value = sol.optimal_start()
    assert value == 4
    assert cfg[0] in (4,)  # center of the path
    drunk = cc.solve_drunk(cc.path(9), 1)
    start, mean = drunk.optimal_start()
    assert mean == pytest.approx(drunk.drunk_capture_time())


def test_optimal_start_ignores_rounding_gaps():
    # mirror-image starts of B(14, 1) tie exactly; the schemes round them
    # apart in opposite directions
    g = cc.barbell(14, 1.0)
    for scheme in cc.solver.SCHEMES:
        opts = cc.SolveOptions(scheme=scheme)
        sol = cc.solve_drunk(g, 1, opts)
        assert sol.optimal_start() == ((6,), sol.values.config_means().min())
        assert _drunk_start(g, 1, opts)[0] == (6,)
    # a gap of one ulp is a tie, a gap of 16 ulps is not
    low = 3.0
    stats = SweepStats(1, 0.0, 0.0, 0.0)
    for gap, start in [(1, (0,)), (16, (1,))]:
        values = np.array([[low, low], [low - gap * np.spacing(low)] * 2])
        table = cc.ValueTable("drunk", 1, [(0,), (1,)], values)
        sol = cc.DrunkSolution(table, None, stats, "jacobi")
        assert sol.optimal_start() == (start, values[1, 0])


def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return cc.relabel(g, perm)


DEGREE_2_SMEARS = [("P200 full", relabeled(cc.path(200), 1), 1, False),
                   ("P40 k=2 full", relabeled(cc.path(40), 2), 2, False),
                   ("C120 k=2 quotient", cc.cycle(120), 2, True),
                   ("C60 k=3 quotient", cc.cycle(60), 3, True),
                   ("C31 k=2 relabeled quotient", relabeled(cc.cycle(31), 3), 2, True)]


@pytest.mark.parametrize("name,g,k,symmetric", DEGREE_2_SMEARS,
                         ids=[c[0] for c in DEGREE_2_SMEARS])
def test_degree_2_smear_gathers_as_the_product_sums(name, g, k, symmetric):
    # twin-free spaces whose robber has at most 2 neighbours smear by the
    # gather-add: weights 1 and 1/2 make every product exact, so the sum of
    # one or two terms is the BLAS product's bit for bit, on any table
    space = _StateSpace(g, k, math.inf, symmetric=symmetric)
    assert space.gathers and not space.twins.lumps
    solved = solver._drunk_table(g, k, solver.SolveOptions(), math.inf, symmetric)[1]
    rng = np.random.default_rng(5)
    for C in (solved, rng.random(space.shape) * 100, rng.random(space.shape)):
        gathered = solver._smeared(space, C, np.empty_like(C), np.empty_like(C))
        product = np.matmul(C, space.walk.T)
        product.reshape(-1)[space.occupied_at] = 0.0
        assert np.array_equal(gathered, product)
    # degree 3 and more keep the product
    assert not _StateSpace(cc.grid(4), 1, math.inf).gathers
