import io
import math
import random
import tracemalloc

import numpy as np
import pytest

import copchase as cc
from copchase.solver import SweepStats, _drunk_start, _StateSpace

from conftest import complete_graph, minimax_capture_value, random_connected_graph


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


def test_cop_number():
    assert cc.cop_number(cc.path(6)) == 1
    assert cc.cop_number(cc.cycle(7)) == 2
    assert cc.cop_number(cc.grid(3)) == 2
    assert cc.cop_number(complete_graph(5)) == 1
    with pytest.raises(cc.CopNumberError):
        cc.cop_number(cc.cycle(6), max_cops=1)


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
    with pytest.raises(ValueError):
        cc.SolveOptions(tolerance=0)
    with pytest.raises(ValueError):
        cc.SolveOptions(max_sweeps=0)


def test_state_cap_raises_before_allocation():
    with pytest.raises(cc.StateSpaceError):
        cc.solve_drunk(cc.path(50), 3, state_cap=1000)
    with pytest.raises(cc.StateSpaceError):
        cc.solve_adversarial(cc.path(50), 3, state_cap=1000)


def test_quotient_cap_counts_the_permuted_copies():
    # Jacobi on a quotient holds C, its update and one smear copy per group
    # element that a slot uses, 2 + E tables where the full space holds 3;
    # the cap bounds them as it bounds the full space's
    g = cc.grid(5)
    space = _StateSpace(g, 2, math.inf, symmetric=True)
    E = len(space.cols)
    assert E > 1 and space.m * g.n * 3 < math.comb(26, 2) * g.n
    fits = -(-space.m * g.n * (2 + E) // 3)
    assert cc.drunk_capture_time(g, 2, state_cap=fits) == cc.drunk_capture_time(g, 2)
    with pytest.raises(cc.StateSpaceError, match="group elements"):
        cc.drunk_capture_time(g, 2, state_cap=fits - 1)


def test_convergence_error_carries_residual():
    with pytest.raises(cc.ConvergenceError) as err:
        cc.solve_drunk(cc.path(5), 1, cc.SolveOptions(max_sweeps=1))
    assert err.value.residual > 0


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
