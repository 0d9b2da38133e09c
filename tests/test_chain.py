import io
import math

import numpy as np
import pytest

import copchase as cc
from copchase.chain import MASS_TOL, _round_cap, default_round_cap
from copchase.graphs import _bfs_distances

from conftest import complete_graph, path_sweep, random_connected_graph

# matrices for the path on five vertices with a cop at 2, written out by hand
P5_BASE = np.array(
    [
        [0, 1, 0, 0, 0, 0],
        [0.5, 0, 0.5, 0, 0, 0],
        [0, 0.5, 0, 0.5, 0, 0],
        [0, 0, 0.5, 0, 0.5, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ]
)
P5_COP_AT_2 = np.array(
    [
        [0, 1, 0, 0, 0, 0],
        [0.5, 0, 0, 0, 0, 0.5],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0.5, 0.5],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ]
)


def test_base_transition_path5():
    assert np.abs(cc.base_transition(cc.path(5)) - P5_BASE).max() == 0


def test_base_transition_cycle3():
    mat = cc.base_transition(cc.cycle(3))
    for v in range(3):
        row = mat[v, :3]
        assert sorted(row[row > 0]) == [0.5, 0.5]


def test_base_transition_rejects_single_vertex():
    with pytest.raises(ValueError):
        cc.base_transition(cc.path(1))


@pytest.mark.parametrize(
    "g,config",
    [
        (cc.path(6), (2,)),
        (cc.cycle(5), (0, 2)),
        (cc.barbell(4, 0.5), (1,)),
        (random_connected_graph(3, 9), (0, 4)),
    ],
)
def test_transition_matrices_row_stochastic(g, config):
    for mat in (
        cc.base_transition(g),
        cc.cop_modified_transition(g, config),
        cc.placement_matrix(g, config),
    ):
        assert np.abs(mat.sum(axis=1) - 1.0).max() <= MASS_TOL
        assert mat.min() >= 0
        # capture row is exactly absorbing
        assert mat[g.n, g.n] == 1.0 and mat[g.n, : g.n].max() == 0.0


def test_cop_modified_path5():
    assert np.abs(cc.cop_modified_transition(cc.path(5), (2,)) - P5_COP_AT_2).max() == 0


def test_cop_modified_cycle4():
    # hand evaluation: with the cop at 0, the robber at 1 moves to 2 with
    # probability 1/2 and is captured (stepping onto 0) with probability 1/2
    mat = cc.cop_modified_transition(cc.cycle(4), (0,))
    assert mat[1, 2] == 0.5 and mat[1, 4] == 0.5 and mat[1, 0] == 0


def test_cop_modified_total_occupation():
    g = cc.path(3)
    mat = cc.cop_modified_transition(g, (0, 1, 2))
    assert np.array_equal(mat[:, 3], np.ones(4))


def test_placement_matrix_path5():
    mat = cc.placement_matrix(cc.path(5), (0,))
    expected = np.eye(6)
    expected[0, 0] = 0
    expected[0, 5] = 1
    assert np.array_equal(mat, expected)


def test_placement_uniform_mass():
    g = cc.cycle(6)
    pi = cc.evolve(cc.uniform_placement(6), cc.placement_matrix(g, (1, 4)))
    assert pi[6] == pytest.approx(2 / 6, abs=1e-15)
    # stacked cops behave as one
    pi2 = cc.evolve(cc.uniform_placement(6), cc.placement_matrix(g, (1, 1)))
    assert pi2[6] == pytest.approx(1 / 6, abs=1e-15)


def test_evolve_validation():
    g = cc.path(3)
    mat = cc.base_transition(g)
    with pytest.raises(ValueError):
        cc.evolve(np.array([0.5, 0.5]), mat)
    with pytest.raises(ValueError):
        cc.evolve(np.array([0.9, 0.0, 0.0, 0.0]), mat)
    with pytest.raises(ValueError):
        cc.evolve(np.array([1.5, -0.5, 0.0, 0.0]), mat)


def test_capture_state_is_fixed_point():
    g = cc.cycle(5)
    unit = np.zeros(6)
    unit[5] = 1.0
    out = cc.evolve(unit, cc.cop_modified_transition(g, (2,)))
    assert np.array_equal(out, unit)


def test_worked_distribution_trace():
    g = cc.path(5)
    pi = cc.evolve(cc.uniform_placement(5), cc.placement_matrix(g, (0,)))
    assert np.abs(pi - np.array([0, 0.2, 0.2, 0.2, 0.2, 0.2])).max() <= 1e-12
    pi = cc.evolve(pi, cc.cop_modified_transition(g, (1,)))
    assert np.abs(pi - np.array([0, 0, 0.1, 0.3, 0.1, 0.5])).max() <= 1e-12
    pi = cc.evolve(pi, cc.cop_modified_transition(g, (2,)))
    assert np.abs(pi - np.array([0, 0, 0, 0.1, 0.15, 0.75])).max() <= 1e-12
    pi = cc.evolve(pi, cc.cop_modified_transition(g, (3,)))
    assert np.abs(pi - np.array([0, 0, 0, 0, 0, 1.0])).max() <= 1e-12


def test_worked_expected_time():
    g = cc.path(5)
    sweep = path_sweep(5)
    dist = cc.fixed_strategy_capture_distribution(g, sweep)
    assert dist.masses == pytest.approx([0.2, 0.3, 0.25, 0.25], abs=1e-12)
    assert dist.residual == 0.0 and dist.terminated
    assert cc.fixed_strategy_expected_time(g, sweep) == pytest.approx(31 / 20, abs=1e-12)


def _walk_strategy(g, start, rounds):
    # deterministic legal single-cop walk: always step to the first neighbor
    configs, v = [(start,)], start
    for _ in range(rounds):
        v = g.adjacency[v][0]
        configs.append((v,))
    return cc.FixedStrategy(configs)


def test_product_form_matches_stepwise():
    g = random_connected_graph(17, 8)
    strategy = _walk_strategy(g, 0, 3)
    pi = cc.uniform_placement(8) @ cc.placement_matrix(g, strategy.configs[0])
    product = cc.placement_matrix(g, strategy.configs[0]).copy()
    for t in range(1, len(strategy.configs)):
        mat = cc.cop_modified_transition(g, strategy.configs[t])
        pi = pi @ mat
        product = product @ mat
    direct = cc.uniform_placement(8) @ product
    assert np.abs(pi - direct).max() <= 1e-12


def test_capture_mass_nondecreasing():
    g = random_connected_graph(23, 10)
    strategy = _walk_strategy(g, 2, 4)
    pi = cc.uniform_placement(10) @ cc.placement_matrix(g, strategy.configs[0])
    prev = pi[10]
    for t in range(1, 30):
        pi = pi @ cc.cop_modified_transition(g, strategy.config_at(t))
        assert pi[10] >= prev - 1e-15
        prev = pi[10]


def test_k2_any_strategy():
    # robber lands on the cop with probability 1/2; otherwise he is at the
    # other vertex and round 1 captures him whether the cop moves or stays
    g = cc.path(2)
    for configs in ([(0,)], [(0,), (1,)]):
        dist = cc.fixed_strategy_capture_distribution(g, cc.FixedStrategy(configs))
        assert dist.masses == pytest.approx([0.5, 0.5], abs=1e-12)
        assert cc.fixed_strategy_expected_time(g, cc.FixedStrategy(configs)) == pytest.approx(0.5)


def test_single_vertex_quantities_are_zero():
    g = cc.path(1)
    s = cc.FixedStrategy([(0,)])
    assert cc.fixed_strategy_expected_time(g, s) == 0.0
    dist = cc.fixed_strategy_capture_distribution(g, s)
    assert dist.masses == [1.0]
    assert cc.adversarial_survival_time(g, s) == 0


def test_long_path_sweep_bounds():
    # the sweep's expected capture time sits between 0.45n and 0.5n
    value = cc.fixed_strategy_expected_time(cc.path(200), path_sweep(200))
    assert 0.45 * 200 <= value <= 0.5 * 200


def test_nonterminating_strategy_reported():
    g = cc.path(10)
    stationary = cc.FixedStrategy([(0,)])
    dist = cc.fixed_strategy_capture_distribution(g, stationary, max_rounds=3)
    assert not dist.terminated and dist.residual > 0
    with pytest.raises(cc.NonterminatingStrategyError) as err:
        cc.fixed_strategy_expected_time(g, stationary, max_rounds=3)
    assert err.value.residual > 0
    assert err.value.partial_sum >= 0
    # enough rounds and the same strategy terminates: the walk eventually
    # steps onto the parked cop
    assert cc.fixed_strategy_expected_time(g, stationary) > 0


def test_capture_distribution_csv():
    dist = cc.fixed_strategy_capture_distribution(cc.path(5), path_sweep(5))
    out = io.StringIO()
    dist.to_csv(out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "t,q_t,cumulative"
    assert len(lines) == 5
    assert lines[1].startswith("0,0.2,")


def test_survival_path_sweep():
    for n in (2, 5, 9):
        assert cc.adversarial_survival_time(cc.path(n), path_sweep(n)) == n - 1


def test_survival_stationary_cop_cycle():
    assert cc.adversarial_survival_time(cc.cycle(4), cc.FixedStrategy([(0,)])) == math.inf


def reference_survival_time(g, strategy):
    """`adversarial_survival_time` as a loop over frozensets of positions."""
    alive = frozenset(range(g.n)) - set(strategy.configs[0])
    if not alive:
        return 0
    seen, t = set(), 0
    while True:
        t += 1
        cops = set(strategy.config_at(t))
        nxt = set()
        for y in alive - cops:
            nxt |= {y, *g.adjacency[y]}
        alive = frozenset(nxt - cops)
        if not alive:
            return t
        if t >= len(strategy.configs) - 1:
            if alive in seen:
                return math.inf
            seen.add(alive)


@pytest.mark.parametrize("seed", range(40))
def test_survival_matches_frozenset_reference(seed):
    g = random_connected_graph(seed, 3 + seed % 9, 0.05 * (seed % 5))
    k = 1 + seed % 3
    rng = np.random.default_rng(seed)
    configs = [tuple(rng.integers(0, g.n, k).tolist())]
    for _ in range(rng.integers(0, 12)):
        configs.append(tuple(int(rng.choice(g.closed_neighbors(v))) for v in configs[-1]))
    strategy = cc.FixedStrategy(configs)
    assert cc.adversarial_survival_time(g, strategy) == reference_survival_time(g, strategy)


def test_survival_total_cover():
    g = cc.path(3)
    assert cc.adversarial_survival_time(g, cc.FixedStrategy([(0, 1, 2)])) == 0


def test_strategy_validation():
    g = cc.path(3)
    with pytest.raises(cc.StrategyError):
        cc.fixed_strategy_expected_time(g, cc.FixedStrategy([(0,), (2,)]))
    with pytest.raises(cc.StrategyError):
        cc.fixed_strategy_expected_time(g, cc.FixedStrategy([(5,)]))
    with pytest.raises(cc.StrategyError):
        cc.FixedStrategy([])
    with pytest.raises(cc.StrategyError):
        cc.FixedStrategy([(0,), (0, 1)])  # cop count changes


def test_strategy_move_matching_allows_crossing():
    # cops 1 and 4 must swap sides: 1->3 and 4->2; the positional pairing of
    # the sorted tuples (1->2, 4->3) is illegal, the crossed matching is not
    g = cc.Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4)])
    strategy = cc.FixedStrategy([(1, 4), (2, 3)])
    cc.fixed_strategy_capture_distribution(g, strategy)  # must not raise


def test_strategy_file_round_trip(tmp_path):
    s = cc.FixedStrategy([(0, 3), (1, 2), (2, 2)])
    target = str(tmp_path / "s.txt")
    cc.write_strategy(s, target)
    assert cc.read_strategy(target) == s
    with pytest.raises(cc.StrategyError):
        cc.read_strategy(io.StringIO("0 x\n"))


def test_default_round_cap():
    assert default_round_cap(cc.path(200)) == 10**6  # capped
    assert default_round_cap(cc.path(3)) == 10 * 2 * 2**2
    assert _round_cap(cc.path(3), 100) == 100 * 2 * 2**2


def full_diameter_round_cap(g, multiplier):
    diag = cc.validate(g)
    if diag.diameter == 0:
        return 1
    return min(multiplier * diag.diameter * diag.max_degree**diag.diameter, 10**6)


@pytest.mark.parametrize("multiplier", [1, 10, 100])
def test_round_cap_matches_full_diameter_formula(multiplier):
    # a path of 15 with a leaf on each inner vertex, vertex 0 in the middle:
    # its eccentricity 7 gives 10 x 7 x 3^7 = 153,090 < 10^6, the diameter 14
    # saturates
    leafy = cc.Graph(28, [(i, i + 1) for i in range(14)] + [(i, 14 + i) for i in range(1, 14)])
    leafy = cc.relabel(leafy, [7, *range(1, 7), 0, *range(8, 28)])
    assert max(_bfs_distances(leafy, 0)) == 7 and cc.validate(leafy).diameter == 14
    graphs = [cc.path(1), cc.path(2), cc.path(3), complete_graph(4), cc.path(1030),
              cc.cycle(9), cc.lollipop(12, 0.5), leafy]
    graphs += [random_connected_graph(seed, 2 + seed % 14, 0.02 * (seed % 9))
               for seed in range(150)]
    below = 0
    for g in graphs:
        cap = _round_cap(g, multiplier)
        assert cap == full_diameter_round_cap(g, multiplier), g
        below += cap < 10**6
    assert below >= 10  # the all-pairs fallback ran, not only the one-BFS exit
    assert _round_cap(cc.path(2), multiplier) == multiplier
    assert _round_cap(complete_graph(4), multiplier) == multiplier * 3


def test_round_cap_past_float_range():
    # 2.0 ** 1029 overflows a float; the cap is exact at any diameter
    g = cc.path(1030)
    assert default_round_cap(g) == 10**6
    assert _round_cap(g, 100) == 10**6
