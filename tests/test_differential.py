"""Differential tests on seeded random small graphs: the solver's policy
evaluator against the dense cop-modified-chain reference, and configuration
ranking against enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copchase as cc
from copchase.solver import SolveOptions, _config_rank

from conftest import random_connected_graph

# derandomized: every run draws the same examples
SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)

instances = st.builds(
    lambda seed, n, k, p: (random_connected_graph(seed, n, p), k),
    st.integers(0, 2**31 - 1),
    st.integers(2, 7),
    st.integers(1, 3),
    st.sampled_from([0.1, 0.3, 0.6]),
)


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
