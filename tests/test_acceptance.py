"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import random

import numpy as np
import pytest

import copchase as cc

from conftest import (
    complete_graph,
    cycle_opposite_sweep,
    minimax_capture_value,
    path_sweep,
    random_connected_graph,
)

RANDOM_GRAPHS = [(f"rand{i}", 1000 + i, 5 + (i % 8)) for i in range(10)]


def _build_instance(name):
    builders = {
        "P200": lambda: cc.path(200),
        "C200": lambda: cc.cycle(200),
        "T26": lambda: cc.complete_tree(2, 6),
        "B100": lambda: cc.barbell(100, 1.0),
        "G6": lambda: cc.grid(6),
        "G8": lambda: cc.grid(8),
        "G10": lambda: cc.grid(10),
    }
    if name in builders:
        return builders[name]()
    if name.startswith("L150_"):
        return cc.lollipop(150, float(name.split("_")[1]))
    for tag, seed, n in RANDOM_GRAPHS:
        if tag == name:
            return random_connected_graph(seed, n)
    raise KeyError(name)


LOLLIPOP_CS = (0.2, 0.3, 0.41, 0.5, 0.6)

# every (instance, cop count) pair solved in criteria 3-5; criterion 6 runs
# both iteration schemes over exactly this list
SOLVED_INSTANCES = (
    [("P200", 1), ("C200", 2), ("T26", 1), ("B100", 1)]
    + [(f"L150_{c}", 1) for c in LOLLIPOP_CS]
    + [("G6", 2), ("G8", 2), ("G10", 2)]
    + [(tag, k) for tag, _, _ in RANDOM_GRAPHS for k in (1, 2)]
)


class SolveCache:
    def __init__(self):
        self.graphs = {}
        self.drunk_solutions = {}
        self.adversarial_solutions = {}

    def graph(self, name):
        if name not in self.graphs:
            self.graphs[name] = _build_instance(name)
        return self.graphs[name]

    def drunk(self, name, k, scheme="gauss-seidel"):
        key = (name, k, scheme)
        if key not in self.drunk_solutions:
            opts = cc.SolveOptions(scheme=scheme)
            self.drunk_solutions[key] = cc.solve_drunk(self.graph(name), k, opts)
        return self.drunk_solutions[key]

    def adversarial(self, name, k):
        key = (name, k)
        if key not in self.adversarial_solutions:
            self.adversarial_solutions[key] = cc.solve_adversarial(self.graph(name), k)
        return self.adversarial_solutions[key]


@pytest.fixture(scope="session")
def cache():
    return SolveCache()


def _report(num, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance {num}] {status}: {name}{suffix}")
    for item in failures:
        print(f"    - {item}")
    assert not failures, f"criterion {num} failed: {failures}"


def test_criterion_1_worked_example_exactness():
    failures = []
    g = cc.path(5)
    sweep = path_sweep(5)
    value = cc.fixed_strategy_expected_time(g, sweep)
    if abs(value - 31 / 20) > 1e-12:
        failures.append(f"expected time {value!r} != 31/20")
    pi = cc.evolve(cc.uniform_placement(5), cc.placement_matrix(g, (0,)))
    expected = [
        np.array([0, 0, 0.1, 0.3, 0.1, 0.5]),
        np.array([0, 0, 0, 0.1, 0.15, 0.75]),
        np.array([0, 0, 0, 0, 0, 1.0]),
    ]
    for t, target in enumerate(expected, start=1):
        pi = cc.evolve(pi, cc.cop_modified_transition(g, (t,)))
        err = np.abs(pi - target).max()
        if err > 1e-12:
            failures.append(f"pi({t}) off by {err:.2e}")
    _report(1, "worked-example exactness", failures, f"E T = {value}")


def test_criterion_2_adversarial_closed_forms():
    failures = []
    for n in range(2, 51):
        got = cc.capture_time(cc.path(n), 1)
        if got != n // 2:
            failures.append(f"ct(P{n},1) = {got}, expected {n // 2}")
    for n in range(4, 31):
        got = cc.capture_time(cc.cycle(n), 2)
        if got != (n + 1) // 4:
            failures.append(f"ct(C{n},2) = {got}, expected {(n + 1) // 4}")
    for n in range(2, 7):
        got = cc.capture_time(cc.grid(n), 2)
        if got != n - 1:
            failures.append(f"ct(P{n}xP{n},2) = {got}, expected {n - 1}")
    for n in range(4, 11):
        got = cc.capture_time(cc.cycle(n), 1)
        if not math.isinf(got):
            failures.append(f"ct(C{n},1) = {got}, expected inf")
    _report(2, "minimax closed forms on paths, cycles, grids", failures)


def test_criterion_3_drunk_asymptotics(cache):
    failures = []
    p = cache.drunk("P200", 1).drunk_capture_time() / 200
    if not 0.23 <= p <= 0.25:
        failures.append(f"dct(P200,1)/200 = {p}")
    c = cache.drunk("C200", 2).drunk_capture_time() / 200
    if not 0.11 <= c <= 0.125:
        failures.append(f"dct(C200,2)/200 = {c}")
    t = cache.drunk("T26", 1).drunk_capture_time()
    if not 4 <= t <= 6:
        failures.append(f"dct(T(2,6),1) = {t}")
    _report(3, "value-iteration asymptotics at desk scale", failures,
            f"path {p:.4f}, cycle {c:.4f}, tree {t:.3f}")


def test_criterion_4_cost_of_drunkenness(cache):
    failures = []
    f_path = cache.adversarial("P200", 1).capture_time() / cache.drunk(
        "P200", 1).drunk_capture_time()
    if not 2.0 <= f_path <= 2.2:
        failures.append(f"F(P200) = {f_path}")
    f_barbell = cache.adversarial("B100", 1).capture_time() / cache.drunk(
        "B100", 1).drunk_capture_time()
    if abs(f_barbell - 1.2) > 0.1:
        failures.append(f"F(B(100,1)) = {f_barbell}")
    ratios = []
    for c in LOLLIPOP_CS:
        name = f"L150_{c}"
        ratios.append(
            cache.adversarial(name, 1).capture_time()
            / cache.drunk(name, 1).drunk_capture_time()
        )
    arg = int(np.argmin(ratios))
    if LOLLIPOP_CS[arg] != 0.41:
        failures.append(f"lollipop minimum at c={LOLLIPOP_CS[arg]}, ratios {ratios}")
    if abs(ratios[2] - (1 + math.sqrt(2) / 2)) > 0.1:
        failures.append(f"F(L(150,0.41)) = {ratios[2]}")
    # grid substitute: exact value against Monte Carlo, and dct/n rising
    # toward 3/8 without overshooting it by more than 0.05
    g10 = cache.drunk("G10", 2)
    dct10 = g10.drunk_capture_time()
    start, _ = g10.optimal_start()
    mc = cc.simulate_drunk_pursuit(cache.graph("G10"), g10.policy, 100_000,
                                   seed=2026, start=start)
    if abs(mc.mean - dct10) > 3 * mc.stderr + 1e-9:
        failures.append(f"grid10 MC {mc.mean} vs dct {dct10} (3se={3 * mc.stderr})")
    fractions = [cache.drunk(f"G{n}", 2).drunk_capture_time() / n for n in (6, 8, 10)]
    if not (fractions[0] < fractions[1] < fractions[2]):
        failures.append(f"grid dct/n not increasing: {fractions}")
    if max(fractions) > 0.375 + 0.05:
        failures.append(f"grid dct/n exceeds 0.425: {fractions}")
    _report(4, "cost-of-drunkenness curves", failures,
            f"F(P200)={f_path:.4f}, F(B)={f_barbell:.4f}, lollipop={[round(r, 4) for r in ratios]}, "
            f"grid dct/n={[round(f, 4) for f in fractions]}")


def test_criterion_5_oracle_equivalence(cache):
    failures = []
    for tag, _, _ in RANDOM_GRAPHS:
        g = cache.graph(tag)
        for k in (1, 2):
            sol = cache.drunk(tag, k)
            dct = sol.drunk_capture_time()
            start, _ = sol.optimal_start()
            mc = cc.simulate_drunk_pursuit(g, sol.policy, 100_000,
                                           seed=31_000 + g.n + k, start=start)
            if mc.censored:
                failures.append(f"{tag} k={k}: {mc.censored} censored trials")
            if abs(mc.mean - dct) > 3 * mc.stderr + 1e-9:
                failures.append(
                    f"{tag} k={k}: MC {mc.mean:.4f} vs dct {dct:.4f} "
                    f"(3se={3 * mc.stderr:.4f})"
                )
    small = [
        cc.path(4), cc.path(6), cc.cycle(5), cc.cycle(6),
        cc.complete_tree(2, 1), cc.complete_tree(3, 1), complete_graph(4),
        random_connected_graph(2101, 5), random_connected_graph(2102, 6),
    ]
    for g in small:
        table = cc.solve_adversarial(g, 1).cop_values
        horizon = g.n * g.n
        memo = {}
        for x in range(g.n):
            for y in range(g.n):
                expected = minimax_capture_value(g, x, y, horizon, memo)
                if table.value((x,), y) != expected:
                    failures.append(
                        f"minimax mismatch n={g.n} ({x},{y}): "
                        f"{table.value((x,), y)} vs {expected}"
                    )
    _report(5, "Monte Carlo and game-tree oracle equivalence", failures)


def test_criterion_6_scheme_agreement(cache):
    failures = []
    checked = 0
    for name, k in SOLVED_INSTANCES:
        gs = cache.drunk(name, k, "gauss-seidel")
        ja = cache.drunk(name, k, "jacobi")
        gap = float(np.abs(gs.values.values - ja.values.values).max())
        if gap > 1e-8:
            failures.append(f"{name} k={k}: scheme gap {gap:.2e}")
        diag = cc.validate(cache.graph(name))
        bound = diag.diameter * float(diag.max_degree) ** diag.diameter
        if ja.stats.min_increment < 0:
            failures.append(f"{name} k={k}: Jacobi not monotone "
                            f"({ja.stats.min_increment})")
        if ja.stats.max_value > bound:
            failures.append(f"{name} k={k}: value {ja.stats.max_value} "
                            f"exceeds bound {bound}")
        checked += 1
    _report(6, "Jacobi/Gauss-Seidel agreement and monotone iterates", failures,
            f"{checked} instances")


def test_criterion_7_invisible_robber_sweeps():
    failures = []
    for n in range(2, 51):
        got = cc.adversarial_survival_time(cc.path(n), path_sweep(n))
        if got != n - 1:
            failures.append(f"survival(P{n}) = {got}, expected {n - 1}")
    for n in range(4, 31):
        got = cc.adversarial_survival_time(cc.cycle(n), cycle_opposite_sweep(n))
        if got != (n - 1) // 2:
            failures.append(f"survival(C{n}) = {got}, expected {(n - 1) // 2}")
    drunk = cc.fixed_strategy_expected_time(cc.path(200), path_sweep(200)) / 200
    if not 0.45 <= drunk <= 0.5:
        failures.append(f"drunk path sweep /200 = {drunk}")
    _report(7, "invisible-robber sweep values", failures,
            f"drunk sweep fraction {drunk:.4f}")


def test_criterion_8_property_suite(cache):
    failures = []
    # cost of drunkenness at least one on every instance we solve
    ratio_instances = [("P200", 1), ("B100", 1)] + [(f"L150_{c}", 1) for c in LOLLIPOP_CS]
    ratios = [
        cache.adversarial(name, k).capture_time()
        / cache.drunk(name, k).drunk_capture_time()
        for name, k in ratio_instances
    ]
    for g in [cc.path(3), cc.path(10), cc.cycle(6), cc.complete_tree(2, 3),
              cc.grid(3), complete_graph(5), cc.barbell(20, 0.5),
              cc.lollipop(20, 1.0), random_connected_graph(2201, 8),
              random_connected_graph(2202, 10)]:
        ratios.append(cc.cost_of_drunkenness(g))
    bad = [r for r in ratios if r < 1.0]
    if bad:
        failures.append(f"cost of drunkenness below one: {bad}")

    # an extra cop never hurts
    for g in [cc.path(9), cc.cycle(8), cc.complete_tree(2, 2), cc.grid(3),
              random_connected_graph(2301, 9)]:
        values = [cc.drunk_capture_time(g, k) for k in (1, 2, 3)]
        if not (values[1] <= values[0] + 1e-9 and values[2] <= values[1] + 1e-9):
            failures.append(f"dct increasing in k on n={g.n}: {values}")

    # relabeling never changes the values
    rng = random.Random(2026_08_08)
    relabel_graphs = [cc.path(7), cc.cycle(6), cc.complete_tree(2, 2),
                      random_connected_graph(2401, 8)]
    ks = {0: 1, 1: 2, 2: 1, 3: 1}
    count = 0
    for gi, g in enumerate(relabel_graphs):
        k = ks[gi]
        base_ct = cc.capture_time(g, k)
        base_dct = cc.drunk_capture_time(g, k)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = cc.relabel(g, perm)
            if cc.capture_time(h, k) != base_ct:
                failures.append(f"ct changed under relabeling of n={g.n}")
            if abs(cc.drunk_capture_time(h, k) - base_dct) > 1e-9:
                failures.append(f"dct changed under relabeling of n={g.n}")
            count += 1
    assert count == 20

    # random-walk deviation bound
    exceedance = cc.walk_deviation_check(1000, 3, 100_000, seed=515)
    bound = 2 * 1000 ** (1 - 3**2 / 4)
    if exceedance > bound:
        failures.append(f"walk exceedance {exceedance} > bound {bound:.3e}")
    _report(8, "property suite", failures,
            f"min F = {min(ratios):.4f}, walk exceedance = {exceedance}")
