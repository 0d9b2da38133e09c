import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copchase as cc
from copchase.cli import build_parser, main


@pytest.fixture(scope="module")
def schema():
    text = resources.files("copchase").joinpath("cli_schema.json").read_text()
    return json.loads(text)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_json(schema, payload_text):
    payload = json.loads(payload_text)
    jsonschema.validate(payload, schema)
    return payload


def test_ct_path(capsys):
    code, out, _ = run_cli(capsys, "ct", "--family", "path", "--n", "9", "--k", "1")
    assert code == 0
    assert "capture time: 4" in out
    assert "optimal start: 4" in out


def test_ct_infinite_exit_code(capsys, schema):
    code, out, _ = run_cli(capsys, "ct", "--family", "cycle", "--n", "4", "--k", "1")
    assert code == 5
    assert "capture time: inf" in out
    code, out, _ = run_cli(capsys, "ct", "--family", "cycle", "--n", "4", "--k", "1", "--json")
    assert code == 5
    payload = check_json(schema, out)
    assert payload["value"] == "inf" and payload["start"] is None


def test_ct_from_file(capsys, tmp_path):
    target = tmp_path / "k2.edges"
    target.write_text("2 1\n0 1\n")
    code, out, _ = run_cli(capsys, "ct", "--file", str(target), "--k", "1")
    assert code == 0
    assert "capture time: 1" in out


def test_dct_examples(capsys, schema):
    code, out, _ = run_cli(capsys, "dct", "--family", "path", "--n", "3", "--k", "1")
    assert code == 0
    assert "expected capture time: 0.666667" in out
    assert "sweeps:" in out
    code, out, _ = run_cli(capsys, "dct", "--family", "tree", "--d", "2",
                           "--depth", "3", "--k", "1", "--json")
    assert code == 0
    payload = check_json(schema, out)
    assert payload["value"] <= 3 + 1  # bounded by the tree depth plus slack


def test_cod_examples(capsys, schema):
    code, out, _ = run_cli(capsys, "cod", "--family", "path", "--n", "3")
    assert code == 0
    assert "cost of drunkenness: 1.5" in out
    code, out, _ = run_cli(capsys, "cod", "--family", "barbell", "--n", "20",
                           "--c", "1.0", "--json")
    assert code == 0
    payload = check_json(schema, out)
    assert payload["cops"] == 1 and payload["F"] >= 1


def test_eval_strategy(capsys, tmp_path, schema):
    strat = tmp_path / "sweep.txt"
    strat.write_text("0\n1\n2\n3\n4\n")
    code, out, _ = run_cli(capsys, "eval-strategy", "--family", "path", "--n", "5",
                           "--strategy", str(strat), "--mode", "drunk")
    assert code == 0
    assert "expected capture time: 1.55" in out
    code, out, _ = run_cli(capsys, "eval-strategy", "--family", "path", "--n", "5",
                           "--strategy", str(strat), "--mode", "adversarial", "--json")
    assert code == 0
    payload = check_json(schema, out)
    assert payload["value"] == 4
    code, out, _ = run_cli(capsys, "eval-strategy", "--family", "path", "--n", "5",
                           "--strategy", str(strat), "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "q_t", "cumulative"]
    assert float(rows[1][1]) == 0.2


def test_eval_strategy_nonterminating_exit(capsys, tmp_path):
    strat = tmp_path / "stay.txt"
    strat.write_text("0\n")
    code, out, err = run_cli(capsys, "eval-strategy", "--family", "path", "--n", "6",
                             "--strategy", str(strat), "--max-rounds", "2")
    assert code == 4
    assert "nonterminating" in err


def test_eval_strategy_infinite_survival(capsys, tmp_path):
    strat = tmp_path / "stay.txt"
    strat.write_text("0\n")
    code, out, _ = run_cli(capsys, "eval-strategy", "--family", "cycle", "--n", "4",
                           "--strategy", str(strat), "--mode", "adversarial")
    assert code == 5
    assert "survival time: inf" in out


def test_sweep_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sweep", "--family", "barbell", "--n", "20",
                           "--c-list", "0,0.5,1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "n", "c", "k", "ct", "dct", "F", "sweeps",
                       "wall_time_s", "error"]
    assert len(rows) == 4
    fs = [float(r[6]) for r in rows[1:]]
    assert fs[0] > fs[1] > fs[2]  # F decreases toward 1 as the cliques grow
    target = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "sweep", "--family", "path", "--n-list", "6,8",
                         "--output", str(target))
    assert code == 0
    with open(target) as fh:
        assert len(list(csv.reader(fh))) == 3


def test_sweep_records_row_errors(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "cycle", "--n-list", "2,5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][-1] != ""   # n=2 is not a cycle: error recorded
    assert rows[2][-1] == ""   # n=5 computed fine


@pytest.mark.parametrize("c", ["inf", "-inf", "1e300", "1e308", "nan"])
def test_family_input_outside_the_generators_exit_2(capsys, c):
    code, _, err = run_cli(capsys, "ct", "--family", "barbell", "--n", "10", f"--c={c}")
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    code, out, _ = run_cli(capsys, "sweep", "--family", "barbell", "--n", "10", f"--c={c}")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["ct"] == "" and ("would have more than" in row["error"]
                                or "finite and nonnegative" in row["error"])


def test_edge_cap_exits_2(capsys, monkeypatch):
    # B(10, 1000) would list about 10^8 edges; the cap, checked from the
    # edge count's formula, rejects it before any is listed
    code, _, err = run_cli(capsys, "ct", "--family", "barbell", "--n", "10", "--c", "1000")
    assert code == 2 and err.startswith("error:") and "edges" in err
    monkeypatch.setattr(cc.graphs, "MAX_GENERATED_EDGES", 50)  # B(10, 1) has 99
    code, _, err = run_cli(capsys, "dct", "--family", "barbell", "--n", "10", "--c", "1")
    assert code == 2 and err == "error: barbell(10, 1.0) would have more than 50 edges\n"
    code, _, _ = run_cli(capsys, "ct", "--family", "barbell", "--n", "10", "--c", "0.5")
    assert code == 0


def test_trial_budget_exits_3(capsys, monkeypatch):
    # the per-trial state is counted from --trials and --k before the graph
    # is built or any policy solved; walk mode holds no per-trial state, only
    # one slice of walks (see test_walk_budget_exits_3)
    code, out, err = run_cli(capsys, "simulate", "--family", "path", "--n", "5", "--mode",
                             "drunk", "--k", "1", "--trials", str(10**12))
    assert code == 3 and out == "" and err.startswith("error:") and "budget" in err
    code, _, _ = run_cli(capsys, "simulate", "--mode", "walk", "--n", "10", "--c", "3",
                         "--trials", "20000")
    assert code == 0
    monkeypatch.setattr(cc.montecarlo, "MAX_TRIAL_BYTES", 100_000)
    cops = ["simulate", "--family", "grid", "--n", "3", "--mode", "random-cops", "--k", "2",
            "--evader", "uniform", "--seed", "1"]
    need = cc.montecarlo.trial_bytes(2)
    code, _, err = run_cli(capsys, *cops, "--trials", str(100_000 // need + 1))
    assert code == 3
    assert err == (f"error: {100_000 // need + 1} trials need {(100_000 // need + 1) * need} "
                   "bytes of trial state, over the budget of 100000\n")
    assert run_cli(capsys, *cops, "--trials", str(100_000 // need))[0] == 0
    code, _, err = run_cli(capsys, "simulate", "--family", "path", "--n", "5", "--mode", "drunk",
                           "--k", "1", "--trials", "3000")
    assert code == 3 and "budget" in err
    with pytest.raises(cc.TrialBudgetError):
        cc.simulate_drunk_pursuit(cc.path(5), cc.FixedStrategy([(0,)]), 3000, seed=1)


def test_walk_budget_exits_3(capsys):
    # 10^9 steps in one slice would take about 5 GB
    code, out, err = run_cli(capsys, "simulate", "--mode", "walk", "--n", "1000000000",
                             "--c", "3", "--trials", "1")
    assert code == 3 and out == "" and err.startswith("error:") and "budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("c", ["inf", "1e308"])
def test_walk_unbounded_ratio_exits_0(capsys, c):
    code, out, err = run_cli(capsys, "simulate", "--mode", "walk", "--n", "10", f"--c={c}",
                             "--trials", "5", "--seed", "1", "--json")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["exceedance"] == 0.0


def test_greedy_distance_table_exits_3(capsys, monkeypatch):
    # grid(13): 169 vertices, a 114,244-byte int32 distance table
    monkeypatch.setattr(cc.montecarlo, "MAX_TRIAL_BYTES", 100_000)
    cops = ["simulate", "--family", "grid", "--n", "13", "--mode", "random-cops", "--k", "1",
            "--trials", "1", "--seed", "1"]
    code, out, err = run_cli(capsys, *cops)
    assert code == 3 and out == "" and "114244-byte distance table" in err
    assert run_cli(capsys, *cops, "--evader", "uniform")[0] == 0


def test_sparse_edge_list_header_exits_2(capsys, tmp_path):
    # a billion vertices and one edge cannot be connected: rejected from the
    # header, where building the graph would run out of memory
    target = tmp_path / "huge.edges"
    target.write_text("1000000000 1\n0 1\n")
    code, out, err = run_cli(capsys, "ct", "--file", str(target))
    assert code == 2 and out == "" and err.startswith("error:") and "not connected" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("message", ["", "cannot allocate 8 GiB"])
def test_memory_error_exits_3(capsys, monkeypatch, message):
    def exhausted(args):
        raise MemoryError(message) if message else MemoryError

    monkeypatch.setattr(cc.cli, "_cmd_dct", exhausted)
    code, out, err = run_cli(capsys, "dct", "--family", "path", "--n", "5")
    assert code == 3 and out == ""
    assert err == f"error: out of memory{': ' + message if message else ''}\n"


def test_console_script_exit_codes():
    # `copchase.cli:run`, the installed console script, in a fresh process:
    # its sys.exit carries main's exit code, and an input error prints no
    # traceback
    src = os.path.dirname(os.path.dirname(cc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(*argv):
        return subprocess.run([sys.executable, "-c", "from copchase.cli import run; run()", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    ok = run("ct", "--family", "cycle", "--n", "12", "--k", "2", "--json")
    assert ok.returncode == 0 and json.loads(ok.stdout)["value"] == 3
    bad = run("ct", "--family", "barbell", "--n", "10", "--c", "inf")
    assert bad.returncode == 2 and bad.stderr.startswith("error:")
    assert "Traceback" not in bad.stderr


@pytest.mark.parametrize("argv,row", [
    # one vertex: the cop number is 1, and one cop starts on the robber
    (["--n", "1"], ["path", "1", "", "1", "0", "0", "", "0"]),
    # three cops cover P3: ct and dct are both 0
    (["--n", "3", "--k", "3"], ["path", "3", "", "3", "0", "0", "", "2"]),
])
def test_sweep_leaves_f_empty_when_dct_is_zero(capsys, argv, row):
    code, out, _ = run_cli(capsys, "sweep", "--family", "path", *argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[1][:8] == row
    assert rows[1][9] == "F = ct / dct is undefined: dct = 0"


@pytest.mark.parametrize("scheme", ["jacobi", "gauss-seidel"])
def test_dct_on_one_vertex_runs_no_sweep(capsys, schema, scheme):
    code, out, _ = run_cli(capsys, "dct", "--family", "path", "--n", "1", "--k", "2",
                           "--scheme", scheme, "--json")
    assert code == 0
    payload = check_json(schema, out)
    assert payload["value"] == 0 and payload["sweeps"] == 0 and payload["scheme"] == scheme


@pytest.mark.parametrize("argv", [["dct"], ["simulate", "--mode", "drunk", "--trials", "3"]])
def test_zero_cops_on_one_vertex_exit_2(capsys, argv):
    # a one-vertex solve builds its state space, which checks the cop count
    code, _, err = run_cli(capsys, *argv, "--family", "path", "--n", "1", "--k", "0")
    assert code == 2
    assert "cop count must be >= 1" in err


def test_sweep_prints_infinite_f_on_robber_wins(capsys):
    # one cop never catches the adversarial robber on C4 (ct = inf), but dct = 1
    code, out, _ = run_cli(capsys, "sweep", "--family", "cycle", "--n", "4", "--k", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][:7] == ["cycle", "4", "", "1", "inf", "1", "inf"]
    assert rows[1][9] == ""


def test_simulate_json(capsys, schema):
    code, out, _ = run_cli(capsys, "simulate", "--family", "path", "--n", "3",
                           "--mode", "drunk", "--k", "1", "--trials", "5000",
                           "--seed", "7", "--json")
    assert code == 0
    payload = check_json(schema, out)
    assert abs(payload["mean"] - 2 / 3) < 0.05
    code, out, _ = run_cli(capsys, "simulate", "--family", "path", "--n", "5",
                           "--mode", "random-cops", "--k", "1", "--evader", "greedy",
                           "--trials", "500", "--seed", "3", "--json")
    assert code == 0
    check_json(schema, out)
    code, out, _ = run_cli(capsys, "simulate", "--mode", "walk", "--n", "200",
                           "--c", "3", "--trials", "1000", "--seed", "1", "--json")
    assert code == 0
    payload = check_json(schema, out)
    assert payload["exceedance"] == 0


# two 5-cycles joined by a path: one cop at random never catches the greedy
# robber within 50 rounds, so there is no mean to report
TWO_CYCLES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6), (6, 7),
              (7, 8), (8, 9), (9, 10), (10, 11), (7, 11)]
TWO_CYCLES_TEXT = f"12 {len(TWO_CYCLES)}\n" + "".join(f"{u} {v}\n" for u, v in TWO_CYCLES)


def test_simulate_json_all_censored(capsys, tmp_path, schema):
    graph = tmp_path / "two_cycles.txt"
    graph.write_text(TWO_CYCLES_TEXT)
    code, out, err = run_cli(capsys, "simulate", "--file", str(graph), "--mode", "random-cops",
                             "--k", "1", "--evader", "greedy", "--trials", "300",
                             "--seed", "7", "--max-rounds", "50", "--json")
    assert code == 0, err
    payload = check_json(schema, out)
    assert payload["censored"] == payload["trials"] == 300
    assert payload["mean"] is None and payload["stderr"] is None


def test_simulate_strategy_file(capsys, tmp_path, schema):
    strat = tmp_path / "sweep.txt"
    strat.write_text("0\n1\n2\n3\n4\n")
    code, out, _ = run_cli(capsys, "simulate", "--family", "path", "--n", "5",
                           "--mode", "drunk", "--strategy", str(strat),
                           "--trials", "20000", "--seed", "5", "--json")
    assert code == 0
    payload = check_json(schema, out)
    assert abs(payload["mean"] - 1.55) < 0.05


def test_deterministic_output(capsys):
    args = ("simulate", "--family", "path", "--n", "4", "--mode", "drunk",
            "--k", "1", "--trials", "2000", "--seed", "11", "--json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "ct", "--k", "1")
    assert code == 2 and "graph source" in err
    code, _, _ = run_cli(capsys, "ct", "--family", "path", "--n", "5",
                         "--file", "x.edges")
    assert code == 2
    code, _, _ = run_cli(capsys, "ct", "--file", "/nonexistent.edges")
    assert code == 2
    code, _, _ = run_cli(capsys, "eval-strategy", "--family", "path", "--n", "3",
                         "--strategy", "/nonexistent.txt")
    assert code == 2


def test_infeasible_exit_code(capsys):
    code, _, err = run_cli(capsys, "dct", "--family", "path", "--n", "50",
                           "--k", "3", "--state-cap", "1000")
    assert code == 3 and "exceeds cap" in err
    code, _, _ = run_cli(capsys, "cod", "--family", "cycle", "--n", "6",
                         "--max-cops", "1")
    assert code == 3


def test_lumped_search_answers_at_the_default_cap(capsys):
    # L(10, 60): 609 vertices in 11 twin classes, so its 3-cop lumped space
    # has 298 rows; cops step only onto the first 3 members of each class,
    # so neither the C(611, 3) configurations nor the 601^3 steps from the
    # clique's end are listed
    argv = ["ct", "--family", "lollipop", "--n", "10", "--c", "60", "--k", "3", "--json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["value"] == 2
    code, out, err = run_cli(capsys, *argv, "--state-cap", "100")
    assert code == 3 and out == "" and err.startswith("error:") and "Traceback" not in err


def test_state_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("COPCHASE_STATE_CAP", "10")
    code, _, err = run_cli(capsys, "dct", "--family", "path", "--n", "6", "--k", "1")
    assert code == 3
    monkeypatch.setenv("COPCHASE_STATE_CAP", "zebra")
    code, _, _ = run_cli(capsys, "dct", "--family", "path", "--n", "6", "--k", "1")
    assert code == 2


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_state_cap_must_be_positive(capsys, monkeypatch, cap):
    code, _, err = run_cli(capsys, "ct", "--family", "cycle", "--n", "10", "--k", "2",
                           "--state-cap", cap)
    assert code == 2 and "positive integer" in err
    monkeypatch.setenv("COPCHASE_STATE_CAP", cap)
    code, _, err = run_cli(capsys, "ct", "--family", "cycle", "--n", "10", "--k", "2")
    assert code == 2 and "positive integer" in err
    code, _, _ = run_cli(capsys, "sweep", "--family", "path", "--n-list", "3,4")
    assert code == 2


def test_simulate_beyond_float_round_cap(capsys, tmp_path):
    # diameter 1099: the default censoring cap must not overflow a float power
    strat = tmp_path / "sweep.txt"
    strat.write_text("".join(f"{i}\n" for i in range(1100)))
    code, out, _ = run_cli(capsys, "simulate", "--family", "path", "--n", "1100",
                           "--mode", "drunk", "--strategy", str(strat), "--trials", "10",
                           "--json")
    assert code == 0
    assert json.loads(out)["censored"] == 0


def test_exact_digits(capsys):
    code, out, _ = run_cli(capsys, "dct", "--family", "path", "--n", "3", "--k", "1",
                           "--exact-digits", "12")
    assert code == 0
    assert "0.666666666667" in out


# Every text form as the per-command print lines wrote it: label order,
# labels, digits, list spacing, nan and inf, and the exit codes; and the
# JSON twin of a value that rounds to an integer, which prints as one.
# {sweep}, {stay} and {two_cycles} name input files.
PINNED_TEXT = {
    "ct": (["ct", "--family", "path", "--n", "9"], 0,
           "capture time: 4\noptimal start: 4\n"),
    "ct-two-cops": (["ct", "--family", "cycle", "--n", "12", "--k", "2"], 0,
                    "capture time: 3\noptimal start: 0 5\n"),
    "ct-infinite": (["ct", "--family", "cycle", "--n", "4"], 5, "capture time: inf\n"),
    "dct": (["dct", "--family", "cycle", "--n", "9"], 0,
            "expected capture time: 2.22222\noptimal start: 0\nsweeps: 40\n"),
    "cod": (["cod", "--family", "lollipop", "--n", "12", "--c", "0.5"], 0,
            "cops: 1\ncapture time: 6\ndrunk capture time: 3.299\n"
            "cost of drunkenness: 1.81874\n"),
    "eval-drunk": (["eval-strategy", "--family", "path", "--n", "5", "--strategy", "{sweep}"], 0,
                   "expected capture time: 1.55\nresidual: 0\n"),
    "eval-adversarial": (["eval-strategy", "--family", "path", "--n", "5", "--strategy",
                          "{sweep}", "--mode", "adversarial"], 0, "survival time: 4\n"),
    "eval-adversarial-infinite": (["eval-strategy", "--family", "cycle", "--n", "4",
                                   "--strategy", "{stay}", "--mode", "adversarial"], 5,
                                  "survival time: inf\n"),
    "eval-nonterminating": (["eval-strategy", "--family", "path", "--n", "6", "--strategy",
                             "{stay}", "--max-rounds", "2"], 4,
                            "expected capture time: 0.166667\nresidual: 0.708333\n"),
    "simulate-drunk": (["simulate", "--family", "path", "--n", "6", "--mode", "drunk",
                        "--trials", "2000", "--seed", "7"], 0,
                       "trials: 2000\nmean capture time: 1.072\nstandard error: 0.0143531\n"
                       "max observed: 2\ncensored: 0\n"),
    "simulate-random-cops": (["simulate", "--family", "grid", "--n", "4", "--mode",
                              "random-cops", "--evader", "uniform", "--trials", "500",
                              "--seed", "3"], 0,
                             "trials: 500\nmean capture time: 13.692\n"
                             "standard error: 0.64789\nmax observed: 106\ncensored: 0\n"),
    "simulate-walk": (["simulate", "--mode", "walk", "--n", "10", "--c", "2.05", "--trials",
                       "2000", "--seed", "3"], 0, "exceedance: 0.0035\n"),
    "simulate-all-censored": (["simulate", "--file", "{two_cycles}", "--mode", "random-cops",
                               "--trials", "300", "--seed", "7", "--max-rounds", "50"], 0,
                              "trials: 300\nmean capture time: nan\nstandard error: nan\n"
                              "max observed: 0\ncensored: 300\n"),
    "exact-digits-12": (["dct", "--family", "path", "--n", "3", "--exact-digits", "12"], 0,
                        "expected capture time: 0.666666666667\noptimal start: 0\n"
                        "sweeps: 2\n"),
    "exact-digits-0": (["eval-strategy", "--family", "path", "--n", "5", "--strategy", "{sweep}",
                        "--exact-digits", "0"], 0, "expected capture time: 2\nresidual: 0\n"),
    "exact-digits-0-json": (["eval-strategy", "--family", "path", "--n", "5", "--strategy",
                             "{sweep}", "--exact-digits", "0", "--json"], 0,
                            '{"command": "eval-strategy", "mode": "drunk", "value": 2, '
                            '"residual": 0, "rounds": 3, "terminated": true}\n'),
}


@pytest.mark.parametrize("form", PINNED_TEXT)
def test_text_output_is_pinned(capsys, tmp_path, form):
    files = {"sweep": "0\n1\n2\n3\n4\n", "stay": "0\n", "two_cycles": TWO_CYCLES_TEXT}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv, expected_code, expected_out = PINNED_TEXT[form]
    argv = [a.format(**{name: str(tmp_path / name) for name in files}) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (expected_code, expected_out)
    if form == "eval-nonterminating":
        assert err == "nonterminating strategy: residual 0.708 after 2 rounds\n"
    else:
        assert err == ""


@pytest.mark.parametrize("argv", [
    ["dct", "--family", "path", "--n", "20", "--tolerance", "inf"],
    ["dct", "--family", "path", "--n", "20", "--tolerance", "1e400", "--json"],
    ["dct", "--family", "path", "--n", "20", "--tolerance", "nan"],
    ["cod", "--family", "path", "--n", "20", "--tolerance", "inf"],
    ["sweep", "--family", "path", "--n-list", "5,20", "--tolerance", "inf"],
    ["simulate", "--family", "path", "--n", "5", "--mode", "drunk", "--tolerance", "inf"]],
    ids=["dct", "dct-1e400", "dct-nan", "cod", "sweep", "simulate"])
def test_non_finite_tolerance_exits_2(capsys, argv):
    # an infinite tolerance would pass the convergence test after one sweep
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: tolerance must be positive and finite") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["dct", "--family", "path", "--n", "3", "--exact-digits", "-1"],
    ["simulate", "--family", "path", "--n", "5", "--mode", "random-cops", "--max-rounds", "-1"],
    ["cod", "--family", "path", "--n", "5", "--max-cops", "0"],
    ["cod", "--family", "path", "--n", "5", "--max-cops", "-2"],
    ["sweep", "--family", "path", "--n-list", "5", "--max-cops", "0"]],
    ids=["exact-digits", "max-rounds", "max-cops-0", "max-cops-negative", "sweep-max-cops-0"])
def test_negative_counts_are_refused_at_parse_time(capsys, argv):
    # a cop count must also be positive: no solve runs with 0 cops
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and f"error: argument {argv[-2]}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,argv", [
    ("--exact-digits", ["dct", "--family", "path", "--n", "7", "--json"]),
    ("--max-rounds", ["simulate", "--family", "path", "--n", "5", "--mode", "random-cops",
                      "--trials", "50", "--json"]),
    ("--max-cops", ["cod", "--family", "path", "--n", "5", "--json"])],
    ids=["exact-digits", "max-rounds", "max-cops"])
def test_signed_counts_read_as_int(capsys, flag, argv):
    # every count flag parses by int(), so "+3" reads as 3 on all of them
    signed = run_cli(capsys, *argv, flag, "+3")
    assert signed == run_cli(capsys, *argv, flag, "3") and signed[0] == 0 and signed[1]


# The options each subcommand reads, and no other
SUBCOMMAND_OPTIONS = {
    "ct": "--family --n --c --d --depth --file --json --exact-digits --state-cap --k",
    "dct": "--family --n --c --d --depth --file --json --exact-digits --scheme --tolerance "
           "--max-sweeps --state-cap --k",
    "cod": "--family --n --c --d --depth --file --json --exact-digits --scheme --tolerance "
           "--max-sweeps --state-cap --max-cops",
    "eval-strategy": "--family --n --c --d --depth --file --json --exact-digits --strategy "
                     "--mode --max-rounds --csv",
    "sweep": "--family --n --c --d --depth --exact-digits --scheme --tolerance --max-sweeps "
             "--state-cap --n-list --c-list --k --max-cops --output",
    "simulate": "--family --n --c --d --depth --file --json --exact-digits --scheme "
                "--tolerance --max-sweeps --state-cap --mode --k --evader --strategy --trials "
                "--seed --max-rounds",
}


def test_each_subcommand_declares_the_options_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMAND_OPTIONS)
    for name, p in sub.choices.items():
        options = {s for action in p._actions for s in action.option_strings}
        assert options == {"-h", "--help", *SUBCOMMAND_OPTIONS[name].split()}, name


@pytest.mark.parametrize("argv", [
    ["ct", "--family", "path", "--n", "5", "--scheme", "jacobi"],
    ["ct", "--family", "path", "--n", "5", "--tolerance", "inf"],
    ["ct", "--family", "path", "--n", "5", "--max-sweeps", "3"],
    ["sweep", "--family", "path", "--n-list", "5", "--json"],
    ["sweep", "--family", "path", "--n-list", "5", "--file", "x.edges"]],
    ids=["ct-scheme", "ct-tolerance", "ct-max-sweeps", "sweep-json", "sweep-file"])
def test_flags_a_command_would_ignore_are_refused(capsys, argv):
    # ct runs no drunk iteration; sweep builds each row's graph from the
    # family and always writes CSV. The subcommand's own parser reports the
    # flag, with its usage line, not the top-level list of subcommands
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: copchase {argv[0]} [-h] ")
    assert f"copchase {argv[0]}: error: unrecognized arguments: {' '.join(argv[5:])}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,prog,unknown", [
    (["--bogus", "ct", "--family", "path", "--n", "5"], "copchase", "--bogus"),
    (["--bogus", "ct", "--family", "path", "--n", "5", "--zap"], "copchase", "--bogus"),
    (["ct", "--family", "path", "--n", "5", "--bogus"], "copchase ct", "--bogus")],
    ids=["before", "before-and-after", "after"])
def test_unknown_options_are_reported_where_they_stand(capsys, argv, prog, unknown):
    # an option before the subcommand is the top level's, reported with its
    # list of subcommands; one after it is the subcommand's
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: {prog} [-h] ")
    assert err.endswith(f"{prog}: error: unrecognized arguments: {unknown}\n")


def test_nonconvergence_exit(capsys):
    code, _, err = run_cli(capsys, "dct", "--family", "path", "--n", "8", "--k", "1",
                           "--max-sweeps", "1")
    assert code == 4 and "convergence" in err


def test_scheme_flag(capsys, schema):
    for flags, scheme in [([], "jacobi"), (["--scheme", "gauss-seidel"], "gauss-seidel")]:
        code, out, _ = run_cli(capsys, "dct", "--family", "path", "--n", "6", "--k", "1",
                               *flags, "--json")
        assert code == 0
        payload = check_json(schema, out)
        assert payload["scheme"] == scheme


def test_dct_beyond_the_full_state_cap(capsys):
    # C400 k=2 has 32M states, over the default cap; its dihedral quotient
    # has 201 x 400, under either scheme
    code, out, _ = run_cli(capsys, "dct", "--family", "cycle", "--n", "400", "--k", "2",
                           "--json")
    assert code == 0
    assert 0.11 <= json.loads(out)["value"] / 400 <= 0.125
    code, gauss_seidel, _ = run_cli(capsys, "dct", "--family", "cycle", "--n", "400", "--k",
                                    "2", "--scheme", "gauss-seidel", "--json")
    assert code == 0  # Gauss-Seidel solves the same quotient, to the printed digits
    assert json.loads(gauss_seidel)["value"] == json.loads(out)["value"]


def test_ct_beyond_the_full_state_cap(capsys, schema):
    # ct runs on the dihedral quotient too: 201 x 400 states
    code, out, _ = run_cli(capsys, "ct", "--family", "cycle", "--n", "400", "--k", "2",
                           "--json")
    assert code == 0
    payload = check_json(schema, out)
    assert payload["value"] == 100 and payload["start"] == [0, 199]


@pytest.mark.parametrize("argv,expected", [
    (["ct", "--family", "grid", "--n", "4", "--k", "2"], 0),
    (["ct", "--family", "cycle", "--n", "6", "--k", "1"], 5),
    (["cod", "--family", "grid", "--n", "3"], 0),
    (["sweep", "--family", "cycle", "--n-list", "5,6", "--k", "2"], 0),
    (["sweep", "--family", "cycle", "--n-list", "5,6", "--k", "0"], 0),
])
def test_scalar_commands_build_no_adversarial_policy(capsys, monkeypatch, argv, expected):
    def no_policy(*args):
        raise AssertionError("scalar commands read no policy")

    monkeypatch.setattr(cc.solver, "_adversarial_policy", no_policy)
    code, out, err = run_cli(capsys, *argv)
    assert code == expected and not err
    if argv[0] == "sweep":  # a row's failure is recorded in its error column
        assert [row["error"] for row in csv.DictReader(io.StringIO(out))] == ["", ""]


# Values per option for the command-line fuzz: one in 15 an edge value
# (EDGES), the rest valid ones. Every option a parser declares may be drawn.
# The budget options always are, so that every run stays small, and so are
# the graph's, from a family or, one time in four, from a file.
EDGES = ["-1", "0", "+3", "nan", "inf", "-inf", "1e308", "", "x"]
FUZZ_VALUES = {
    "--n": ["1", "2", "5", "8"],
    "--c": ["0", "0.5", "1", "2", "3"],
    "--d": ["1", "2", "3"],
    "--depth": ["1", "2", "3"],
    "--k": ["1", "2", "3"],
    "--max-cops": ["1", "2", "3"],
    "--exact-digits": ["0", "3", "6", "17"],
    "--state-cap": ["10", "100", "10000"],
    "--tolerance": ["1e-10", "0.001", "1e308"],
    "--max-sweeps": ["1", "50"],
    "--max-rounds": ["1", "50"],
    "--trials": ["1", "50"],
    "--seed": ["0", "1", "7"],
    "--n-list": ["1,2", "5,8", "5,,6"],
    "--c-list": ["0.5,1", "2"],
}
FUZZ_ALWAYS = {"--n", "--max-sweeps", "--max-rounds", "--trials", "--state-cap",
               "--family", "--file", "--c", "--d", "--depth"}
FUZZ_FILES = {"--file": {"path4.edges": "4 3\n0 1\n1 2\n2 3\n", "bad.edges": "x y\n",
                         "empty.edges": "", "missing.edges": None},
              "--strategy": {"sweep.txt": "0\n1\n2\n3\n", "bad.txt": "0 x\n", "missing.txt": None},
              "--output": {"out.csv": None, "missing/out.csv": None}}


@st.composite
def command_lines(draw, files):
    """A subcommand and a draw of the options its parser declares, with values."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    name = draw(st.sampled_from(sorted(sub.choices)))
    argv, source = [name], draw(st.sampled_from(["--family"] * 3 + ["--file"]))
    for action in sub.choices[name]._actions:
        flag = action.option_strings[-1] if action.option_strings else "-h"
        if flag in ("-h", "--help", {"--file": "--family", "--family": "--file"}[source]):
            continue
        if not (action.required or flag in FUZZ_ALWAYS or draw(st.booleans())):
            continue
        argv.append(flag)
        if action.nargs == 0:  # a switch
            continue
        if flag in files:  # never an edge value: --output writes where it points
            argv.append(draw(st.sampled_from(files[flag])))
            continue
        values = list(action.choices) if action.choices else FUZZ_VALUES.get(flag, EDGES)
        edge = draw(st.sampled_from([False] * 14 + [True]))
        argv.append(draw(st.sampled_from(EDGES if edge else values)))
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Per file option, the paths it may read or write: the first of each
    kind a valid file, then malformed, empty and missing ones."""
    root = tmp_path_factory.mktemp("fuzz")
    for files in FUZZ_FILES.values():
        for name, text in files.items():
            if text is not None:
                (root / name).write_text(text)
    return {flag: [str(root / name) for name in files] for flag, files in FUZZ_FILES.items()}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_no_command_line_ends_in_a_traceback(fuzz_files, data):
    # every failure maps to a documented exit code; main raises nothing
    argv = data.draw(command_lines(fuzz_files))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in {0, 2, 3, 4, 5}, argv
