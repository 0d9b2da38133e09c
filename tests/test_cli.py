import csv
import io
import json
from importlib import resources

import jsonschema
import pytest

import copchase as cc
from copchase.cli import main


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


def test_simulate_json_all_censored(capsys, tmp_path, schema):
    # two 5-cycles joined by a path: one cop at random never catches the
    # greedy robber within 50 rounds, so there is no mean to report
    graph = tmp_path / "two_cycles.txt"
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6), (6, 7),
             (7, 8), (8, 9), (9, 10), (10, 11), (7, 11)]
    graph.write_text(f"12 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
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
    # has 201 x 400
    code, out, _ = run_cli(capsys, "dct", "--family", "cycle", "--n", "400", "--k", "2",
                           "--json")
    assert code == 0
    assert 0.11 <= json.loads(out)["value"] / 400 <= 0.125
    code, _, err = run_cli(capsys, "dct", "--family", "cycle", "--n", "400", "--k", "2",
                           "--scheme", "gauss-seidel")
    assert code == 3 and "exceeds cap" in err
