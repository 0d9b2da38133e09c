"""The benchmark's own tests, at tiny scale:

    python3 -m pytest perfbench

A smoke pass of every workload prints every metric BENCHMARK.json names,
with its unit; a wrong expected value and a timeout count as failures;
counts repeat exactly across traced runs; and the benchmark refuses to run
without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric(workload, trace, group):
    result, report = _result(_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
    for m in SPEC[group]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        line = next(l for l in report.splitlines() if l.split()[:1] == [m["name"]])
        assert line.split()[2] == m["unit"] and "samples=" in line
    assert "failed_frac" in report


def test_counts_repeat_across_traced_runs():
    first, _ = _result(_bench("family-sweep", 1))
    second, _ = _result(_bench("family-sweep", 1))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def _client(tmp_path, per_command: float) -> run.Client:
    return run.Client(tmp_path, run.Deadline(per_command))


def test_wrong_expected_value_counts_as_failed(tmp_path):
    commands = workloads.build("exact-large", 1, str(tmp_path), "tiny")
    cycle_ct = next(c for c in commands if c.key == "ct:cycle")
    cycle_ct.expect["ct"] += 1  # deliberately wrong
    result = _client(tmp_path, 30.0).run_pass(commands)
    failed = [o for o in result.outcomes if not o.ok]
    assert [o.command for o in failed] == [cycle_ct.label()]
    assert "ct 3 != 4" in failed[0].error
    assert result.failed() / len(result.outcomes) == pytest.approx(1 / 9)


def test_timeout_counts_as_failed(tmp_path):
    commands = workloads.build("exact-large", 1, str(tmp_path), "tiny")[:1]
    result = _client(tmp_path, 0.01).run_pass(commands)
    assert result.failed() == 1
    assert result.outcomes[0].error.startswith("timed out")


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("exact-large", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
