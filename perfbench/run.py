"""Benchmark of the copchase command-line program.

    python3 perfbench/run.py --workload {exact-large,strategy-sim,family-sweep}
                             --seed N --seconds S --trace {0,1} [--scale tiny]

Run from the root of a source checkout; the program is imported from
./src. One client issues one CLI command at a time as a child process and
waits for it (a closed loop, no threads). With --trace 0 it first times
trivial invocations for setup_s, then runs whole passes over the
workload's command list until the next pass would end after S seconds
(at least one pass) and reports end-to-end metrics as medians over passes:
the children's CPU time (cpu_s, setup_s) and largest peak RSS, with wall
times and per-subcommand wall times printed beside them. With --trace 1 it
runs the same command lines in this process through copchase.cli.main,
pairs of passes of which the second records spans around the layer
functions, and reports the per-layer metrics of the first traced pass and
the traced minus untraced pass time as the tracing overhead.

Both modes run the program with one BLAS thread (see BLAS_THREADS) and
record the thread settings they inherited. Every command's output is
checked; a wrong exit code, a failed check or a timeout counts as a failed
command. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
record, with provenance, per-command times and the spans of a traced pass,
is written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracing
import workloads
from workloads import CheckFailed, Command

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 11
COMMAND_TIMEOUT_S = {"full": 60.0, "tiny": 30.0}
# Commands stop being started after this many seconds, so that the run
# ends within its 180 s limit even when the program hangs.
RUN_DEADLINE_S = 150.0
SUBCOMMANDS = ("ct", "dct", "cod", "sweep", "eval-strategy", "simulate")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The program runs with one BLAS thread. On a 2-core shared virtual machine
# (Xeon, OpenBLAS) the default two threads made strategy-sim slower, 23 s
# against 16 s of wall time, and their spinning counted as CPU time: 30 s of
# it per 23 s pass.
BLAS_THREADS = {name: "1" for name in BLAS_ENV}


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


@contextlib.contextmanager
def alarm(seconds: float):
    """Raise _Timeout in this process after `seconds` of wall time."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    command: str
    sub: str
    wall_s: float
    rc: int | None
    ok: bool
    error: str = ""
    max_rss_kb: int = 0
    cpu_s: float = 0.0


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome] = field(default_factory=list)

    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)


class Deadline:
    def __init__(self, per_command: float):
        self.end = time.perf_counter() + RUN_DEADLINE_S
        self.per_command = per_command

    def timeout(self) -> float:
        return min(self.per_command, self.end - time.perf_counter())


def _judge(cmd: Command, rc, stdout: str, results: dict, error: str) -> tuple[bool, str]:
    if error:
        return False, error
    if rc != 0:
        return False, f"exit code {rc}"
    try:
        cmd.check(cmd, stdout, results)
    except CheckFailed as exc:
        return False, str(exc)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return False, f"malformed output: {exc!r}"
    return True, ""


class Client:
    """Runs CLI commands as child processes, one at a time."""

    def __init__(self, work: Path, deadline: Deadline):
        self.deadline = deadline
        self.out = work / "stdout.txt"
        self.err = work / "stderr.txt"
        # every child compiles the program from source, whatever the caller's
        # setting, so that setup_s means the same thing in every environment
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + os.environ["PYTHONPATH"] \
            if os.environ.get("PYTHONPATH") else src

    def run(self, cmd: Command, results: dict) -> Outcome:
        timeout = self.deadline.timeout()
        if timeout <= 0:
            return Outcome(cmd.label(), cmd.sub, 0.0, None, False, "run deadline passed")
        argv = [sys.executable, "-m", "copchase.cli", *cmd.argv]
        status = error = None
        with open(self.out, "w+b") as out, open(self.err, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                with alarm(timeout):
                    _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                if status is None:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    error = f"timed out after {timeout:.0f} s"
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        ok, why = _judge(cmd, proc.returncode, stdout, results, error)
        if not ok and stderr.strip():
            why += f" (stderr: {stderr.strip().splitlines()[-1][:200]})"
        # ru_maxrss is the child's own peak, in KiB on Linux
        return Outcome(cmd.label(), cmd.sub, wall, proc.returncode, ok, why,
                       usage.ru_maxrss, usage.ru_utime + usage.ru_stime)

    def run_pass(self, commands: list[Command]) -> Pass:
        results: dict = {}
        t0 = time.perf_counter()
        outcomes = [self.run(cmd, results) for cmd in commands]
        return Pass(time.perf_counter() - t0, outcomes)


def _run_in_process(cli, cmd: Command, results: dict, deadline: Deadline,
                    tracer: tracing.Tracer | None, index: int) -> Outcome:
    timeout = deadline.timeout()
    if timeout <= 0:
        return Outcome(cmd.label(), cmd.sub, 0.0, None, False, "run deadline passed")
    out, err = io.StringIO(), io.StringIO()
    rc = None
    error = ""
    root_span = tracer.cli_command(index) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                alarm(timeout), root_span:
            rc = cli.main(list(cmd.argv))
    except _Timeout:
        error = f"timed out after {timeout:.0f} s"
    except Exception as exc:  # the CLI must not raise; record it as a failure
        error = f"raised {exc!r}"
    wall = time.perf_counter() - t0
    ok, why = _judge(cmd, rc, out.getvalue(), results, error)
    return Outcome(cmd.label(), cmd.sub, wall, rc, ok, why)


def _in_process_pass(cli, commands, deadline, tracer=None) -> Pass:
    results: dict = {}
    t0 = time.perf_counter()
    outcomes = [_run_in_process(cli, cmd, results, deadline, tracer, i)
                for i, cmd in enumerate(commands)]
    return Pass(time.perf_counter() - t0, outcomes)


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def timed_run(commands, seconds, work, deadline) -> tuple[dict, dict, list, dict]:
    """Untraced CLI runs: setup probes, then passes for `seconds`."""
    client = Client(work, deadline)
    probe = Command("ct", workloads.SETUP_ARGV, workloads.check_setup)
    warmup = client.run(probe, {})  # untimed: fills the file cache
    # probes before and after the passes sample the machine at both ends of the run
    setup = [client.run(probe, {}) for _ in range(SETUP_PROBES // 2)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(client.run_pass(commands))
        elapsed = time.perf_counter() - start
        last = passes[-1].wall_s
        if elapsed + last > seconds or deadline.timeout() < last:
            break
    setup += [client.run(probe, {}) for _ in range(SETUP_PROBES - len(setup))]
    # The gated times are CPU seconds (user + system) of the children, which
    # leave out the time a shared virtual machine's host gives to other
    # guests; wall time includes it. Wall times are reported beside them.
    metrics = {
        "cpu_s": _metric(statistics.median(sum(o.cpu_s for o in p.outcomes) for p in passes),
                         "s", len(passes)),
        "setup_s": _metric(statistics.median(o.cpu_s for o in setup), "s", len(setup)),
        "peak_rss_mb": _metric(
            statistics.median(max(o.max_rss_kb for o in p.outcomes) / 1024 for p in passes),
            "MB", len(passes)),
    }
    extra = {
        "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s", len(passes)),
        "setup_wall_s": _metric(statistics.median(o.wall_s for o in setup), "s", len(setup)),
    }
    for sub in SUBCOMMANDS:
        if any(c.sub == sub for c in commands):
            sums = [sum(o.wall_s for o in p.outcomes if o.sub == sub) for p in passes]
            extra[sub.replace("-", "_") + "_s"] = _metric(statistics.median(sums), "s", len(sums))
    outcomes = [warmup, *setup, *(o for p in passes for o in p.outcomes)]
    record = {"passes": [asdict(p) for p in passes], "setup": [asdict(o) for o in setup]}
    return metrics, extra, outcomes, record


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import copchase.cli as cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "copchase":
        raise SystemExit(f"error: imported copchase from {cli.__file__}, not this checkout")
    return cli


def traced_run(commands, seconds, deadline) -> tuple[dict, dict, list, dict]:
    """In-process passes: one untraced, one traced, per round."""
    cli = _import_program()
    rounds = []
    start = time.perf_counter()
    while True:
        plain = _in_process_pass(cli, commands, deadline)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = _in_process_pass(cli, commands, deadline, tracer)
        rounds.append((plain, traced, tracer))
        elapsed = time.perf_counter() - start
        last = plain.wall_s + traced.wall_s
        if elapsed + last > seconds or deadline.timeout() < last:
            break
    plain, traced, tracer = rounds[0]
    metrics = {name: _metric(value, tracing.unit(name), 1)
               for name, value in tracing.layer_metrics(tracer.spans, traced.failed()).items()}
    overheads = [t.wall_s - p.wall_s for p, t, _ in rounds]
    metrics["trace_overhead_s"] = _metric(statistics.median(overheads), "s", len(overheads))
    labels = [c.label() for c in commands]
    extra = {"untraced_pass_s": _metric(statistics.median(p.wall_s for p, _, _ in rounds),
                                        "s", len(rounds)),
             "traced_pass_s": _metric(statistics.median(t.wall_s for _, t, _ in rounds),
                                      "s", len(rounds))}
    outcomes = [o for p, t, _ in rounds for o in (*p.outcomes, *t.outcomes)]
    record = {"passes": [asdict(p) for r in rounds for p in r[:2]],
              "solves": tracing.solve_table(tracer.spans, labels),
              "spans": tracing.span_records(tracer.spans)}
    return metrics, extra, outcomes, record


def _read_first(path: Path, prefix: str = "") -> str:
    try:
        for line in path.read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    head = _read_first(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read_first(ROOT / ".git" / head[5:])
    return head  # detached head, or "unknown" outside a git checkout


def _source_digest() -> str:
    """SHA-256 over the program's source files; identifies the program where
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, scale: str, inherited_blas_env: dict) -> dict:
    import numpy

    blas = "unknown"
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first(Path("/proc/cpuinfo"), "model name"),
        "l3_cache": _read_first(Path("/sys/devices/system/cpu/cpu0/cache/index3/size")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "inherited_blas_thread_env": inherited_blas_env,
        "byte_counts": "computed from table shapes, not measured",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="instance sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "copchase" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'copchase'}", file=sys.stderr)
        return 2

    inherited_blas_env = {k: os.environ.get(k) for k in BLAS_ENV}
    os.environ.update(BLAS_THREADS)  # before numpy is imported here or in a child
    work = ROOT / ".perfbench_work" / str(os.getpid())
    deadline = Deadline(COMMAND_TIMEOUT_S[args.scale])
    try:
        commands = workloads.build(args.workload, args.seed, str(work), args.scale)
        if args.trace:
            metrics, extra, outcomes, record = traced_run(commands, args.seconds, deadline)
        else:
            metrics, extra, outcomes, record = timed_run(commands, args.seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in outcomes if not o.ok]
    extra["failed_frac"] = _metric(len(failed) / len(outcomes), "ratio", len(outcomes))
    facts = provenance(args.workload, args.seed, args.scale, inherited_blas_env)
    report = {"provenance": facts, "metrics": metrics, "extra_metrics": extra, **record}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str))

    for key, value in facts.items():
        print(f"# {key}={json.dumps(value) if isinstance(value, dict) else value}")
    for o in failed:
        print(f"FAILED {o.command}: {o.error}")
    if args.trace:
        for row in record["solves"]:
            print(f"solve {row['solve']:<12} n={row['n']:<5} k={row['k']} "
                  f"states={row['states']:<9} sweeps={row['sweeps']:<4} "
                  f"{row['seconds']:.3f} s  [{row['command']}]")
    for name, m in {**metrics, **extra}.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']:<6} samples={m['samples']}")
    print(f"# record written to {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
