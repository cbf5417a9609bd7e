"""The workloads: how one op runs, is timed and is gated.

Each workload is a closed loop with one client: one op at a time, each
child interpreter spawned only after the previous one has exited. Ops
come in cycles; a run starts a new cycle only while its time lasts, so
every run measures whole cycles.
"""

import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import gates
import inputs
from common import BENCH_DIR, ROOT
from tracing import load


@dataclass
class Result:
    seconds: float
    outcome: str  # "pass", "fail" or "known" (see gates)
    accuracy: dict
    record: dict  # what layers.group_metrics needs to know of the op


def coherent_state_us(n: int, calls: int = 200) -> float:
    """Mean microseconds per spincat.coherent_state call at this n."""
    import spincat

    t0 = time.perf_counter()
    for i in range(calls):
        spincat.coherent_state(n, 1.0, i / calls)
    return (time.perf_counter() - t0) / calls * 1e6


def _fringes_record(params: dict, outcome: str, traced: bool) -> dict:
    return {
        "cmd": "fringes",
        "outcome": outcome,
        "n": params["n"],
        "cat": params["tau"] == math.pi / 2,
        "steps": params["steps"],
        "us_per_call": coherent_state_us(params["n"]) if traced else None,
    }


def run_cli_inprocess(argv: list, params: dict, work, tracer) -> Result:
    """spincat.cli.main(ARGV) in this interpreter, stdout and stderr captured.

    An exception that escapes main() is what `python -m spincat` turns
    into a traceback and exit status 1; it is recorded the same way.
    """
    from spincat import cli

    out = work / "fringes.csv"
    argv = [str(out) if a == "{out}" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            if tracer:
                with tracer.span("cli.main"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
    except Exception as exc:  # an op failure is counted, never fatal
        code = 1
        print(f"{type(exc).__name__}: {exc}", file=stderr)
    seconds = time.perf_counter() - t0
    csv_text = out.read_text() if out.exists() else ""
    out.unlink(missing_ok=True)
    outcome, accuracy = gates.gate_cli(argv, params, code, stdout.getvalue(),
                                       stderr.getvalue(), csv_text)
    if argv[0] == "fringes":
        record = _fringes_record(params, outcome, tracer is not None)
    else:
        record = {"cmd": argv[0], "outcome": outcome}
    return Result(seconds, outcome, accuracy, record)


def run_oracle_process(triples: dict, work, tracer) -> Result:
    """One oracle cross-check op in a fresh interpreter; under a tracer,
    the child's spans are adopted beneath the op's "process" span."""
    path, spans = work / "triples.json", work / "spans.json"
    path.write_text(json.dumps(triples))
    command = [sys.executable, str(BENCH_DIR / "oracle_driver.py"), str(path)]
    if tracer:
        command += ["--spans", str(spans)]
        index = tracer.begin("process")
    t0 = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.end(index)
        if spans.exists():
            tracer.adopt(load(spans), index)
            spans.unlink()
    outcome, accuracy = gates.gate_oracle(proc.returncode, proc.stdout)
    return Result(seconds, outcome, accuracy, {"cmd": "oracle", "outcome": outcome})


class RamseyScan:
    """In-process `fringes` parameter scan over seeded N, angles and tau."""

    name = "ramsey_scan"
    fresh_process = False

    def __init__(self, seed: int, work):
        self.seed = seed
        self.work = work

    def cycle(self, index: int) -> list:
        return [dict(op, steps=inputs.STEPS) for op in inputs.ramsey_cycle(self.seed, index)]

    def run(self, params, tracer=None) -> Result:
        return run_cli_inprocess(inputs.fringes_argv(params), params, self.work, tracer)


class OracleCrosscheck:
    """Fresh interpreters each paying the cold oracle eigensystems."""

    name = "oracle_crosscheck"
    fresh_process = True

    def __init__(self, seed: int, work):
        self.seed = seed
        self.work = work

    def cycle(self, index: int) -> list:
        return [inputs.oracle_triples(self.seed, index)]

    def run(self, triples, tracer=None) -> Result:
        return run_oracle_process(triples, self.work, tracer)


WORKLOADS = {w.name: w for w in (RamseyScan, OracleCrosscheck)}


def timed_cycles(cycle, run, seconds: float, between=None) -> tuple:
    """run(op) for every op of cycle(0), cycle(1), ... while `seconds` of
    cycles last; returns (results, elapsed).

    `between`, when given, runs before each cycle off the clock: elapsed
    counts the cycles only.
    """
    results = []
    elapsed, index = 0.0, 0
    while elapsed < seconds:
        if between:
            between()
        t0 = time.perf_counter()
        results.extend(run(op) for op in cycle(index))
        elapsed += time.perf_counter() - t0
        index += 1
    return results, elapsed
