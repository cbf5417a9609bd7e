"""Tests of the benchmark harness itself: inputs, statistics, gates, spans.

    python -m pytest perfbench
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout

import pytest

import common

sys.path.insert(0, str(common.SRC))

import gates  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from spincat import cli  # noqa: E402
from tracing import Tracer, self_times, span_self  # noqa: E402


def test_same_seed_gives_identical_inputs():
    for seed in (0, 1, 12345):
        assert inputs.ramsey_cycle(seed, 3) == inputs.ramsey_cycle(seed, 3)
        assert inputs.oracle_triples(seed, 2) == inputs.oracle_triples(seed, 2)
    assert inputs.ramsey_cycle(1, 0) != inputs.ramsey_cycle(2, 0)
    assert inputs.oracle_triples(1, 0) != inputs.oracle_triples(2, 0)


def test_ramsey_cycle_shape():
    for index in range(50):
        ops = inputs.ramsey_cycle(9, index)
        lo, hi = inputs.RAMSEY_N
        assert len(ops) == 4 and ops[3]["tau"] == math.pi / 2
        sizes = sorted(op["n"] for op in ops[:3])
        third = (hi - lo + 1) / 3
        # one off-cat op per third of the N range
        assert [int((n - lo) // third) for n in sizes] == [0, 1, 2]
        assert all(lo <= op["n"] <= hi for op in ops)
        assert all(abs(op["tau"] - math.pi / 2) >= 0.2 for op in ops[:3])
    assert [inputs._van_der_corput(i) for i in range(1, 6)] == [0.5, 0.25, 0.75, 0.125, 0.625]


def test_p90_reported_as_supported_only_with_ten_samples_beyond():
    assert not common.tail_report([float(v) for v in range(50)])["supported"]
    assert common.tail_report([float(v) for v in range(200)])["supported"]
    for size in range(2, 150):
        values = [float(v) for v in range(size)]
        report = common.tail_report(values)
        beyond = sum(v > common.p90(values) for v in values)
        assert report["beyond"] == beyond
        assert report["supported"] == (beyond >= 10)


def _run(argv):
    with redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(argv)
    return code, stdout.getvalue()


def _flagship_fringes(tmp_path):
    code, stdout = _run(["fringes", "--output", str(tmp_path / "f.csv")])
    return code, stdout, (tmp_path / "f.csv").read_text()


FLAGSHIP_PARAMS = dict(gates.FLAGSHIP, steps=inputs.STEPS)


def test_fringes_gate_accepts_flagship_output(tmp_path):
    code, stdout, csv_text = _flagship_fringes(tmp_path)
    outcome, accuracy = gates.gate_fringes(FLAGSHIP_PARAMS, code, stdout, csv_text)
    assert outcome == "pass"
    assert accuracy["worst_error"] <= 1e-12


def test_fringes_gate_rejects_perturbed_csv_value(tmp_path):
    code, stdout, csv_text = _flagship_fringes(tmp_path)
    lines = csv_text.splitlines()
    cells = lines[17].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    lines[17] = ",".join(cells)
    perturbed = "\n".join(lines) + "\n"
    assert gates.gate_fringes(FLAGSHIP_PARAMS, code, stdout, perturbed)[0] == "fail"


def test_fringes_gate_rejects_wrong_exit_status(tmp_path):
    _, stdout, csv_text = _flagship_fringes(tmp_path)
    assert gates.gate_fringes(FLAGSHIP_PARAMS, 1, stdout, csv_text)[0] == "fail"


def test_off_cat_reference_matches_cli(tmp_path):
    op = dict(n=120, theta=1.1, phi=-0.4, tau=0.9, alpha=2.0, steps=inputs.STEPS)
    argv = [str(tmp_path / "f.csv") if a == "{out}" else a for a in inputs.fringes_argv(op)]
    code, stdout = _run(argv)
    csv_text = (tmp_path / "f.csv").read_text()
    assert gates.gate_fringes(op, code, stdout, csv_text)[0] == "pass"


def test_verify_and_ghz_gates_check_exit_status():
    code, stdout = _run(["verify", "--n", "4"])
    assert gates.gate_verify(4, code, stdout)[0] == "pass"
    assert gates.gate_verify(4, 1, stdout)[0] == "fail"
    code, stdout = _run(["ghz-fidelity", "--n", "3"])
    assert gates.gate_ghz_fidelity(code, stdout)[0] == "pass"
    assert gates.gate_ghz_fidelity(1, stdout)[0] == "fail"


def test_evolve_gate_pins_the_known_failure_only():
    code, stdout = _run(["evolve", "--n", "5"])
    assert gates.gate_evolve(["evolve", "--n", "5"], code, stdout, "")[0] == "pass"
    assert gates.gate_evolve(["evolve", "--n", "5"], 2, stdout, "")[0] == "fail"
    probe = list(next(iter(gates.KNOWN_FAILURES)))
    overflow = "Traceback ...\nOverflowError: int too large to convert to float\n"
    assert gates.gate_evolve(probe, 1, "", overflow)[0] == "known"
    assert gates.gate_evolve(probe, 1, "", "Traceback ...\nMemoryError\n")[0] == "fail"
    assert gates.gate_evolve(probe, 2, "", "error: n too large\n")[0] == "fail"
    assert gates.gate_evolve(["evolve", "--n", "5"], 1, "", overflow)[0] == "fail"


def test_oracle_gate_tolerances():
    report = dict.fromkeys(gates.ORACLE_REPORT_KEYS, 0.0)
    assert gates.gate_oracle(0, json.dumps(report))[0] == "pass"
    assert gates.gate_oracle(1, json.dumps(report))[0] == "fail"
    assert gates.gate_oracle(0, json.dumps(dict(report, amplitude_error=2e-9)))[0] == "fail"
    assert gates.gate_oracle(0, json.dumps(dict(report, phase_error=2e-9)))[0] == "fail"
    assert gates.gate_oracle(0, "Traceback")[0] == "fail"


def test_self_time_subtracts_direct_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 6.0, 0, 0],
    ]
    assert span_self(spans) == [6.0, 2.0, 1.0, 1.0]
    assert self_times(spans) == {"op": 6.0, "a": 3.0, "b": 1.0}
    assert layers.self_time_per_op(spans, 1) == [10.0]


def test_tracer_adopts_child_spans_under_parent():
    tracer = Tracer()
    tracer.op = 4
    with tracer.span("process"):
        pass
    tracer.adopt([["import", 0.1, 0.2, -1, -1], ["inner", 0.15, 0.16, 0, -1]], 0)
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert {s[4] for s in tracer.spans} == {4}


def test_fringes_work_counts():
    cat = {"n": 3, "cat": True, "steps": 256}
    dephased = {"n": 100, "cat": False, "steps": 256}
    assert layers.fringes_work(cat) == (3 + 256 * 4, 256 * 4)
    assert layers.fringes_work(dephased) == (1 + 256 * 103, 256 * 103)


@pytest.mark.parametrize("argv", [[], ["--workload", "ramsey_scan"]])
def test_run_requires_its_arguments(argv):
    import run

    with pytest.raises(SystemExit):
        run.parse_args(argv)
