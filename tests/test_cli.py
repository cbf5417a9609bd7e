import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spincat
from spincat import compare_channels
from spincat.cli import main

PI = math.pi


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "spincat", "verify", "--n", "2"],
        capture_output=True,
        text=True,
        # the child imports the same spincat as this process, installed or not
        cwd=Path(spincat.__file__).parents[1],
    )
    assert result.returncode == 0, result.stderr
    assert "all n = 1..2 pass" in result.stdout


# With stdout block-buffered, as in a shell pipeline, fringes fills the
# buffer while it writes and coherent's one line reaches the pipe only at
# the final flush.
@pytest.mark.parametrize("command", ["fringes", "coherent"])
def test_closed_stdout_exits_141_silently(command):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader closes at once, before the first write
    try:
        result = subprocess.run(
            [sys.executable, "-m", "spincat", command],
            stdout=write_end,
            stderr=subprocess.PIPE,
            cwd=Path(spincat.__file__).parents[1],
            env={k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 141


def _amps_from_stdout(capsys):
    line = capsys.readouterr().out.strip()
    return [complex(token.replace("i", "j")) for token in line.split(", ")]


def test_coherent_ground_output(capsys):
    assert main(["coherent", "--n", "1", "--theta", "0", "--phi", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1+0i, 0+0i"


def test_evolve_full_period_matches_input(capsys):
    assert main(["coherent", "--n", "3"]) == 0
    initial = _amps_from_stdout(capsys)
    assert main(["evolve", "--n", "3", "--pi-units", "--tau", "2"]) == 0
    evolved = _amps_from_stdout(capsys)
    assert max(abs(a - b) for a, b in zip(initial, evolved)) < 1e-12


def test_verify_default_sweep_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") >= 12
    assert "all n = 1..12 pass" in out


def test_verify_single_atom(capsys):
    assert main(["verify", "--n", "1"]) == 0


def test_verify_capacity_error(capsys):
    assert main(["verify", "--n", "25"]) == 2
    assert "n <= 20" in capsys.readouterr().err


def test_verify_unreachable_tolerance_fails(capsys):
    assert main(["verify", "--n", "3", "--tolerance", "1e-18"]) == 1
    captured = capsys.readouterr()
    assert "first failing n = 1" in captured.err


def test_ghz_fidelity_flagship(capsys):
    assert main(["ghz-fidelity", "--n", "3"]) == 0
    assert abs(float(capsys.readouterr().out) - 1.0) < 1e-10


def test_ghz_fidelity_detects_wrong_time(capsys):
    assert main(["ghz-fidelity", "--n", "3", "--tau", "0.3"]) == 1
    assert float(capsys.readouterr().out) < 0.99


def test_fringes_writes_deterministic_csv(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["fringes", "--output", str(first)]) == 0
    assert main(["fringes", "--output", str(second)]) == 0
    data_a = first.read_bytes()
    assert data_a == second.read_bytes()
    lines = data_a.decode().splitlines()
    assert lines[0] == "beta,p_coherent,p_mixture,p_no_cavity"
    assert len(lines) == 257  # header + 256 rows
    assert b"\r" not in data_a


def test_fringes_csv_matches_library_exactly(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["fringes", "--n", "3", "--output", str(out)]) == 0
    rows = np.array(
        [
            [float(cell) for cell in line.split(",")]
            for line in out.read_text().splitlines()[1:]
        ]
    )
    series = compare_channels(3, PI / 2, -PI / 2, PI / 2, PI / 2, -PI, PI, 256)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(rows[:, 0], series.betas)
    assert np.array_equal(rows[:, 1], series.p_coherent)
    assert np.array_equal(rows[:, 2], series.p_mixture)
    assert np.array_equal(rows[:, 3], series.p_no_cavity)


def test_fringes_tau_zero_columns_identical(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["fringes", "--tau", "0", "--output", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        _, p_coh, _, p_nc = line.split(",")
        assert p_coh == p_nc


def test_fringes_stdout_keeps_summary_on_stderr(capsys):
    assert main(["fringes", "--beta-steps", "16"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("beta,p_coherent")
    assert "max |p_coherent" in captured.err
    assert "max |p_coherent" not in captured.out


def test_fringes_summary_reports_gaps_and_harmonics(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["fringes", "--output", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "max |p_coherent - p_mixture|   = 0.125" in summary
    assert "max |p_coherent - p_no_cavity| = 0.5" in summary
    assert "harmonic magnitudes" in summary


def test_fringes_rejects_single_step(capsys):
    assert main(["fringes", "--beta-steps", "1"]) == 2


def test_fringes_unwritable_output(capsys):
    code = main(["fringes", "--output", "/nonexistent-dir/x.csv"])
    assert code == 2


def test_pi_units_equivalent_to_radians(tmp_path):
    a = tmp_path / "rad.csv"
    b = tmp_path / "pi.csv"
    tau_rad = repr(math.pi / 2)
    assert main(["fringes", "--tau", tau_rad, "--output", str(a)]) == 0
    assert main(["fringes", "--pi-units", "--tau", "0.5", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_atom_count_is_usage_error(capsys):
    assert main(["coherent", "--n", "0"]) == 2


def test_bad_tolerance_is_usage_error(capsys):
    assert main(["verify", "--tolerance", "-1"]) == 2
