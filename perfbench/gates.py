"""Per-op correctness gates, built on spincat's documented contracts.

Every op gets an outcome: "pass", "fail" or "known" (the pinned large-N
defect below, which is reported but does not fail the run). Each gate
also returns report-only accuracy figures: worst error against the
reference, norm drift and projection residual, where the op exposes them.

References are computed here, independently of spincat's code paths:
coherent weights from math.comb, channels by direct summation or closed
form. Contract tolerances: cross-representation 1e-10, phase 1e-9,
algebraic 1e-12, oracle amplitudes 1e-9.
"""

import json
import math

import numpy as np

CROSS_REP_TOL = 1e-10
PHASE_TOL = 1e-9
ALGEBRAIC_TOL = 1e-12
ORACLE_TOL = 1e-9
EXIT_OK = 0

# Frozen flagship fixtures (n=3, theta=alpha=tau=pi/2, phi=-pi/2, 256
# betas over [-pi, pi)): channel gaps and coherent-channel harmonics.
FLAGSHIP_GAPS = (0.125, 0.5)
FLAGSHIP_HARMONICS = (5 / 16, 3 / 64, 3 / 32, 1 / 64)
FLAGSHIP = {"n": 3, "theta": math.pi / 2, "phi": -math.pi / 2, "tau": math.pi / 2,
            "alpha": math.pi / 2}

# Known defect kept on purpose: coherent states overflow float binomials
# for n >= 1030, so this op exits 1 with an OverflowError traceback today.
# It is still checked on every run, and passes once it meets its gate.
KNOWN_FAILURES = {("evolve", "--n", "2048", "--pi-units", "--tau", "0.5"): "OverflowError"}

CSV_HEADER = "beta,p_coherent,p_mixture,p_no_cavity"
ORACLE_REPORT_KEYS = ("amplitude_error", "fidelity_error", "equivalence_residual",
                      "phase_error", "norm_drift", "projection_residual")


def _result(ok: bool, **accuracy) -> tuple:
    return ("pass" if ok else "fail"), accuracy


def coherent_weights(n: int, theta: float) -> np.ndarray:
    """|c_k| of |theta, phi>: sqrt(C(n,k)) cos^(n-k)(theta/2) sin^k(theta/2)."""
    k = np.arange(n + 1)
    roots = np.sqrt(np.array([float(math.comb(n, j)) for j in k]))
    return roots * np.cos(theta / 2) ** (n - k) * np.sin(theta / 2) ** k


def closed_form_detection(n, alpha, betas, theta, phi) -> np.ndarray:
    """|<alpha,beta|theta,phi>|^2 from the coherent-overlap closed form."""
    bracket = (math.cos(alpha / 2) * math.cos(theta / 2)
               + np.exp(1j * (betas - phi)) * math.sin(alpha / 2) * math.sin(theta / 2))
    return np.abs(bracket) ** (2 * n)


def reference_channels(n, theta, phi, tau, alpha, betas) -> np.ndarray:
    """(coherent, mixture, no_cavity) channels, shape (3, len(betas)).

    coherent: |sum_k s_k c_k e^{i k beta}|^2 with s_k the second-zone
    weights and c_k the evolved amplitudes; mixture: the two cat branches
    at tau = pi/2 exactly, else the flat dephased sum_k s_k^2 |c_k|^2;
    no_cavity: the closed-form coherent overlap.
    """
    k = np.arange(n + 1)
    second = coherent_weights(n, alpha)
    evolved = (coherent_weights(n, theta) * np.exp(-1j * k * phi)
               * np.exp(-1j * (tau * k * (n - k + 1))))
    coherent = np.abs(np.exp(1j * np.outer(betas, k)) @ (second * evolved)) ** 2
    if tau == math.pi / 2:
        mixture = 0.5 * sum(
            closed_form_detection(n, alpha, betas, theta, phi - math.pi * (n - m) / 2)
            for m in (1, 3)
        )
    else:
        mixture = np.full(len(betas), float(np.sum(second**2 * np.abs(evolved) ** 2)))
    no_cavity = closed_form_detection(n, alpha, betas, theta, phi)
    return np.array([coherent, mixture, no_cavity])


def harmonics(betas: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    h = np.arange(count)
    return np.abs(np.exp(-1j * np.outer(h, betas)) @ values) / len(betas)


def parse_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing CSV header")
    return np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])


def gate_fringes(params: dict, code: int, stdout: str, csv_text: str) -> tuple:
    """Exit 0, the grid, every channel within 1e-10 of the reference and,
    at the flagship point, the frozen gaps and harmonics."""
    if code != EXIT_OK:
        return _result(False)
    try:
        table = parse_csv(csv_text)
    except ValueError:
        return _result(False)
    betas = np.linspace(-math.pi, math.pi, params["steps"], endpoint=False)
    if table.shape != (len(betas), 4) or not np.allclose(table[:, 0], betas, rtol=0, atol=1e-15):
        return _result(False)
    ref = reference_channels(params["n"], params["theta"], params["phi"], params["tau"],
                             params["alpha"], betas)
    worst = float(np.max(np.abs(table[:, 1:].T - ref)))
    ok = worst <= CROSS_REP_TOL
    if all(params.get(key) == value for key, value in FLAGSHIP.items()):
        coherent, mixture, no_cavity = table[:, 1], table[:, 2], table[:, 3]
        gaps = (np.max(np.abs(coherent - mixture)), np.max(np.abs(coherent - no_cavity)))
        printed = _summary_numbers(stdout)
        ok = (
            ok
            and np.allclose(gaps, FLAGSHIP_GAPS, rtol=0, atol=CROSS_REP_TOL)
            and np.allclose(harmonics(betas, coherent, 4), FLAGSHIP_HARMONICS, rtol=0,
                            atol=CROSS_REP_TOL)
            and printed is not None
            and np.allclose(printed, FLAGSHIP_GAPS + FLAGSHIP_HARMONICS, rtol=0,
                            atol=CROSS_REP_TOL)
        )
    return _result(ok, worst_error=worst)


def _summary_numbers(stdout: str):
    """(gap vs mixture, gap vs no-cavity, coherent harmonics) as printed."""
    gaps, coherent = [], None
    for line in stdout.splitlines():
        if line.startswith("max |p_coherent"):
            gaps.append(float(line.split("=")[1]))
        elif line.strip().startswith("p_coherent"):
            coherent = [float(v) for v in line.split()[1:]]
    if len(gaps) != 2 or coherent is None:
        return None
    return tuple(gaps) + tuple(coherent)


def gate_verify(n: int, code: int, stdout: str) -> tuple:
    """Exit 0, one passing row per atom count, fidelities and residuals
    within 1e-10 and the cat-over-GHZ phase within 1e-9."""
    lines = stdout.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    if code != EXIT_OK or len(rows) != n or lines[-1] != (
        f"verify: all n = 1..{n} pass at tolerance 1e-10"
    ):
        return _result(False)
    if any(len(row) != 7 for row in rows):
        return _result(False)
    worst = residual = 0.0
    ok = True
    for index, (count, fid_cat, fid_ghz, phase, expected, res, status) in enumerate(rows):
        fid_err = max(abs(float(fid_cat) - 1.0), abs(float(fid_ghz) - 1.0))
        phase_err = abs(math.remainder(float(phase) - float(expected), math.tau))
        worst = max(worst, fid_err)
        residual = max(residual, float(res))
        ok = ok and (
            int(count) == index + 1 and status == "pass" and fid_err <= CROSS_REP_TOL
            and float(res) <= CROSS_REP_TOL and phase_err <= PHASE_TOL
        )
    return _result(ok, worst_error=worst, equivalence_residual=residual)


def gate_ghz_fidelity(code: int, stdout: str) -> tuple:
    try:
        error = abs(float(stdout.strip()) - 1.0)
    except ValueError:
        return _result(False)
    return _result(code == EXIT_OK and error <= CROSS_REP_TOL, worst_error=error)


def gate_evolve(argv: list, code: int, stdout: str, stderr: str) -> tuple:
    """Exit 0, n+1 finite amplitudes, unit norm to 1e-12.

    The pinned known failure is "known" only while it fails exactly as
    recorded; any other failure of that op is a "fail".
    """
    n = int(argv[argv.index("--n") + 1])
    if code != EXIT_OK:
        known = KNOWN_FAILURES.get(tuple(argv))
        last = stderr.strip().splitlines()[-1:] or [""]
        if code == 1 and known and last[0].startswith(known + ":"):
            return "known", {}
        return _result(False)
    try:
        amps = np.array([complex(z.replace("i", "j")) for z in stdout.strip().split(", ")])
    except ValueError:
        return _result(False)
    drift = abs(float(np.linalg.norm(amps)) - 1.0) if amps.size else math.inf
    ok = amps.shape == (n + 1,) and bool(np.isfinite(amps).all()) and drift <= ALGEBRAIC_TOL
    return _result(ok, norm_drift=drift)


def gate_cli(argv: list, params: dict, code: int, stdout: str, stderr: str,
             csv_text: str) -> tuple:
    """Gate one spincat CLI invocation by its subcommand."""
    cmd = argv[0]
    if cmd == "fringes":
        return gate_fringes(params, code, stdout, csv_text)
    if cmd == "verify":
        return gate_verify(int(argv[argv.index("--n") + 1]), code, stdout)
    if cmd == "ghz-fidelity":
        return gate_ghz_fidelity(code, stdout)
    if cmd == "evolve":
        return gate_evolve(argv, code, stdout, stderr)
    raise ValueError(f"no gate for {cmd!r}")


def gate_oracle(code: int, stdout: str) -> tuple:
    """Exit 0; amplitudes within 1e-9 of the oracle; equivalence reports
    within 1e-10 (fidelities, residuals) and 1e-9 (phase)."""
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
        report = {key: float(report[key]) for key in ORACLE_REPORT_KEYS}
    except (ValueError, IndexError, KeyError, TypeError):
        return _result(False)
    ok = (
        code == EXIT_OK
        and report["amplitude_error"] <= ORACLE_TOL
        and report["fidelity_error"] <= CROSS_REP_TOL
        and report["equivalence_residual"] <= CROSS_REP_TOL
        and report["phase_error"] <= PHASE_TOL
    )
    return _result(
        ok,
        worst_error=report["amplitude_error"],
        norm_drift=report["norm_drift"],
        equivalence_residual=report["equivalence_residual"],
        projection_residual=report["projection_residual"],
    )


def merge_accuracy(total: dict, accuracy: dict) -> None:
    """Keep the worst value of each accuracy figure."""
    for key, value in accuracy.items():
        total[key] = max(total.get(key, 0.0), value)
