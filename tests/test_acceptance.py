"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live; pytest
shows the prints on failure regardless).
"""

import math

import numpy as np

from conftest import (
    GAP_COHERENT_VS_MIXTURE,
    GAP_COHERENT_VS_NO_CAVITY,
    naive_coherent_dicke,
    random_dicke_amps,
)

from spincat import (
    DickeState,
    coherent_overlap,
    coherent_state,
    collective_lowering,
    compare_channels,
    embed,
    equivalence_report,
    overlap,
    norm,
    propagate,
    propagate_full,
    wrap_phase,
)
from spincat.cli import main

PI = math.pi


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_acceptance_1_equivalence_theorem():
    # n = 1..12: fidelities 1 within 1e-10, cat/GHZ phase within 1e-9 of
    # -n*pi/2 (mod 2*pi)
    worst_fid = 0.0
    worst_phase = 0.0
    for n in range(1, 13):
        r = equivalence_report(n)
        worst_fid = max(
            worst_fid,
            abs(r.fidelity_prop_vs_cat - 1.0),
            abs(r.fidelity_prop_vs_ghz - 1.0),
        )
        worst_phase = max(
            worst_phase, abs(wrap_phase(r.phase_cat_over_ghz - r.expected_phase))
        )
    ok = worst_fid <= 1e-10 and worst_phase <= 1e-9
    _report(
        "acceptance 1 (equivalence theorem)",
        ok,
        f"max fidelity deviation {worst_fid:.2e} (tol 1e-10), "
        f"max phase error {worst_phase:.2e} rad (tol 1e-9)",
    )


def test_acceptance_2_oracle_equivalence():
    # N <= 12, 20 random (theta, phi, tau) each: Dicke-diagonal propagation
    # vs full-space spectral exponentiation to 1e-9
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(1, 13):
        for _ in range(20):
            theta = rng.uniform(0.0, PI)
            phi = rng.uniform(-PI, PI)
            tau = rng.uniform(0.0, 2 * PI)
            state = coherent_state(n, theta, phi)
            fast = embed(propagate(state, tau))
            slow = propagate_full(embed(state), tau)
            worst = max(worst, float(np.max(np.abs(fast.amps - slow.amps))))
    ok = worst <= 1e-9
    _report(
        "acceptance 2 (oracle equivalence)",
        ok,
        f"max amplitude error {worst:.2e} over 240 random triples (tol 1e-9)",
    )


def test_acceptance_3_spectrum_check():
    # S+S- acts on embedded Dicke states with eigenvalue k(N-k+1), 1e-10
    worst = 0.0
    for n in range(1, 11):
        lowering = collective_lowering(n)
        hamiltonian = lowering.conj().T @ lowering
        for k in range(n + 1):
            basis = np.zeros(n + 1, dtype=complex)
            basis[k] = 1.0
            vec = embed(DickeState(n, basis)).amps
            residual = np.max(np.abs(hamiltonian @ vec - k * (n - k + 1) * vec))
            worst = max(worst, float(residual))
    ok = worst <= 1e-10
    _report(
        "acceptance 3 (spectrum check)",
        ok,
        f"max |H v - k(N-k+1) v| = {worst:.2e} (tol 1e-10)",
    )


def test_acceptance_4_unitarity_periodicity_group():
    # >= 100 random states per n in 1..12; all three properties at 1e-12
    rng = np.random.default_rng(102)
    worst_norm = 0.0
    worst_recur = 0.0
    worst_group = 0.0
    for n in range(1, 13):
        for _ in range(100):
            state = DickeState(n, random_dicke_amps(rng, n))
            tau = rng.uniform(-2 * PI, 2 * PI)
            worst_norm = max(worst_norm, abs(norm(propagate(state, tau)) - norm(state)))
            recur = propagate(state, 2 * PI)
            worst_recur = max(
                worst_recur, float(np.max(np.abs(recur.amps - state.amps)))
            )
            t1, t2 = rng.uniform(-PI, PI, size=2)
            split = propagate(propagate(state, t1), t2)
            joint = propagate(state, t1 + t2)
            worst_group = max(
                worst_group, float(np.max(np.abs(split.amps - joint.amps)))
            )
    ok = worst_norm <= 1e-12 and worst_recur <= 1e-12 and worst_group <= 1e-12
    _report(
        "acceptance 4 (unitarity/periodicity/group)",
        ok,
        f"norm drift {worst_norm:.2e}, recurrence {worst_recur:.2e}, "
        f"additivity {worst_group:.2e} over 1200 states (tol 1e-12)",
    )


def test_acceptance_5_coherent_identities():
    # construction vs product-expansion-then-projection (N <= 12) and
    # closed-form overlap vs direct summation (100 pairs per N), both 1e-12
    rng = np.random.default_rng(103)
    worst_build = 0.0
    for n in range(1, 13):
        for _ in range(5):
            theta, phi = rng.uniform(0, PI), rng.uniform(-PI, PI)
            fast = coherent_state(n, theta, phi).amps
            slow = naive_coherent_dicke(n, theta, phi)
            worst_build = max(worst_build, float(np.max(np.abs(fast - slow))))
    worst_overlap = 0.0
    for n in range(1, 13):
        for _ in range(100):
            ta, pa = rng.uniform(0, PI), rng.uniform(-PI, PI)
            tb, pb = rng.uniform(0, PI), rng.uniform(-PI, PI)
            direct = overlap(coherent_state(n, ta, pa), coherent_state(n, tb, pb))
            closed = coherent_overlap(n, ta, pa, tb, pb)
            worst_overlap = max(worst_overlap, abs(direct - closed))
    ok = worst_build <= 1e-12 and worst_overlap <= 1e-12
    _report(
        "acceptance 5 (coherent-state identities)",
        ok,
        f"max construction error {worst_build:.2e}, "
        f"max overlap mismatch {worst_overlap:.2e} (tol 1e-12)",
    )


def test_acceptance_6_ramsey_channel_separation():
    # flagship point: gaps match the oracle-frozen floors to 1e-10 and the
    # channels are not pointwise equal
    series = compare_channels(3, PI / 2, -PI / 2, PI / 2, PI / 2, -PI, PI, 256)
    gap_mix = float(np.max(np.abs(series.p_coherent - series.p_mixture)))
    gap_nc = float(np.max(np.abs(series.p_coherent - series.p_no_cavity)))
    ok = (
        GAP_COHERENT_VS_MIXTURE > 0.0
        and GAP_COHERENT_VS_NO_CAVITY > 0.0
        and abs(gap_mix - GAP_COHERENT_VS_MIXTURE) <= 1e-10
        and abs(gap_nc - GAP_COHERENT_VS_NO_CAVITY) <= 1e-10
    )
    _report(
        "acceptance 6 (Ramsey channel separation)",
        ok,
        f"gap vs mixture {gap_mix:.12f} (frozen {GAP_COHERENT_VS_MIXTURE}), "
        f"gap vs no-cavity {gap_nc:.12f} (frozen {GAP_COHERENT_VS_NO_CAVITY}), "
        f"enforced to 1e-10",
    )


def test_acceptance_7_csv_determinism(tmp_path):
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    assert main(["fringes", "--output", str(first)]) == 0
    assert main(["fringes", "--output", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    rows = np.array(
        [
            [float(cell) for cell in line.split(",")]
            for line in first.read_text().splitlines()[1:]
        ]
    )
    series = compare_channels(3, PI / 2, -PI / 2, PI / 2, PI / 2, -PI, PI, 256)
    exact = (
        np.array_equal(rows[:, 0], series.betas)
        and np.array_equal(rows[:, 1], series.p_coherent)
        and np.array_equal(rows[:, 2], series.p_mixture)
        and np.array_equal(rows[:, 3], series.p_no_cavity)
    )
    ok = identical and exact
    _report(
        "acceptance 7 (CSV determinism)",
        ok,
        f"byte-identical reruns: {identical}, "
        f"CSV values equal in-process values exactly: {exact}",
    )
