import math

import numpy as np
import pytest

from conftest import naive_product_amps, random_dicke_amps

from spincat import (
    DickeState,
    cat_state,
    coherent_state,
    embed,
    equivalence_report,
    ghz_seed,
    ghz_state,
    norm,
    overlap,
    project,
    propagate,
    wrap_phase,
)
from spincat.dicke import I_POWERS

PI = math.pi
ROOT_HALF = 1.0 / math.sqrt(2)


def test_propagate_zero_time_is_identity():
    state = coherent_state(5, 1.1, 0.4)
    np.testing.assert_array_equal(propagate(state, 0.0).amps, state.amps)


def test_propagate_full_period_recurrence():
    rng = np.random.default_rng(31)
    for n in (1, 4, 9, 12):
        state = DickeState(n, random_dicke_amps(rng, n))
        out = propagate(state, 2 * PI)
        assert np.max(np.abs(out.amps - state.amps)) < 1e-12


def test_propagate_conserves_norm():
    rng = np.random.default_rng(32)
    for n in (1, 6, 12):
        state = DickeState(n, random_dicke_amps(rng, n))
        for tau in (0.3, 17.0, -2.5):
            assert abs(norm(propagate(state, tau)) - norm(state)) < 1e-14


def test_propagate_group_property():
    rng = np.random.default_rng(33)
    for n in (2, 7):
        state = DickeState(n, random_dicke_amps(rng, n))
        t1, t2 = rng.uniform(-3, 3, size=2)
        two_step = propagate(propagate(state, t1), t2)
        one_step = propagate(state, t1 + t2)
        assert np.max(np.abs(two_step.amps - one_step.amps)) < 1e-12


def test_propagate_rejects_non_finite_tau():
    with pytest.raises(ValueError):
        propagate(coherent_state(2, 1.0, 0.0), math.inf)


def test_seed_single_atom():
    np.testing.assert_allclose(ghz_seed(1).amps, [ROOT_HALF, 1j * ROOT_HALF], atol=1e-15)


def test_seed_two_atoms():
    # oracle-derived expansion of (|g>+i|e>)(|g>+i|e>)/2
    np.testing.assert_allclose(
        ghz_seed(2).amps, [0.5, 1j * ROOT_HALF, -0.5], atol=1e-15
    )


def test_seed_is_phased_coherent_state():
    # <seed|theta=pi/2, phi=-pi/2> = e^{-i n pi/2}
    for n in range(1, 9):
        value = overlap(ghz_seed(n), coherent_state(n, PI / 2, -PI / 2))
        assert abs(value - complex(I_POWERS[(-n) % 4])) < 1e-12


def test_seed_propagates_to_ghz_amplitudes():
    ghz3, _ = project(ghz_state(3))
    evolved = propagate(ghz_seed(3), PI / 2)
    assert np.max(np.abs(evolved.amps - ghz3.amps)) < 1e-10


def test_cat_matches_propagation_for_every_theta():
    # the two-branch form is exact where the branches overlap too:
    # theta = 0 makes them parallel, |cos(1.0)|^3 ~ 0.16
    thetas = np.concatenate([[0.01, 0.3, 1.0], np.linspace(0.0, PI, 9)])
    for n in range(1, 41):
        for theta in thetas:
            cat = cat_state(n, theta, 0.2)
            evolved = propagate(coherent_state(n, theta, 0.2), PI / 2)
            assert np.max(np.abs(cat.amps - evolved.amps)) < 1e-10
            assert abs(norm(cat) - 1.0) < 1e-12


def test_cat_accepts_large_n_near_orthogonality():
    # |cos(1.4)|^60 ~ 1e-46: branches orthogonal to tolerance
    state = cat_state(60, 1.4, 0.0)
    assert abs(norm(state) - 1.0) < 1e-12


def test_cat_is_normalized():
    for n in (1, 2, 3, 8):
        assert abs(norm(cat_state(n, PI / 2, 1.3)) - 1.0) < 1e-12


def test_cat_equals_phased_ghz():
    for n in (3, 4):
        cat = cat_state(n, PI / 2, -PI / 2)
        ghz, _ = project(ghz_state(n))
        expected = complex(I_POWERS[(-n) % 4]) * ghz.amps  # e^{-i n pi/2}
        assert np.max(np.abs(cat.amps - expected)) < 1e-10


def test_ghz_single_atom_against_naive_expansion():
    state = ghz_state(1)
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12
    w = -1j  # (-i)^1
    naive = np.exp(1j * PI / 4) / math.sqrt(2) * (
        naive_product_amps([(ROOT_HALF, w * ROOT_HALF)])
        - 1j * naive_product_amps([(ROOT_HALF, -w * ROOT_HALF)])
    )
    assert np.max(np.abs(state.amps - naive)) < 1e-14


def test_ghz_branch_sign_structure():
    # (-i)^4 = 1 and (-i)^3 = i fix the branch kets
    for n, w in ((4, 1.0 + 0.0j), (3, 1.0j)):
        state = ghz_state(n)
        naive = np.exp(1j * PI / 4) / math.sqrt(2) * (
            naive_product_amps([(ROOT_HALF, w * ROOT_HALF)] * n)
            - 1j * naive_product_amps([(ROOT_HALF, -w * ROOT_HALF)] * n)
        )
        assert np.max(np.abs(state.amps - naive)) < 1e-13


def test_ghz_is_normalized():
    for n in (1, 2, 6, 11):
        assert abs(np.linalg.norm(ghz_state(n).amps) - 1.0) < 1e-12


def test_wrap_phase_interval():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(-PI) == pytest.approx(PI)
    assert wrap_phase(3 * PI) == pytest.approx(PI)
    assert wrap_phase(-PI / 2) == pytest.approx(-PI / 2)
    assert wrap_phase(2 * PI + 0.25) == pytest.approx(0.25)


def test_equivalence_report_n3():
    report = equivalence_report(3)
    assert abs(report.fidelity_prop_vs_ghz - 1.0) < 1e-10
    assert abs(report.fidelity_prop_vs_cat - 1.0) < 1e-10
    # -3 pi/2 wraps to +pi/2
    assert abs(report.expected_phase - PI / 2) < 1e-15
    assert abs(wrap_phase(report.phase_cat_over_ghz - report.expected_phase)) < 1e-10


def test_equivalence_report_n4():
    report = equivalence_report(4)
    assert abs(report.fidelity_prop_vs_cat - 1.0) < 1e-10
    assert abs(report.expected_phase) < 1e-15


def test_equivalence_sweep():
    for n in range(1, 13):
        report = equivalence_report(n)
        assert abs(report.fidelity_prop_vs_cat - 1.0) < 1e-10
        assert abs(report.fidelity_prop_vs_ghz - 1.0) < 1e-10
        assert abs(wrap_phase(report.phase_cat_over_ghz - report.expected_phase)) < 1e-9
        assert report.max_residual < 1e-10
        assert -PI < report.phase_cat_over_ghz <= PI
        assert -PI < report.expected_phase <= PI


def test_equivalence_against_full_propagation():
    # independent route: evolve the embedded seed with the matrix oracle
    from spincat import propagate_full

    for n in (1, 2, 5, 8):
        slow = propagate_full(embed(ghz_seed(n)), PI / 2)
        fast = embed(propagate(ghz_seed(n), PI / 2))
        assert np.max(np.abs(slow.amps - fast.amps)) < 1e-9
