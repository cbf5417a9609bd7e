import math

import numpy as np
import pytest

from conftest import (
    DEPHASED_FLAT_VALUE_N3,
    GAP_COHERENT_VS_MIXTURE,
    GAP_COHERENT_VS_NO_CAVITY,
    HARMONICS_COHERENT,
    HARMONICS_MIXTURE,
    HARMONICS_NO_CAVITY,
)

from spincat import (
    CAT_TIME,
    DickeState,
    beta_grid,
    cat_state,
    coherent_overlap,
    coherent_state,
    compare_channels,
    detection_probability,
    embed,
    harmonic_magnitudes,
)
from spincat.ramsey import mixture_probability

PI = math.pi


def test_detection_same_params_is_one():
    state = coherent_state(4, 1.2, -0.7)
    assert abs(detection_probability(state, 1.2, -0.7) - 1.0) < 1e-12


def test_detection_antipodal_is_zero():
    state = coherent_state(3, PI / 2, 0.8 + PI)
    assert detection_probability(state, PI / 2, 0.8) < 1e-12


def test_detection_cat_value_and_oracle():
    cat = cat_state(3, PI / 2, -PI / 2)
    p = detection_probability(cat, PI / 2, 0.0)
    assert abs(p - 0.25) < 1e-12  # oracle-derived value
    # product-space cross-check
    bra = embed(coherent_state(3, PI / 2, 0.0))
    ket = embed(cat)
    assert abs(p - abs(np.vdot(bra.amps, ket.amps)) ** 2) < 1e-10


def test_detection_matches_closed_form_and_oracle():
    rng = np.random.default_rng(41)
    for n in range(1, 11):
        theta, phi = rng.uniform(0, PI), rng.uniform(-PI, PI)
        alpha, beta = rng.uniform(0, PI), rng.uniform(-PI, PI)
        state = coherent_state(n, theta, phi)
        p = detection_probability(state, alpha, beta)
        closed = abs(coherent_overlap(n, alpha, beta, theta, phi)) ** 2
        assert abs(p - closed) < 1e-12
        bra = embed(coherent_state(n, alpha, beta))
        full = abs(np.vdot(bra.amps, embed(state).amps)) ** 2
        assert abs(p - full) < 1e-10


def test_detection_probability_bounds():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        state = coherent_state(n, rng.uniform(0, PI), rng.uniform(-PI, PI))
        p = detection_probability(state, rng.uniform(0, PI), rng.uniform(-PI, PI))
        assert -1e-12 <= p <= 1.0 + 1e-12


def test_beta_grid_validation():
    with pytest.raises(ValueError):
        beta_grid(-PI, PI, 1)
    with pytest.raises(ValueError):
        beta_grid(0.5, 0.5, 16)
    with pytest.raises(ValueError):
        beta_grid(1.0, -1.0, 16)
    grid = beta_grid(-PI, PI, 256)
    assert len(grid) == 256
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == -PI and grid[-1] < PI


def test_fringe_flat_for_all_ground():
    n = 4
    alpha = 1.1
    ground = np.zeros(n + 1)
    ground[0] = 1.0
    state = DickeState(n, ground)
    probs = [detection_probability(state, alpha, b) for b in beta_grid(-PI, PI, 64)]
    expected = math.cos(alpha / 2) ** (2 * n)
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_fringe_single_lobe_coherent_input():
    # theta = alpha = pi/2: p(beta) = cos^{2n}((beta - phi)/2)
    n, phi = 3, 0.4
    state = coherent_state(n, PI / 2, phi)
    betas = beta_grid(-PI, PI, 128)
    probs = np.array([detection_probability(state, PI / 2, b) for b in betas])
    expected = np.cos((betas - phi) / 2) ** (2 * n)
    assert np.max(np.abs(probs - expected)) < 1e-12


def test_fringe_cat_matches_product_space_sweep():
    cat = cat_state(3, PI / 2, -PI / 2)
    betas = beta_grid(-PI, PI, 256)
    probs = np.array([detection_probability(cat, PI / 2, b) for b in betas])
    ket = embed(cat)
    slow = np.array(
        [
            abs(np.vdot(embed(coherent_state(3, PI / 2, b)).amps, ket.amps)) ** 2
            for b in betas
        ]
    )
    assert np.max(np.abs(probs - slow)) < 1e-10


def test_mixture_single_branch():
    state = coherent_state(3, 1.0, 0.5)
    mix = ((1.0, state),)
    assert mixture_probability(mix, 0.9, -0.2) == detection_probability(
        state, 0.9, -0.2
    )


def test_mixture_antipodal_half():
    phi = 0.3
    mix = (
        (0.5, coherent_state(4, PI / 2, phi)),
        (0.5, coherent_state(4, PI / 2, phi + PI)),
    )
    assert abs(mixture_probability(mix, PI / 2, phi) - 0.5) < 1e-12


def test_mixture_order_invariant():
    branches = (
        (0.25, coherent_state(3, 0.9, 0.1)),
        (0.75, coherent_state(3, 2.0, -1.4)),
    )
    forward = mixture_probability(branches, 1.0, 0.6)
    reverse = mixture_probability(branches[::-1], 1.0, 0.6)
    assert forward == reverse  # fsum makes this exact


def test_compare_channels_flagship_gaps():
    series = compare_channels(3, PI / 2, -PI / 2, PI / 2, PI / 2, -PI, PI, 256)
    gap_mix = np.max(np.abs(series.p_coherent - series.p_mixture))
    gap_nc = np.max(np.abs(series.p_coherent - series.p_no_cavity))
    assert abs(gap_mix - GAP_COHERENT_VS_MIXTURE) < 1e-10
    assert abs(gap_nc - GAP_COHERENT_VS_NO_CAVITY) < 1e-10


def test_compare_channels_tau_zero_collapses_to_no_cavity():
    series = compare_channels(3, PI / 2, -PI / 2, 0.0, PI / 2, -PI, PI, 64)
    assert np.max(np.abs(series.p_coherent - series.p_no_cavity)) < 1e-12


def test_compare_channels_even_n_runs():
    series = compare_channels(4, PI / 2, -PI / 2, PI / 2, PI / 2, -PI, PI, 64)
    assert np.max(np.abs(series.p_coherent - series.p_mixture)) > 0.0
    assert np.max(np.abs(series.p_coherent - series.p_no_cavity)) > 0.0


def test_compare_channels_dephased_mixture_is_flat():
    series = compare_channels(3, PI / 2, -PI / 2, 1.0, PI / 2, -PI, PI, 64)
    np.testing.assert_allclose(series.p_mixture, DEPHASED_FLAT_VALUE_N3, atol=1e-12)


def _dephased_level(n, theta, alpha):
    """sum_k s_k(alpha)^2 |c_k|^2 for an evolved |theta, phi> (any tau, phi)."""
    return math.fsum(
        math.comb(n, k) ** 2
        * (math.cos(alpha / 2) * math.cos(theta / 2)) ** (2 * (n - k))
        * (math.sin(alpha / 2) * math.sin(theta / 2)) ** (2 * k)
        for k in range(n + 1)
    )


def test_mixture_channel_matches_closed_forms_up_to_n40():
    rng = np.random.default_rng(44)
    for _ in range(12):
        n = int(rng.integers(1, 41))
        theta, phi = rng.uniform(0, PI), rng.uniform(-PI, PI)
        alpha, tau = rng.uniform(0, PI), rng.uniform(0, 2 * PI)
        cat = compare_channels(n, theta, phi, CAT_TIME, alpha, -PI, PI, 16)
        # equal-weight mixture of |theta, phi - pi(n-1)/2> and |theta, phi - pi(n-3)/2>
        expected = [
            0.5
            * sum(
                abs(coherent_overlap(n, alpha, b, theta, phi - PI * (n - m) / 2)) ** 2
                for m in (1, 3)
            )
            for b in cat.betas
        ]
        assert np.max(np.abs(cat.p_mixture - expected)) < 1e-12
        off = compare_channels(n, theta, phi, tau, alpha, -PI, PI, 16)
        level = _dephased_level(n, theta, alpha)
        assert np.max(np.abs(off.p_mixture - level)) < 1e-12


def test_cat_mixture_needs_tau_exactly_cat_time():
    # tau = pi/2 + 2 pi reaches the same state, but only exact equality
    # selects the cat-branch mixture; any other tau gets the dephased one
    exact = compare_channels(3, PI / 2, -PI / 2, CAT_TIME, PI / 2, -PI, PI, 64)
    later = compare_channels(3, PI / 2, -PI / 2, CAT_TIME + 2 * PI, PI / 2, -PI, PI, 64)
    assert np.max(np.abs(later.p_coherent - exact.p_coherent)) < 1e-12
    np.testing.assert_allclose(later.p_mixture, DEPHASED_FLAT_VALUE_N3, atol=1e-12)
    assert np.max(np.abs(exact.p_mixture - DEPHASED_FLAT_VALUE_N3)) > 0.1


def test_channels_probability_bounds_and_periodicity():
    series = compare_channels(5, 1.1, 0.7, PI / 2, 0.9, -PI, PI, 32)
    for channel in (series.p_coherent, series.p_mixture, series.p_no_cavity):
        assert np.all(channel >= -1e-12)
        assert np.all(channel <= 1.0 + 1e-12)
    # p(beta + 2 pi) = p(beta) pointwise for every channel
    shifted = compare_channels(5, 1.1, 0.7, PI / 2, 0.9, PI, 3 * PI, 32)
    assert np.max(np.abs(series.p_coherent - shifted.p_coherent)) < 1e-12
    assert np.max(np.abs(series.p_mixture - shifted.p_mixture)) < 1e-12
    assert np.max(np.abs(series.p_no_cavity - shifted.p_no_cavity)) < 1e-12


def test_harmonics_constant_series():
    betas = beta_grid(0.0, 2 * PI, 32)
    mags = harmonic_magnitudes(betas, np.full(32, 0.7), 3)
    assert abs(mags[0] - 0.7) < 1e-12
    assert np.max(mags[1:]) < 1e-12


def test_harmonics_cos_squared():
    betas = beta_grid(-PI, PI, 64)
    mags = harmonic_magnitudes(betas, np.cos(betas / 2) ** 2, 4)
    assert abs(mags[0] - 0.5) < 1e-12
    assert abs(mags[1] - 0.25) < 1e-12
    assert np.max(mags[2:]) < 1e-12


def test_harmonics_grid_validation():
    with pytest.raises(ValueError, match="short"):
        harmonic_magnitudes(beta_grid(-PI, PI, 8), np.ones(8), 4)
    with pytest.raises(ValueError, match="span"):
        harmonic_magnitudes(beta_grid(-PI, PI / 2, 32), np.ones(32), 2)
    uneven = np.concatenate([beta_grid(-PI, 0, 16), beta_grid(0, PI, 24)])
    with pytest.raises(ValueError, match="uniform"):
        harmonic_magnitudes(uneven, np.ones(40), 2)
    with pytest.raises(ValueError, match="increasing"):
        harmonic_magnitudes(beta_grid(-PI, PI, 32)[::-1], np.ones(32), 2)


def test_fringe_series_invariants_enforced():
    from spincat import FringeSeries

    betas = beta_grid(-PI, PI, 8)
    flat = np.full(8, 0.5)
    with pytest.raises(ValueError, match="increasing"):
        FringeSeries(2, 0.1, betas[::-1], flat, flat, flat, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError, match="length"):
        FringeSeries(2, 0.1, betas, flat[:4], flat, flat, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError, match=r"outside \[0, 1"):
        FringeSeries(2, 0.1, betas, np.full(8, 1.5), flat, flat, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError, match=r"outside \[0, 1"):
        FringeSeries(2, 0.1, betas, np.full(8, math.nan), flat, flat, 0.1, 0.1, 0.1)


def test_harmonics_channel_fixture():
    series = compare_channels(3, PI / 2, -PI / 2, PI / 2, PI / 2, -PI, PI, 256)
    coh = harmonic_magnitudes(series.betas, series.p_coherent, 3)
    mix = harmonic_magnitudes(series.betas, series.p_mixture, 3)
    nc = harmonic_magnitudes(series.betas, series.p_no_cavity, 3)
    np.testing.assert_allclose(coh, HARMONICS_COHERENT, atol=1e-10)
    np.testing.assert_allclose(nc, HARMONICS_NO_CAVITY, atol=1e-10)
    # the mixture channel carries no odd harmonics at all
    assert mix[1] < 1e-12 and mix[3] < 1e-12
    np.testing.assert_allclose(mix, HARMONICS_MIXTURE, atol=1e-10)
