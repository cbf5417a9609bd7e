import math

import numpy as np
import pytest

from conftest import naive_product_amps, random_dicke_amps

from spincat import (
    CapacityError,
    DickeState,
    FullState,
    NormalizationError,
    SubspaceError,
    coherent_state,
    collective_lowering,
    embed,
    ghz_seed,
    ghz_state,
    product_state,
    project,
    propagate,
    propagate_full,
)
from spincat.oracle import _excitation_exchange_eigensystem

PI = math.pi
ROOT_HALF = 1.0 / math.sqrt(2)


def test_product_all_ground():
    state = product_state(2, [(1.0, 0.0)] * 2)
    np.testing.assert_allclose(state.amps, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_product_single_atom():
    state = product_state(1, [(ROOT_HALF, 1j * ROOT_HALF)])
    np.testing.assert_allclose(state.amps, [ROOT_HALF, 1j * ROOT_HALF], atol=1e-15)


def test_product_rejects_unnormalized_factor():
    with pytest.raises(NormalizationError):
        product_state(2, [(1.0, 0.0), (0.9, 0.1)])


def test_product_matches_naive_enumeration():
    rng = np.random.default_rng(21)
    for n in (1, 2, 4, 7):
        pairs = []
        for _ in range(n):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            raw /= np.linalg.norm(raw)
            pairs.append((complex(raw[0]), complex(raw[1])))
        fast = product_state(n, pairs).amps
        naive = naive_product_amps(pairs)
        assert np.max(np.abs(fast - naive)) < 1e-14


def test_product_equals_embedded_seed():
    fast = product_state(3, [(ROOT_HALF, 1j * ROOT_HALF)] * 3)
    via_dicke = embed(ghz_seed(3))
    assert np.max(np.abs(fast.amps - via_dicke.amps)) < 1e-12


def test_full_state_capacity():
    with pytest.raises(CapacityError):
        FullState(21, np.zeros(2**21))


def test_full_state_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        FullState(1, [math.nan, 0.0])


def test_product_rejects_nan_factor():
    with pytest.raises(NormalizationError):
        product_state(2, [(1.0, 0.0), (math.nan, 0.0)])


def test_project_zero_state():
    with pytest.raises(NormalizationError):
        project(FullState(2, np.zeros(4)))


def test_lowering_single_atom():
    mat = collective_lowering(1)
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    np.testing.assert_array_equal(mat, expected)


def test_lowering_capacity():
    with pytest.raises(CapacityError):
        collective_lowering(13)


def test_exchange_matrix_on_symmetric_single_excitation():
    # S+S- on (|01> + |10>)/sqrt(2) returns 2x the state: k(n-k+1) = 1*2
    lowering = collective_lowering(2)
    hamiltonian = lowering.conj().T @ lowering
    sym = np.array([0.0, ROOT_HALF, ROOT_HALF, 0.0], dtype=complex)
    np.testing.assert_allclose(hamiltonian @ sym, 2.0 * sym, atol=1e-12)


def test_exchange_matrix_is_hermitian():
    for n in (1, 3, 6):
        lowering = collective_lowering(n)
        hamiltonian = lowering.conj().T @ lowering
        assert np.max(np.abs(hamiltonian - hamiltonian.conj().T)) < 1e-14


def test_exchange_matrix_dicke_eigenvalues():
    for n in (1, 2, 3, 5, 8):
        lowering = collective_lowering(n)
        hamiltonian = lowering.conj().T @ lowering
        for k in range(n + 1):
            basis = np.zeros(n + 1, dtype=complex)
            basis[k] = 1.0
            vec = embed(DickeState(n, basis)).amps
            np.testing.assert_allclose(
                hamiltonian @ vec, k * (n - k + 1) * vec, atol=1e-10
            )


def test_exchange_spectrum_is_integral():
    # holds on every spin sector, not just the symmetric one; the sector
    # blocks propagate_full diagonalizes must carry the whole dense spectrum
    for n in (1, 2, 4, 6, 8):
        lowering = collective_lowering(n)
        eigvals = np.linalg.eigvalsh(lowering.conj().T @ lowering)
        assert np.max(np.abs(eigvals - np.round(eigvals))) < 1e-9
        blocks = _excitation_exchange_eigensystem(n)
        sector_eigvals = np.sort(np.concatenate([vals for _, vals, _ in blocks]))
        assert np.max(np.abs(sector_eigvals - eigvals)) < 1e-9
        assert np.max(np.abs(sector_eigvals - np.round(sector_eigvals))) < 1e-9


def test_propagate_full_identity_at_zero():
    state = embed(coherent_state(4, 1.2, -0.3))
    out = propagate_full(state, 0.0)
    assert np.max(np.abs(out.amps - state.amps)) < 1e-12


def test_propagate_full_recurrence_on_symmetric_states():
    rng = np.random.default_rng(22)
    for n in (1, 3, 6):
        state = embed(DickeState(n, random_dicke_amps(rng, n)))
        out = propagate_full(state, 2 * PI)
        assert np.max(np.abs(out.amps - state.amps)) < 1e-9


def test_propagate_full_unitary():
    state = embed(coherent_state(5, 0.9, 2.0))
    for tau in (0.1, 1.0, PI / 2, 10.0):
        out = propagate_full(state, tau)
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10


def test_propagate_full_capacity():
    with pytest.raises(CapacityError):
        propagate_full(FullState(13, np.eye(1, 2**13)[0]), 1.0)


def test_propagate_full_matches_dense_reference_on_every_sector():
    # random states over the whole 2^n space, not only the symmetric
    # subspace, against a dense eigh of S+ S-
    rng = np.random.default_rng(27)
    for n in range(1, 9):
        lowering = collective_lowering(n)
        eigvals, eigvecs = np.linalg.eigh(lowering.conj().T @ lowering)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = FullState(n, amps / np.linalg.norm(amps))
        for tau in (0.4, PI / 2, 5.3):
            coeffs = eigvecs.conj().T @ state.amps
            dense = eigvecs @ (np.exp(-1j * tau * eigvals) * coeffs)
            out = propagate_full(state, tau)
            assert np.max(np.abs(out.amps - dense)) < 1e-10


def test_propagate_full_matches_dicke_propagation():
    rng = np.random.default_rng(23)
    for n in range(1, 13):
        theta, phi = rng.uniform(0, PI), rng.uniform(-PI, PI)
        tau = rng.uniform(0, 2 * PI)
        state = coherent_state(n, theta, phi)
        fast = embed(propagate(state, tau))
        slow = propagate_full(embed(state), tau)
        assert np.max(np.abs(fast.amps - slow.amps)) < 1e-9


def test_embed_single_atom_identity():
    out = embed(DickeState(1, [1.0, 0.0]))
    np.testing.assert_allclose(out.amps, [1.0, 0.0], atol=1e-15)


def test_embed_splits_single_excitation():
    out = embed(DickeState(2, [0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out.amps, [0.0, ROOT_HALF, ROOT_HALF, 0.0], atol=1e-15)


def test_embed_is_isometry():
    rng = np.random.default_rng(24)
    for n in (1, 4, 9, 12):
        state = DickeState(n, random_dicke_amps(rng, n))
        assert abs(np.linalg.norm(embed(state).amps) - 1.0) < 1e-12


def test_embed_coherent_equals_product_up_to_convention_phase():
    n, theta, phi = 4, PI / 2, -PI / 2
    via_dicke = embed(coherent_state(n, theta, phi))
    g_amp = math.cos(theta / 2)
    e_amp = np.exp(-1j * phi) * math.sin(theta / 2)
    direct = product_state(n, [(g_amp, e_amp)] * n)
    # convention phase e^{i n phi} = e^{-2 pi i} = 1 here
    assert np.max(np.abs(via_dicke.amps - direct.amps)) < 1e-12


def test_project_inverts_embed():
    rng = np.random.default_rng(25)
    for n in (1, 3, 7, 12):
        state = DickeState(n, random_dicke_amps(rng, n))
        back, residual = project(embed(state))
        assert residual < 1e-12
        assert np.max(np.abs(back.amps - state.amps)) < 1e-12


def test_project_rejects_asymmetric_state():
    lone = FullState(2, [0.0, 1.0, 0.0, 0.0])  # |01> alone
    with pytest.raises(SubspaceError):
        project(lone)


def test_project_ghz_is_symmetric():
    for n in (1, 2, 5, 9, 12):
        _, residual = project(ghz_state(n))
        assert residual < 1e-12


def test_embedded_states_are_permutation_invariant():
    rng = np.random.default_rng(26)
    for n in (2, 4, 7):
        full = embed(DickeState(n, random_dicke_amps(rng, n)))
        i, j = rng.choice(n, size=2, replace=False)
        idx = np.arange(2**n)
        bit_i, bit_j = (idx >> i) & 1, (idx >> j) & 1
        swapped = idx ^ ((bit_i ^ bit_j) << i) ^ ((bit_i ^ bit_j) << j)
        np.testing.assert_array_equal(full.amps[swapped], full.amps)
