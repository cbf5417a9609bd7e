"""Shared helpers: independent brute-force routes and frozen fixtures.

The naive_* functions rebuild states by direct enumeration (bit j of every
basis index read as (index >> j) & 1, popcounts as the sum of those bits)
without touching the package's kernels, so they stay independent of the
code paths they check.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# Frozen regression fixtures for the flagship Ramsey comparison
# (n=3, theta=pi/2, phi=-pi/2, tau=pi/2, alpha=pi/2, 256 betas over [-pi, pi)).
# Computed with a standalone brute-force oracle (itertools product expansion
# + scipy expm propagation) before the package was built, and confirmed
# analytically: the coherent/mixture gap is (1/8)|sin(beta + pi/2)|^3 and the
# channel spectra are the dyadic vectors below.
# ---------------------------------------------------------------------------
GAP_COHERENT_VS_MIXTURE = 0.125
GAP_COHERENT_VS_NO_CAVITY = 0.5
HARMONICS_COHERENT = (0.3125, 0.046875, 0.09375, 0.015625)  # 5/16, 3/64, 3/32, 1/64
HARMONICS_MIXTURE = (0.3125, 0.0, 0.09375, 0.0)
HARMONICS_NO_CAVITY = (0.3125, 0.234375, 0.09375, 0.015625)  # h1 = 15/64
DIFFERING_HARMONICS = (1, 3)  # odd harmonics appear only in the coherent channel
DEPHASED_FLAT_VALUE_N3 = 0.3125  # C(6,3)/4^3, the beta-independent dephased level


def naive_product_amps(pairs):
    """Product-state amplitudes: amps[idx] = prod_j (e_j if bit j is set else g_j)."""
    index = np.arange(2 ** len(pairs))
    amps = np.ones(index.shape, dtype=complex)
    for j, (g_amp, e_amp) in enumerate(pairs):
        amps *= np.where((index >> j) & 1, complex(e_amp), complex(g_amp))
    return amps


def naive_dicke_from_full(n, full_amps):
    """Bin full-space amplitudes by popcount: c_k = sum / sqrt(C(n,k))."""
    index = np.arange(2**n)
    pops = sum((index >> j) & 1 for j in range(n))
    coeffs = np.zeros(n + 1, dtype=complex)
    np.add.at(coeffs, pops, full_amps)
    for k in range(n + 1):
        coeffs[k] /= math.sqrt(math.comb(n, k))
    return coeffs


def naive_coherent_dicke(n, theta, phi):
    """Coherent state via product expansion + projection (oracle route)."""
    g_amp = math.cos(theta / 2)
    e_amp = np.exp(-1j * phi) * math.sin(theta / 2)
    full = np.exp(1j * n * phi) * naive_product_amps([(g_amp, e_amp)] * n)
    return naive_dicke_from_full(n, full)


def random_dicke_amps(rng, n):
    """A random normalized amplitude vector of length n+1."""
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return amps / np.linalg.norm(amps)
