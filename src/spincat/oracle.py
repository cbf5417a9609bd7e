"""Brute-force 2^N product-space representation.

Ground truth for everything the fast Dicke-basis path computes: collective
operators are assembled from per-atom operators, propagation goes through
an explicit eigendecomposition of S+ S-, and embed/project move states
between the two representations. Optimized for trustworthiness, not speed;
capacity is capped accordingly (2^20 amplitudes for vectors, n = 12 for
the spectral propagation and the dense test reference).

S- lowers the excitation number (the popcount of the basis index) by one,
so S+ S- = S-^T S- maps each popcount sector k to itself and is
diagonalized one real C(n,k) x C(n,k) block at a time, over every
bitstring of the sector (all spin sectors, not only the symmetric one).
The blocks come from the same per-atom bit flips as collective_lowering,
never from the Dicke basis, so the oracle stays independent of the path
it checks.

Bit convention (contractual, tests serialize states): atom j occupies bit
j of the basis index, bit value 1 = atom in |e>, so index = sum_j b_j 2^j
with atom 0 the least significant bit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .dicke import (
    ALGEBRAIC_TOL,
    CROSS_REP_TOL,
    DickeState,
    check_atom_count,
    sqrt_binomials,
)
from .errors import CapacityError, NormalizationError, SubspaceError

FULL_SPACE_MAX = 20  # 2^20 amplitudes
DENSE_MATRIX_MAX = 12  # largest sector block C(12,6) = 924; cold build ~0.6 s


def _check_capacity(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise CapacityError(f"{what} supports n <= {limit}, got n={n}")


@lru_cache(maxsize=8)
def _popcount_table(n: int) -> np.ndarray:
    table = _kernels.popcounts(n)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class FullState:
    """2^n amplitudes over product-basis bitstrings."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        n = check_atom_count(self.n)
        _check_capacity(n, FULL_SPACE_MAX, "FullState")
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (1 << n,):
            raise ValueError(
                f"expected {1 << n} amplitudes for n={n}, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", amps)


def product_state(n: int, factors) -> FullState:
    """Product state from per-atom (g_amp, e_amp) pairs.

    Each pair must be normalized to 1 within 1e-12; amps[b] is the product
    of the selected single-atom amplitudes.
    """
    n = check_atom_count(n)
    _check_capacity(n, FULL_SPACE_MAX, "product_state")
    pairs = np.asarray(factors, dtype=np.complex128)
    if pairs.shape != (n, 2):
        raise ValueError(f"expected {n} (g_amp, e_amp) pairs, got shape {pairs.shape}")
    pair_norms = np.abs(pairs[:, 0]) ** 2 + np.abs(pairs[:, 1]) ** 2
    # written so that a NaN factor also fails the check
    good = np.abs(pair_norms - 1.0) <= ALGEBRAIC_TOL
    if not good.all():
        worst = int(np.argmin(good))
        raise NormalizationError(
            f"factor {worst} is not normalized: |g|^2+|e|^2 = {pair_norms[worst]!r}"
        )
    amps = _kernels.product_amplitudes(pairs[:, 0].copy(), pairs[:, 1].copy())
    return FullState(n, amps)


def _lowering_flips(n: int):
    """(src, dst) basis indices of each per-atom lowering |g><e|_j, j = 0..n-1."""
    basis = np.arange(1 << n)
    for j in range(n):
        bit = 1 << j
        src = basis[(basis & bit) != 0]
        yield src, src & ~bit


def collective_lowering(n: int) -> np.ndarray:
    """Dense matrix of S- = sum_j |g><e|_j; S+ is its conjugate transpose.

    The dense reference the tests check the sector-blocked propagation
    against; propagate_full does not use it.
    """
    n = check_atom_count(n)
    _check_capacity(n, DENSE_MATRIX_MAX, "collective_lowering")
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for src, dst in _lowering_flips(n):
        mat[dst, src] += 1.0
    return mat


@lru_cache(maxsize=4)
def _excitation_exchange_eigensystem(n: int) -> tuple:
    """Eigendecomposition of S+ S-, one excitation sector at a time.

    Returns one (indices, eigvals, eigvecs) per popcount k = 0..n: the
    basis indices of the sector in increasing order and the real
    eigensystem of L_k^T L_k over them, L_k being the block of S- from
    sector k to sector k-1 (L_0 has no rows, so sector 0 is the zero
    block).
    """
    pops = _popcount_table(n)
    sectors = [np.flatnonzero(pops == k) for k in range(n + 1)]
    position = np.empty(1 << n, dtype=np.int64)
    for indices in sectors:
        position[indices] = np.arange(len(indices))
    src, dst = (np.concatenate(parts) for parts in zip(*_lowering_flips(n)))
    src_pops = pops[src]
    blocks = []
    for k, indices in enumerate(sectors):
        flips = src_pops == k
        block = np.zeros((len(sectors[k - 1]) if k else 0, len(indices)))
        block[position[dst[flips]], position[src[flips]]] += 1.0
        eigvals, eigvecs = np.linalg.eigh(block.T @ block)
        for array in (indices, eigvals, eigvecs):
            array.setflags(write=False)
        blocks.append((indices, eigvals, eigvecs))
    return tuple(blocks)


def propagate_full(state: FullState, tau: float) -> FullState:
    """Apply e^{-i tau S+ S-} by spectral exponentiation, sector by sector.

    The spectrum of S+ S- is integral on every spin sector, which the test
    suite verifies; here only unitarity is enforced (norm drift < 1e-10).
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    _check_capacity(state.n, DENSE_MATRIX_MAX, "propagate_full")
    out = np.empty_like(state.amps)
    for indices, eigvals, eigvecs in _excitation_exchange_eigensystem(state.n):
        coeffs = eigvecs.T @ state.amps[indices]
        out[indices] = eigvecs @ (np.exp(-1j * tau * eigvals) * coeffs)
    drift = abs(np.linalg.norm(out) - np.linalg.norm(state.amps))
    if drift > CROSS_REP_TOL:
        raise NormalizationError(
            f"propagate_full norm drift {drift:.3e} exceeds {CROSS_REP_TOL:g}"
        )
    return FullState(state.n, out)


def embed(state: DickeState) -> FullState:
    """Isometry from the Dicke basis into the product space.

    amps[b] = c_k / sqrt(C(n, k)) with k = popcount(b); norm preserving.
    """
    _check_capacity(state.n, FULL_SPACE_MAX, "embed")
    table = state.amps / sqrt_binomials(state.n)
    return FullState(state.n, _kernels.gather(table, _popcount_table(state.n)))


def project(state: FullState) -> tuple[DickeState, float]:
    """Adjoint of embed, with an out-of-subspace guard.

    Parameters
    ----------
    state : FullState
        Any product-space state.

    Returns
    -------
    (DickeState, float)
        The symmetric-sector component c_k = sum_{popcount(b)=k} amps[b]
        / sqrt(C(n,k)), renormalized, and the 2-norm residual
        ||state - embed(c)||.

    Raises
    ------
    SubspaceError
        If the residual is >= 1e-10, i.e. the input is not permutation
        symmetric. Renormalizing only below-threshold residuals keeps
        silently denormalized states from leaking downstream.
    """
    n = state.n
    pops = _popcount_table(n)
    roots = sqrt_binomials(n)
    coeffs = _kernels.popcount_sums(state.amps, pops, n + 1) / roots
    residual = float(np.linalg.norm(state.amps - _kernels.gather(coeffs / roots, pops)))
    if residual >= CROSS_REP_TOL:
        raise SubspaceError(
            f"state is not permutation symmetric: projection residual {residual:.3e}"
        )
    scale = np.linalg.norm(coeffs)
    if scale == 0.0:
        raise NormalizationError("cannot renormalize the projection of a zero state")
    return DickeState(n, coeffs / scale), residual
