"""Hot amplitude kernels over the 2^N product space, in numpy.

perfbench's kernels.* probes time them at n = 20 (`python3 perfbench/run.py`).
"""

import numpy as np


def popcounts(n: int) -> np.ndarray:
    """Popcount of every index 0 .. 2^n - 1."""
    table = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        table = np.concatenate([table, table + 1])
    return table


def product_amplitudes(g_amps: np.ndarray, e_amps: np.ndarray) -> np.ndarray:
    """2^n product-state amplitudes; atom j sits at bit j (LSB first)."""
    g_amps = np.ascontiguousarray(g_amps, dtype=np.complex128)
    e_amps = np.ascontiguousarray(e_amps, dtype=np.complex128)
    amps = np.ones(1, dtype=np.complex128)
    for j in range(len(g_amps)):
        amps = np.concatenate([amps * g_amps[j], amps * e_amps[j]])
    return amps


def gather(table: np.ndarray, pops: np.ndarray) -> np.ndarray:
    """out[b] = table[pops[b]]."""
    table = np.ascontiguousarray(table, dtype=np.complex128)
    return table[pops]


def popcount_sums(amps: np.ndarray, pops: np.ndarray, nbins: int) -> np.ndarray:
    """Sum amplitudes into popcount bins, accumulating in index order."""
    re = np.bincount(pops, weights=amps.real, minlength=nbins)
    im = np.bincount(pops, weights=amps.imag, minlength=nbins)
    return re + 1j * im
