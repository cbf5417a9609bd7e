import math

import numpy as np

from spincat import _kernels


def test_popcounts_numpy_values():
    table = _kernels.popcounts(3)
    np.testing.assert_array_equal(table, [0, 1, 1, 2, 1, 2, 2, 3])


def test_product_amplitudes_numpy_bit_order():
    # atom 0 = least significant bit
    g = np.array([1.0, 0.6], dtype=np.complex128)
    e = np.array([2.0j, 0.8], dtype=np.complex128)
    amps = _kernels.product_amplitudes(g, e)
    np.testing.assert_allclose(amps, [0.6, 1.2j, 0.8, 1.6j])


def test_dispatchers_produce_valid_state():
    g = np.full(4, 1 / math.sqrt(2), dtype=np.complex128)
    e = np.full(4, 1j / math.sqrt(2), dtype=np.complex128)
    amps = _kernels.product_amplitudes(g, e)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
    sums = _kernels.popcount_sums(amps, _kernels.popcounts(4), 5)
    assert sums.shape == (5,)
