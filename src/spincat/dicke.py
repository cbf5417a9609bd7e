"""Symmetric-subspace (Dicke) representation of N two-level atoms.

States live in the maximal-spin sector j = N/2 and are stored as N+1
complex amplitudes c_k indexed by the excitation number k = 0..N (the
number of atoms in |e>; the usual magnetic quantum number is m = k - N/2).
Atomic coherent states, overlaps and norms defined here are the algebraic
foundation for the dynamics, oracle and Ramsey modules.

All types are immutable values and all operations are pure functions, so
everything in this module is safe to share across threads.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Identities within one representation hold to ALGEBRAIC_TOL; comparisons
# that cross into the 2^N product space accumulate more rounding and are
# checked at CROSS_REP_TOL.
ALGEBRAIC_TOL = 1e-12
CROSS_REP_TOL = 1e-10

# i**k lookup (index with k % 4); exact, unlike exp(1j*k*pi/2)
I_POWERS = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def check_atom_count(n) -> int:
    """Validate and return the atom count as a plain int (must be >= 1)."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"atom count must be >= 1, got {n}")
    return n


@lru_cache(maxsize=64)
def binomials(n: int) -> np.ndarray:
    """Row n of Pascal's triangle as float64.

    Coefficients are computed exactly as integers first; the float
    conversion is exact up to 2**53 (plenty for every supported n).
    """
    row = np.array([float(math.comb(n, k)) for k in range(n + 1)])
    row.setflags(write=False)
    return row


@lru_cache(maxsize=64)
def sqrt_binomials(n: int) -> np.ndarray:
    row = np.sqrt(binomials(n))
    row.setflags(write=False)
    return row


@dataclass(frozen=True)
class DickeState:
    """N+1 amplitudes c_k over excitation numbers k = 0..n.

    The dataclass itself does not force normalization (builders may hold
    intermediate vectors); every constructor and propagator in this
    package returns unit-norm states.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self):
        n = check_atom_count(self.n)
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (n + 1,):
            raise ValueError(
                f"expected {n + 1} amplitudes for n={n}, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", amps)


def coherent_state(n: int, theta: float, phi: float) -> DickeState:
    """Atomic coherent state |theta, phi> in the Dicke basis.

    Expansion of the product state
    prod_j (cos(theta/2) |g_j> + e^{-i phi} sin(theta/2) |e_j>) times the
    conventional global phase e^{i n phi}:

        c_k = e^{i n phi} sqrt(C(n,k)) cos^{n-k}(theta/2) sin^k(theta/2) e^{-i k phi}

    Parameters
    ----------
    n : int
        Number of atoms.
    theta, phi : float
        Polar and azimuthal angles in radians. Any finite value is
        accepted; the canonical range [0, pi] x [-pi, pi) covers all
        distinct states, values outside it are evaluated as-is.

    Returns
    -------
    DickeState
        Unit-norm state (exactly, up to rounding).
    """
    n = check_atom_count(n)
    return DickeState(n, _coherent_amps(n, theta, phi))


def _coherent_amps(n: int, theta: float, phi) -> np.ndarray:
    """coherent_state's amplitudes, shape np.shape(phi) + (n+1,), built in place."""
    phi = np.asarray(phi, dtype=np.float64)[..., None]
    if not (math.isfinite(theta) and np.isfinite(phi).all()):
        raise ValueError("theta and phi must be finite")
    k = np.arange(n + 1)
    amps = np.exp(1j * n * phi) * sqrt_binomials(n)
    amps *= np.power(math.cos(theta / 2), n - k)
    amps *= np.power(math.sin(theta / 2), k)
    phases = -1j * k * phi
    amps *= np.exp(phases, out=phases)
    return amps


def overlap(a: DickeState, b: DickeState) -> complex:
    """Inner product <a|b> = sum_k conj(a_k) b_k."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: n={a.n} vs n={b.n}")
    return complex(np.vdot(a.amps, b.amps))


def coherent_overlap(
    n: int, theta_a: float, phi_a: float, theta_b: float, phi_b: float
) -> complex:
    """Closed-form overlap of two atomic coherent states.

    <theta_a,phi_a | theta_b,phi_b> =
        e^{i n (phi_b - phi_a)}
        [cos(theta_a/2) cos(theta_b/2)
         + e^{i (phi_a - phi_b)} sin(theta_a/2) sin(theta_b/2)]^n

    Agrees with overlap() of the two constructed states to 1e-12 and
    avoids building them when only the bracket value is needed.
    """
    n = check_atom_count(n)
    for value in (theta_a, phi_a, theta_b, phi_b):
        if not math.isfinite(value):
            raise ValueError("coherent-state angles must be finite")
    bracket = complex(
        math.cos(theta_a / 2) * math.cos(theta_b / 2)
        + np.exp(1j * (phi_a - phi_b)) * math.sin(theta_a / 2) * math.sin(theta_b / 2)
    )
    return complex(np.exp(1j * n * (phi_b - phi_a))) * bracket**n


def norm(state: DickeState) -> float:
    """Euclidean norm of the amplitude vector."""
    return float(np.linalg.norm(state.amps))
