"""Ramsey detection signals for cavity-generated cat states.

The second Ramsey zone, parameterized like a coherent-state preparation by
(alpha, beta), acts as a projection onto <alpha, beta|; the measured
signal is the probability of then finding every atom in the ground state,
|<alpha,beta|psi>|^2. Sweeping beta produces interference fringes whose
harmonic content separates a coherent cat state from the incoherent
mixture of its branches and from the unevolved (no-cavity) state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dicke import (
    ALGEBRAIC_TOL,
    DickeState,
    check_atom_count,
    coherent_state,
    norm,
    overlap,
)
from .dynamics import CAT_TIME, cat_branches, propagate
from .errors import NormalizationError


def detection_probability(state: DickeState, alpha: float, beta: float) -> float:
    """Probability |<alpha,beta|state>|^2 of an all-ground detection."""
    bra = coherent_state(state.n, alpha, beta)
    return float(abs(overlap(bra, state)) ** 2)


def beta_grid(beta_min: float, beta_max: float, steps: int) -> np.ndarray:
    """Uniform half-open grid: steps values covering [beta_min, beta_max)."""
    steps = int(steps)
    if steps < 2:
        raise ValueError(f"beta grid needs at least 2 steps, got {steps}")
    if not beta_max > beta_min:
        raise ValueError(
            f"degenerate beta grid: need beta_max > beta_min, got "
            f"[{beta_min!r}, {beta_max!r})"
        )
    return np.linspace(beta_min, beta_max, steps, endpoint=False)


# perfbench's traced run swaps this module attribute by name to time the
# mixture sweeps, which is why compare_channels calls it once per beta.
def mixture_probability(branches, alpha: float, beta: float) -> float:
    """Detection probability of a classical mixture ((weight, state), ...).

    fsum makes the accumulation exact, so the result is independent of
    branch order.
    """
    return math.fsum(w * detection_probability(s, alpha, beta) for w, s in branches)


@dataclass(frozen=True)
class FringeSeries:
    """Three detection channels sampled over one beta grid.

    Invariants enforced at construction: channels match the grid length,
    betas strictly increasing, every probability in [0, 1 + 1e-12].
    """

    n: int
    alpha: float
    betas: np.ndarray
    p_coherent: np.ndarray
    p_mixture: np.ndarray
    p_no_cavity: np.ndarray
    theta: float
    phi: float
    tau: float

    def __post_init__(self):
        for name in ("betas", "p_coherent", "p_mixture", "p_no_cavity"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(np.diff(self.betas) > 0):
            raise ValueError("betas must be strictly increasing")
        for name in ("p_coherent", "p_mixture", "p_no_cavity"):
            channel = getattr(self, name)
            if channel.shape != self.betas.shape:
                raise ValueError(f"{name} length does not match the beta grid")
            if not np.all((channel >= 0.0) & (channel <= 1.0 + ALGEBRAIC_TOL)):
                raise ValueError(
                    f"{name} contains values outside [0, 1 + {ALGEBRAIC_TOL:g}]"
                )


def _dephased_mixture(state: DickeState) -> tuple:
    """Diagonal-in-k mixture of a state (all k-coherences dropped)."""
    weights = np.abs(state.amps) ** 2
    basis = np.eye(state.n + 1)
    return tuple(
        (float(w), DickeState(state.n, row)) for w, row in zip(weights, basis)
    )


def compare_channels(
    n: int,
    theta: float,
    phi: float,
    tau: float,
    alpha: float,
    beta_min: float,
    beta_max: float,
    steps: int,
) -> FringeSeries:
    """Sweep the coherent, incoherent-mixture and no-cavity channels.

    Channels, all swept over the same grid with the same second zone
    (alpha, beta):

    * coherent: the first-zone state |theta, phi> evolved for tau.
    * mixture: for tau = pi/2 (exact float equality) the equal-weight
      incoherent mixture of the two cat branches at (theta, phi); for any
      other tau the diagonal-in-k dephased evolved state, an extension
      that keeps the channel total. A dephased state has no k-coherences,
      so that variant is beta-independent (flat).
    * no_cavity: the first-zone state swept unevolved (tau treated as 0).
    """
    n = check_atom_count(n)
    prepared = coherent_state(n, theta, phi)
    evolved = propagate(prepared, tau)
    if abs(norm(evolved) - 1.0) > ALGEBRAIC_TOL:
        raise NormalizationError("evolved first-zone state lost normalization")
    betas = beta_grid(beta_min, beta_max, steps)
    if tau == CAT_TIME:
        mixture = tuple((0.5, branch) for branch in cat_branches(n, theta, phi))
    else:
        mixture = _dephased_mixture(evolved)
    p_coherent = np.array([detection_probability(evolved, alpha, b) for b in betas])
    p_mixture = np.array([mixture_probability(mixture, alpha, b) for b in betas])
    p_no_cavity = np.array([detection_probability(prepared, alpha, b) for b in betas])
    return FringeSeries(
        n=n,
        alpha=alpha,
        betas=betas,
        p_coherent=p_coherent,
        p_mixture=p_mixture,
        p_no_cavity=p_no_cavity,
        theta=theta,
        phi=phi,
        tau=tau,
    )


def harmonic_magnitudes(
    betas: np.ndarray, values: np.ndarray, max_harmonic: int
) -> np.ndarray:
    """Fourier magnitudes |sum_i p_i e^{-i h beta_i}| / len for h = 0..max.

    Requires a strictly increasing uniform grid covering exactly one
    2*pi period (e.g. [0, 2*pi) or [-pi, pi)) with at least
    2*max_harmonic + 2 points.
    """
    betas = np.asarray(betas, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if betas.ndim != 1 or betas.shape != values.shape:
        raise ValueError("betas and values must be 1-d arrays of equal length")
    max_harmonic = int(max_harmonic)
    if max_harmonic < 0:
        raise ValueError("max_harmonic must be >= 0")
    if len(betas) < 2 * max_harmonic + 2:
        raise ValueError(
            f"grid too short: need >= {2 * max_harmonic + 2} points for "
            f"harmonics up to {max_harmonic}, got {len(betas)}"
        )
    deltas = np.diff(betas)
    # "not <=" phrasing keeps NaN grids from slipping through
    if not np.all(deltas > 0):
        raise ValueError("beta grid must be strictly increasing")
    if not np.all(np.abs(deltas - deltas[0]) <= 1e-9):
        raise ValueError("beta grid must be uniform")
    span = betas[-1] - betas[0] + deltas[0]
    if not abs(span - math.tau) <= 1e-9:
        raise ValueError(f"beta grid must span one 2*pi period, spans {span!r}")
    h = np.arange(max_harmonic + 1)
    phases = np.exp(-1j * np.outer(h, betas))
    return np.abs(phases @ values) / len(betas)
