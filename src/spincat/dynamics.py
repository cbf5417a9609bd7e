"""Time evolution under H = eta S+ S- and the named states it generates.

S+ S- is diagonal in the Dicke basis: on |k> it acts as k(N - k + 1)
(from (j+m)(j-m+1) with j = N/2, m = k - N/2), so evolution over the
scaled time tau = eta*t is a pure phase per excitation number and costs
O(N). The spectrum is integral, hence tau = 2*pi is an exact recurrence.

At tau = pi/2 the evolution turns an atomic coherent state into an equal
superposition of two coherent states (an atomic cat state); for the seed
state prod_j (|g_j> + i |e_j>)/sqrt(2) the result is an N-atom GHZ state.
equivalence_report() verifies this numerically, global phase included.

Sign convention: U(tau) = e^{-i tau S+ S-}. It is validated empirically by
the quarter-period checks below (the opposite sign reproduces neither
two-branch construction with the right phase).
"""

import math
from dataclasses import dataclass

import numpy as np

from .dicke import (
    ALGEBRAIC_TOL,
    DickeState,
    I_POWERS,
    check_atom_count,
    coherent_state,
    norm,
    overlap,
    sqrt_binomials,
)
from .errors import NormalizationError
from .oracle import FULL_SPACE_MAX, FullState, _check_capacity, product_state, project

# Scaled time at which the cat / GHZ structure appears (a quarter of the
# 2*pi recurrence).
CAT_TIME = math.pi / 2

# Bound on measured-vs-expected global phase in verification reports.
PHASE_TOL = 1e-9


def propagate(state: DickeState, tau: float) -> DickeState:
    """Evolve a Dicke-basis state: c_k -> e^{-i tau k(n-k+1)} c_k."""
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    k = np.arange(state.n + 1)
    return DickeState(state.n, state.amps * np.exp(-1j * tau * k * (state.n - k + 1)))


def ghz_seed(n: int) -> DickeState:
    """Product state with every atom in (|g> + i|e>)/sqrt(2).

    Its quarter-period evolution is an N-atom GHZ state. Equals
    e^{+i n pi/2} * coherent_state(n, pi/2, -pi/2).
    """
    n = check_atom_count(n)
    k = np.arange(n + 1)
    amps = sqrt_binomials(n) * 2.0 ** (-0.5 * n) * I_POWERS[k % 4]
    return DickeState(n, amps)


def cat_branches(n: int, theta: float, phi: float) -> tuple[DickeState, DickeState]:
    """The two coherent branches |theta, phi - pi(n-1)/2>, |theta, phi - pi(n-3)/2>.

    |theta, phi> evolved to tau = pi/2 is a superposition of these
    (cat_state); their equal-weight incoherent mixture is the Ramsey
    mixture channel at the cat time.
    """
    return (
        coherent_state(n, theta, phi - math.pi * (n - 1) / 2),
        coherent_state(n, theta, phi - math.pi * (n - 3) / 2),
    )


def cat_state(n: int, theta: float, phi: float) -> DickeState:
    """Atomic cat state reached at tau = pi/2 from |theta, phi>.

    Two-branch closed form

        (e^{-i n pi/2} / sqrt(2)) [ e^{+i pi/4} |theta, phi - pi(n-1)/2>
                                  + e^{-i pi/4} |theta, phi - pi(n-3)/2> ]

    with each branch carrying the coherent-state convention phase
    e^{i n phi_branch}. It is exact and unit-norm for every theta: the
    overlap (-1)^n cos^n(theta) is real, so the norm's cross term vanishes.
    """
    branch_a, branch_b = cat_branches(n, theta, phi)
    eighth_turn = (1.0 + 1.0j) / math.sqrt(2)  # e^{i pi/4}
    amps = (
        I_POWERS[(-n) % 4]  # e^{-i n pi/2}, exact
        / math.sqrt(2)
        * (eighth_turn * branch_a.amps + eighth_turn.conjugate() * branch_b.amps)
    )
    return DickeState(n, amps)


def ghz_state(n: int) -> FullState:
    """N-atom GHZ state as a two-branch product construction (full space).

    (e^{i pi/4}/sqrt(2)) { prod_j (|g_j> + (-i)^n |e_j>)/sqrt(2)
                         - i prod_j (|g_j> - (-i)^n |e_j>)/sqrt(2) }

    The branches are orthogonal for every n >= 1, so the result is
    normalized as written.
    """
    n = check_atom_count(n)
    _check_capacity(n, FULL_SPACE_MAX, "ghz_state")
    root_half = 1.0 / math.sqrt(2)
    w = complex(I_POWERS[(-n) % 4])  # (-i)^n
    branch_a = product_state(n, [(root_half, w * root_half)] * n)
    branch_b = product_state(n, [(root_half, -w * root_half)] * n)
    prefactor = np.exp(1j * math.pi / 4) / math.sqrt(2)
    return FullState(n, prefactor * (branch_a.amps - 1j * branch_b.amps))


def wrap_phase(angle: float) -> float:
    """Map an angle to the interval (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    return wrapped + math.tau if wrapped <= -math.pi else wrapped


def _aligned_residual(x: np.ndarray, y: np.ndarray) -> float:
    """Max-norm of x - e^{i phase} y with the phase chosen optimally."""
    inner = np.vdot(x, y)
    if abs(inner) == 0.0:
        return float(np.max(np.abs(x - y)))
    return float(np.max(np.abs(x - (inner.conjugate() / abs(inner)) * y)))


@dataclass(frozen=True)
class EquivalenceReport:
    """Pairwise agreement of the three quarter-period constructions.

    Fidelities are |<x|y>|^2; phase_cat_over_ghz = arg <ghz|cat> and its
    expected value -n*pi/2 are both reported in (-pi, pi]; max_residual is
    the largest phase-aligned amplitude mismatch over the three pairs.
    """

    n: int
    fidelity_prop_vs_cat: float
    fidelity_prop_vs_ghz: float
    phase_cat_over_ghz: float
    expected_phase: float
    max_residual: float


def equivalence_report(n: int) -> EquivalenceReport:
    """Cross-check propagation against the cat and GHZ constructions.

    Builds (a) the seed state propagated to tau = pi/2, (b) the two-branch
    cat at (pi/2, -pi/2), (c) the GHZ product construction projected into
    the Dicke basis, and reports their pairwise fidelities, the measured
    cat-over-GHZ global phase against -n*pi/2, and the worst phase-aligned
    residual. All three should agree to rounding for every n.
    """
    n = check_atom_count(n)
    _check_capacity(n, FULL_SPACE_MAX, "equivalence_report")
    propagated = propagate(ghz_seed(n), CAT_TIME)
    if abs(norm(propagated) - 1.0) > ALGEBRAIC_TOL:
        raise NormalizationError("propagated seed state lost normalization")
    cat = cat_state(n, math.pi / 2, -math.pi / 2)
    ghz, _ = project(ghz_state(n))
    measured = wrap_phase(float(np.angle(overlap(ghz, cat))))
    expected = wrap_phase(-n * math.pi / 2)
    residual = max(
        _aligned_residual(propagated.amps, cat.amps),
        _aligned_residual(propagated.amps, ghz.amps),
        _aligned_residual(cat.amps, ghz.amps),
    )
    return EquivalenceReport(
        n=n,
        fidelity_prop_vs_cat=abs(overlap(propagated, cat)) ** 2,
        fidelity_prop_vs_ghz=abs(overlap(propagated, ghz)) ** 2,
        phase_cat_over_ghz=measured,
        expected_phase=expected,
        max_residual=residual,
    )
