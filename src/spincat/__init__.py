"""Collective-spin GHZ / atomic cat state simulator.

Symmetric-subspace (O(N)) simulation of N two-level atoms evolving under
the collective Hamiltonian eta*S+S-, a brute-force 2^N product-space
oracle that cross-checks it, and the Ramsey-fringe detection signals that
distinguish the generated cat/GHZ states from incoherent mixtures.
"""

from .dicke import (
    ALGEBRAIC_TOL,
    CROSS_REP_TOL,
    DickeState,
    binomials,
    check_atom_count,
    coherent_overlap,
    coherent_state,
    norm,
    overlap,
)
from .dynamics import (
    CAT_TIME,
    EquivalenceReport,
    cat_state,
    equivalence_report,
    ghz_seed,
    ghz_state,
    propagate,
    wrap_phase,
)
from .errors import CapacityError, NormalizationError, SubspaceError
from .oracle import (
    DENSE_MATRIX_MAX,
    FULL_SPACE_MAX,
    FullState,
    collective_lowering,
    embed,
    product_state,
    project,
    propagate_full,
)
from .ramsey import (
    FringeSeries,
    beta_grid,
    compare_channels,
    detection_probability,
    harmonic_magnitudes,
)

__version__ = "0.1.0"

__all__ = [
    "ALGEBRAIC_TOL",
    "CAT_TIME",
    "CROSS_REP_TOL",
    "CapacityError",
    "DENSE_MATRIX_MAX",
    "DickeState",
    "EquivalenceReport",
    "FULL_SPACE_MAX",
    "FringeSeries",
    "FullState",
    "NormalizationError",
    "SubspaceError",
    "beta_grid",
    "binomials",
    "cat_state",
    "check_atom_count",
    "coherent_overlap",
    "coherent_state",
    "collective_lowering",
    "compare_channels",
    "detection_probability",
    "embed",
    "equivalence_report",
    "ghz_seed",
    "ghz_state",
    "harmonic_magnitudes",
    "norm",
    "overlap",
    "product_state",
    "project",
    "propagate",
    "propagate_full",
    "wrap_phase",
]
