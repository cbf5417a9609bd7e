"""Collective-spin GHZ / atomic cat state simulator.

Symmetric-subspace (O(N)) simulation of N two-level atoms evolving under
the collective Hamiltonian eta*S+S-, a brute-force 2^N product-space
oracle that cross-checks it, and the Ramsey-fringe detection signals that
distinguish the generated cat/GHZ states from incoherent mixtures.
Names load on first access (PEP 562): `import spincat` alone loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "ALGEBRAIC_TOL",
            "CROSS_REP_TOL",
            "DickeState",
            "binomials",
            "check_atom_count",
            "coherent_overlap",
            "coherent_state",
            "norm",
            "overlap",
        ),
        "dicke",
    ),
    **dict.fromkeys(
        (
            "CAT_TIME",
            "EquivalenceReport",
            "cat_state",
            "equivalence_report",
            "ghz_seed",
            "ghz_state",
            "propagate",
            "wrap_phase",
        ),
        "dynamics",
    ),
    **dict.fromkeys(("CapacityError", "NormalizationError", "SubspaceError"), "errors"),
    **dict.fromkeys(
        (
            "DENSE_MATRIX_MAX",
            "FULL_SPACE_MAX",
            "FullState",
            "collective_lowering",
            "embed",
            "product_state",
            "project",
            "propagate_full",
        ),
        "oracle",
    ),
    **dict.fromkeys(
        (
            "FringeSeries",
            "beta_grid",
            "compare_channels",
            "detection_probability",
            "harmonic_magnitudes",
        ),
        "ramsey",
    ),
}
# submodules that resolve as attributes after a bare `import spincat`
_SUBMODULES = {*_EXPORTS.values(), "_kernels"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
