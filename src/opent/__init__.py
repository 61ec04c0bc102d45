"""Operator entanglement of bipartite unitaries and coupled kicked tops.

The package loads lazily (PEP 562): `import opent` imports no submodule and
no numpy. Each public name, and each submodule, is imported on first access.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "linalg": ("UnitarityDriftError",),
    "kickedtop": ("KickedTopParams", "floquet"),
    "rmt": ("saturation_estimate",),
    "schmidt": ("BipartitionDims", "SchmidtSpectrum", "operator_entanglement", "realign",
                "reshape_vec", "schmidt_spectrum", "slin", "svn"),
    "spin": ("SpinSystem", "basis_state", "diagonal_coupling", "jx", "jy", "jz", "product_rotation"),
    "states": ("PureState", "partial_trace_1", "partial_trace_2", "phi_p_state", "phi_state",
               "product_basis_state", "state_entropy"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
