"""Numerical workbench for the lattice potential KdV equation.

The public names load their module on first access (PEP 562), so importing
the package or `lpkdv.cli` leaves numpy unloaded and `--threads` can act.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in (
    ("quad", "LatticeField LpkdvParams CarrierWave corner_solve dispersion evolve_ivp "
             "quad_residual"),
    ("reduction", "ReductionCoefficients compute_coefficients group_velocity"),
    ("nls", "Envelope NlsCoefficients nls_evolve"),
) for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
