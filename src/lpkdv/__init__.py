"""Numerical workbench for the lattice potential KdV equation."""

from .nls import Envelope, NlsCoefficients, nls_evolve
from .quad import CarrierWave, LatticeField, LpkdvParams, dispersion, evolve_ivp
from .reduction import ReductionCoefficients, compute_coefficients

__version__ = "0.1.0"
__all__ = ["LatticeField", "LpkdvParams", "CarrierWave", "dispersion", "evolve_ivp",
           "ReductionCoefficients", "compute_coefficients", "Envelope", "NlsCoefficients",
           "nls_evolve", "__version__"]
