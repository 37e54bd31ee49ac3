"""Group velocity by finite differences of the lpKdV dispersion relation: the
test oracle for the scale ratio M1_tilde / M1 of the reduction and for
`quad.dispersion_derivatives`, which the package computes in closed form.
"""

from __future__ import annotations

import math

from lpkdv.errors import DomainError
from lpkdv.quad import LpkdvParams, dispersion


def group_velocity(params: LpkdvParams, kappa: float) -> float:
    """d omega / d kappa by Richardson-refined central differences (step 1e-6)."""
    h = 1e-6
    if not (h < kappa < math.pi - h):
        raise DomainError("kappa must be interior to (0, pi)")

    def central(hh):
        return (dispersion(params, kappa + hh) - dispersion(params, kappa - hh)) / (2 * hh)

    return (4.0 * central(h / 2) - central(h)) / 3.0
