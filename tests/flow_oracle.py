"""Textbook versions of the lattice symmetry flows: the test oracle for the
package's flow kernels.

`flow_values` computes each flow's denominators as separate arrays (flow2's
A, B and C) into a NaN-filled copy of the window and checks them in the
order A, B, C; `flow_step` is the classical RK4 step with four k arrays and
the combination u + (dlambda / 6) (k1 + 2 k2 + 2 k3 + k4), and
`residual_scaling` takes one such step per lambda.
"""

from __future__ import annotations

import numpy as np

from lpkdv.errors import SingularFlowError
from lpkdv.quad import LatticeField, LpkdvParams, check_denominators, residual_field
from lpkdv.symmetries import EXTRA_MARGIN, _stencil


def flow_values(u: np.ndarray, params: LpkdvParams, which: str, stage=None) -> np.ndarray:
    """RHS on the maximal valid interior; the margin columns are NaN."""
    _stencil(which)
    p = params.p
    out = np.full_like(u, np.nan)
    fail = {"error": SingularFlowError, "what": "flow denominator", "stage": stage}
    if which == "flow1":
        A = 2 * p + u[:-2, :] - u[2:, :]
        check_denominators(p, (A,), origin=1, **fail)
        out[1:-1, :] = 1.0 / A - 1.0 / (2 * p)
    elif which == "flow2":
        A = 2 * p + u[1:-3, :] - u[3:-1, :]
        B = 2 * p + u[2:-2, :] - u[4:, :]
        C = 2 * p + u[:-4, :] - u[2:-2, :]
        check_denominators(p, (A, B, C), origin=2, **fail)
        out[2:-2, :] = (1.0 / A ** 2) * (1.0 / B + 1.0 / C) - 1.0 / (4 * p ** 3)
    else:  # "broken"
        A = 2 * p + u[1:-1, :] - u[2:, :]
        check_denominators(p, (A,), origin=0, **fail)
        out[:-2, :] = 1.0 / A - 1.0 / (2 * p)
    return out


def flow_step(field: LatticeField, params: LpkdvParams, which: str,
              dlambda: float) -> LatticeField:
    u = field.values.astype(np.complex128 if field.kind == "complex" else np.float64)
    with np.errstate(invalid="ignore"):
        k1 = flow_values(u, params, which, stage=1)
        k2 = flow_values(u + 0.5 * dlambda * k1, params, which, stage=2)
        k3 = flow_values(u + 0.5 * dlambda * k2, params, which, stage=3)
        k4 = flow_values(u + dlambda * k3, params, which, stage=4)
    new = u + (dlambda / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return LatticeField(np.nan_to_num(new, nan=0.0))


def residual_scaling(solution: LatticeField, params: LpkdvParams, which: str,
                     lambda_list) -> list:
    """The max |residual| off the margin after one step of each lambda."""
    margin = 4 * _stencil(which) + EXTRA_MARGIN
    return [float(np.max(np.abs(residual_field(flow_step(solution, params, which, lam),
                                               params)[margin:-margin, :])))
            for lam in lambda_list]
