"""First two generalized symmetry flows of the lpKdV and their verification.

flow1:  du/dlam = 1/(2p + u[n-1] - u[n+1]) - 1/(2p)
flow2:  du/dlam = (1/(2p + u[n-1] - u[n+1])^2)
                  * ( 1/(2p + u[n] - u[n+2]) + 1/(2p + u[n-2] - u[n]) )
                  - 1/(4p^3)

Both involve only n-shifts and vanish identically on constants.  A flow F is
a symmetry of the quad equation when transporting an exact solution along F
keeps it a solution; one classical RK4 step of size lam then leaves a
residual O(lam^5) (the integrator's local error), which is what
symmetry_residual_scaling fits.  "broken" is a deliberately wrong variant
(flow1 with the (T - T^2) difference) kept as a negative control; its
residual grows linearly in lam.

harmonic_projection demodulates a flow's right-hand side on a multiscale
ansatz field against the carrier and compares the first-harmonic content
with the leading reduced flow (i sin(kappa)/(2 p^2)) u1 / N; flow2 projects
onto the same reduced flow up to a constant reparametrization factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, SingularFlowError
from .quad import LatticeField, LpkdvParams, check_denominators, max_residual, residual_field
from .reduction import AnsatzField, ReductionCoefficients, fit_scaling_exponent

FLOW_STENCIL = {"flow1": 1, "flow2": 2, "broken": 2}
SOLUTION_TOL = 1e-11          # max residual of a field taken as an exact solution
RESIDUAL_FLOOR_RTOL = 1e-13   # residuals below this x (1 + max|u|) are round-off
EXTRA_MARGIN = 2              # columns excluded beyond the RK4 stencil erosion
ENVELOPE_FLOOR = 1e-8         # blocks with a smaller envelope are not projected


@dataclass(frozen=True)
class FlowState:
    """Field being transported along a flow; invalid_margin counts the columns
    on each n-side that stencil erosion has invalidated."""

    field: LatticeField
    lam: float = 0.0
    invalid_margin: int = 0


def _flow_values(u: np.ndarray, params: LpkdvParams, which: str, stage=None) -> np.ndarray:
    """RHS on the maximal valid interior; the margin columns are NaN."""
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
    elif which == "broken":
        A = 2 * p + u[1:-1, :] - u[2:, :]
        check_denominators(p, (A,), origin=0, **fail)
        out[:-2, :] = 1.0 / A - 1.0 / (2 * p)
    else:
        raise DomainError(f"unknown flow {which!r}")
    return out


def flow_rhs(field: LatticeField, params: LpkdvParams, which: str) -> LatticeField:
    """Flow right-hand side; boundary margin (stencil width) is NaN-marked."""
    s = FLOW_STENCIL.get(which)
    if s is None:
        raise DomainError(f"unknown flow {which!r}")
    if field.n_size < 2 * s + 1:
        raise DomainError(f"field too narrow for {which} (needs n_size > {2 * s})")
    return LatticeField(_flow_values(field.values, params, which))


def flow_step(state: FlowState, params: LpkdvParams, which: str,
              dlambda: float) -> FlowState:
    """One classical RK4 step; the valid interior loses 4 stencil-widths of
    columns per side (one per stage)."""
    s = FLOW_STENCIL[which]
    u = state.field.values.astype(np.complex128 if state.field.kind == "complex"
                                  else np.float64)
    with np.errstate(invalid="ignore"):
        k1 = _flow_values(u, params, which, stage=1)
        k2 = _flow_values(u + 0.5 * dlambda * k1, params, which, stage=2)
        k3 = _flow_values(u + 0.5 * dlambda * k2, params, which, stage=3)
        k4 = _flow_values(u + dlambda * k3, params, which, stage=4)
    new = u + (dlambda / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return FlowState(field=LatticeField(np.nan_to_num(new, nan=0.0)),
                     lam=state.lam + dlambda,
                     invalid_margin=state.invalid_margin + 4 * s)


def symmetry_residual_scaling(solution: LatticeField, params: LpkdvParams,
                              which: str, lambda_list) -> dict:
    """Quad-equation residual after ONE RK4 step of each lambda, with the
    log-log exponent fit.

    For an exact symmetry the only residual is the integrator's O(lam^5)
    local error, so the fitted exponent must reach >= 4; residuals at the
    round-off floor are excluded from the fit (all-floor counts as pass).
    """
    lambda_list = list(lambda_list)
    if len(lambda_list) < 3 or sorted(lambda_list) != lambda_list:
        raise DomainError("lambda_list must be ascending with at least 3 values")
    base = max_residual(solution, params)
    if base > SOLUTION_TOL:
        raise PreconditionError(
            f"input residual {base:.3e} exceeds {SOLUTION_TOL:.0e}; not a solution"
        )
    floor = RESIDUAL_FLOOR_RTOL * (1.0 + float(np.max(np.abs(solution.values))))
    margin = 4 * FLOW_STENCIL[which] + EXTRA_MARGIN
    if 2 * margin >= solution.n_size - 1:
        raise DomainError(f"window too narrow for flow margin {margin}")
    residuals = []
    for lam in lambda_list:
        stepped = flow_step(FlowState(solution), params, which, lam)
        r = residual_field(stepped.field, params)
        residuals.append(float(np.max(np.abs(r[margin:-margin, :]))))
    above = [(lam, r) for lam, r in zip(lambda_list, residuals) if r > floor]
    report = {"lambda": lambda_list, "residual": residuals, "floor": floor}
    if len(above) < 2:
        report["exponent"] = None
        report["note"] = "below measurement floor"
        report["passed"] = True
        return report
    lams, res = zip(*above)
    exponent = fit_scaling_exponent(1.0 / np.asarray(lams), res)[0]  # lam plays 1/N
    report["exponent"] = exponent
    report["passed"] = bool(exponent >= 4.0)
    return report


def _block_reduce(arr: np.ndarray, P: int) -> np.ndarray:
    nb, mb = arr.shape[0] // P, arr.shape[1] // P
    return arr[:nb * P, :mb * P].reshape(nb, P, mb, P).mean(axis=(1, 3))


def _first_harmonic_blocks(ansatz: AnsatzField, which: str):
    """Demodulated flow RHS averaged over carrier-period blocks, plus the
    envelope sampled at the block centers."""
    coeffs = ansatz.coeffs
    params = coeffs.params
    kappa, omega = coeffs.carrier.kappa, coeffs.carrier.omega
    P = math.ceil(2 * math.pi / kappa)
    rhs = flow_rhs(ansatz.field, params, which).values
    s = FLOW_STENCIL[which]
    inner = rhs[s:-s, :]
    n0 = s
    n_idx = n0 + np.arange(inner.shape[0])
    m_idx = np.arange(inner.shape[1])
    demod = inner * np.exp(-1j * (kappa * n_idx[:, None] - omega * m_idx[None, :]))
    blocks = _block_reduce(demod, P)
    centers_n = n0 + (np.arange(blocks.shape[0]) + 0.5) * P - 0.5
    centers_m = (np.arange(blocks.shape[1]) + 0.5) * P - 0.5
    return blocks, ansatz.envelope_values(centers_n, centers_m)


def harmonic_projection(ansatz: AnsatzField, coeffs: ReductionCoefficients,
                        which: str) -> dict:
    """Project a flow's RHS onto the first carrier harmonic and compare with
    the reduced flow.

    Reports (a) the pointwise and amplitude-weighted ratio of the projection
    to (i sin(kappa)/(2 p^2)) u1 / N, and, for flow2, (b) the pointwise ratio
    to flow1's projection, whose constancy across points realizes the
    statement that both lattice flows reduce to the same symmetry up to a
    reparametrization of the group parameter.
    """
    params = coeffs.params
    kappa = coeffs.carrier.kappa
    blocks, env = _first_harmonic_blocks(ansatz, which)
    keep = np.abs(env) >= ENVELOPE_FLOOR
    if not np.any(keep):
        return {"flow": which, "n_points": 0, "note": "envelope below floor everywhere"}
    coeff_theory = 1j * math.sin(kappa) / (2 * params.p ** 2) / ansatz.N
    ratios = blocks[keep] / (coeff_theory * env[keep])
    coeff_est = np.sum(blocks[keep] * np.conj(env[keep])) / np.sum(np.abs(env[keep]) ** 2)
    report = {
        "flow": which,
        "N": ansatz.N,
        "n_points": int(np.sum(keep)),
        "weighted_rel_error": abs(coeff_est / coeff_theory - 1.0),
        "max_ratio_deviation": float(np.max(np.abs(ratios - 1.0))),
        "mean_ratio": [float(np.mean(ratios).real), float(np.mean(ratios).imag)],
    }
    if which == "flow2":
        blocks1, env1 = _first_harmonic_blocks(ansatz, "flow1")
        # flow2's margin is wider; align the two block grids
        nb = min(blocks.shape[0], blocks1.shape[0])
        mb = min(blocks.shape[1], blocks1.shape[1])
        b2, b1 = blocks[:nb, :mb], blocks1[:nb, :mb]
        e = env[:nb, :mb]
        keep2 = (np.abs(e) >= ENVELOPE_FLOOR) & (np.abs(b1) > 0)
        ratio21 = b2[keep2] / b1[keep2]
        w2 = np.abs(e[keep2]) ** 2
        mean21 = np.sum(w2 * ratio21) / np.sum(w2)
        var21 = np.sum(w2 * np.abs(ratio21 - mean21) ** 2) / np.sum(w2)
        report["flow2_over_flow1"] = {
            "weighted_mean": [mean21.real, mean21.imag],
            "weighted_std": float(math.sqrt(var21)),
            "std_over_mean": float(math.sqrt(var21) / abs(mean21)),
        }
    return report
