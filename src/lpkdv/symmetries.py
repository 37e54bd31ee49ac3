"""First two generalized symmetry flows of the lpKdV and their verification.

flow1:  du/dlam = 1/(2p + u[n-1] - u[n+1]) - 1/(2p)
flow2:  du/dlam = (1/(2p + u[n-1] - u[n+1])^2)
                  * ( 1/(2p + u[n] - u[n+2]) + 1/(2p + u[n-2] - u[n]) )
                  - 1/(4p^3)

Both involve only n-shifts and vanish identically on constants.  A flow F is
a symmetry of the quad equation when transporting an exact solution along F
keeps it a solution; one classical RK4 step of size lam (nls.rk4_step, the
package's one RK4 step) then leaves a residual O(lam^5) (the integrator's
local error), which is what symmetry_residual_scaling fits (the pass rule
is flow-check's).  "broken" is a deliberately wrong variant (flow1 with the
(T - T^2) difference) kept as a negative control; its residual grows
linearly in lam.

harmonic_projection demodulates a flow's right-hand side on a multiscale
ansatz field against the carrier and compares the first-harmonic content
with the leading reduced flow (i sin(kappa)/(2 p^2)) u1 / N; flow2 projects
onto the same reduced flow up to a constant reparametrization factor.  Its
blocks span one carrier period P = ceil(2 pi / kappa) in n and in m.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PreconditionError, SingularFlowError
from .nls import rk4_step
from .quad import LatticeField, LpkdvParams, check_denominators, max_residual, residual_field
from .reduction import AnsatzField, fit_scaling_exponent

FLOW_STENCIL = {"flow1": 1, "flow2": 2, "broken": 2}
SOLUTION_TOL = 1e-11          # max residual of a field taken as an exact solution
RESIDUAL_FLOOR_RTOL = 1e-13   # residuals below this x (1 + max|u|) are round-off
EXTRA_MARGIN = 2              # columns excluded beyond the RK4 stencil erosion
ENVELOPE_FLOOR = 1e-8         # blocks with a smaller envelope are not projected


def _stencil(which: str) -> int:
    """FLOW_STENCIL[which]: the one lookup of a flow id, refusing an unknown one."""
    if which not in FLOW_STENCIL:
        raise DomainError(f"unknown flow {which!r}; expected one of {tuple(FLOW_STENCIL)}")
    return FLOW_STENCIL[which]


def _flow_values(u: np.ndarray, params: LpkdvParams, which: str, out: np.ndarray,
                 work: np.ndarray, stage=None) -> np.ndarray:
    """The RHS on the maximal valid interior, written into `out`; NaN in its
    margin rows.  flow2 keeps D[n] = 2p + u[n-1] - u[n+1] in work[0], reads
    A, B and C there as D[n], D[n+1] and D[n-1], and sums 1/B + 1/C in work[1]."""
    s, p = _stencil(which), params.p
    fail = {"error": SingularFlowError, "what": "flow denominator", "stage": stage}
    rows = slice(0, -2) if which == "broken" else slice(s, -s)
    D = work[0, 1:-1] if which == "flow2" else out[rows]
    np.subtract(np.add(2 * p, u[1:-1] if which == "broken" else u[:-2], out=D), u[2:], out=D)
    out[:rows.start] = out[rows.stop:] = np.nan
    if which != "flow2":
        check_denominators(p, (D,), origin=rows.start, **fail)
        np.subtract(np.divide(1.0, D, out=D), 1.0 / (2 * p), out=D)
        return out
    A, B, C = work[0, 2:-2], work[0, 3:-1], work[0, 1:-3]
    try:
        check_denominators(p, (D,), origin=1, **fail)
    except SingularFlowError:  # D's rows are A's, B's and C's: fail as their check does
        check_denominators(p, (A, B, C), origin=2, **fail)
    # no rounded complex product writes over its own operand: numpy rounds a
    # one-element product in place otherwise than one into a fresh array
    inv_a2 = np.divide(1.0, np.square(A, out=out[rows]), out=out[rows])
    with np.errstate(divide="ignore"):  # under 5 rows D has rows that A, B and C lack
        np.divide(1.0, D, out=D)
    total = np.add(B, C, out=work[1, rows])
    np.subtract(np.multiply(inv_a2, total, out=A), 1.0 / (4 * p ** 3), out=out[rows])
    return out


def _rk4(u: np.ndarray, params: LpkdvParams, which: str):
    """The flow's RK4 steps from u: a function of dlambda that takes nls.rk4_step
    from k1, the flow at u computed here once, and returns the new u with NaN
    set to 0, a view of the buffers allocated here once."""
    bufs = np.empty((4 + 2 * (which == "flow2"),) + u.shape, u.dtype)

    def field(state, i, k):
        _flow_values(state, params, which, k, bufs[4:], stage=i)

    def step(dlambda):
        with np.errstate(invalid="ignore"):
            rk4_step(u, bufs[0], dlambda, field, bufs[1:4], bufs[1])
        return np.nan_to_num(bufs[1], copy=False, nan=0.0)

    with np.errstate(invalid="ignore"):
        field(u, 1, bufs[0])
    return step


def flow_rhs(field: LatticeField, params: LpkdvParams, which: str) -> LatticeField:
    """Flow right-hand side; boundary margin (stencil width) is NaN-marked."""
    s = _stencil(which)
    if field.n_size < 2 * s + 1:
        raise DomainError(f"field too narrow for {which} (needs n_size > {2 * s})")
    out = np.empty(field.shape, field.values.dtype)
    work = np.empty((2 * (which == "flow2"),) + field.shape, field.values.dtype)
    return LatticeField(_flow_values(field.values, params, which, out, work))


def flow_step(field: LatticeField, params: LpkdvParams, which: str,
              dlambda: float) -> LatticeField:
    """One classical RK4 step (nls.rk4_step).  Each stage invalidates one
    more stencil width FLOW_STENCIL[which] of rows on each n-side, so 4
    widths per side come out as 0."""
    # the step is a view of _rk4's buffers: the field takes a copy
    return LatticeField(_rk4(field.values, params, which)(dlambda).copy())


def symmetry_residual_scaling(solution: LatticeField, params: LpkdvParams,
                              which: str, lambda_list) -> dict:
    """Quad-equation residual after ONE RK4 step (nls.rk4_step, all from one
    k1) of each lambda, with the log-log exponent fit.

    For an exact symmetry the only residual is the integrator's O(lam^5)
    local error, so the fitted exponent should reach 4; residuals at the
    round-off floor are left out of the fit (all at the floor: None).
    """
    lambda_list = list(lambda_list)
    if len(lambda_list) < 3 or sorted(lambda_list) != lambda_list:
        raise DomainError("lambda_list must be ascending with at least 3 values")
    margin = 4 * _stencil(which) + EXTRA_MARGIN
    if 2 * margin >= solution.n_size - 1:
        raise DomainError(f"window too narrow for flow margin {margin}")
    base = max_residual(solution, params)
    if base > SOLUTION_TOL:
        raise PreconditionError(
            f"input residual {base:.3e} exceeds {SOLUTION_TOL:.0e}; not a solution"
        )
    floor = RESIDUAL_FLOOR_RTOL * (1.0 + float(np.max(np.abs(solution.values))))
    rk4, residuals = _rk4(solution.values, params, which), []  # k1: one per sweep
    for lam in lambda_list:
        step = LatticeField(rk4(lam))
        residuals.append(float(np.max(np.abs(residual_field(step, params)[margin:-margin, :]))))
    above = [(lam, r) for lam, r in zip(lambda_list, residuals) if r > floor]
    report = {"lambda": lambda_list, "residual": residuals, "floor": floor}
    if len(above) < 2:
        return dict(report, exponent=None, note="below measurement floor")
    lams, res = zip(*above)
    report["exponent"] = fit_scaling_exponent(1.0 / np.asarray(lams), res)[0]  # lam plays 1/N
    return report


def first_harmonic_blocks(ansatz: AnsatzField, which: str) -> tuple:
    """(blocks, u1): the demodulated flow RHS averaged over the whole blocks
    of P x P sites, P = ceil(2 pi / kappa), that start at the flow's first
    row FLOW_STENCIL[which] and at column 0, and the envelope u1 at their
    centres.  The carrier e^{-i(kappa n - omega m)} is the outer product of
    e^{-i kappa n} and e^{i omega m}, one exp per row and per column.  A
    window with no whole block is a PreconditionError."""
    coeffs = ansatz.coeffs
    kappa, omega = coeffs.kappa, coeffs.omega
    rhs = flow_rhs(ansatz.field, coeffs.params, which).values
    s, P = _stencil(which), math.ceil(2 * math.pi / kappa)
    nb, mb = (rhs.shape[0] - 2 * s) // P, rhs.shape[1] // P
    if nb * mb == 0:
        raise PreconditionError("carrier period P = {} is longer than the {} x {} window: "
                                "nothing to project".format(P, *ansatz.field.shape))
    n_idx, m_idx = s + np.arange(nb * P), np.arange(mb * P)
    demod = rhs[s:s + nb * P, :mb * P] * np.outer(np.exp(-1j * kappa * n_idx),
                                                 np.exp(1j * omega * m_idx))
    centres = (np.arange(max(nb, mb)) + 0.5) * P - 0.5
    return (demod.reshape(nb, P, mb, P).mean(axis=(1, 3)),
            ansatz.envelope_values(s + centres[:nb], centres[:mb]))


def harmonic_projection(ansatz: AnsatzField, flows) -> dict:
    """{flow: report} for each of `flows` ("flow1", or "flow1" and "flow2"):
    the flow's RHS projected onto the first carrier harmonic (its
    first_harmonic_blocks, computed once) against the reduced flow.

    Reports (a) the relative error of the projection's amplitude-weighted
    coefficient against (i sin(kappa)/(2 p^2)) u1 / N, and, for flow2, (b)
    the pointwise ratio to flow1's projection, whose constancy across points
    realizes the statement that both lattice flows reduce to the same
    symmetry up to a reparametrization of the group parameter.  The pointwise
    ratio to the reduced flow is not reported: at blocks whose envelope
    sample is near ENVELOPE_FLOOR it divides two round-off-sized numbers.
    An envelope below ENVELOPE_FLOOR at every block is a PreconditionError;
    "flow2" without "flow1" is a DomainError.
    """
    if "flow2" in flows and "flow1" not in flows:
        raise DomainError("the flow2 projection is compared with flow1's: ask for both")
    coeffs = ansatz.coeffs
    coeff_theory = 1j * math.sin(coeffs.kappa) / (2 * coeffs.params.p ** 2) / ansatz.N
    blocks, reports = {}, {}
    for which in sorted(set(flows)):  # flow1 before flow2
        blocks[which], env = first_harmonic_blocks(ansatz, which)
        keep, b = np.abs(env) >= ENVELOPE_FLOOR, blocks[which]
        if not np.any(keep):
            raise PreconditionError(f"envelope below ENVELOPE_FLOOR = {ENVELOPE_FLOOR:.0e} at "
                                    f"every block of {which}: nothing to project")
        coeff_est = np.sum(b[keep] * np.conj(env[keep])) / np.sum(np.abs(env[keep]) ** 2)
        reports[which] = {"flow": which, "N": ansatz.N, "n_points": int(np.sum(keep)),
                          "weighted_rel_error": abs(coeff_est / coeff_theory - 1.0)}
        if which == "flow2":
            # flow2's margin is wider; align the two block grids
            nb, mb = np.minimum(b.shape, blocks["flow1"].shape)
            b2, b1, e = b[:nb, :mb], blocks["flow1"][:nb, :mb], env[:nb, :mb]
            keep2 = (np.abs(e) >= ENVELOPE_FLOOR) & (np.abs(b1) > 0)
            ratio21 = b2[keep2] / b1[keep2]
            w2 = np.abs(e[keep2]) ** 2
            mean21 = np.sum(w2 * ratio21) / np.sum(w2)
            var21 = np.sum(w2 * np.abs(ratio21 - mean21) ** 2) / np.sum(w2)
            reports[which]["flow2_over_flow1"] = {
                "weighted_mean": [mean21.real, mean21.imag],
                "weighted_std": float(math.sqrt(var21)),
                "std_over_mean": float(math.sqrt(var21) / abs(mean21)),
            }
    return reports
