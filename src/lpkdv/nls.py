"""Dynamics of the reduced NLS equation in the slow variables.

The equation solved here is

    i du/dtau = rho1 * d^2u/dxi^2 + rho2 * u |u|^2,

on a periodic xi-grid.  Spatial derivatives are spectral (well beyond the
4th-order contract), time stepping is classical RK4 on the method-of-lines
system, so the global error is O(dtau^4).  Stability bound for RK4 with a
purely imaginary symbol: dtau * (|rho1| k_max^2 + |rho2| max|u|^2) <= 2.82
with k_max = pi/dxi; `nls_evolve` enforces it.

The module also carries the first reduced symmetry flows of the hierarchy:
    h1: du/dlambda = i u                 (phase)
    h2: du/dlambda = du/dxi              (xi-translation)
    h3: du/dlambda = du/dtau             (same right-hand side as the NLS)
    h4: du/dlambda = rho1 d^3u/dxi^3 + 3 rho2 |u|^2 du/dxi
and a finite-difference vector-field commutator test for them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError

RK4_IMAG_STABILITY = 2.82
FLOW_IDS = ("nls", "h1", "h2", "h3", "h4")


@dataclass(frozen=True)
class NlsCoefficients:
    rho1: float
    rho2: float

    def __post_init__(self):
        if self.rho1 == 0.0:
            raise DomainError("NLS coefficient rho1 must be nonzero")


@dataclass(frozen=True)
class Envelope:
    """Complex field on a uniform periodic grid (duplicate endpoint excluded)."""

    xi0: float
    dxi: float
    values: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or len(vals) < 2:
            raise DomainError("Envelope needs a 1D grid with at least 2 points")
        if self.dxi <= 0:
            raise DomainError("grid spacing must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def L(self) -> int:
        return len(self.values)

    @property
    def period(self) -> float:
        return self.L * self.dxi

    @property
    def xi_grid(self) -> np.ndarray:
        return self.xi0 + self.dxi * np.arange(self.L)

    def mass(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dxi)


def gaussian_envelope(L: int, xi0: float, period: float, amplitude: float,
                      width: float, center: float, tau: float = 0.0) -> Envelope:
    dxi = period / L
    xi = xi0 + dxi * np.arange(L)
    vals = amplitude * np.exp(-((xi - center) ** 2) / (2.0 * width ** 2))
    return Envelope(xi0, dxi, vals.astype(np.complex128), tau)


def plane_envelope(L: int, xi0: float, period: float, amplitude: complex,
                   k_index: int, tau: float = 0.0) -> Envelope:
    """amplitude * exp(i k xi) with k = 2*pi*k_index/period (periodic-compatible)."""
    dxi = period / L
    xi = xi0 + dxi * np.arange(L)
    k = 2.0 * math.pi * k_index / period
    return Envelope(xi0, dxi, amplitude * np.exp(1j * k * xi), tau)


def _wavenumbers(L: int, dxi: float) -> np.ndarray:
    return 2.0 * math.pi * np.fft.fftfreq(L, d=dxi)


def _spectral_derivative(values: np.ndarray, dxi: float, order: int) -> np.ndarray:
    k = _wavenumbers(len(values), dxi)
    if order % 2 == 1:
        # zero the Nyquist mode for odd derivatives (it has no well-defined sign)
        sym = (1j * k) ** order
        if len(values) % 2 == 0:
            sym[len(values) // 2] = 0.0
    else:
        sym = (1j * k) ** order
    return np.fft.ifft(np.fft.fft(values) * sym)


def nls_rhs(env: Envelope, c: NlsCoefficients) -> np.ndarray:
    """du/dtau = -i (rho1 u_xixi + rho2 u |u|^2) on the periodic grid."""
    if env.L < 16:
        raise DomainError(f"grid too coarse: L = {env.L} < 16")
    return _rhs_values(env.values, env.dxi, c)


def _rhs_values(values: np.ndarray, dxi: float, c: NlsCoefficients) -> np.ndarray:
    d2 = _spectral_derivative(values, dxi, 2)
    return -1j * (c.rho1 * d2 + c.rho2 * values * np.abs(values) ** 2)


def _stiffness(env: Envelope, c: NlsCoefficients) -> float:
    """|rho1| k_max^2 + |rho2| max|u|^2, the RK4 step bound's denominator."""
    kmax = math.pi / env.dxi
    return abs(c.rho1) * kmax ** 2 + abs(c.rho2) * float(np.max(np.abs(env.values)) ** 2)


def stable_dtau(env: Envelope, c: NlsCoefficients, safety: float = 0.9) -> float:
    """Largest RK4-stable step for this grid and amplitude."""
    return safety * RK4_IMAG_STABILITY / _stiffness(env, c)


def _check_stability(env: Envelope, c: NlsCoefficients, dtau: float) -> None:
    rot = _stiffness(env, c)
    if not 0.0 < dtau * rot <= RK4_IMAG_STABILITY:
        raise DomainError(
            f"dtau = {dtau:.3e} is not positive within the RK4 stability bound "
            f"dtau*(|rho1|*kmax^2 + |rho2|*max|u|^2) <= {RK4_IMAG_STABILITY} "
            f"(bound here: {RK4_IMAG_STABILITY / rot:.3e})"
        )


def _rk4_step(values: np.ndarray, dxi: float, c: NlsCoefficients, dt: float) -> np.ndarray:
    k1 = _rhs_values(values, dxi, c)
    k2 = _rhs_values(values + 0.5 * dt * k1, dxi, c)
    k3 = _rhs_values(values + 0.5 * dt * k2, dxi, c)
    k4 = _rhs_values(values + dt * k3, dxi, c)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def nls_evolve(env: Envelope, c: NlsCoefficients, tau_final: float, dtau: float) -> Envelope:
    """Advance to tau_final with uniform RK4 steps of size <= dtau.

    Global error is O(dtau^4); at the L=256 reference resolution and a
    stability-respecting step the mass sum(|u|^2) dxi drifts by less than
    1e-8 relative per unit tau (RK4 is slightly dissipative inside its
    stability region, never amplifying).
    """
    evolution = nls_evolve_dense(env, c, tau_final, dtau, store_every=sys.maxsize)
    return Envelope(env.xi0, env.dxi, evolution.snapshots[-1], tau_final)


@dataclass(frozen=True)
class EnvelopeEvolution:
    """Dense output of an NLS run: snapshots on the solver's step grid.

    value_at interpolates in tau with a 4-point (cubic) Lagrange stencil on
    the snapshot grid, so the interpolation error is O(dtau_snap^4), matching
    the integrator's global order.
    """

    xi0: float
    dxi: float
    taus: np.ndarray
    snapshots: np.ndarray  # shape (S, L)
    coefficients: NlsCoefficients

    @property
    def L(self) -> int:
        return self.snapshots.shape[1]

    @property
    def period(self) -> float:
        return self.L * self.dxi

    @property
    def tau_min(self) -> float:
        return float(self.taus[0])

    @property
    def tau_max(self) -> float:
        return float(self.taus[-1])

    def value_at(self, tau: float) -> np.ndarray:
        taus = self.taus
        if tau < taus[0] - 1e-12 or tau > taus[-1] + 1e-12:
            raise DomainError(
                f"tau = {tau} outside stored range [{taus[0]}, {taus[-1]}]"
            )
        if len(taus) == 1:
            return self.snapshots[0]
        i = int(np.searchsorted(taus, tau))
        lo = min(max(i - 2, 0), len(taus) - 4) if len(taus) >= 4 else 0
        hi = lo + 4 if len(taus) >= 4 else len(taus)
        ts = taus[lo:hi]
        out = np.zeros(self.L, dtype=np.complex128)
        for a in range(len(ts)):
            w = 1.0
            for b in range(len(ts)):
                if a != b:
                    w *= (tau - ts[b]) / (ts[a] - ts[b])
            out += w * self.snapshots[lo + a]
        return out


def nls_evolve_dense(env: Envelope, c: NlsCoefficients, tau_final: float,
                     dtau: float, store_every: int = 1) -> EnvelopeEvolution:
    """Evolve and keep snapshots every `store_every` steps (plus the endpoints)."""
    if tau_final < env.tau:
        raise DomainError("tau_final must be >= current tau")
    _check_stability(env, c, dtau)
    span = tau_final - env.tau
    if span == 0.0:
        return EnvelopeEvolution(env.xi0, env.dxi, np.array([env.tau]),
                                 env.values[None, :].copy(), c)
    n_steps = max(1, int(math.ceil(span / dtau - 1e-12)))
    dt = span / n_steps
    taus = [env.tau]
    snaps = [env.values.copy()]
    vals = env.values.copy()
    for step in range(1, n_steps + 1):
        vals = _rk4_step(vals, env.dxi, c, dt)
        if (step % 25 == 0 or step == n_steps) and not np.all(np.isfinite(vals)):
            raise NumericalError(
                "NLS evolution diverged",
                diagnostics={"step": step, "tau": env.tau + step * dt,
                             "max_abs": float(np.nanmax(np.abs(vals)))},
            )
        if step % store_every == 0 or step == n_steps:
            taus.append(env.tau + step * dt)
            snaps.append(vals.copy())
    return EnvelopeEvolution(env.xi0, env.dxi, np.asarray(taus), np.asarray(snaps), c)


def frozen_evolution(env: Envelope, c: NlsCoefficients) -> EnvelopeEvolution:
    """Degenerate dense output that returns the initial profile at every tau.

    Used as the negative control in the multiscale residual tests: the
    envelope rides the characteristic but ignores the NLS flow.
    """
    big = 1e30
    return EnvelopeEvolution(env.xi0, env.dxi, np.array([-big, big]),
                             np.vstack([env.values, env.values]), c)


def symmetry_rhs(env: Envelope, c: NlsCoefficients, which: str) -> np.ndarray:
    """Right-hand side of one of the reduced flows h1..h4 (or the NLS itself)."""
    if env.L < 16:
        raise DomainError(f"grid too coarse: L = {env.L} < 16")
    if which == "h1":
        return 1j * env.values
    if which == "h2":
        return _spectral_derivative(env.values, env.dxi, 1)
    if which in ("h3", "nls"):
        return _rhs_values(env.values, env.dxi, c)
    if which == "h4":
        d1 = _spectral_derivative(env.values, env.dxi, 1)
        d3 = _spectral_derivative(env.values, env.dxi, 3)
        return c.rho1 * d3 + 3.0 * c.rho2 * np.abs(env.values) ** 2 * d1
    raise DomainError(f"unknown flow id {which!r}; expected one of {FLOW_IDS}")


def _check_resolved(values: np.ndarray) -> None:
    """Refuse periodic grid data (along axis 0, one profile per column) whose
    top third of wavenumbers carries more than 1e-10 of a profile's energy."""
    power = np.abs(np.fft.fft(values, axis=0)) ** 2
    total = np.sum(power, axis=0)
    k = np.abs(np.fft.fftfreq(len(values)))
    top_third = np.sum(power[k > 1.0 / 3.0], axis=0)
    fraction = float(np.max(top_third / np.where(total > 0.0, total, 1.0)))
    if fraction > 1e-10:
        raise PreconditionError(
            f"envelope not spectrally resolved: top-third energy fraction "
            f"{fraction:.3e} > 1e-10"
        )


def commutator_test(c: NlsCoefficients, env: Envelope, flow_a: str, flow_b: str,
                    eps: float) -> float:
    """Max-norm of the vector-field commutator [K_a, K_b] at env.

    Frechet derivatives are central differences of the RHS maps with a real
    step eps along the complex direction (the maps are only real-linear, and
    a real scalar step is exactly the real-linear directional derivative).
    Vanishes to O(eps^2) plus the discretization floor for true symmetries.
    """
    _check_resolved(env.values)

    def rhs(vals: np.ndarray, which: str) -> np.ndarray:
        return symmetry_rhs(Envelope(env.xi0, env.dxi, vals, env.tau), c, which)

    ka = rhs(env.values, flow_a)
    kb = rhs(env.values, flow_b)
    da_kb = (rhs(env.values + eps * kb, flow_a) - rhs(env.values - eps * kb, flow_a)) / (2 * eps)
    db_ka = (rhs(env.values + eps * ka, flow_b) - rhs(env.values - eps * ka, flow_b)) / (2 * eps)
    return float(np.max(np.abs(da_kb - db_ka)))


def commutator_floor(env: Envelope, c: NlsCoefficients, eps: float) -> float:
    """Round-off floor of the finite-difference commutator at step eps.

    The central difference divides machine-eps-level noise of the RHS
    evaluations by 2*eps; the noise itself is amplified by the largest
    spectral symbol in play (k_max^3 from the third derivative).
    """
    kmax = math.pi / env.dxi
    umax = float(np.max(np.abs(env.values)))
    scale = (1.0 + abs(c.rho1) * kmax ** 3
             + 3.0 * abs(c.rho2) * kmax * umax ** 2) * max(umax, 1.0)
    return 64.0 * np.finfo(float).eps * scale / (2.0 * eps)


def commutator_sweep(c: NlsCoefficients, env: Envelope,
                     pairs=None, eps_list=(1e-4, 5e-5, 2.5e-5)) -> dict:
    """Run commutator_test over flow pairs and an eps sweep; JSON-friendly report.

    A pair passes when every eps halving either shrinks the residual by the
    Richardson factor >= 3.5 or has already reached the round-off floor.
    """
    if pairs is None:
        flows = ("nls", "h1", "h2", "h4")
        pairs = [(a, b) for i, a in enumerate(flows) for b in flows[i + 1:]]
    table = []
    all_ok = True
    for a, b in pairs:
        norms = [commutator_test(c, env, a, b, eps) for eps in eps_list]
        floors = [commutator_floor(env, c, eps) for eps in eps_list]
        ok = all(
            norms[i] / max(norms[i + 1], 1e-300) >= 3.5 or norms[i + 1] <= floors[i + 1]
            for i in range(len(eps_list) - 1)
        ) and min(norms) <= max(1e-5, floors[0])
        all_ok = all_ok and ok
        table.append({"pair": [a, b], "eps": list(eps_list), "residual": norms,
                      "floor": floors, "passed": ok})
    return {"rho1": c.rho1, "rho2": c.rho2, "sweep": table, "passed": all_ok}


def save_envelope_csv(env: Envelope, path) -> None:
    import csv as _csv

    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["xi", "re", "im"])
        for xi, z in zip(env.xi_grid, env.values):
            w.writerow([repr(float(xi)), repr(float(z.real)), repr(float(z.imag))])


def envelope_to_json(env: Envelope) -> dict:
    return {
        "xi0": env.xi0,
        "dxi": env.dxi,
        "tau": env.tau,
        "re": [float(v) for v in env.values.real],
        "im": [float(v) for v in env.values.imag],
    }


def envelope_from_json(doc: dict) -> Envelope:
    if not isinstance(doc, dict) or not {"re", "im", "xi0", "dxi"} <= set(doc):
        raise DomainError("an envelope JSON document needs re, im, xi0 and dxi")
    vals = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    return Envelope(doc["xi0"], doc["dxi"], vals, doc.get("tau", 0.0))
