"""Dynamics of the reduced NLS equation in the slow variables.

The equation solved here is

    i du/dtau = rho1 * d^2u/dxi^2 + rho2 * u |u|^2,

on a periodic xi-grid.  Spatial derivatives are spectral (well beyond the
4th-order contract).  In Fourier space the equation is
d(u_hat)/dtau = Lambda u_hat + FFT(-i rho2 |u|^2 u) with Lambda = i rho1 k^2,
and time stepping is classical RK4 on the interaction-picture variable
v_hat = exp(-Lambda (tau - tau0)) u_hat (integrating-factor RK4; Lawson,
SIAM J. Numer. Anal. 4:372, 1967).  The linear part is propagated exactly
and the nonlinear part is evaluated on the grid, so the global error is
O(dtau^4) with a constant set by the nonlinear term alone.  Each stage takes
its phase factor exp(Lambda s) from its own time s and each step adds the
increment dt/6 (k1 + 2 k2 + 2 k3 + k4) to v_hat, so the round-off in
|exp(Lambda s)| does not compound from step to step: the relative mass drift
stays at round-off level (4e-16 over unit tau at the default config).

Step guard: dtau * (|rho1| k_max^2 + |rho2| max|u|^2) <= STEP_BOUND with
k_max = pi/dxi; `nls_evolve` enforces it and `stable_dtau` takes
STEP_SAFETY of it.  The linear part sets no stability limit here; the guard
is an accuracy limit, four times classic RK4's imaginary-axis bound 2.82.
At the default config the mass drift over unit tau is 4e-16 at
`stable_dtau` and, with the guard lifted, 2.0e-15 at twice that step and
3.7e-14 at four times it.

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

STEP_BOUND = 4.0 * 2.82       # step guard: 4x classic RK4's imaginary-axis bound
STEP_SAFETY = 0.9             # stable_dtau's fraction of STEP_BOUND
MIN_GRID = 16                 # fewest grid points the reduced flows accept
_BAND_CHUNK = 64              # snapshots per step of EnvelopeEvolution.bandwidth's scan
FLOW_IDS = ("nls", "h1", "h2", "h3", "h4")
# flow pairs of commutator_sweep: every pair of nls, h1, h2, h4 (h3 is the nls)
COMMUTATOR_PAIRS = (("nls", "h1"), ("nls", "h2"), ("nls", "h4"),
                    ("h1", "h2"), ("h1", "h4"), ("h2", "h4"))


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
                      width: float, center: float) -> Envelope:
    dxi = period / L
    xi = xi0 + dxi * np.arange(L)
    vals = amplitude * np.exp(-((xi - center) ** 2) / (2.0 * width ** 2))
    return Envelope(xi0, dxi, vals.astype(np.complex128))


def plane_envelope(L: int, xi0: float, period: float, amplitude: complex,
                   k_index: int) -> Envelope:
    """amplitude * exp(i k xi) with k = 2*pi*k_index/period (periodic-compatible)."""
    dxi = period / L
    xi = xi0 + dxi * np.arange(L)
    k = 2.0 * math.pi * k_index / period
    return Envelope(xi0, dxi, amplitude * np.exp(1j * k * xi))


def wavenumbers(j, L: int, dxi: float) -> np.ndarray:
    """2 pi j / period for the integer wavenumbers j of an L-point grid of
    spacing dxi, rounded as np.fft.fftfreq rounds j / (L dxi)."""
    return 2.0 * math.pi * (np.asarray(j) * (1.0 / (L * dxi)))


def _fft_wavenumbers(L: int, dxi: float) -> np.ndarray:
    """The wavenumbers of the fft's modes, in its order j = 0..(L-1)//2, -L//2..-1."""
    return wavenumbers((np.arange(L) + L // 2) % L - L // 2, L, dxi)


def _spectral_derivative(values: np.ndarray, dxi: float, order: int) -> np.ndarray:
    k = _fft_wavenumbers(len(values), dxi)
    if order % 2 == 1:
        # zero the Nyquist mode for odd derivatives (it has no well-defined sign)
        sym = (1j * k) ** order
        if len(values) % 2 == 0:
            sym[len(values) // 2] = 0.0
    else:
        sym = (1j * k) ** order
    return np.fft.ifft(np.fft.fft(values) * sym)


def _rhs_values(values: np.ndarray, dxi: float, c: NlsCoefficients) -> np.ndarray:
    """du/dtau = -i (rho1 u_xixi + rho2 u |u|^2) on the periodic grid."""
    d2 = _spectral_derivative(values, dxi, 2)
    return -1j * (c.rho1 * d2 + c.rho2 * values * np.abs(values) ** 2)


def _stiffness(env: Envelope, c: NlsCoefficients) -> float:
    """|rho1| k_max^2 + |rho2| max|u|^2, the step guard's denominator."""
    kmax = math.pi / env.dxi
    return abs(c.rho1) * kmax ** 2 + abs(c.rho2) * float(np.max(np.abs(env.values)) ** 2)


def stable_dtau(env: Envelope, c: NlsCoefficients) -> float:
    """STEP_SAFETY times the largest step the guard admits for this grid and amplitude."""
    return STEP_SAFETY * STEP_BOUND / _stiffness(env, c)


def _check_stability(env: Envelope, c: NlsCoefficients, dtau: float) -> None:
    rot = _stiffness(env, c)
    if not 0.0 < dtau * rot <= STEP_BOUND:
        raise DomainError(
            f"dtau = {dtau:.3e} is not positive within the step stability bound "
            f"dtau*(|rho1|*kmax^2 + |rho2|*max|u|^2) <= {STEP_BOUND:.4g} "
            f"(bound here: {STEP_BOUND / rot:.3e})"
        )


def step_plan(span: float, dtau: float) -> tuple[int, float]:
    """(steps, step taken): the fewest uniform steps of size <= dtau that
    cover span >= 0, and their size span/steps (0 and 0.0 for span 0)."""
    if span == 0.0:
        return 0, 0.0
    steps = max(1, int(math.ceil(span / dtau - 1e-12)))
    return steps, span / steps


def _linear_rate(L: int, dxi: float, c: NlsCoefficients) -> np.ndarray:
    """rho1 k^2: the linear propagator over a time s is exp(1j * rho1 k^2 * s)."""
    return c.rho1 * _fft_wavenumbers(L, dxi) ** 2


def _linear_phase(rate: np.ndarray, s) -> np.ndarray:
    """exp(1j * outer(s, rate)), shape (L,) for a scalar s, with one exp per
    |k|: rate = rho1 k^2 is exactly even in fftfreq order (the wavenumber at
    L - j is minus the one at j), so the upper half of every row is the
    lower half mirrored, bit for bit."""
    L = rate.shape[-1]
    half = np.exp(1j * np.multiply.outer(s, rate[:L // 2 + 1]))
    return np.concatenate([half, half[..., (L - 1) // 2:0:-1]], axis=-1)


def _nonlinear_ip(v_hat: np.ndarray, phase: np.ndarray, rho2: float) -> np.ndarray:
    """d(v_hat)/dtau = exp(-Lambda s) FFT(-i rho2 |u|^2 u), u = IFFT(exp(Lambda s) v_hat),
    with phase = exp(Lambda s) (unimodular, so its conjugate is its inverse)."""
    u = np.fft.ifft(phase * v_hat)
    return np.conj(phase) * np.fft.fft(-1j * rho2 * (u.real ** 2 + u.imag ** 2) * u)


def nls_evolve(env: Envelope, c: NlsCoefficients, tau_final: float, dtau: float) -> Envelope:
    """Advance to tau_final with uniform interaction-picture RK4 steps of size <= dtau.

    Global error is O(dtau^4); only the end points are kept.
    """
    evolution = nls_evolve_dense(env, c, tau_final, dtau, store_every=sys.maxsize)
    return Envelope(env.xi0, env.dxi, evolution.value_at(evolution.tau_max), tau_final)


@dataclass(frozen=True)
class EnvelopeEvolution:
    """Dense output of an NLS run: snapshots on the solver's step grid.

    snapshots[j] is the interaction-picture variable
    v_hat(taus[j]) = exp(-Lambda (taus[j] - taus[0])) u_hat(taus[j]), which
    changes only through the nonlinear term.  spectra_at interpolates it with
    a 4-point (cubic) Lagrange stencil in tau and then applies the exact
    linear propagator, giving u_hat = fft(u) itself; values_at is its
    inverse FFT.  The Fourier series of u in xi has the coefficients
    u_hat / L, so the ansatz is evaluated from spectra_at without a round
    trip through the grid.  The nonlinear term still turns some modes at
    their linear rates, so the stencil must stay about one step wide: with a
    snapshot at every step the rows of the reference window match classic
    RK4 to 1.3e-12, with one every 4th step only to 5.6e-10.  With
    propagate=False (frozen_evolution) the snapshots are grid values:
    values_at interpolates them as they are and spectra_at takes their FFT.
    steps and dtau are the integrator's step count and step size.
    """

    xi0: float
    dxi: float
    taus: np.ndarray
    snapshots: np.ndarray  # shape (S, L)
    coefficients: NlsCoefficients
    steps: int = 0
    dtau: float = 0.0
    propagate: bool = True

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

    def _stencil(self, taus) -> tuple:
        """(t, lo, width): taus checked against the stored range, and the
        first snapshot and the width of each one's Lagrange stencil."""
        t = np.asarray(taus, dtype=float)
        grid = self.taus
        bad = np.flatnonzero((t < grid[0] - 1e-12) | (t > grid[-1] + 1e-12))
        if len(bad):
            raise DomainError(
                f"tau = {t[bad[0]]} outside stored range [{grid[0]}, {grid[-1]}]"
            )
        width = min(len(grid), 4)
        return t, np.clip(np.searchsorted(grid, t) - 2, 0, len(grid) - width), width

    def _interpolate(self, taus) -> tuple:
        """(t, snapshots interpolated to each of taus), shape (len(taus), L)."""
        t, lo, width = self._stencil(taus)
        nodes = self.taus[lo[:, None] + np.arange(width)]
        # Lagrange weight of node a: prod over b != a of (t - nodes[b]) / (nodes[a] - nodes[b])
        off = ~np.eye(width, dtype=bool)
        num = np.where(off, t[:, None, None] - nodes[:, None, :], 1.0).prod(axis=2)
        den = np.where(off, nodes[:, :, None] - nodes[:, None, :], 1.0).prod(axis=2)
        weights = num / den
        # one (len(taus), L) term per stencil node keeps the working set small
        return t, sum(weights[:, a, None] * self.snapshots[lo + a] for a in range(width))

    def value_at(self, tau: float) -> np.ndarray:
        return self.values_at([tau])[0]

    def values_at(self, taus) -> np.ndarray:
        """The envelope on the grid at each of taus, shape (len(taus), L)."""
        if not self.propagate:
            return self._interpolate(taus)[1]
        return np.fft.ifft(self.spectra_at(taus), axis=1)

    def spectra_at(self, taus) -> np.ndarray:
        """fft of the envelope at each of taus, shape (len(taus), L)."""
        t, mixed = self._interpolate(taus)
        if not self.propagate:
            return np.fft.fft(mixed, axis=1)
        rate = _linear_rate(self.L, self.dxi, self.coefficients)
        return _linear_phase(rate, t - self.taus[0]) * mixed

    def bandwidth(self, taus) -> int:
        """The highest |j| whose mode (wavenumber 2 pi j / period) exceeds
        eps times the largest |u_hat| of its snapshot in any snapshot the
        stencils of taus read; 0 for a zero envelope.  The propagator leaves
        |u_hat| unchanged, so spectra_at at any of taus carries nothing above
        round-off outside |j| <= bandwidth.  The scan takes _BAND_CHUNK
        snapshots at a time, so it makes no temporary of the snapshots' size."""
        _, lo, width = self._stencil(np.atleast_1d(taus))
        j = np.arange(self.L)
        j = np.minimum(j, self.L - j)  # |j| in fftfreq order
        top = 0
        first, stop = int(lo.min()), int(lo.max()) + width
        for a in range(first, stop, _BAND_CHUNK):
            chunk = self.snapshots[a:min(a + _BAND_CHUNK, stop)]
            if not self.propagate:
                chunk = np.fft.fft(chunk, axis=1)
            mag = np.abs(chunk)
            above = np.any(mag > np.finfo(float).eps * mag.max(axis=1, keepdims=True), axis=0)
            if np.any(above):
                top = max(top, int(j[above].max()))
        return top


def nls_evolve_dense(env: Envelope, c: NlsCoefficients, tau_final: float,
                     dtau: float, store_every: int = 1) -> EnvelopeEvolution:
    """Evolve and keep snapshots every `store_every` steps (plus the endpoints);
    8 length-L FFTs per step."""
    if tau_final < env.tau:
        raise DomainError("tau_final must be >= current tau")
    _check_stability(env, c, dtau)
    n_steps, dt = step_plan(tau_final - env.tau, dtau)
    rate = _linear_rate(env.L, env.dxi, c)
    v_hat = np.fft.fft(env.values)
    taus = [env.tau]
    snaps = [v_hat]
    phase = np.ones(env.L, dtype=np.complex128)  # exp(Lambda s) at the step's start
    for step in range(1, n_steps + 1):
        half = _linear_phase(rate, (step - 0.5) * dt)
        end = _linear_phase(rate, step * dt)
        k1 = _nonlinear_ip(v_hat, phase, c.rho2)
        k2 = _nonlinear_ip(v_hat + 0.5 * dt * k1, half, c.rho2)
        k3 = _nonlinear_ip(v_hat + 0.5 * dt * k2, half, c.rho2)
        k4 = _nonlinear_ip(v_hat + dt * k3, end, c.rho2)
        v_hat = v_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phase = end
        if (step % 25 == 0 or step == n_steps) and not np.all(np.isfinite(v_hat)):
            raise NumericalError(
                "NLS evolution diverged",
                diagnostics={"step": step, "tau": env.tau + step * dt,
                             "max_abs": float(np.nanmax(np.abs(np.fft.ifft(phase * v_hat))))},
            )
        if step % store_every == 0 or step == n_steps:
            taus.append(env.tau + step * dt)
            snaps.append(v_hat)
    return EnvelopeEvolution(env.xi0, env.dxi, np.asarray(taus), np.asarray(snaps), c,
                             steps=n_steps, dtau=dt)


def frozen_evolution(env: Envelope, c: NlsCoefficients) -> EnvelopeEvolution:
    """Degenerate dense output that returns the initial profile at every tau.

    Used as the negative control in the multiscale residual tests: the
    envelope rides the characteristic but ignores the NLS flow.
    """
    big = 1e30
    return EnvelopeEvolution(env.xi0, env.dxi, np.array([-big, big]),
                             np.vstack([env.values, env.values]), c, propagate=False)


def symmetry_rhs(env: Envelope, c: NlsCoefficients, which: str) -> np.ndarray:
    """Right-hand side of one of the reduced flows h1..h4 (or the NLS itself)."""
    if env.L < MIN_GRID:
        raise DomainError(f"grid too coarse: L = {env.L} < {MIN_GRID}")
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
    """Refuse periodic grid data (along axis 0, one profile per column) that
    is not spectrally resolved (see _check_spectra_resolved)."""
    _check_spectra_resolved(np.fft.fft(values, axis=0).T)


def _check_spectra_resolved(spectra: np.ndarray) -> None:
    """Refuse spectra (fft order along the last axis, one profile per row)
    whose top third of wavenumbers carries more than 1e-10 of a profile's
    energy."""
    power = np.abs(np.atleast_2d(spectra)) ** 2
    total = np.sum(power, axis=1)
    k = np.abs(np.fft.fftfreq(power.shape[1]))
    top_third = np.sum(power[:, k > 1.0 / 3.0], axis=1)
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
                     eps_list=(1e-4, 5e-5, 2.5e-5)) -> dict:
    """Run commutator_test over COMMUTATOR_PAIRS and an eps sweep;
    JSON-friendly report.

    A pair passes when every eps halving either shrinks the residual by the
    Richardson factor >= 3.5 or has already reached the round-off floor.
    """
    table = []
    all_ok = True
    for a, b in COMMUTATOR_PAIRS:
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def envelope_from_json(doc: dict) -> Envelope:
    """The envelope of an envelope_to_json document; DomainError for one that
    lacks a key, has re or im other than equally long lists of numbers, or
    xi0, dxi or tau other than a number."""
    if not isinstance(doc, dict) or not {"re", "im", "xi0", "dxi"} <= set(doc):
        raise DomainError("an envelope JSON document needs re, im, xi0 and dxi")
    re, im = doc["re"], doc["im"]
    if not (isinstance(re, list) and isinstance(im, list) and len(re) == len(im)
            and all(map(_is_number, re + im))):
        raise DomainError("an envelope JSON document needs re and im as lists of "
                          "numbers of equal length")
    if not all(_is_number(doc.get(key, 0.0)) for key in ("xi0", "dxi", "tau")):
        raise DomainError("an envelope JSON document needs numbers for xi0, dxi and tau")
    vals = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    return Envelope(doc["xi0"], doc["dxi"], vals, doc.get("tau", 0.0))
