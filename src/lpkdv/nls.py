"""Dynamics of the reduced NLS equation in the slow variables.

The equation solved here is

    i du/dtau = rho1 * d^2u/dxi^2 + rho2 * u |u|^2,

on a periodic xi-grid.  Spatial derivatives are spectral (well beyond the
4th-order contract).  In Fourier space the equation is
d(u_hat)/dtau = Lambda u_hat + FFT(-i rho2 |u|^2 u) with Lambda = i rho1 k^2,
and time stepping is classical RK4 on the interaction-picture variable
v_hat = exp(-Lambda (tau - tau0)) u_hat (integrating-factor RK4; Lawson,
SIAM J. Numer. Anal. 4:372, 1967).  The linear part is integrated exactly
and the nonlinear part is evaluated on the grid, so the global error is
O(dtau^4) with a constant set by the nonlinear term alone.  Each stage takes
its phase factor exp(Lambda s) from its own time s and each step adds the
increment dt/6 (k1 + 2 k2 + 2 k3 + k4) to v_hat, so the round-off in
|exp(Lambda s)| does not compound from step to step: the relative mass drift
stays at round-off level (4e-16 over unit tau at the default config).

Steps are measured by the stiffness |rho1| k_max^2 + |rho2| max|u|^2
(k_max = pi/dxi).  `stable_dtau` takes STEP_SAFETY of STEP_BOUND = 4 * 2.82
(four times classic RK4's imaginary-axis bound) over it; that is the step of
`nls-evolve`.  The dense runs behind the multiscale checks take `dense_dtau`,
DENSE_STEP_MULTIPLE = 4 times it (see EnvelopeEvolution), and the step guard
that `nls_evolve` and `nls_evolve_dense` enforce, dtau * stiffness <=
GUARD_BOUND = DENSE_STEP_MULTIPLE * STEP_BOUND, admits that step and
little more.  The linear part sets no stability limit here; the guard is an
accuracy limit.  At its edge (4/0.9 times stable_dtau) the dense output
matches classic RK4 on the lattice rows of the oracle test to 5.5e-11 at
worst over its four parameter points, while at 8 times stable_dtau one of
them, (p, q, kappa) = (1.5, 0.5, 1.2), is off by 1.0e-9.  At the default
config the mass drift over unit tau is 4e-16 at `stable_dtau`, 2.0e-15 at
twice that step and 3.7e-14 at four times it.  A run whose (steps + 1) * L
would pass MAX_STEP_POINTS is refused before anything is allocated or
stepped, dense or not.

The module also carries the first reduced symmetry flows of the hierarchy:
    h1: du/dlambda = i u                 (phase)
    h2: du/dlambda = du/dxi              (xi-translation)
    h3: du/dlambda = du/dtau             (same right-hand side as the NLS)
    h4: du/dlambda = rho1 d^3u/dxi^3 + 3 rho2 |u|^2 du/dxi
and the vector-field commutators of pairs of them.  On the grid each flow
is a real polynomial map of degree <= 3 in (Re u, Im u), so their Frechet
derivatives are taken exactly, up to round-off (see _derivative).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError

STEP_BOUND = 4.0 * 2.82       # stable_dtau's bound: 4x classic RK4's imaginary-axis bound
STEP_SAFETY = 0.9             # stable_dtau's fraction of STEP_BOUND
DENSE_STEP_MULTIPLE = 4       # the dense runs' step, in units of stable_dtau
DENSE_MIN_STEPS = 3           # fewest steps of a dense run: 4 step ends carry N_hat's cubic
GUARD_BOUND = DENSE_STEP_MULTIPLE * STEP_BOUND  # step guard: the largest dtau * stiffness
MIN_GRID = 16                 # fewest grid points the reduced flows accept
# the most (steps + 1) * L of any run: about 13 s of stepping at L = 1024 on a
# 2-core host, and 1 GiB for a dense run, which stores u_hat and N_hat, L
# complex128 each (32 bytes per point), at every step end
MAX_STEP_POINTS = 1 << 25
# taus per block of EnvelopeEvolution.spectra_at: its largest temporary, the
# (12, 5, L/2 + 1) stack of phi_0..phi_4, stays below the (32, L) array of
# one assembly block (reduction._BLOCK_ROWS)
_EVAL_ROWS = 12
_PHI_TERMS = 14               # series terms of _phi below |z| = 0.5 (tail < 1e-17)
COMMUTATOR_STEP = 1e-2        # the step of _derivative's central differences
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
        if not (math.isfinite(self.dxi) and self.dxi > 0):
            raise DomainError(f"grid spacing dxi = {self.dxi} must be positive and finite")
        if not math.isfinite(self.xi0):
            raise DomainError(f"grid origin xi0 = {self.xi0} must be finite")
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


def _stiffness(env: Envelope, c: NlsCoefficients) -> float:
    """|rho1| k_max^2 + |rho2| max|u|^2, the step guard's denominator."""
    kmax = math.pi / env.dxi
    with np.errstate(over="ignore"):  # an overflowing amplitude is infinitely stiff
        peak = float(np.max(np.abs(env.values)) ** 2)
    return abs(c.rho1) * kmax ** 2 + abs(c.rho2) * peak


def stable_dtau(env: Envelope, c: NlsCoefficients) -> float:
    """STEP_SAFETY times the largest step the guard admits for this grid and amplitude."""
    return STEP_SAFETY * STEP_BOUND / _stiffness(env, c)


def _check_stability(env: Envelope, c: NlsCoefficients, dtau: float) -> None:
    rot = _stiffness(env, c)
    if not 0.0 < dtau * rot <= GUARD_BOUND:
        raise DomainError(
            f"dtau = {dtau:.3e} is not positive within the step stability bound "
            f"dtau*(|rho1|*kmax^2 + |rho2|*max|u|^2) <= {GUARD_BOUND:.4g} "
            f"(bound here: {GUARD_BOUND / rot:.3e})"
        )


def dense_dtau(env: Envelope, c: NlsCoefficients, span: float) -> float:
    """The dense runs' step: DENSE_STEP_MULTIPLE times stable_dtau, capped
    at span / DENSE_MIN_STEPS for a positive span, so that the cubic through
    N_hat has its 4 step ends."""
    dtau = DENSE_STEP_MULTIPLE * stable_dtau(env, c)
    return min(dtau, span / DENSE_MIN_STEPS) if span > 0 else dtau


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
    return _mirror(np.exp(1j * np.multiply.outer(s, rate[:L // 2 + 1])), L)


def _mirror(half: np.ndarray, L: int) -> np.ndarray:
    """The full fftfreq-order rows of a function of k^2 given on the modes
    j = 0..L//2 (the wavenumber at L - j is minus the one at j)."""
    return np.concatenate([half, half[..., (L - 1) // 2:0:-1]], axis=-1)


def _nonlinear(u_hat: np.ndarray, rho2: float) -> np.ndarray:
    """FFT(-i rho2 |u|^2 u) for u = IFFT(u_hat)."""
    u = np.fft.ifft(u_hat)
    return np.fft.fft(-1j * rho2 * (u.real ** 2 + u.imag ** 2) * u)


def _nonlinear_ip(v_hat: np.ndarray, phase: np.ndarray, rho2: float) -> np.ndarray:
    """d(v_hat)/dtau = exp(-Lambda s) FFT(-i rho2 |u|^2 u), u = IFFT(exp(Lambda s) v_hat),
    with phase = exp(Lambda s) (unimodular, so its conjugate is its inverse)."""
    return np.conj(phase) * _nonlinear(phase * v_hat, rho2)


def _integrate(env: Envelope, c: NlsCoefficients, tau_final: float, dtau: float,
               dense: bool) -> tuple:
    """(steps, step size, spectra, nonlinear, band): uniform interaction-picture
    RK4 steps of size <= dtau from env.tau to tau_final.  With dense, spectra
    and nonlinear hold u_hat = fft(u) and N_hat = FFT(-i rho2 |u|^2 u) at
    every step end, shape (steps + 1, L), the initial one first, and band is
    the largest _top_mode over them; otherwise spectra holds the final u_hat
    alone, nonlinear is None and band 0.  A step's k1 is exp(-Lambda s) N_hat
    of its start, so only the last N_hat costs FFTs of its own; 8 length-L
    FFTs per step."""
    if tau_final < env.tau:
        raise DomainError("tau_final must be >= current tau")
    _check_stability(env, c, dtau)
    n_steps, dt = step_plan(tau_final - env.tau, dtau)
    points = (n_steps + 1) * env.L
    if points > MAX_STEP_POINTS:  # refused before it is allocated or stepped
        raise DomainError(f"the NLS run to tau = {tau_final:.4g} needs {n_steps} steps of "
                          f"{env.L} points, {points} step points, over the "
                          f"{MAX_STEP_POINTS} allowed")
    rate = _linear_rate(env.L, env.dxi, c)
    spectra = np.empty((n_steps + 1 if dense else 1, env.L), dtype=np.complex128)
    nonlinear = np.empty_like(spectra) if dense else None
    band = 0
    v_hat = np.fft.fft(env.values)
    phase = np.ones(env.L, dtype=np.complex128)  # exp(Lambda s) at the step's start
    for step in range(1, n_steps + 1):
        half = _linear_phase(rate, (step - 0.5) * dt)
        end = _linear_phase(rate, step * dt)
        u_hat = phase * v_hat
        n_hat = _nonlinear(u_hat, c.rho2)
        if dense:
            spectra[step - 1], nonlinear[step - 1] = u_hat, n_hat
            band = max(band, _top_mode(u_hat, n_hat, dt))
        k1 = np.conj(phase) * n_hat
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
    spectra[-1] = phase * v_hat
    if dense:
        nonlinear[-1] = _nonlinear(spectra[-1], c.rho2)
        band = max(band, _top_mode(spectra[-1], nonlinear[-1], dt))
    return n_steps, dt, spectra, nonlinear, band


def _top_mode(u_hat: np.ndarray, n_hat: np.ndarray, dt: float) -> int:
    """The highest |j| at which |u_hat| or dt |N_hat| exceeds eps times the
    largest |u_hat| (the propagator keeps |u_hat|); 0 for a zero envelope."""
    mag = np.abs(u_hat)
    floor = np.finfo(float).eps * mag.max()
    j = np.flatnonzero((mag > floor) | (dt * np.abs(n_hat) > floor))
    return int(np.minimum(j, len(u_hat) - j).max(initial=0))


def nls_evolve(env: Envelope, c: NlsCoefficients, tau_final: float, dtau: float) -> Envelope:
    """Advance to tau_final with uniform interaction-picture RK4 steps of size <= dtau.

    Global error is O(dtau^4); only the end point is kept.
    """
    spectra = _integrate(env, c, tau_final, dtau, dense=False)[2]
    return Envelope(env.xi0, env.dxi, np.fft.ifft(spectra[-1]), tau_final)


def _phi(z: np.ndarray, count: int) -> np.ndarray:
    """phi_0(z), ..., phi_count(z) for z of shape (..., M), as shape
    (..., count + 1, M): the exponential-integrator functions
    phi_k(z) = sum_m z^m / (m + k)! (Hochbruck & Ostermann, Acta Numerica
    19:209, 2010), phi_0 = exp.  Where |z| >= 0.5 by the recurrence
    phi_(k+1) = (phi_k - 1/k!) / z; below that, where the recurrence cancels,
    phi_count by _PHI_TERMS terms of its series and the others by
    phi_k = z phi_(k+1) + 1/k!."""
    small = np.abs(z) < 0.5
    inverse = 1.0 / np.where(small, 1.0, z)
    phis = np.empty(z.shape[:-1] + (count + 1,) + z.shape[-1:], dtype=np.complex128)
    phis[..., 0, :] = np.exp(z)
    for k in range(count):
        np.multiply(phis[..., k, :] - 1.0 / math.factorial(k), inverse,
                    out=phis[..., k + 1, :])
    if np.any(small):
        zs = z[small]
        acc = np.full(zs.shape, 1.0 / math.factorial(_PHI_TERMS - 1 + count), dtype=complex)
        for m in range(_PHI_TERMS - 2, -1, -1):
            acc = acc * zs + 1.0 / math.factorial(m + count)
        for k in range(count, 0, -1):
            phis[..., k, :][small] = acc
            acc = zs * acc + 1.0 / math.factorial(k - 1)
    return phis


@dataclass(frozen=True)
class EnvelopeEvolution:
    """Dense output of an NLS run: spectra on the solver's step grid.

    snapshots[j] is u_hat = fft(u) at taus[j] and nonlinear[j] the
    nonlinear term N_hat = FFT(-i rho2 |u|^2 u) there, so that
    d(u_hat)/dtau = Lambda u_hat + N_hat with Lambda = i rho1 k^2.  Inside the
    step from taus[n], spectra_at integrates that equation exactly with N_hat
    replaced by the cubic P through the stored N_hat at taus[n-1..n+2]
    (shifted inward at the ends of the range): with s = tau - taus[n], h the
    step and P(taus[n] + sigma) = sum_j a_j (sigma / h)^j,
        u_hat(tau) = exp(Lambda s) u_hat_n
                     + sum_j a_j j! s^(j+1) h^(-j) phi_(j+1)(Lambda s)
    (exponential dense output; see _phi).  The linear rotation is exact, so
    the cubic carries only the slowly varying nonlinear term: at
    DENSE_STEP_MULTIPLE times stable_dtau the rows of the reference window
    match classic RK4 to 9.1e-12, and the oracle test's other points to
    3.3e-11 at worst.  The Fourier series of u in xi has the
    coefficients u_hat / L, so the ansatz is evaluated from spectra_at
    without a round trip through the grid.
    steps and dtau are the integrator's step count and step size; band, the
    largest _top_mode over the stored step ends, bounds the modes spectra_at
    carries above round-off.
    """

    xi0: float
    dxi: float
    taus: np.ndarray
    snapshots: np.ndarray  # shape (S, L)
    coefficients: NlsCoefficients
    nonlinear: np.ndarray  # shape (S, L)
    steps: int
    dtau: float
    band: int

    @property
    def L(self) -> int:
        return self.snapshots.shape[1]

    @property
    def tau_min(self) -> float:
        return float(self.taus[0])

    @property
    def tau_max(self) -> float:
        return float(self.taus[-1])

    def _locate(self, taus) -> tuple:
        """(t, n, lo): taus checked against the stored range, the snapshot
        each one's step starts from and the first node of its cubic."""
        t = np.asarray(taus, dtype=float)
        grid = self.taus
        bad = np.flatnonzero((t < grid[0] - 1e-12) | (t > grid[-1] + 1e-12))
        if len(bad):
            raise DomainError(
                f"tau = {t[bad[0]]} outside stored range [{grid[0]}, {grid[-1]}]"
            )
        n = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 1)
        return t, n, np.clip(n - 1, 0, len(grid) - self._width)

    @property
    def _width(self) -> int:
        """Nodes of the cubic through N_hat (fewer when fewer are stored)."""
        return min(len(self.taus), 4)

    def spectra_at(self, taus) -> np.ndarray:
        """fft of the envelope at each of taus, shape (len(taus), L), built
        _EVAL_ROWS taus at a time."""
        t, n, lo = self._locate(taus)
        L, width, h = self.L, self._width, self.dtau
        rate = _linear_rate(L, self.dxi, self.coefficients)[:L // 2 + 1]
        j = np.arange(width)
        factorial = np.cumprod(np.maximum(j, 1))
        # the cubic's a_j is sum_i inv[n - lo, i, j] N_hat at node i, the
        # nodes counted in steps from taus[n]; its term integrates to
        # j! s^(j+1) h^(-j) phi_(j+1), so node i's weight is mix[:, i] @ phi
        inv = np.linalg.inv((j - j[:, None])[:, :, None] ** j).transpose(0, 2, 1)
        out = np.empty((len(t), L), dtype=np.complex128)
        for a in range(0, len(t), _EVAL_ROWS):
            rows = slice(a, a + _EVAL_ROWS)
            s = t[rows] - self.taus[n[rows]]
            scale = factorial * s[:, None] ** (j + 1) / h ** j
            mix = inv[n[rows] - lo[rows]] * scale[:, None, :]
            phis = _phi(1j * np.multiply.outer(s, rate), width)
            weights = (mix @ phis[:, 1:].view(float)).view(complex)
            block = _mirror(phis[:, 0], L) * self.snapshots[n[rows]]
            for i in range(width):
                block += _mirror(weights[:, i], L) * self.nonlinear[lo[rows] + i]
            out[rows] = block
        return out


def nls_evolve_dense(env: Envelope, c: NlsCoefficients, tau_final: float,
                     dtau: float) -> EnvelopeEvolution:
    """Evolve with steps of size <= dtau and keep u_hat and N_hat at every
    step end (see EnvelopeEvolution); 8 length-L FFTs per step."""
    n_steps, dt, spectra, nonlinear, band = _integrate(env, c, tau_final, dtau, dense=True)
    taus = env.tau + np.arange(n_steps + 1) * dt
    return EnvelopeEvolution(env.xi0, env.dxi, taus, spectra, c, nonlinear=nonlinear,
                             steps=n_steps, dtau=dt, band=band)


def symmetry_rhs(env: Envelope, c: NlsCoefficients, which: str) -> np.ndarray:
    """Right-hand side of one of the reduced flows h1..h4 (or the NLS itself)."""
    if env.L < MIN_GRID:
        raise DomainError(f"grid too coarse: L = {env.L} < {MIN_GRID}")
    return _flow(env.values, env.dxi, c, which)


def _flow(u: np.ndarray, dxi: float, c: NlsCoefficients, which: str) -> np.ndarray:
    """symmetry_rhs on the grid values u of spacing dxi, without the grid check."""
    if which == "h1":
        return 1j * u
    if which == "h2":
        return _spectral_derivative(u, dxi, 1)
    if which in ("h3", "nls"):  # the field _integrate steps: Lambda u_hat + N_hat
        u_hat = np.fft.fft(u)
        return np.fft.ifft(1j * _linear_rate(len(u), dxi, c) * u_hat + _nonlinear(u_hat, c.rho2))
    if which == "h4":
        d1 = _spectral_derivative(u, dxi, 1)
        d3 = _spectral_derivative(u, dxi, 3)
        return c.rho1 * d3 + 3.0 * c.rho2 * np.abs(u) ** 2 * d1
    raise DomainError(f"unknown flow id {which!r}; expected one of {FLOW_IDS}")


def _check_spectra_resolved(spectra: np.ndarray, profile: str = "envelope") -> None:
    """Refuse spectra (fft order along the last axis, one profile per row)
    whose top third of wavenumbers carries more than 1e-10 of a profile's
    energy; the message names the profile."""
    power = np.abs(np.atleast_2d(spectra)) ** 2
    total = np.sum(power, axis=1)
    k = np.abs(np.fft.fftfreq(power.shape[1]))
    top_third = np.sum(power[:, k > 1.0 / 3.0], axis=1)
    fraction = float(np.max(top_third / np.where(total > 0.0, total, 1.0)))
    if not fraction <= 1e-10:  # a NaN fraction is refused too
        raise PreconditionError(
            f"{profile} not spectrally resolved: top-third energy fraction "
            f"{fraction:.3e} > 1e-10"
        )


def _derivative(field, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """field'[v] at u, up to round-off, for a real polynomial map of degree <= 3:
    D(e) = (field(u + e v) - field(u - e v)) / 2e is field'[v] + e^2/6 field'''[v, v, v]
    exactly, so (4 D(e) - D(2e)) / 3 at e = COMMUTATOR_STEP is field'[v].  The
    real step along the complex v gives the real-linear derivative."""
    e = COMMUTATOR_STEP
    d1 = (field(u + e * v) - field(u - e * v)) / (2.0 * e)
    d2 = (field(u + 2.0 * e * v) - field(u - 2.0 * e * v)) / (4.0 * e)
    return (4.0 * d1 - d2) / 3.0


def _commutators(env: Envelope, pairs) -> list:
    """Max-norm of the commutator K_a'[K_b] - K_b'[K_a] at env for each pair
    of flows (coefficients, flow id), each flow evaluated once; exact up to
    round-off (see _derivative).  env and |u|^2 u must be resolved."""
    u = env.values
    # the cubic |u|^2 u carries three times u's band; an overflowing profile
    # leaves a NaN energy fraction, which the check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        _check_spectra_resolved(np.fft.fft(u))
        _check_spectra_resolved(np.fft.fft(np.abs(u) ** 2 * u), "cubic |u|^2 u")
    base = {flow: symmetry_rhs(env, *flow) for flow in dict.fromkeys(sum(pairs, ()))}

    def derivative(a, b):  # K_a'[K_b] at u
        return _derivative(lambda vals: _flow(vals, env.dxi, *a), u, base[b])

    return [float(np.max(np.abs(derivative(a, b) - derivative(b, a)))) for a, b in pairs]


def commutator_floor(env: Envelope, c: NlsCoefficients) -> float:
    """Round-off floor of a commutator (see _commutators).

    The central differences divide machine-eps-level noise of the RHS
    evaluations by 2 * COMMUTATOR_STEP; the noise itself is amplified by the
    largest spectral symbol in play (k_max^3 from the third derivative).
    """
    kmax = math.pi / env.dxi
    umax = float(np.max(np.abs(env.values)))
    scale = (1.0 + abs(c.rho1) * kmax ** 3
             + 3.0 * abs(c.rho2) * kmax * umax ** 2) * max(umax, 1.0)
    return float(64.0 * np.finfo(float).eps * scale / (2.0 * COMMUTATOR_STEP))


def commutator_sweep(c: NlsCoefficients, env: Envelope) -> dict:
    """The commutators of COMMUTATOR_PAIRS, each passing when at most
    commutator_floor, and a negative control, [nls, h4] with h4 built from
    (rho1, 2 rho2), a wrong cubic: passed needs every pair to pass and the
    control to be above its own floor.  JSON-friendly report."""
    wrong = NlsCoefficients(c.rho1, 2.0 * c.rho2)
    *residuals, bad = _commutators(env, [((c, a), (c, b)) for a, b in COMMUTATOR_PAIRS]
                                   + [((c, "nls"), (wrong, "h4"))])
    floor = commutator_floor(env, c)  # after _commutators has refused an overflow
    table = [{"pair": [a, b], "residual": residual, "floor": floor,
              "passed": residual <= floor}
             for (a, b), residual in zip(COMMUTATOR_PAIRS, residuals)]
    control = {"pair": ["nls", "h4"], "h4_rho2": wrong.rho2, "residual": bad,
               "floor": commutator_floor(env, wrong)}
    passed = all(row["passed"] for row in table) and control["residual"] > control["floor"]
    return {"rho1": c.rho1, "rho2": c.rho2, "step": COMMUTATOR_STEP, "sweep": table,
            "negative_control": control, "passed": passed}


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
    lacks a key, has re or im other than equally long lists of finite
    numbers, or xi0, dxi or tau other than a number, tau finite (Envelope
    refuses a non-finite xi0 or dxi by name).  A finite number is one a float
    holds: no NaN, no infinity and no integer beyond the float range."""
    if not isinstance(doc, dict) or not {"re", "im", "xi0", "dxi"} <= set(doc):
        raise DomainError("an envelope JSON document needs re, im, xi0 and dxi")
    re, im = doc["re"], doc["im"]
    if not (isinstance(re, list) and isinstance(im, list) and len(re) == len(im)
            and all(map(_is_number, re + im))):
        raise DomainError("an envelope JSON document needs re and im as lists of "
                          "numbers of equal length")
    if not all(_is_number(doc.get(key, 0.0)) for key in ("xi0", "dxi", "tau")):
        raise DomainError("an envelope JSON document needs numbers for xi0, dxi and tau")
    if not all(abs(v) <= sys.float_info.max for v in re + im + [doc.get("tau", 0.0)]):
        raise DomainError("an envelope JSON document needs finite re, im and tau")
    vals = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    return Envelope(doc["xi0"], doc["dxi"], vals, doc.get("tau", 0.0))
