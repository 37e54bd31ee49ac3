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
`rk4_step` is the package's one RK4 step: it takes that step for the run
(`_steps`) and for its dense output (EnvelopeEvolution, on a stack of rows)
on the interaction-picture field of `_picture`, and the lattice flows' step
in `symmetries`.  It has out= on every ufunc, as the field has on both
FFTs, in the textbook step's order of operations: the textbook step's
results bit for bit without its temporaries.  On the default config's
256-point working grid a step costs numpy's per-call overhead more than
arithmetic.

Steps are measured by the stiffness |rho1| k_max^2 + |rho2| max|u|^2
(k_max = pi/dxi).  `stable_dtau` takes STEP_SAFETY of STEP_BOUND = 4 * 2.82
(four times classic RK4's imaginary-axis bound) over it; that is the step of
`nls-evolve`.  The dense runs behind the multiscale checks take `dense_dtau`,
DENSE_STEP_MULTIPLE = 4 times it (see EnvelopeEvolution), and the step guard
that `nls_evolve` and `nls_evolve_dense` enforce, dtau * stiffness <=
GUARD_BOUND = DENSE_STEP_MULTIPLE * STEP_BOUND, admits that step and
little more.  The linear part sets no stability limit here; the guard is an
accuracy limit.  At its edge (4/0.9 times stable_dtau) the dense output
matches classic RK4 on the lattice rows of the oracle test to 3.6e-11 at
worst over its four parameter points, and at 8 times stable_dtau to
3.6e-10, at (p, q, kappa) = (1.5, 0.5, 1.2) in both.  At the default
config the mass drift over unit tau is 4e-16 at `stable_dtau`, 2.0e-15 at
twice that step and 3.7e-14 at four times it.  A run whose (steps + 1) * L
would pass MAX_STEP_POINTS is refused before anything is allocated or
stepped, dense or not.

A run steps on a working grid of L' = L / 2^k points with the envelope's
period (`_working_grid`): the smallest with 4 J_u < L', J_u the band of the
initial spectrum (the highest |j| above round-off, see _top_mode), so that
the cubic term stays alias-free on the band's modes (Orszag, J. Atmos.
Sci. 28:1074, 1971); 256 of 1024 points at the default config.  The initial
spectrum is cut to L' (`resize_spectra`; the scale 2^k is exact).  The step
plan stays on the envelope's own grid: dtau, the step guard and the step
budget read its L and k_max, so a run takes the same steps whatever grid it
steps on.  The run checks its band once per checked step end (_steps): at
L'/2 it runs again on 2 L', and on L a non-finite step end (band inf) ends
it in one NumericalError, its record all a diverging run reports.
`nls_evolve` pads its end spectrum back to L.

The module also carries the first reduced symmetry flows of the hierarchy:
    h1: du/dlambda = i u                 (phase)
    h2: du/dlambda = du/dxi              (xi-translation)
    h3: du/dlambda = du/dtau             (the NLS itself, flow id "nls")
    h4: du/dlambda = rho1 d^3u/dxi^3 + 3 rho2 |u|^2 du/dxi
and the vector-field commutators of pairs of them.  On the grid each flow
is a real polynomial map of degree <= 3 in (Re u, Im u), so their Frechet
derivatives are taken exactly, up to round-off (see _derivative).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError

STEP_BOUND = 4.0 * 2.82       # stable_dtau's bound: 4x classic RK4's imaginary-axis bound
STEP_SAFETY = 0.9             # stable_dtau's fraction of STEP_BOUND
DENSE_STEP_MULTIPLE = 4       # the dense runs' step, in units of stable_dtau
GUARD_BOUND = DENSE_STEP_MULTIPLE * STEP_BOUND  # step guard: the largest dtau * stiffness
MIN_GRID = 16                 # fewest grid points the reduced flows accept
# the most entries of an array sized from outside input (check_budget): for
# a run's (steps + 1) * L, L the envelope's own grid, about 13 s of stepping
# at L = 1024 on a 2-core host, and 512 MiB for a dense run on a working grid
# of L' = L points, which stores u_hat, L' complex128 (16 bytes per point),
# at every step end (2^-k of that for L' = L/2^k)
MAX_STEP_POINTS = 1 << 25
COMMUTATOR_STEP = 1e-2        # the step of _derivative's central differences
FLOW_IDS = ("nls", "h1", "h2", "h4")
COMMUTATOR_PAIRS = tuple(combinations(FLOW_IDS, 2))  # the pairs of commutator_sweep


@dataclass(frozen=True)
class NlsCoefficients:
    rho1: float
    rho2: float

    def __post_init__(self):
        if self.rho1 == 0.0:
            raise DomainError("NLS coefficient rho1 must be nonzero")


def check_budget(points: int, what: str) -> None:
    """Refuse, before it is allocated, an array sized from outside input
    (an NLS run, a lattice window, an ansatz) of over MAX_STEP_POINTS entries."""
    if points > MAX_STEP_POINTS:
        raise DomainError(f"{what} has {points} points, over the {MAX_STEP_POINTS} allowed")


def finite_number(value) -> bool:
    """An int or a float, not a bool, that a float holds: no NaN, no
    infinity and no integer beyond the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


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
        if not (finite_number(self.dxi) and self.dxi > 0):
            raise DomainError(f"grid spacing dxi = {self.dxi} must be positive and finite")
        if not finite_number(self.xi0):
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
    d = xi0 + dxi * np.arange(L) - center  # xi - center
    # a width whose square overflows leaves a constant, one whose square
    # underflows a spike (-d^2/0 = -inf off the centre); where both squares
    # under- or overflow, d^2 / (2 width^2) is NaN and (d / width)^2 / 2 holds
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = -(d ** 2) / (2.0 * np.float64(width) ** 2)
        vals = amplitude * np.exp(np.where(np.isnan(z), -0.5 * (d / width) ** 2, z))
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
    sym = (1j * _fft_wavenumbers(len(values), dxi)) ** order
    if order % 2 == 1 and len(values) % 2 == 0:
        # zero the Nyquist mode for odd derivatives (it has no well-defined sign)
        sym[len(values) // 2] = 0.0
    return np.fft.ifft(np.fft.fft(values) * sym)


def _stiffness(env: Envelope, c: NlsCoefficients) -> float:
    """|rho1| k_max^2 + |rho2| max|u|^2, the step guard's denominator."""
    kmax = np.float64(math.pi / env.dxi)  # its powers overflow to inf, not OverflowError
    with np.errstate(over="ignore"):  # an overflowing amplitude or grid is infinitely stiff
        peak = np.max(np.abs(env.values)) ** 2
        return float(abs(c.rho1) * kmax ** 2 + abs(c.rho2) * peak)


def stable_dtau(env: Envelope, c: NlsCoefficients) -> float:
    """STEP_SAFETY times the largest step the guard admits for this grid and amplitude."""
    return STEP_SAFETY * STEP_BOUND / _stiffness(env, c)


def _check_stability(env: Envelope, c: NlsCoefficients, dtau: float) -> None:
    rot = _stiffness(env, c)
    if not math.isfinite(rot):  # stable_dtau is 0: name the overflow, not the step
        raise DomainError(f"the stiffness |rho1|*kmax^2 + |rho2|*max|u|^2 overflows at "
                          f"max|u| = {float(np.max(np.abs(env.values))):.3e}, kmax = "
                          f"{math.pi / env.dxi:.3e}: no step is within the step stability bound")
    if not 0.0 < dtau * rot <= GUARD_BOUND:
        raise DomainError(f"dtau = {dtau:.3e} is not positive within the step stability bound "
                          f"dtau*(|rho1|*kmax^2 + |rho2|*max|u|^2) <= {GUARD_BOUND:.4g} "
                          f"(bound here: {GUARD_BOUND / rot:.3e})")


def dense_dtau(env: Envelope, c: NlsCoefficients) -> float:
    """The dense runs' step: DENSE_STEP_MULTIPLE times stable_dtau."""
    return DENSE_STEP_MULTIPLE * stable_dtau(env, c)


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


def _linear_phase(rate: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """exp(1j * s * rate) written into out, one row per s (a float for one
    row, a column for a stack of rows along the last axis), with one exp per
    |k|: rate = rho1 k^2 is exactly even in fftfreq order (the wavenumber at
    L - j is minus the one at j), so the upper half is the lower half
    mirrored, bit for bit."""
    L = rate.shape[-1]
    half = out[..., :L // 2 + 1]
    np.exp(np.multiply(rate[:L // 2 + 1], 1j * s, out=half), out=half)
    out[..., L // 2 + 1:] = half[..., (L - 1) // 2:0:-1]
    return out


def _nonlinear(u_hat: np.ndarray, rho2: float, out: np.ndarray = None,
               work: tuple = None) -> np.ndarray:
    """FFT(-i rho2 |u|^2 u) for u = IFFT(u_hat), written into out when given
    (out may be u_hat).  work is (u, re2, im2), a complex and two real
    arrays of u_hat's shape that take u and the squares of its parts; the
    step loop passes its own, so that a call allocates nothing."""
    u, re2, im2 = work if work is not None else (
        np.empty_like(u_hat), np.empty(u_hat.shape), np.empty(u_hat.shape))
    np.fft.ifft(u_hat, out=u)
    np.multiply(u.real, u.real, out=re2)
    np.multiply(u.imag, u.imag, out=im2)
    out = np.multiply(-1j * rho2, np.add(re2, im2, out=re2), out=out)
    return np.fft.fft(np.multiply(out, u, out=out), out=out)


def _working_grid(L: int, band: int) -> int:
    """The points of the grid a run starts on: the smallest L / 2^k, k >= 0,
    with 4 band < L / 2^k and at least MIN_GRID points."""
    size = L
    while size % 2 == 0 and size // 2 > 4 * band and size // 2 >= MIN_GRID:
        size //= 2
    return size


def resize_spectra(spectra: np.ndarray, size: int) -> np.ndarray:
    """Spectra (fft order along the last axis) of L points as those of size
    points over the same period: the modes both grids hold are kept (the
    smaller grid's Nyquist mode at -size/2, where the fft places it), the
    others are dropped or zero, and the scale is size / L, exact for the
    2^k and 3 used here.  The same array for size = L."""
    L = spectra.shape[-1]
    if size == L:
        return spectra
    m = min(L, size)
    out = np.zeros(spectra.shape[:-1] + (size,), dtype=np.complex128)
    out[..., :(m + 1) // 2] = spectra[..., :(m + 1) // 2]
    out[..., size - m // 2:] = spectra[..., L - m // 2:]
    out *= size / L
    return out


def _integrate(env: Envelope, c: NlsCoefficients, tau_final: float, dtau: float,
               dense: bool, grids: list) -> tuple:
    """(steps, step size, spectra, band): uniform interaction-picture RK4
    steps of size <= dtau from env.tau to tau_final on the working grid (see
    the module docstring); grids receives the points of each grid tried, and
    spectra lives on the last.  With dense, spectra holds u_hat = fft(u) at
    every step end, shape (steps + 1, L'), the initial one first, and band is
    the largest _top_mode over the step ends; otherwise spectra holds the
    final u_hat alone and band is the largest _top_mode at every 25th step
    and the end."""
    if tau_final < env.tau:
        raise DomainError("tau_final must be >= current tau")
    _check_stability(env, c, dtau)
    n_steps, dt = step_plan(tau_final - env.tau, dtau)
    check_budget((n_steps + 1) * env.L, f"the NLS run to tau = {tau_final:.4g} in "
                 f"{n_steps} steps of {env.L} points")
    u_hat = np.fft.fft(env.values)
    grids.append(_working_grid(env.L, _top_mode(u_hat)))
    while True:
        size = grids[-1]
        rate = _linear_rate(size, env.dxi * (env.L // size), c)
        stop = size // 2 if size < env.L else math.inf
        run = _steps(resize_spectra(u_hat, size), rate, n_steps, dt, c.rho2, dense, stop,
                     env.tau)
        if run is not None:
            return (n_steps, dt, *run)
        grids.append(2 * size)


def rk4_step(y: np.ndarray, k1: np.ndarray, dt, field, work: tuple,
             out: np.ndarray) -> np.ndarray:
    """The package's one classical RK4 step: out = y + (dt/6) (((k1 + 2 k2) +
    2 k3) + k4), the textbook order of operations, with field(state, i, k)
    writing k_i at state = y + c k_(i-1) into k for stages i = 2, 3, 4 (c =
    dt/2, dt/2, dt); field may write over state.  work is (state, k, acc),
    arrays of y's shape that the caller owns (acc may be k1, which the step
    then writes over), and out may be y or state.  dt is a scalar, or a
    column for rows stacked along the first axis."""
    state, k, acc = work
    np.add(y, np.multiply(k1, 0.5 * dt, out=state), out=state)
    field(state, 2, k)
    np.add(y, np.multiply(k, 0.5 * dt, out=state), out=state)
    np.add(k1, np.multiply(k, 2.0, out=k), out=acc)
    field(state, 3, k)
    np.add(y, np.multiply(k, dt, out=state), out=state)
    np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
    field(state, 4, k)
    np.add(acc, k, out=acc)
    return np.add(y, np.multiply(acc, dt / 6.0, out=acc), out=out)


def _picture(rho2: float, shape: tuple) -> tuple:
    """(field, half, end, k1, work, nl), allocated at once for rows of the
    given shape: rk4_step's field in the interaction picture, k = conj(p)
    N(p state) with p = half at stages 2 and 3 and end at stage 4 (exp(Lambda
    s) at the stage's time), its work and _nonlinear's (nl); the caller fills
    half, end and k1, which is also rk4_step's acc."""
    half, end, k1, state, k, conj, u = np.empty((7,) + shape, dtype=complex)
    nl = (u, *np.empty((2,) + shape))

    def field(state, i, k):
        p = end if i == 4 else half
        if i != 3:  # stage 3 reuses stage 2's conj(half)
            np.conjugate(p, out=conj)
        _nonlinear(np.multiply(p, state, out=state), rho2, state, nl)
        np.multiply(conj, state, out=k)

    return field, half, end, k1, (state, k, k1), nl


def _steps(v_hat: np.ndarray, rate: np.ndarray, n_steps: int, dt: float, rho2: float,
           dense: bool, stop, tau0: float):
    """_integrate's step loop on one grid from u_hat = v_hat at tau0: (spectra,
    band), or None once band reaches a finite stop.  The state after `step`
    steps is checked once (every step of a dense run, 0, 25, 50, ... and the
    last otherwise): band takes its _top_mode, inf where it is not finite,
    which raises NumericalError at stop = inf (the envelope's own grid).  k1
    is exp(-Lambda s) N_hat of the step's start, N_hat = FFT(-i rho2 |u|^2 u)
    in k1's row; 8 FFTs per step, on arrays allocated once per run."""
    L = len(v_hat)
    spectra = np.empty((n_steps + 1 if dense else 1, L), dtype=np.complex128)
    v_hat = v_hat.copy()  # stepped in place
    field, half, end, k1, work, nl = _picture(rho2, (L,))
    end[:] = 1.0  # exp(Lambda s) at the state's time

    band = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run ends in one record
        for step in range(n_steps + 1):
            if step:  # k1 = exp(-Lambda s) N_hat, half holding conj(end) until refilled
                np.multiply(np.conjugate(end, out=half), n_now, out=k1)
                _linear_phase(rate, (step - 0.5) * dt, half)
                _linear_phase(rate, step * dt, end)
                rk4_step(v_hat, k1, dt, field, work, v_hat)
            u_now = np.multiply(end, v_hat, out=spectra[step if dense else 0])
            # a zero-step run needs no N_hat (dt N_hat is 0): it is skipped
            n_now = _nonlinear(u_now, rho2, k1, nl) if dt else None
            if dense or step % 25 == 0 or step == n_steps:
                band = max(band, _top_mode(u_now, n_now, dt))
            if band >= stop < math.inf:  # run again on 2 L'
                return None
            if band >= stop:  # inf: a non-finite state on the envelope's own grid
                mag = np.abs(np.fft.ifft(u_now))
                finite = mag[np.isfinite(mag)]
                raise NumericalError("NLS evolution diverged", diagnostics={
                    "step": step, "tau": tau0 + step * dt,
                    "max_abs": float(finite.max()) if finite.size else math.inf})
    return spectra, band


def _top_mode(u_hat: np.ndarray, n_hat: np.ndarray = None, dt: float = 0.0):
    """The highest |j| at which |u_hat| or dt |N_hat| exceeds 2 eps times
    the largest |u_hat| (the propagator keeps |u_hat|), above the fft's
    round-off (1.1 eps for the default Gaussian on 1536 points); 0 for a
    zero envelope, inf for a u_hat that is not finite (nor then the floor)."""
    mag = np.abs(u_hat)
    floor = 2.0 * np.finfo(float).eps * mag.max()
    if not math.isfinite(floor):
        return math.inf
    above = mag > floor
    if n_hat is not None:
        above |= dt * np.abs(n_hat) > floor
    j = np.flatnonzero(above)
    return int(np.minimum(j, len(u_hat) - j).max(initial=0))


def nls_evolve(env: Envelope, c: NlsCoefficients, tau_final: float, dtau: float,
               grids: list = None) -> Envelope:
    """Advance to tau_final with uniform interaction-picture RK4 steps of size <= dtau.

    Global error is O(dtau^4); only the end point is kept, on env's grid.
    A list passed as grids receives the points of each working grid tried.
    """
    spectra = _integrate(env, c, tau_final, dtau, False, [] if grids is None else grids)[2]
    return Envelope(env.xi0, env.dxi, np.fft.ifft(resize_spectra(spectra[-1], env.L)),
                    tau_final)


@dataclass(frozen=True)
class EnvelopeEvolution:
    """Dense output of an NLS run: spectra on the solver's step grid.

    snapshots[j] is u_hat = fft(u) at taus[j].  Inside the step from
    taus[n], spectra_at takes the run's own step, rk4_step on _picture's
    field, of size s = tau - taus[n] from u_hat_n, its k1 the nonlinear term
    N_hat_n = FFT(-i rho2 |u|^2 u) recomputed from u_hat_n: 8 FFTs per tau,
    and the error of one RK4 step of size s <= dtau added to the run's
    at taus[n].  At DENSE_STEP_MULTIPLE times stable_dtau the rows of the
    reference window match classic RK4 to 9.1e-12, and the oracle test's
    other points to 2.3e-11 at worst.  The Fourier series of u in xi has the
    coefficients u_hat / L, so the ansatz is evaluated from spectra_at
    without a round trip through the grid.
    steps and dtau are the integrator's step count and step size; band, the
    largest _top_mode over the stored step ends, bounds the modes spectra_at
    carries above round-off.  The spectra live on the run's working grid of
    L points and spacing dxi; envelope_L is the envelope's own grid, L times
    a power of two, and grids the points of each working grid tried.
    """

    xi0: float
    dxi: float
    taus: np.ndarray
    snapshots: np.ndarray  # shape (S, L)
    coefficients: NlsCoefficients
    steps: int
    dtau: float
    band: int
    envelope_L: int
    grids: tuple

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
        """(n, s) for taus checked against the stored range: the step end
        n each one's step starts from and s = tau - taus[n], as a column."""
        t = np.asarray(taus, dtype=float)
        grid = self.taus
        bad = np.flatnonzero((t < grid[0] - 1e-12) | (t > grid[-1] + 1e-12))
        if len(bad):
            raise DomainError(
                f"tau = {t[bad[0]]} outside stored range [{grid[0]}, {grid[-1]}]"
            )
        n = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 1)
        return n, (t - grid[n])[:, None]

    def spectra_at(self, taus) -> np.ndarray:
        """fft of the envelope at each of taus, shape (len(taus), L), all
        rows in one batched step; its temporaries are a few arrays of that
        shape, so callers pass a block of taus at a time."""
        n, s = self._locate(taus)
        rate, rho2 = _linear_rate(self.L, self.dxi, self.coefficients), self.coefficients.rho2
        out = self.snapshots[n]  # a copy, stepped in place
        field, half, end, k1, work, nl = _picture(rho2, out.shape)
        _linear_phase(rate, 0.5 * s, half)
        _linear_phase(rate, s, end)
        with np.errstate(over="ignore", invalid="ignore"):  # callers refuse a non-finite row
            rk4_step(out, _nonlinear(out, rho2, k1, nl), s, field, work, out)
        return np.multiply(end, out, out=out)


def nls_evolve_dense(env: Envelope, c: NlsCoefficients, tau_final: float,
                     dtau: float) -> EnvelopeEvolution:
    """Evolve with steps of size <= dtau and keep u_hat at every step end on
    the working grid (see EnvelopeEvolution); 8 FFTs per step."""
    grids = []
    n_steps, dt, spectra, band = _integrate(env, c, tau_final, dtau, True, grids)
    taus = env.tau + np.arange(n_steps + 1) * dt
    return EnvelopeEvolution(env.xi0, env.dxi * (env.L // grids[-1]), taus, spectra, c,
                             steps=n_steps, dtau=dt, band=band, envelope_L=env.L,
                             grids=tuple(grids))


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
    if which == "nls":  # h3, the field _integrate steps: Lambda u_hat + N_hat
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

    def derivative(a, b):  # K_a'[K_b] at u
        return _derivative(lambda vals: _flow(vals, env.dxi, *a), u, base[b])

    # the cubic |u|^2 u carries three times u's band; an overflowing profile
    # leaves a NaN energy fraction, which the check refuses, and overflowing
    # symbols k^2, k^3 leave the residuals that commutator_floor refuses
    with np.errstate(over="ignore", invalid="ignore"):
        _check_spectra_resolved(np.fft.fft(u))
        _check_spectra_resolved(np.fft.fft(np.abs(u) ** 2 * u), "cubic |u|^2 u")
        base = {flow: symmetry_rhs(env, *flow) for flow in dict.fromkeys(sum(pairs, ()))}
        return [float(np.max(np.abs(derivative(a, b) - derivative(b, a)))) for a, b in pairs]


def commutator_floor(env: Envelope, c: NlsCoefficients) -> float:
    """Round-off floor of a commutator (see _commutators).

    The central differences divide machine-eps-level noise of the RHS
    evaluations by 2 * COMMUTATOR_STEP; the noise itself is amplified by the
    largest spectral symbol in play (k_max^3 from the third derivative).
    """
    kmax = np.float64(math.pi / env.dxi)  # as in _stiffness
    umax = np.max(np.abs(env.values))
    with np.errstate(over="ignore"):
        scale = (1.0 + abs(c.rho1) * kmax ** 3
                 + 3.0 * abs(c.rho2) * kmax * umax ** 2) * max(umax, 1.0)
    floor = float(64.0 * np.finfo(float).eps * scale / (2.0 * COMMUTATOR_STEP))
    if not math.isfinite(floor):  # an infinite floor would pass any residual
        raise DomainError(f"the commutator floor overflows at kmax = {kmax:.3e}")
    return floor


def commutator_sweep(c: NlsCoefficients, env: Envelope) -> dict:
    """The commutators of COMMUTATOR_PAIRS, each passing when at most
    commutator_floor, and a negative control, [nls, h4] with h4 built from
    (rho1, 2 rho2), a wrong cubic: passed needs every pair to pass and the
    control to be above its own floor.  JSON-friendly report."""
    wrong = NlsCoefficients(c.rho1, 2.0 * c.rho2)
    *residuals, bad = _commutators(env, [((c, a), (c, b)) for a, b in COMMUTATOR_PAIRS]
                                   + [((c, "nls"), (wrong, "h4"))])
    floor = commutator_floor(env, c)  # after _commutators, which names an overflowing cubic
    table = [{"pair": [a, b], "residual": residual, "floor": floor,
              "passed": residual <= floor}
             for (a, b), residual in zip(COMMUTATOR_PAIRS, residuals)]
    control = {"pair": ["nls", "h4"], "h4_rho2": wrong.rho2, "residual": bad,
               "floor": commutator_floor(env, wrong)}
    passed = all(row["passed"] for row in table) and control["residual"] > control["floor"]
    return {"rho1": c.rho1, "rho2": c.rho2, "step": COMMUTATOR_STEP, "sweep": table,
            "negative_control": control, "passed": passed}


def save_envelope_csv(env: Envelope, path) -> None:
    """A header, then xi, Re u and Im u in repr at each grid point, "\r\n" line ends."""
    rows = zip(env.xi_grid.tolist(), env.values.real.tolist(), env.values.imag.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("xi,re,im\r\n" + "".join("%r,%r,%r\r\n" % row for row in rows))


def envelope_to_json(env: Envelope) -> dict:
    return {
        "xi0": env.xi0,
        "dxi": env.dxi,
        "tau": env.tau,
        "re": [float(v) for v in env.values.real],
        "im": [float(v) for v in env.values.imag],
    }


def envelope_from_json(doc: dict) -> Envelope:
    """The envelope of an envelope_to_json document; DomainError for one that
    lacks a key, has re or im other than equally long lists of finite
    numbers, or a tau other than a finite number (Envelope refuses xi0 and
    dxi by name); finite_number is the rule for all five."""
    if not isinstance(doc, dict) or not {"re", "im", "xi0", "dxi"} <= set(doc):
        raise DomainError("an envelope JSON document needs re, im, xi0 and dxi")
    re, im, tau = doc["re"], doc["im"], doc.get("tau", 0.0)
    if not (isinstance(re, list) and isinstance(im, list) and len(re) == len(im)
            and all(map(finite_number, re + im + [tau]))):
        raise DomainError("an envelope JSON document needs finite re, im and tau, re and "
                          "im as lists of numbers of equal length")
    vals = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    return Envelope(doc["xi0"], doc["dxi"], vals, tau)
