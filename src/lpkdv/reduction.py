"""Multiscale reduction of the lpKdV to the NLS equation.

Carries the full reduction data of the expansion around a carrier wave
exp(i(kappa*n - omega*m)):

  * the scale factors M1, M1_tilde fixing the slow characteristic
    xi = (M1*n - sgn*M1_tilde*m)/N and the slow time tau = M2_tilde*m/N^2,
  * the harmonic-reconstruction coefficients tau1 (zeroth harmonic source),
    tau2 (second harmonic), tau3/tau4 (stored only; their orders are not
    reconstructed here),
  * the NLS coefficients rho1, rho2 of i u_tau = rho1 u_xixi + rho2 u|u|^2.

The complex closed forms are evaluated verbatim; realness of M1 and M1_tilde
is asserted rather than assumed (the phase theta of S = r*exp(i*theta) is
what enforces it).  The assembled lattice ansatz keeps the harmonics
(k, alpha) in {(1,0), (1,+-1), (2,+-2)}:

    u = (1/N) [ u1_0(xi) + 2 Re(u1_1(xi,tau) e^{i theta}) ]
        + (1/N^2) 2 Re(tau2 u1_1^2 e^{2 i theta}),   theta = kappa*n - omega*m,

with u1_0 the real antiderivative of Re(tau1)|u1_1|^2, zero at xi0.  The
envelope enters as its Fourier series in xi, with the spectrum of the NLS
dense output as coefficients (values at lattice points and the
antiderivative), so it must be spectrally resolved.  With all these
relations enforced and the envelope solving the NLS, the lpKdV residual of
the assembled field is O(1/N^3); dropping the zeroth or second harmonic (or
the characteristic) degrades it to O(1/N^2), which is what the scaling test
measures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .nls import EnvelopeEvolution, NlsCoefficients, _check_spectra_resolved, wavenumbers
from .quad import CarrierWave, LatticeField, LpkdvParams, dispersion, max_residual

REALNESS_RTOL = 1e-10
RESIDUAL_MARGIN = 5   # plaquettes at each window edge left out of the residual
_BLOCK_ROWS = 32  # lattice rows summed at once; bounds the assembly working set


@dataclass(frozen=True)
class ReductionCoefficients:
    """Everything the reduction produces for one (p, q, kappa, r, M2_tilde, branch)."""

    params: LpkdvParams
    carrier: CarrierWave
    branch: int
    r: float
    theta: float
    S: complex
    M1: float
    M1_tilde: float
    M2_tilde: float
    tau1: complex
    tau2: complex
    tau3: complex
    tau4: complex | None
    rho1: float
    rho2: float

    @property
    def sgn(self) -> int:
        """Sign in the slow characteristic xi = (M1*n - sgn*M1_tilde*m)/N."""
        return self.branch

    def nls_coefficients(self) -> NlsCoefficients:
        return NlsCoefficients(self.rho1, self.rho2)

    def to_json(self) -> dict:
        def cplx(z):
            return None if z is None else {"re": z.real, "im": z.imag}

        return {
            "p": self.params.p, "q": self.params.q,
            "mu": self.params.mu, "zeta": self.params.zeta,
            "kappa": self.carrier.kappa, "omega": self.carrier.omega,
            "branch": self.branch, "r": self.r, "theta": self.theta,
            "S": cplx(self.S),
            "M1": self.M1, "M1_tilde": self.M1_tilde, "M2_tilde": self.M2_tilde,
            "tau1": cplx(self.tau1), "tau2": cplx(self.tau2),
            "tau3": cplx(self.tau3), "tau4": cplx(self.tau4),
            "rho1": self.rho1, "rho2": self.rho2,
            "defocusing": bool(self.rho1 * self.rho2 < 0),
        }


def _assert_real(z: complex, name: str) -> float:
    scale = abs(z)
    if scale > 0 and abs(z.imag) > REALNESS_RTOL * scale:
        raise InternalConsistencyError(
            f"{name} must be real: got {z} (Im/|.| = {abs(z.imag) / scale:.3e})",
            ratio=abs(z.imag) / scale,
        )
    return z.real


def compute_coefficients(params: LpkdvParams, kappa: float, r: float = 1.0,
                         m2_tilde: float = 1.0, branch: int | None = None,
                         interpret_tau4: bool = False) -> ReductionCoefficients:
    """Evaluate the full set of reduction coefficients at one parameter point.

    branch is the correlated sign pair of the reduction (the choice between
    the two slow characteristics); None auto-selects the one with M1 > 0.
    The phase theta starts from the principal arctan and is shifted by pi if
    needed so that M1_tilde > 0; realness of M1 and M1_tilde is asserted to
    REALNESS_RTOL relative.  tau4 involves two symbols with no definition in
    the source material; it is evaluated (with the lattice-parameter reading)
    only when interpret_tau4 is set, otherwise stored as None.
    """
    if not (0.0 < kappa < math.pi):
        raise DomainError(f"kappa must lie in (0, pi), got {kappa}")
    if r <= 0:
        raise DomainError("r must be positive")
    if m2_tilde <= 0:
        raise DomainError("M2_tilde must be positive")
    if branch not in (None, 1, -1):
        raise DomainError("branch must be +1, -1, or None for auto")
    mu, zeta = params.mu, params.zeta
    carrier = CarrierWave.for_params(params, kappa)
    E = cmath.exp(1j * kappa)

    theta_denom = zeta * math.cos(kappa) - mu
    if abs(theta_denom) < 1e-14 * (abs(zeta) + abs(mu)):
        raise DomainError(
            "theta undefined at this (p, q, kappa): zeta*cos(kappa) - mu ~ 0"
        )
    theta = -math.atan(zeta * math.sin(kappa) / theta_denom)

    def m_values(th):
        S = r * cmath.exp(1j * th)
        m1_signless = S * (mu - zeta * E)          # M1 = -branch * this
        m1t = S * E * (zeta ** 2 - mu ** 2) / (mu * E - zeta)
        return S, m1_signless, m1t

    S, m1_signless, m1t_c = m_values(theta)
    _assert_real(m1_signless, "M1 (signless complex form)")
    if _assert_real(m1t_c, "M1_tilde") < 0.0:
        theta += math.pi
        S, m1_signless, m1t_c = m_values(theta)
    m1_signless_re = _assert_real(m1_signless, "M1 (signless complex form)")
    m1_tilde = _assert_real(m1t_c, "M1_tilde")

    if branch is None:
        branch = -1 if m1_signless_re > 0 else 1
    m1 = -branch * m1_signless_re
    if m1 <= 0 or m1_tilde <= 0:
        raise DomainError(
            f"M1 = {m1:.6g}, M1_tilde = {m1_tilde:.6g} not both positive; "
            f"try branch = {-branch}"
        )

    tau1 = branch * 2.0 * (1 + E) ** 2 / (S * E * (mu + zeta) * (mu - zeta * E))
    tau2 = (1 + E) / ((1 - E) * (mu + zeta))
    tau3 = 2j * math.sin(kappa) / (mu + zeta)
    tau4 = None
    if interpret_tau4:
        tau4 = branch * 2.0 * S * E * (zeta + mu * E) / ((E - 1) ** 2 * (mu + zeta))

    band = zeta ** 2 + mu ** 2 - 2.0 * zeta * mu * math.cos(kappa)
    rho1 = -mu * zeta * r ** 2 * (zeta ** 2 - mu ** 2) * math.sin(kappa) / (m2_tilde * band)
    rho2 = (8.0 * zeta * mu * (zeta - mu) * (1 + math.cos(kappa)) ** 2 * math.sin(kappa)
            / (m2_tilde * (mu + zeta) * band ** 2))

    return ReductionCoefficients(
        params=params, carrier=carrier, branch=branch, r=r, theta=theta, S=S,
        M1=m1, M1_tilde=m1_tilde, M2_tilde=m2_tilde,
        tau1=tau1, tau2=tau2, tau3=tau3, tau4=tau4, rho1=rho1, rho2=rho2,
    )


def group_velocity(params: LpkdvParams, kappa: float) -> float:
    """d omega / d kappa by Richardson-refined central differences (step 1e-6)."""
    h = 1e-6
    if not (h < kappa < math.pi - h):
        raise DomainError("kappa must be interior to (0, pi)")

    def central(hh):
        return (dispersion(params, kappa + hh) - dispersion(params, kappa - hh)) / (2 * hh)

    return (4.0 * central(h / 2) - central(h)) / 3.0


@dataclass(frozen=True)
class SlowCoordinates:
    """Map from lattice indices to the slow variables (xi, tau)."""

    N: int
    M1: float
    M1_tilde: float
    M2_tilde: float
    sgn: int

    @classmethod
    def from_coefficients(cls, coeffs: ReductionCoefficients, N: int) -> "SlowCoordinates":
        if N < 1:
            raise DomainError("N must be a positive integer")
        return cls(N=N, M1=coeffs.M1, M1_tilde=coeffs.M1_tilde,
                   M2_tilde=coeffs.M2_tilde, sgn=coeffs.sgn)

    def xi(self, n, m):
        return (self.M1 * np.asarray(n) - self.sgn * self.M1_tilde * np.asarray(m)) / self.N

    def tau(self, n, m):
        return self.M2_tilde * np.asarray(m) / self.N ** 2


def _band(J: int, L: int) -> tuple:
    """(lo, hi): the integer wavenumbers j = -lo..hi with |j| <= J, or all L
    of the grid's (the fft's j = -L//2..(L-1)//2) once 2J + 1 >= L."""
    return min(J, L // 2), min(J, (L - 1) // 2)


def _lattice_matrix(x, xi0: float, lo: int, hi: int, L: int, dxi: float) -> np.ndarray:
    """The lattice-point Fourier matrix E[i, c] = e^{i k_c (x[i] - xi0)} for
    k_c = 2 pi j_c / period, j_c = -lo..hi: one exp per |j|, the column of
    j < 0 being the conjugate of that of -j."""
    arg = np.outer(np.atleast_1d(x) - xi0, wavenumbers(np.arange(max(lo, hi) + 1), L, dxi))
    pos = np.exp(1j * arg)
    return np.concatenate([np.conj(pos[:, lo:0:-1]), pos[:, :hi + 1]], axis=1)


def _series_values(spectra: np.ndarray, j: np.ndarray, basis: np.ndarray, offsets,
                   dxi: float) -> np.ndarray:
    """Grid data given by their ffts (one profile per row, fft order along
    the row) as Fourier series over the integer wavenumbers j = -lo..hi,
    profile c evaluated at x[i] + offsets[c], shape (len(x), profiles):
    basis is _lattice_matrix(x, xi0, lo, hi, L, dxi), and a profile's offset
    enters as the factor e^{i k offsets[c]} on its coefficients, so all of
    them are one matrix product (Trefethen, Spectral Methods in MATLAB,
    SIAM 2000)."""
    L = spectra.shape[1]
    shift = np.exp(1j * np.outer(wavenumbers(j, L, dxi), offsets))
    return basis @ (spectra[:, j % L].T / L * shift)


def _zeroth_values(amp2: np.ndarray, j: np.ndarray, basis: np.ndarray, x, offsets,
                   xi0: float, dxi: float) -> np.ndarray:
    """The antiderivative, zero at xi0, of real grid data given by their ffts
    amp2, at the points of _series_values for j = 0..top: every mode but
    j = 0 and the Nyquist mode j = L/2 also stands for its conjugate partner
    -j, so the real part of the series over j >= 0 is the data's series.
    The antiderivative is the periodic part plus mean*(xi - xi0), zero at
    xi0 in every column: the lpKdV is invariant under a global shift
    u -> u + c, not a per-row one."""
    L = amp2.shape[1]
    k = wavenumbers(j, L, dxi)
    coef = amp2[:, j % L].T / L
    coef[1:] *= 2.0
    if 2 * j[-1] == L:
        coef[-1] /= 2.0
    anti = np.empty_like(coef)
    anti[1:] = coef[1:] / (1j * k[1:, None])
    anti[0] = -anti[1:].sum(axis=0)
    periodic = basis @ (anti * np.exp(1j * np.outer(k, offsets)))
    return (periodic + np.add.outer(np.atleast_1d(x) - xi0, offsets) * coef[0]).real


def fourier_resample(values: np.ndarray, xi0: float, dxi: float, x) -> np.ndarray:
    """Periodic grid data values (at xi0 + dxi*i) at the points x, through
    their Fourier series over all the grid's modes j = -L//2..(L-1)//2 (an
    even grid's Nyquist mode at -L/2, where the fft places it)."""
    L = len(values)
    lo, hi = _band(L, L)
    basis = _lattice_matrix(x, xi0, lo, hi, L, dxi)
    return _series_values(np.fft.fft(values)[None], np.arange(-lo, hi + 1), basis,
                          [0.0], dxi)[:, 0]


def _row_taus(evolution: EnvelopeEvolution, slow: SlowCoordinates, ms) -> np.ndarray:
    """Slow times of lattice rows ms, which must lie in the evolution's range."""
    taus = slow.tau(0, ms)
    bad = np.flatnonzero((taus < evolution.tau_min - 1e-12) | (taus > evolution.tau_max + 1e-12))
    if len(bad):
        raise DomainError(
            f"slow time tau = {taus[bad[0]]} at lattice row m = {ms[bad[0]]} outside the "
            f"envelope evolution range [{evolution.tau_min}, {evolution.tau_max}]"
        )
    return taus


@dataclass
class AnsatzField:
    """Assembled multiscale ansatz on a lattice window, with its provenance.
    modes and modes_zeroth are the widths of the lattice-point Fourier
    matrices the assembly evaluated u1_1 and the zeroth harmonic with (0
    when the zeroth harmonic is left out)."""

    N: int
    coeffs: ReductionCoefficients
    evolution: EnvelopeEvolution
    field: LatticeField
    include_zeroth: bool
    include_second: bool
    slow: SlowCoordinates
    modes: int
    modes_zeroth: int

    def envelope_values(self, n, m) -> np.ndarray:
        """u1_1 at the slow coordinates of the lattice points (n[i], m[j]),
        shape (len(n), len(m)); a scalar m gives the 1-D array over n."""
        ms = np.atleast_1d(np.asarray(m, dtype=float))
        evolution = self.evolution
        taus = _row_taus(evolution, self.slow, ms)
        spectra = evolution.spectra_at(taus)
        _check_spectra_resolved(spectra)
        lo, hi = _band(evolution.bandwidth(taus), evolution.L)
        x = self.slow.xi(np.atleast_1d(n), 0)
        basis = _lattice_matrix(x, evolution.xi0, lo, hi, evolution.L, evolution.dxi)
        u1 = _series_values(spectra, np.arange(-lo, hi + 1), basis, self.slow.xi(0, ms),
                            evolution.dxi)
        return u1[:, 0] if np.ndim(m) == 0 else u1


def assemble_ansatz(evolution: EnvelopeEvolution, coeffs: ReductionCoefficients,
                    N: int, window: tuple, include_zeroth: bool = True,
                    include_second: bool = True) -> AnsatzField:
    """Build the real lattice field of the truncated multiscale expansion.

    window = (n_size, m_size).  Slow coordinates must stay inside the stored
    tau range of the evolution (xi wraps periodically); violations raise with
    the offending (n, m).  The envelope and |u1_1|^2 must be spectrally
    resolved (PreconditionError otherwise).

    u1_1 is evaluated as the Fourier series whose coefficients are the
    envelope's spectrum (EnvelopeEvolution.spectra_at), and |u1_1|^2 from
    the FFT of its grid values, as a real series over j >= 0.  Every row
    shares one lattice-point matrix e^{i k (xi(n, 0) - xi0)},
    k = 2 pi j / period, over j = -J..2J: J bounds the modes the snapshots
    carry above round-off (EnvelopeEvolution.bandwidth), u1_1 takes its
    columns |j| <= J and |u1_1|^2, whose band is twice as wide, its columns
    j = 0..2J.  A row's xi offset enters as the factor e^{i k xi(0, m)} on
    the coefficients, so a block of rows is one matrix product per series.
    """
    n_size, m_size = window
    if n_size < 2 or m_size < 2:
        raise DomainError("window must be at least 2x2")
    slow = SlowCoordinates.from_coefficients(coeffs, N)
    kappa, omega = coeffs.carrier.kappa, coeffs.carrier.omega
    xi0, dxi, L = evolution.xi0, evolution.dxi, evolution.L
    ns = np.arange(n_size)
    ms = np.arange(m_size)
    x = slow.xi(ns, 0)
    taus = _row_taus(evolution, slow, ms)
    J = evolution.bandwidth(taus)
    lo, hi = _band(J, L)                                  # u1_1: j = -lo..hi
    top = min(2 * J, L // 2) if include_zeroth else -1    # |u1_1|^2: j = 0..top
    basis = _lattice_matrix(x, xi0, lo, max(hi, top), L, dxi)
    basis1, basis0 = basis[:, :lo + hi + 1], basis[:, lo:lo + top + 1]
    j1, j0 = np.arange(-lo, hi + 1), np.arange(top + 1)
    carrier_n = np.exp(1j * kappa * ns)
    carrier_m = np.exp(-1j * omega * ms)
    out = np.empty((n_size, m_size), dtype=np.float64)
    for start in range(0, m_size, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, m_size))
        spectra = evolution.spectra_at(taus[rows])
        _check_spectra_resolved(spectra)
        offsets = slow.xi(0, ms[rows])
        u1 = _series_values(spectra, j1, basis1, offsets, dxi)
        phase = np.outer(carrier_n, carrier_m[rows])
        block = 2.0 * np.real(u1 * phase) / N
        if include_zeroth:
            amp2 = np.fft.fft(np.abs(np.fft.ifft(spectra, axis=1)) ** 2, axis=1)
            _check_spectra_resolved(amp2)
            block += coeffs.tau1.real * _zeroth_values(amp2, j0, basis0, x, offsets,
                                                       xi0, dxi) / N
        if include_second:
            block += 2.0 * np.real(coeffs.tau2 * u1 ** 2 * phase ** 2) / N ** 2
        out[:, rows] = block
    return AnsatzField(N=N, coeffs=coeffs, evolution=evolution,
                       field=LatticeField(out), include_zeroth=include_zeroth,
                       include_second=include_second, slow=slow,
                       modes=len(j1), modes_zeroth=len(j0))


def fit_scaling_exponent(n_list, residuals) -> tuple:
    """Least-squares exponent of R ~ (1/N)^e over the positive residuals;
    returns (exponent, r_squared).  The one log-log fit of the package: a
    step size h enters as N = 1/h."""
    n_arr = np.asarray(n_list, dtype=float)
    r_arr = np.asarray(residuals, dtype=float)
    keep = r_arr > 0
    if int(np.sum(keep)) < 2:
        raise DomainError("scaling fit needs at least 2 positive residuals")
    x = np.log(1.0 / n_arr[keep])
    y = np.log(r_arr[keep])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def residual_scaling(evolution: EnvelopeEvolution, coeffs: ReductionCoefficients,
                     N_list, window: tuple,
                     include_zeroth: bool = True, include_second: bool = True) -> dict:
    """lpKdV residual of the assembled ansatz versus N, with a log-log fit.

    Residual norm: max over interior plaquettes excluding RESIDUAL_MARGIN
    near the window edges (boundary points lack full ansatz accuracy).
    Report matches the documented JSON schema {"N", "residual", "exponent",
    "fit_r2", "assembly"}; assembly holds the per-N lattice-point matrix
    widths {"modes", "modes_zeroth"} of AnsatzField.
    """
    N_list = list(N_list)
    if len(N_list) < 3 or sorted(N_list) != N_list:
        raise DomainError("N_list must be ascending with at least 3 entries")
    residuals = []
    assembly = {"modes": [], "modes_zeroth": []}
    for N in N_list:
        ans = assemble_ansatz(evolution, coeffs, N, window,
                              include_zeroth=include_zeroth,
                              include_second=include_second)
        residuals.append(max_residual(ans.field, coeffs.params, margin=RESIDUAL_MARGIN))
        assembly["modes"].append(ans.modes)
        assembly["modes_zeroth"].append(ans.modes_zeroth)
    if all(r == 0.0 for r in residuals):
        exponent, r2 = "exact", 1.0
    else:
        exponent, r2 = fit_scaling_exponent(N_list, residuals)
    return {"N": N_list, "residual": residuals, "exponent": exponent, "fit_r2": r2,
            "assembly": assembly}
