"""Multiscale reduction of the lpKdV to the NLS equation.

Carries the reduction data of the expansion around a carrier wave
exp(i(kappa*n - omega*m)), in real closed forms through
band = zeta^2 + mu^2 - 2 zeta mu cos(kappa) = 4p^2 sin^2(kappa/2) + 4q^2 cos^2(kappa/2),
evaluated as the latter sum of positive terms:

  * M1 = sqrt(band) and M1_tilde = 4|pq|/M1, fixing the slow characteristic
    xi = (M1*n - branch*M1_tilde*m)/N and the slow time tau = m/N^2; branch
    = -sign(pq) is the sign of the group velocity -4pq/band,
  * tau1 = -4 cos^2(kappa/2)/(p M1) (zeroth harmonic source),
    tau2 = i/(2p tan(kappa/2)) (second harmonic) and tau3 = i sin(kappa)/p
    (stored only; its order is not reconstructed here),
  * rho1, rho2 of the NLS i u_tau = rho1 u_xixi + rho2 u|u|^2, as printed but
    with 1 + cos(kappa) as 2 cos^2(kappa/2), which stays accurate as kappa -> pi.

The paper states M1, M1_tilde and tau1 as complex forms in e^{i kappa} and a
scale factor S of modulus r; the phase of S that makes M1 and M1_tilde real
and positive reduces them to the forms above, on the whole domain p, q != 0,
p != +-q, kappa in (0, pi) (tests/reduction_oracle.py keeps the complex
forms).  r scales xi (M1, M1_tilde ~ r, rho1 ~ r^2, tau1 ~ 1/r) and M2_tilde
in tau = M2_tilde*m/N^2 scales tau (rho1, rho2 ~ 1/M2_tilde), both
duplicating the envelope's own width and time span: the gauge
r = M2_tilde = 1 is the one kept.  With g = zs_potential(1, p, kappa),
rho2/rho1 = -2 g^2/M1^2 < 0, so on the whole domain the NLS is the defocusing
one whose Lax operator is the reduced Zakharov-Shabat problem of `spectral`.
The assembled ansatz keeps the harmonics (k, alpha) in {(1,0), (1,+-1), (2,+-2)}:

    u = (1/N) [ u1_0(xi) + 2 Re(u1_1(xi,tau) e^{i theta}) ]
        + (1/N^2) 2 Re(tau2 u1_1^2 e^{2 i theta}),   theta = kappa*n - omega*m,

with u1_0 the real antiderivative of tau1 |u1_1|^2, zero at xi0.  The
envelope enters as its Fourier series in xi, the spectrum of the NLS dense
output as coefficients, so it must be spectrally resolved.  With the
envelope solving the NLS, the lpKdV residual of the assembled field is
O(1/N^3); dropping the zeroth or second harmonic (coefficients with tau1
or tau2 zeroed, by dataclasses.replace) or the characteristic degrades it
to O(1/N^2), which is what the scaling test measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nls
from .errors import DomainError, NumericalError
from .nls import EnvelopeEvolution, NlsCoefficients, _check_spectra_resolved, wavenumbers
from .quad import CarrierWave, LatticeField, LpkdvParams, max_residual

RESIDUAL_MARGIN = 5   # plaquettes at each window edge left out of the residual
_BLOCK_ROWS = 32  # lattice rows summed at once; bounds the assembly working set


@dataclass(frozen=True)
class ReductionCoefficients:
    """Everything the reduction produces for one (p, q, kappa)."""

    params: LpkdvParams
    carrier: CarrierWave
    branch: int
    M1: float
    M1_tilde: float
    tau1: float
    tau2: complex
    tau3: complex
    rho1: float
    rho2: float

    def xi(self, n, m, N):
        """The slow characteristic xi = (M1*n - branch*M1_tilde*m)/N."""
        return (self.M1 * np.asarray(n) - self.branch * self.M1_tilde * np.asarray(m)) / N

    @staticmethod
    def tau(m, N):
        """The slow time tau = m/N^2 of lattice row m, counted from row 0's."""
        return np.asarray(m) / N ** 2

    def nls_coefficients(self) -> NlsCoefficients:
        return NlsCoefficients(self.rho1, self.rho2)

    def to_json(self) -> dict:
        def cplx(z):
            return {"re": z.real, "im": z.imag}

        return {
            "p": self.params.p, "q": self.params.q,
            "mu": self.params.mu, "zeta": self.params.zeta,
            "kappa": self.carrier.kappa, "omega": self.carrier.omega,
            "branch": self.branch,
            "M1": self.M1, "M1_tilde": self.M1_tilde,
            "tau1": cplx(self.tau1), "tau2": cplx(self.tau2), "tau3": cplx(self.tau3),
            "rho1": self.rho1, "rho2": self.rho2,
            "defocusing": bool(self.rho1 * self.rho2 < 0),
        }


def zs_potential(u, p: float, kappa: float):
    """The reduced Zakharov-Shabat potential g*u of u, g = (2/p) cos^2(kappa/2)."""
    return (2.0 * u / p) * math.cos(kappa / 2.0) ** 2


def compute_coefficients(params: LpkdvParams, kappa: float) -> ReductionCoefficients:
    """The reduction coefficients at one parameter point, by the closed forms
    of the module docstring (rho1, rho2 through zeta^2 - mu^2 = 4pq, zeta - mu
    = 2q, mu + zeta = 2p); branch picks the slow characteristic with M1 > 0.
    kappa outside (0, pi), q = 0 (by the dispersion relation), and p = 0 or a
    coefficient or g^2 (zs_potential's factor) 0 or not finite are refused."""
    carrier = CarrierWave.for_params(params, kappa)
    p, q, mu, zeta = params.p, params.q, params.mu, params.zeta
    c2, s2 = math.cos(kappa / 2.0) ** 2, math.sin(kappa / 2.0) ** 2
    try:  # Python floats raise on some overflows and divisions by 0, not on others
        band = 4.0 * p ** 2 * s2 + 4.0 * q ** 2 * c2
        m1 = math.sqrt(band)
        # M1, M1_tilde, tau1, tau2, tau3, rho1 and rho2, then g^2
        forms = (m1, 4.0 * abs(p * q) / m1, -4.0 * c2 / (p * m1),
                 1j / (2.0 * p * math.tan(kappa / 2.0)), 1j * math.sin(kappa) / p,
                 -mu * zeta * (4.0 * p * q) * math.sin(kappa) / band,
                 8.0 * zeta * mu * (2.0 * q) * (2.0 * c2) ** 2 * math.sin(kappa)
                 / ((2.0 * p) * band ** 2), zs_potential(1.0, p, kappa) ** 2)
    except ArithmeticError:  # p = 0 among them: tau1, tau2 and tau3 divide by p
        forms = (0.0,)
    if not all(0.0 < abs(v) < math.inf for v in forms):
        raise DomainError(f"the reduction needs p != 0 and each coefficient and g^2 finite "
                          f"and nonzero; not so at p = {p!r}, q = {q!r}, kappa = {kappa!r}")
    return ReductionCoefficients(params, carrier, -1 if p * q > 0 else 1, *forms[:-1])


def _band(J: int, L: int) -> tuple:
    """(lo, hi): the integer wavenumbers j = -lo..hi with |j| <= J, or all L
    of the grid's (the fft's j = -L//2..(L-1)//2) once 2J + 1 >= L."""
    return min(J, L // 2), min(J, (L - 1) // 2)


def _lattice_matrix(x, xi0: float, lo: int, hi: int, L: int, dxi: float) -> np.ndarray:
    """The lattice-point Fourier matrix E[i, c] = e^{i k_c (x[i] - xi0)} for
    k_c = 2 pi j_c / period, j_c = -lo..hi, built by doubling: column 0 is 1
    and the columns j = 2^a..2^(a+1) - 1 are the columns j - 2^a times the
    column of 2^a, the one exp of each round, so the columns j = 0..top
    (top = max(lo, hi)) cost ceil(log2(top + 1)) exps of len(x); the column
    of j < 0 is the conjugate of that of -j.  Column j is the product of the
    exps of its set bits: it carries their roundings of k x, together that
    of k_j x, and one rounding per product, at most about
    eps (|k_j x| + 2 log2(top + 1)), the size of the direct exp's own
    rounding of its argument k_j x."""
    dx = np.atleast_1d(x) - xi0
    top = max(lo, hi)
    table = np.empty((len(dx), lo + top + 1), dtype=np.complex128)
    pos = table[:, lo:]  # j = 0..top
    pos[:, 0] = 1.0
    width = 1
    while width <= top:
        count = min(width, top + 1 - width)
        column = np.exp(1j * (dx * wavenumbers(width, L, dxi)))
        np.multiply(pos[:, :count], column[:, None], out=pos[:, width:width + count])
        width *= 2
    np.conj(pos[:, lo:0:-1], out=table[:, :lo])
    return table[:, :lo + hi + 1]


def _series_values(spectra: np.ndarray, lo: int, hi: int, basis: np.ndarray, offsets,
                   dxi: float) -> np.ndarray:
    """Grid data given by their ffts (one profile per row, fft order along
    the row) as Fourier series over the integer wavenumbers j = -lo..hi,
    profile c evaluated at x[i] + offsets[c], shape (len(x), profiles):
    basis is _lattice_matrix(x, xi0, lo, hi, L, dxi), and a profile's offset
    enters as the factor e^{i k offsets[c]} on its coefficients, the
    transposed lattice matrix of the offsets, so all of them are one matrix
    product (Trefethen, Spectral Methods in MATLAB, SIAM 2000)."""
    L = spectra.shape[1]
    shift = _lattice_matrix(offsets, 0.0, lo, hi, L, dxi).T
    return basis @ (spectra[:, np.arange(-lo, hi + 1) % L].T / L * shift)


def _zeroth_values(amp2: np.ndarray, top: int, basis: np.ndarray, x, offsets,
                   xi0: float, dxi: float) -> np.ndarray:
    """The antiderivative, zero at xi0, of real grid data given by their ffts
    amp2, at the points of _series_values for j = 0..top: every mode but
    j = 0 and the Nyquist mode j = L/2 also stands for its conjugate partner
    -j, so the real part of the series over j >= 0 is the data's series.
    The antiderivative is the periodic part plus mean*(xi - xi0), zero at
    xi0 in every column: the lpKdV is invariant under a global shift
    u -> u + c, not a per-row one."""
    L = amp2.shape[1]
    j = np.arange(top + 1)
    coef = amp2[:, j].T / L
    coef[1:] *= 2.0
    if 2 * top == L:
        coef[-1] /= 2.0
    anti = np.empty_like(coef)
    anti[1:] = coef[1:] / (1j * wavenumbers(j[1:], L, dxi)[:, None])
    anti[0] = -anti[1:].sum(axis=0)
    periodic = basis @ (anti * _lattice_matrix(offsets, 0.0, 0, top, L, dxi).T)
    return (periodic + np.add.outer(np.atleast_1d(x) - xi0, offsets) * coef[0]).real


def evolve_rows(env: nls.Envelope, coeffs: ReductionCoefficients, rows: int,
                n_min: int) -> EnvelopeEvolution:
    """The envelope's dense run (see nls.dense_dtau) far enough for lattice
    rows 0..rows-1 at N = n_min, counted from env.tau (row m sits at slow
    time env.tau + m/N^2), with a 1% margin; one row is a run of no steps.
    nls refuses a run over its step budget."""
    tau_final = env.tau + coeffs.tau(rows - 1, n_min) * 1.01
    c = coeffs.nls_coefficients()
    return nls.nls_evolve_dense(env, c, tau_final, nls.dense_dtau(env, c))


def _row_taus(evolution: EnvelopeEvolution, ms, N: int) -> np.ndarray:
    """Slow times of lattice rows ms, counted from the evolution's first
    stored time (row 0 sits at tau_min); they must lie in its range."""
    taus = evolution.tau_min + ReductionCoefficients.tau(ms, N)
    bad = np.flatnonzero((taus < evolution.tau_min - 1e-12) | (taus > evolution.tau_max + 1e-12))
    if len(bad):
        raise DomainError(
            f"slow time tau = {taus[bad[0]]} at lattice row m = {ms[bad[0]]} outside the "
            f"envelope evolution range [{evolution.tau_min}, {evolution.tau_max}]"
        )
    return taus


@dataclass
class AnsatzField:
    """Assembled multiscale ansatz on a lattice window, with its provenance:
    the envelope is evaluated over the modes |j| <= evolution.band."""

    N: int
    coeffs: ReductionCoefficients
    evolution: EnvelopeEvolution
    field: LatticeField

    def envelope_values(self, n, m) -> np.ndarray:
        """u1_1 at the slow coordinates of the lattice points (n[i], m[j]),
        shape (len(n), len(m)); a scalar m gives the 1-D array over n."""
        ms = np.atleast_1d(np.asarray(m, dtype=float))
        evolution = self.evolution
        taus = _row_taus(evolution, ms, self.N)
        spectra = evolution.spectra_at(taus)
        _check_spectra_resolved(spectra)
        lo, hi = _band(evolution.band, evolution.L)
        x = self.coeffs.xi(np.atleast_1d(n), 0, self.N)
        basis = _lattice_matrix(x, evolution.xi0, lo, hi, evolution.L, evolution.dxi)
        u1 = _series_values(spectra, lo, hi, basis, self.coeffs.xi(0, ms, self.N),
                            evolution.dxi)
        return u1[:, 0] if np.ndim(m) == 0 else u1


def assemble_ansatz(evolution: EnvelopeEvolution, coeffs: ReductionCoefficients,
                    N: int, window: tuple) -> AnsatzField:
    """Build the real lattice field of the truncated multiscale expansion.

    window = (n_size, m_size), n_size >= 2 and m_size >= 1; row m sits at
    slow time evolution.tau_min + m/N^2.  Slow coordinates must stay inside
    the stored tau range of the evolution (xi wraps periodically); violations
    raise with the offending (n, m).  The envelope and |u1_1|^2 must be
    spectrally resolved (PreconditionError otherwise).  A window whose
    lattice-point matrix or field would pass nls.MAX_STEP_POINTS entries is
    refused before either is allocated (nls.check_budget).

    u1_1 is evaluated as the Fourier series whose coefficients are the
    envelope's spectrum (EnvelopeEvolution.spectra_at, on the run's working
    grid of L' points), and |u1_1|^2 from the FFT of its grid values on twice
    that grid, or on the envelope's own grid if that is smaller, as a real
    series over j >= 0.  Every row shares one lattice-point matrix
    e^{i k (xi(n, 0) - xi0)}, k = 2 pi j / period, over j = -J..2J:
    J = evolution.band bounds the modes the stored step ends carry above
    round-off, u1_1 takes its columns |j| <= J and |u1_1|^2, whose band is
    twice as wide, its columns j = 0..2J (alias-free on 2L' points, as a run
    on L' < L keeps J < L'/2).  A row's xi offset enters as the factor
    e^{i k xi(0, m)} on the coefficients, so a block of rows is one matrix
    product per series.
    """
    n_size, m_size = window
    if n_size < 2 or m_size < 1:
        raise DomainError("window must be at least 2x1")
    if N < 1:
        raise DomainError("N must be a positive integer")
    kappa, omega = coeffs.carrier.kappa, coeffs.carrier.omega
    xi0, dxi, L = evolution.xi0, evolution.dxi, evolution.L
    J = evolution.band
    square = min(2 * L, evolution.envelope_L)             # |u1_1|^2's grid
    lo, hi = _band(J, L)                                  # u1_1: j = -lo..hi
    top = min(2 * J, square // 2)                         # |u1_1|^2: j = 0..top
    width = lo + max(lo, hi, top) + 1                     # _lattice_matrix's columns
    nls.check_budget(n_size * max(width, m_size),
                     f"the {n_size} x {m_size} ansatz window with {width} modes")
    ns = np.arange(n_size)
    ms = np.arange(m_size)
    x = coeffs.xi(ns, 0, N)
    taus = _row_taus(evolution, ms, N)
    basis = _lattice_matrix(x, xi0, lo, max(hi, top), L, dxi)
    basis1, basis0 = basis[:, :lo + hi + 1], basis[:, lo:lo + top + 1]
    carrier_n = np.exp(1j * kappa * ns)
    carrier_m = np.exp(-1j * omega * ms)
    out = np.empty((n_size, m_size), dtype=np.float64)
    for start in range(0, m_size, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, m_size))
        spectra = evolution.spectra_at(taus[rows])
        _check_spectra_resolved(spectra)
        offsets = coeffs.xi(0, ms[rows], N)
        u1 = _series_values(spectra, lo, hi, basis1, offsets, dxi)
        phase = np.outer(carrier_n, carrier_m[rows])
        values = np.fft.ifft(nls.resize_spectra(spectra, square), axis=1)
        amp2 = np.fft.fft(np.abs(values) ** 2, axis=1)
        _check_spectra_resolved(amp2, "|u1_1|^2")
        zeroth = _zeroth_values(amp2, top, basis0, x, offsets, xi0, dxi / (square // L))
        out[:, rows] = (2.0 * np.real(u1 * phase) / N + coeffs.tau1 * zeroth / N
                        + 2.0 * np.real(coeffs.tau2 * u1 ** 2 * phase ** 2) / N ** 2)
    return AnsatzField(N=N, coeffs=coeffs, evolution=evolution, field=LatticeField(out))


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
                     N_list, window: tuple) -> dict:
    """lpKdV residual of the assembled ansatz versus N, with a log-log fit.

    Residual norm: max over interior plaquettes excluding RESIDUAL_MARGIN
    near the window edges (boundary points lack full ansatz accuracy).
    Report matches the documented JSON schema {"N", "residual", "exponent",
    "fit_r2"}; every N is assembled over the one band of the evolution.
    """
    N_list = list(N_list)
    if len(N_list) < 3 or sorted(N_list) != N_list:
        raise DomainError("N_list must be ascending with at least 3 entries")
    with np.errstate(all="ignore"):  # the first residual that is not finite is refused
        residuals = [max_residual(assemble_ansatz(evolution, coeffs, N, window).field,
                                  coeffs.params, margin=RESIDUAL_MARGIN) for N in N_list]
    for N, r in zip(N_list, residuals):
        if not math.isfinite(r):
            raise NumericalError(f"ansatz residual {r} at N = {N} is not finite", {"N": N})
    if all(r == 0.0 for r in residuals):
        exponent, r2 = "exact", 1.0
    else:
        exponent, r2 = fit_scaling_exponent(N_list, residuals)
    return {"N": N_list, "residual": residuals, "exponent": exponent, "fit_r2": r2}
