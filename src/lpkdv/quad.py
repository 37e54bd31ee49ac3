"""The lattice potential KdV quad equation.

Q(u; n, m) = mu*(u[n+1,m+1] - u[n,m]) + zeta*(u[n+1,m] - u[n,m+1])
             - (u[n+1,m] - u[n,m+1]) * (u[n+1,m+1] - u[n,m]) = 0,

with mu = p - q, zeta = p + q.  The equation is solvable for any corner of a
plaquette given the other three; the initial-value solver fills a rectangular
window from data on the first row and first column, sweeping anti-diagonals
n + m = d.  Points on one anti-diagonal are independent, so each is one
vectorized step, and the window is stored skewed, s[d, m] = u[d - m, m], so
that an anti-diagonal is one contiguous row slice.  The singular-corner and
non-finite checks run once over the filled window, after the sweep, with
floating-point warnings off during it; they report the first fault in sweep
order (smallest n + m, then smallest n), the fault the sweep would meet first
were it checked diagonal by diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SingularCornerError

CORNER_SINGULARITY_RTOL = 1e-12
DENOMINATOR_RTOL = 1e-10      # spectral brackets and flow denominators, relative to |p|


@dataclass(frozen=True)
class LpkdvParams:
    """Lattice parameters p, q with the derived mu = p - q and zeta = p + q."""

    p: float
    q: float

    def __post_init__(self):
        if self.p == self.q:
            raise DomainError("lpKdV parameters need p != q (mu would vanish)")
        if self.p == -self.q:
            raise DomainError("lpKdV parameters need p != -q (zeta would vanish)")

    @property
    def mu(self) -> float:
        return self.p - self.q

    @property
    def zeta(self) -> float:
        return self.p + self.q


class LatticeField:
    """Function on a rectangular (n, m) index window, stored dense row-major.

    kind is 'real' or 'complex' and tracks the dtype; a real field has exactly
    zero imaginary part by construction.
    """

    def __init__(self, values):
        arr = np.asarray(values)
        if arr.ndim != 2:
            raise DomainError(f"LatticeField needs a 2D array, got shape {arr.shape}")
        if np.iscomplexobj(arr):
            self.values = arr.astype(np.complex128)
        else:
            self.values = arr.astype(np.float64)

    @property
    def kind(self) -> str:
        return "complex" if np.iscomplexobj(self.values) else "real"

    @property
    def shape(self):
        return self.values.shape

    @property
    def n_size(self) -> int:
        return self.values.shape[0]

    @property
    def m_size(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other):
        if not isinstance(other, LatticeField):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.values, other.values)


def residual_field(field: LatticeField, params: LpkdvParams) -> np.ndarray:
    """Residual on every plaquette; shape (n_size-1, m_size-1)."""
    u = field.values
    w = u[1:, :-1] - u[:-1, 1:]
    v = u[1:, 1:] - u[:-1, :-1]
    return params.mu * v + params.zeta * w - w * v


def max_residual(field: LatticeField, params: LpkdvParams, margin: int = 0) -> float:
    """Max |residual| over interior plaquettes, excluding `margin` near each edge."""
    r = residual_field(field, params)
    if margin:
        if 2 * margin >= min(r.shape):
            raise DomainError(f"margin {margin} leaves no interior in shape {r.shape}")
        r = r[margin:-margin, margin:-margin]
    return float(np.max(np.abs(r)))


def evolve_ivp(row0, col0, params: LpkdvParams) -> LatticeField:
    """Fill the window from first-row (m=0) and first-column (n=0) data.

    The sweep is over anti-diagonals n + m = const; every interior point is a
    corner solve.  Deterministic: identical inputs give bit-identical fields.
    Raises SingularCornerError or NumericalError at the first singular
    corner or non-finite value in sweep order (smallest n + m, then smallest
    n), a singular corner first where both fall on one anti-diagonal.
    """
    row0 = np.asarray(row0)
    col0 = np.asarray(col0)
    if row0.ndim != 1 or col0.ndim != 1 or len(row0) < 2 or len(col0) < 2:
        raise DomainError("boundary data must be 1D with at least 2 points each")
    if row0[0] != col0[0]:
        raise DomainError(
            f"boundary corner mismatch: row0[0] = {row0[0]} vs col0[0] = {col0[0]}"
        )
    complex_data = np.iscomplexobj(row0) or np.iscomplexobj(col0)
    dtype = np.complex128 if complex_data else np.float64
    nn, mm = len(row0), len(col0)
    # skewed storage s[d, j] = u[d - j, j]: anti-diagonal d is row d, j ascending
    s = np.zeros((nn + mm - 1, mm), dtype=dtype)
    s[:nn, 0] = row0
    s[np.arange(mm), np.arange(mm)] = col0
    mu, zeta = params.mu, params.zeta
    with np.errstate(all="ignore"):
        for d in range(2, nn + mm - 1):
            lo, hi = max(1, d - nn + 1), min(mm - 1, d - 1) + 1
            w = s[d - 1, lo - 1:hi - 1] - s[d - 1, lo:hi]
            s[d, lo:hi] = s[d - 2, lo - 1:hi - 1] + zeta * w / (w - mu)
        u = np.lib.stride_tricks.as_strided(
            s, shape=(nn, mm), strides=(s.strides[0], s.strides[0] + s.strides[1])).copy()
        _check_sweep(u, mu)
    return LatticeField(u)


def _first_in_sweep(mask):
    """(n, m) of the first True interior point of `mask` (over u[1:, 1:]) in
    sweep order, or None."""
    n, m = np.nonzero(mask)
    if n.size == 0:
        return None
    k = int(np.argmin((n + m) * mask.shape[0] + n))
    return int(n[k]) + 1, int(m[k]) + 1


def _check_sweep(u, mu):
    """Raise at the first singular corner or non-finite value of the filled
    window u, in sweep order.  Points past the first fault hold whatever the
    sweep computed from it; only the earliest fault is reported."""
    thresh = CORNER_SINGULARITY_RTOL * (1.0 + abs(mu))
    singular = _first_in_sweep(np.abs(u[1:, :-1] - u[:-1, 1:] - mu) < thresh)
    non_finite = _first_in_sweep(~np.isfinite(u[1:, 1:]))
    if singular and (not non_finite or sum(singular) <= sum(non_finite)):
        raise SingularCornerError(f"singular corner at (n,m) = ({singular[0]},{singular[1]})",
                                  location=singular)
    if non_finite:
        raise NumericalError(f"non-finite value at (n,m) = ({non_finite[0]},{non_finite[1]})",
                             diagnostics={"location": non_finite})


def check_denominators(p: float, arrays, error, what: str, origin: int, **fields):
    """Raise `error` at the first entry of any of `arrays` with modulus
    <= DENOMINATOR_RTOL*|p|, located by its lattice index (n, or (n, m) for
    a 2-D array; n = origin + the index along axis 0)."""
    thresh = DENOMINATOR_RTOL * abs(p)
    for arr in arrays:
        bad = np.abs(arr) <= thresh
        if np.any(bad):
            loc = [int(v) for v in np.argwhere(bad)[0]]
            loc[0] += origin
            where = ", ".join(f"{k} = {v}" for k, v in zip("nm", loc))
            raise error(f"{what} below {thresh:.1e} at {where}",
                        location=loc[0] if len(loc) == 1 else tuple(loc), **fields)


def dispersion(params: LpkdvParams, kappa: float) -> float:
    """Dispersion relation omega(kappa) of the linearized lpKdV.

    omega = -2*arctan(((zeta+mu)/(zeta-mu)) * tan(kappa/2)); the linear part
    of the lattice equation vanishes identically on exp(i(kappa*n - omega*m)).
    """
    if not (0.0 < kappa < math.pi):
        raise DomainError(f"kappa must lie in (0, pi), got {kappa}")
    if kappa > math.pi - 1e-9:
        raise DomainError(f"kappa = {kappa} too close to pi (tangent blow-up)")
    denom = params.zeta - params.mu  # = 2q
    if abs(denom) < 1e-14 * (abs(params.zeta) + abs(params.mu)):
        raise DomainError("dispersion undefined: zeta - mu ~ 0 (q ~ 0)")
    ratio = (params.zeta + params.mu) / denom
    return -2.0 * math.atan(ratio * math.tan(kappa / 2.0))


# 7-point central differences of the first and second derivative, error O(h^6)
_FIRST_DIFFERENCE = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_SECOND_DIFFERENCE = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def dispersion_derivatives(params: LpkdvParams, kappa: float) -> tuple:
    """(omega', omega'', e1, e2): the first two derivatives of `dispersion`
    at kappa by 7-point central differences of step
    h = min(2e-3, kappa/4, (pi - kappa)/4), and a bound on each one's error:
    its change from step h to h/2 (the truncation) plus the round-off of
    4 eps in each value of omega and of its node, summed over the weights."""
    def differences(h):
        f = np.array([dispersion(params, kappa + i * h) for i in range(-3, 4)])
        return f @ _FIRST_DIFFERENCE / h, f @ _SECOND_DIFFERENCE / h ** 2, f

    h = min(2e-3, kappa / 4.0, (math.pi - kappa) / 4.0)
    (d1, d2, f), (half1, half2, _) = differences(h), differences(h / 2.0)
    noise = 4.0 * np.finfo(float).eps * (np.max(np.abs(f)) + abs(d1) * (kappa + 3.0 * h))
    return (d1, d2, abs(d1 - half1) + noise * np.sum(np.abs(_FIRST_DIFFERENCE)) / h,
            abs(d2 - half2) + noise * np.sum(np.abs(_SECOND_DIFFERENCE)) / h ** 2)


@dataclass(frozen=True)
class CarrierWave:
    """Carrier (kappa, omega) with omega pinned to the dispersion relation."""

    kappa: float
    omega: float

    @classmethod
    def for_params(cls, params: LpkdvParams, kappa: float) -> "CarrierWave":
        return cls(kappa=kappa, omega=dispersion(params, kappa))


def plane_wave_field(kappa: float, omega: float, n_size: int, m_size: int,
                     amplitude=1.0) -> LatticeField:
    """Sample amplitude * exp(i(kappa*n - omega*m)) on the window."""
    n = np.arange(n_size)[:, None]
    m = np.arange(m_size)[None, :]
    return LatticeField(amplitude * np.exp(1j * (kappa * n - omega * m)))


def linear_residual_max(params: LpkdvParams, kappa: float) -> float:
    """Max modulus of the linear lpKdV part applied to the exact plane wave
    on an 8x8 window."""
    f = plane_wave_field(kappa, dispersion(params, kappa), 8, 8)
    u = f.values
    lin = params.mu * (u[1:, 1:] - u[:-1, :-1]) + params.zeta * (u[1:, :-1] - u[:-1, 1:])
    return float(np.max(np.abs(lin)))
