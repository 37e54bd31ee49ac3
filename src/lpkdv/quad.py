"""The lattice potential KdV quad equation.

Q(u; n, m) = mu*(u[n+1,m+1] - u[n,m]) + zeta*(u[n+1,m] - u[n,m+1])
             - (u[n+1,m] - u[n,m+1]) * (u[n+1,m+1] - u[n,m]) = 0,

with mu = p - q, zeta = p + q.  The equation is solvable for any corner of a
plaquette given the other three; the initial-value solver fills a rectangular
window from data on the first row and first column, sweeping anti-diagonals
(points on one anti-diagonal are independent, so the sweep is vectorized and
its result does not depend on intra-diagonal order).
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


def quad_residual(field: LatticeField, params: LpkdvParams, n: int, m: int):
    """Pointwise lpKdV residual at the plaquette with lower-left corner (n, m)."""
    u = field.values
    if not (0 <= n < field.n_size - 1 and 0 <= m < field.m_size - 1):
        raise IndexError(
            f"plaquette ({n},{m}) outside window "
            f"[0,{field.n_size - 1}]x[0,{field.m_size - 1}]"
        )
    w = u[n + 1, m] - u[n, m + 1]
    v = u[n + 1, m + 1] - u[n, m]
    return params.mu * v + params.zeta * w - w * v


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


def corner_solve(params: LpkdvParams, u00, u10, u01):
    """Solve the quad equation for u11 given the other three corners.

    Singular when w = u10 - u01 approaches mu; below the relative threshold
    this raises rather than returning a huge value.
    """
    w = u10 - u01
    if abs(w - params.mu) < CORNER_SINGULARITY_RTOL * (1.0 + abs(params.mu)):
        raise SingularCornerError(
            f"singular corner: |w - mu| = {abs(w - params.mu):.3e} with w = {w}"
        )
    return u00 + params.zeta * w / (w - params.mu)


def evolve_ivp(row0, col0, params: LpkdvParams) -> LatticeField:
    """Fill the window from first-row (m=0) and first-column (n=0) data.

    The sweep is over anti-diagonals n + m = const; every interior point is a
    corner solve.  Deterministic: identical inputs give bit-identical fields.
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
    u = np.zeros((nn, mm), dtype=dtype)
    u[:, 0] = row0
    u[0, :] = col0
    mu, zeta = params.mu, params.zeta
    thresh = CORNER_SINGULARITY_RTOL * (1.0 + abs(mu))
    for d in range(2, nn + mm - 1):
        i_lo = max(1, d - mm + 1)
        i_hi = min(nn - 1, d - 1)
        if i_lo > i_hi:
            continue
        i = np.arange(i_lo, i_hi + 1)
        j = d - i
        w = u[i, j - 1] - u[i - 1, j]
        bad = np.abs(w - mu) < thresh
        if np.any(bad):
            k = int(np.argmax(bad))
            raise SingularCornerError(
                f"singular corner at (n,m) = ({i[k]},{j[k]})",
                location=(int(i[k]), int(j[k])),
            )
        u[i, j] = u[i - 1, j - 1] + zeta * w / (w - mu)
        if not np.all(np.isfinite(u[i, j])):
            k = int(np.argmax(~np.isfinite(u[i, j])))
            raise NumericalError(
                f"non-finite value at (n,m) = ({i[k]},{j[k]})",
                diagnostics={"location": (int(i[k]), int(j[k]))},
            )
    return LatticeField(u)


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
