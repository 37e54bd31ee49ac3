"""The lattice potential KdV quad equation.

Q(u; n, m) = mu*(u[n+1,m+1] - u[n,m]) + zeta*(u[n+1,m] - u[n,m+1])
             - (u[n+1,m] - u[n,m+1]) * (u[n+1,m+1] - u[n,m]) = 0,

with mu = p - q, zeta = p + q.  The equation is solvable for any corner of a
plaquette given the other three; the initial-value solver fills a rectangular
window from data on the first row and first column, sweeping anti-diagonals
n + m = d.  Points on one anti-diagonal are independent, so each is one
vectorized step, written into the window in place: point (n, m) is entry
n * m_size + m of the flat array, so an anti-diagonal is one slice of stride
m_size - 1.  One pass over the filled window after the sweep, in row blocks
and with floating-point warnings off, reports the first singular corner or
non-finite value in sweep order (smallest n + m, a singular corner first on
a tie, then smallest n), the fault a diagonal-by-diagonal check would meet.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, SingularCornerError

CORNER_SINGULARITY_RTOL = 1e-12
DENOMINATOR_RTOL = 1e-10      # spectral brackets and flow denominators, relative to |p|
_CHECK_BLOCK_POINTS = 1 << 14  # points of the filled window checked at once


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
    zero imaginary part by construction.  A float64 or complex128 array is held
    as given, not copied: hand over an owned array, not a view of a larger one.
    """

    def __init__(self, values):
        arr = np.asarray(values)
        if arr.ndim != 2:
            raise DomainError(f"LatticeField needs a 2D array, got shape {arr.shape}")
        self.values = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64,
                                 copy=False)

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
    u = np.zeros((nn, mm), dtype=dtype)
    u[:, 0], u[0, :] = row0, col0
    flat, mu, zeta = u.reshape(-1), params.mu, params.zeta
    # seen from the flat index of its corner (n - 1, m - 1), point (n, m) lies
    # mm + 1 entries on, and its neighbours (n, m - 1) and (n - 1, m) mm and 1
    corner, here, left, below = flat, flat[mm + 1:], flat[mm:], flat[1:]
    with np.errstate(all="ignore"):
        for d in range(2, nn + mm - 1):
            # anti-diagonal d, n ascending, as one slice of stride mm - 1
            lo, hi = max(1, d - nn + 1), min(mm - 1, d - 1)
            diagonal = slice((d - hi - 1) * mm + hi - 1, (d - lo - 1) * mm + lo, mm - 1)
            w = left[diagonal] - below[diagonal]
            here[diagonal] = corner[diagonal] + zeta * w / (w - mu)
        _check_sweep(u, mu)
    return LatticeField(u)


def _check_sweep(u, mu):
    """Raise at the first singular corner or non-finite value of the filled
    window u in sweep order, the least key (n + m, kind, n), kind 0 for a
    singular corner and 1 for a non-finite value, from one pass over row
    blocks of about _CHECK_BLOCK_POINTS points.  Points past the first fault
    hold whatever the sweep computed from it."""
    thresh = CORNER_SINGULARITY_RTOL * (1.0 + abs(mu))
    nn, mm = u.shape
    rows, faults = max(1, _CHECK_BLOCK_POINTS // mm), []
    for a in range(0, nn - 1, rows):
        b = u[a:min(a + rows, nn - 1) + 1]
        for kind, mask in enumerate((np.abs(b[1:, :-1] - b[:-1, 1:] - mu) < thresh,
                                     ~np.isfinite(b[1:, 1:]))):
            n, m = np.nonzero(mask)
            if n.size:
                k = int(np.argmin((n + m) * nn + n))
                faults.append((a + int(n[k] + m[k]) + 2, kind, a + int(n[k]) + 1))
    if faults:
        d, kind, n = min(faults)
        where = f"at (n,m) = ({n},{d - n})"
        if kind:
            raise NumericalError("non-finite value " + where, diagnostics={"location": (n, d - n)})
        raise SingularCornerError("singular corner " + where, location=(n, d - n))


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


def _ratio_and_tangent(params: LpkdvParams, kappa: float) -> tuple:
    """(r, t) = ((zeta+mu)/(zeta-mu), tan(kappa/2)), the factors of the
    dispersion relation; kappa outside (0, pi - 1e-9] and q ~ 0 are refused."""
    if not (0.0 < kappa < math.pi):
        raise DomainError(f"kappa must lie in (0, pi), got {kappa}")
    if kappa > math.pi - 1e-9:
        raise DomainError(f"kappa = {kappa} too close to pi (tangent blow-up)")
    denom = params.zeta - params.mu  # = 2q
    if abs(denom) < 1e-14 * (abs(params.zeta) + abs(params.mu)):
        raise DomainError("dispersion undefined: zeta - mu ~ 0 (q ~ 0)")
    return (params.zeta + params.mu) / denom, math.tan(kappa / 2.0)


def dispersion(params: LpkdvParams, kappa: float) -> float:
    """Dispersion relation omega(kappa) of the linearized lpKdV.

    omega = -2*arctan(((zeta+mu)/(zeta-mu)) * tan(kappa/2)); the linear part
    of the lattice equation vanishes identically on exp(i(kappa*n - omega*m)).
    """
    ratio, t = _ratio_and_tangent(params, kappa)
    return -2.0 * math.atan(ratio * t)


def dispersion_derivatives(params: LpkdvParams, kappa: float) -> tuple:
    """(omega', omega''), the exact derivatives of `dispersion` = -2 atan(r t):
    omega' = -r (1 + t^2) / (1 + r^2 t^2) and omega'' = omega' (1 - r^2) t /
    (1 + r^2 t^2), 1 - r^2 = -4 zeta mu / (zeta - mu)^2.  Unlike the equal
    sin(omega) / sin(kappa) and omega' (cos(omega) - cos(kappa)) / sin(kappa),
    they lose no digit as kappa -> 0 or pi."""
    ratio, t = _ratio_and_tangent(params, kappa)
    zeta, mu = params.zeta, params.mu
    spread = 1.0 + (ratio * t) ** 2
    first = -ratio * (1.0 + t * t) / spread
    return first, first * (-4.0 * zeta * mu / (zeta - mu) ** 2) * t / spread


def linear_residual_max(params: LpkdvParams, kappa: float) -> float:
    """|mu (e^(i(kappa - omega)) - 1) + zeta (e^(i kappa) - e^(-i omega))|, omega
    = dispersion(params, kappa): the linear lpKdV part on every plaquette of
    the plane wave exp(i(kappa n - omega m)) is the wave times this symbol."""
    omega = dispersion(params, kappa)
    return abs(params.mu * (cmath.exp(1j * (kappa - omega)) - 1.0)
               + params.zeta * (cmath.exp(1j * kappa) - cmath.exp(-1j * omega)))
