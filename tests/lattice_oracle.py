"""Per-element reference versions of the lattice layers: the test oracles
for the package's initial-value sweep and field CSV writer.

`evolve_ivp_diagonals` fills the window one anti-diagonal n + m = d at a
time through fancy indexing, checking each diagonal for singular corners
before its solve and for non-finite values after it, so the first error it
raises is the first in sweep order (smallest n + m, then smallest n).
`save_field_csv_rows` writes one `csv.writer` row per lattice point: n, m
and the real part, then the imaginary part for a complex field.
"""

from __future__ import annotations

import csv

import numpy as np

from lpkdv.errors import DomainError, NumericalError, SingularCornerError
from lpkdv.quad import CORNER_SINGULARITY_RTOL, LatticeField, LpkdvParams


def evolve_ivp_diagonals(row0, col0, params: LpkdvParams) -> LatticeField:
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


def save_field_csv_rows(field: LatticeField, path) -> None:
    complex_field = field.kind == "complex"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "re", "im"] if complex_field else ["n", "m", "re"])
        vals = np.asarray(field.values, dtype=np.complex128)
        for n in range(field.n_size):
            for m in range(field.m_size):
                z = vals[n, m]
                parts = [z.real, z.imag] if complex_field else [z.real]
                writer.writerow([n, m] + [repr(float(x)) for x in parts])
