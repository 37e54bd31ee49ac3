"""Discrete Schroedinger spectral problem of the lpKdV and its slow-variable limit.

The n-part of the linear problem is

    phi[n-1] + a_n phi[n+1] = eigen_mu * phi[n],
    a_n = 4 p^2 / ((2p - (u[n+1] - u[n-1])) * (2p - (u[n+2] - u[n]))),

with the spectral parameter named eigen_mu throughout (the lattice parameter
mu = p - q is a different object).  The difference form of the brackets makes
a_n invariant under u -> u + const, exactly like the equation itself, and is
what isospectrality under m-evolution selects numerically; the sum form that
appears in some sources is kept as variant="printed" for comparison and is
demonstrably not conserved.

For small multiscale fields the eigenvalues near the band reference
2 cos(kappa/2) deviate by O(1/N); rescaled by N they converge to the spectrum
of the reduced Zakharov-Shabat-type system

    d(phi)/ds + (2 u1 / p) cos^2(kappa/2) conj(phi)
        = -(i mu1 / (2 sin(kappa/2))) phi

(together with its complex conjugate), posed on the stretched slow variable
s = xi / M1.  zs_eigenvalues discretizes that coupled system for (phi,
conj(phi)) with the mixed boundary condition Re(phi) = 0 at both ends (the
image of lattice Dirichlet walls), one-sided second-order derivative rows at
the ends, fourth-order central stencils inside, as a sparse matrix; it
finds the eigenvalues in a disc by ARPACK shift-invert and keeps only those
that survive 2x and 3x grid refinements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.interpolate import CubicSpline
from scipy.linalg import eig, eigh_tridiagonal
from scipy.sparse.linalg import eigs

from .errors import DomainError, NumericalError, PreconditionError, SingularPotentialError
from .quad import LatticeField, LpkdvParams
from .reduction import ReductionCoefficients, assemble_ansatz

BAND_EDGE_TOL = 1e-8          # |eigen_mu| > 2 + this counts as discrete spectrum
DENOMINATOR_RTOL = 1e-10
ZS_STABILITY_TOL = 1e-3       # refinement-movement threshold for kept eigenvalues
ZS_SHIFT = 0.1j               # shift-invert centre of the reduced eigen-solves
ZS_START_K = 40               # eigenvalues first asked for on the base grid
# an eigenvalue nearer the shift than this times the disc radius means the
# shift hit it: shift-invert then loses about radius/distance x round-off
ZS_SHIFT_GAP = 1e-6


@dataclass(frozen=True)
class SpectralProblem:
    """Coefficients a_n over a contiguous index range, plus boundary treatment."""

    a: np.ndarray
    boundary: str  # "dirichlet" | "periodic"
    n_min: int = 0

    def __post_init__(self):
        a = np.asarray(self.a)
        if a.ndim != 1 or len(a) < 1:
            raise DomainError("SpectralProblem needs a 1D coefficient array")
        if self.boundary not in ("dirichlet", "periodic"):
            raise DomainError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(self, "a", a)

    @property
    def size(self) -> int:
        return len(self.a)


def coefficient_row(u_row: np.ndarray, params: LpkdvParams,
                    variant: str = "corrected") -> np.ndarray:
    """a_n from one field row; needs u at n-1 .. n+2, so len(out) = len(row) - 3.

    variant="corrected" uses difference brackets (translation-invariant,
    isospectral); variant="printed" uses the sum brackets of the source text
    (kept as a negative control).
    """
    u = np.asarray(u_row)
    if len(u) < 4:
        raise DomainError("row too short: a_n needs u at n-1..n+2")
    p = params.p
    if variant == "corrected":
        first = 2 * p - (u[2:-1] - u[:-3])   # 2p - (u[n+1] - u[n-1])
        second = 2 * p - (u[3:] - u[1:-2])   # 2p - (u[n+2] - u[n])
    elif variant == "printed":
        first = 2 * p - (u[3:] + u[1:-2])
        second = 2 * p - (u[2:-1] + u[:-3])
    else:
        raise DomainError(f"unknown variant {variant!r}")
    thresh = DENOMINATOR_RTOL * abs(p)
    for name, arr in (("first", first), ("second", second)):
        bad = np.abs(arr) <= thresh
        if np.any(bad):
            k = int(np.argmax(bad))
            raise SingularPotentialError(
                f"vanishing {name} bracket at n = {k + 1}", location=k + 1
            )
    return 4 * p ** 2 / (first * second)


def build_spectral_problem(lattice: LatticeField, params: LpkdvParams, m: int,
                           boundary: str = "dirichlet",
                           variant: str = "corrected") -> SpectralProblem:
    """a_n from row m of the field; the stencil eats one column on the left
    and two on the right."""
    if not (0 <= m < lattice.m_size):
        raise DomainError(f"row m = {m} outside window")
    row = lattice.values[:, m]
    if np.iscomplexobj(row) and np.max(np.abs(row.imag)) == 0.0:
        row = row.real
    return SpectralProblem(coefficient_row(row, params, variant), boundary, n_min=1)


def _operator_matrix(sp: SpectralProblem) -> np.ndarray:
    L = sp.size
    M = np.zeros((L, L), dtype=complex if np.iscomplexobj(sp.a) else float)
    idx = np.arange(L - 1)
    M[idx + 1, idx] = 1.0
    M[idx, idx + 1] = sp.a[:-1]
    if sp.boundary == "periodic":
        M[0, L - 1] = 1.0
        M[L - 1, 0] = sp.a[-1]
    return M


def eigenvalues(sp: SpectralProblem, dense: bool = False) -> np.ndarray:
    """All eigenvalues of phi[n-1] + a_n phi[n+1] = eigen_mu phi[n], sorted by
    real part.

    For Dirichlet walls and positive a_n the operator is gauge-equivalent to a
    symmetric tridiagonal one with off-diagonals sqrt(a_n) (diagonal
    similarity d[n+1]/d[n] = a_n^(-1/2)), solved with a symmetric solver;
    anything else goes to a dense general solver.
    """
    if sp.size < 8:
        raise DomainError(f"problem size {sp.size} < 8")
    real_positive = (not np.iscomplexobj(sp.a)) and bool(np.all(sp.a > 0))
    try:
        if sp.boundary == "dirichlet" and real_positive and not dense:
            w = eigh_tridiagonal(np.zeros(sp.size), np.sqrt(sp.a[:-1]), eigvals_only=True)
            return np.sort(w.astype(complex))
        w = eig(_operator_matrix(sp), right=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    return w[np.argsort(w.real)]


def bound_states(sp: SpectralProblem) -> np.ndarray:
    """Eigenvalues outside the free band [-2, 2] (discrete spectrum)."""
    w = eigenvalues(sp)
    return w[np.abs(w) > 2.0 + BAND_EDGE_TOL]


def _matched_drift(reference: np.ndarray, other: np.ndarray) -> float:
    """Max distance from each reference eigenvalue to its nearest partner."""
    if len(reference) == 0:
        return 0.0
    if len(other) == 0:
        return math.inf
    return float(max(np.min(np.abs(other - z)) for z in reference))


def isospectral_drift(lattice: LatticeField, params: LpkdvParams, m_list,
                      residual_tol: float = 1e-9, edge_tol: float = 1e-6,
                      variant: str = "corrected", track: str = "bound",
                      kappa: float | None = None, N: int | None = None,
                      bracket: float = 10.0) -> dict:
    """Eigenvalue drift across rows of an lpKdV solution.

    With track="bound" (default) the discrete spectrum outside [-2, 2] is
    followed; track="near_band" instead follows the eigenvalues within
    bracket/N of the carrier band reference 2 cos(kappa/2), which is the
    relevant window for weak multiscale fields (those carry no discrete
    spectrum at all).

    Preconditions: the field solves the equation to residual_tol, and each
    row's potential deviation from its edge values stays below edge_tol
    within 5 columns of either edge (otherwise the window truncation, not the
    evolution, dominates the drift).
    """
    from .quad import max_residual

    m_list = list(m_list)
    if len(m_list) < 2:
        raise DomainError("m_list needs at least 2 rows")
    if track not in ("bound", "near_band"):
        raise DomainError(f"unknown tracking mode {track!r}")
    if track == "near_band" and (kappa is None or N is None):
        raise DomainError("near_band tracking needs kappa and N")
    res = max_residual(lattice, params)
    if res > residual_tol:
        raise PreconditionError(
            f"field residual {res:.3e} exceeds {residual_tol:.0e}; not a solution"
        )
    vals = lattice.values
    for m in m_list:
        row = np.abs(vals[:, m] - vals[0, m]), np.abs(vals[:, m] - vals[-1, m])
        left = float(np.max(row[0][:5]))
        right = float(np.max(row[1][-5:]))
        if max(left, right) > edge_tol:
            raise PreconditionError(
                f"row {m}: potential not confined to interior "
                f"(edge deviation {max(left, right):.3e} > {edge_tol:.0e})"
            )
    spectra = []
    ref = 2.0 * math.cos(kappa / 2.0) if kappa is not None else None
    for m in m_list:
        sp = build_spectral_problem(lattice, params, m, "dirichlet", variant)
        if track == "bound":
            spectra.append(np.sort_complex(bound_states(sp)))
        else:
            w = eigenvalues(sp).real
            spectra.append(np.sort(w[np.abs(w - ref) <= bracket / N]).astype(complex))
    base = spectra[0]
    drifts = [_matched_drift(base, s) for s in spectra[1:]]
    report = {
        "m": m_list,
        "track": track,
        "bound_count": [len(s) for s in spectra],
        "reference_states": [[z.real, z.imag] for z in base],
        "drift": drifts,
        "max_drift": max(drifts) if drifts else 0.0,
    }
    if len(base) == 0:
        report["note"] = "no discrete spectrum"
    return report


def third_harmonic(phi1: complex, u1: complex, kappa: float) -> complex:
    """Third-harmonic eigenfunction coefficient reconstructed from the first."""
    if kappa == 0.0 or abs(cmath.exp(1j * kappa) - 1.0) < 1e-14:
        raise DomainError("kappa = 0: third-harmonic denominator vanishes")
    E = cmath.exp(1j * kappa)
    return (E ** 2 + E) / (1.0 - E) * u1 * phi1


@dataclass(frozen=True)
class ZsProblem:
    """Reduced (Zakharov-Shabat-type) problem on a finite open interval.

    xi_grid must be uniform; the potential has to decay at both ends for
    eigenvalue runs.
    """

    xi_grid: np.ndarray
    potential: np.ndarray
    kappa: float
    p: float
    decay_tol: float = field(default=1e-6)

    def __post_init__(self):
        x = np.asarray(self.xi_grid, dtype=float)
        u = np.asarray(self.potential, dtype=complex)
        if x.ndim != 1 or len(x) < 16 or u.shape != x.shape:
            raise DomainError("ZsProblem needs matching 1D grids, length >= 16")
        steps = np.diff(x)
        if not np.allclose(steps, steps[0], rtol=1e-10, atol=0.0):
            raise DomainError("ZsProblem grid must be uniform")
        object.__setattr__(self, "xi_grid", x)
        object.__setattr__(self, "potential", u)

    def check_decay(self):
        edge = max(abs(self.potential[0]), abs(self.potential[-1]))
        if edge >= self.decay_tol:
            raise PreconditionError(
                f"potential must decay at both ends: |u| = {edge:.3e}"
            )


def _derivative_matrix(L: int, h: float) -> sparse.coo_matrix:
    """d/ds with one-sided 2nd-order end rows, 2nd-order next to them, and
    4th-order central stencils in the interior."""
    j = np.arange(2, L - 2)
    rows = [np.array([0, 0, 0, 1, 1, L - 2, L - 2, L - 1, L - 1, L - 1]),
            j, j, j, j]
    cols = [np.array([0, 1, 2, 0, 2, L - 3, L - 1, L - 3, L - 2, L - 1]),
            j - 2, j - 1, j + 1, j + 2]
    vals = [np.array([-3.0, 4.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -4.0, 3.0]) / (2 * h)]
    vals += [np.full(len(j), c / (12 * h)) for c in (1.0, -8.0, 8.0, -1.0)]
    return sparse.coo_matrix((np.concatenate(vals),
                              (np.concatenate(rows), np.concatenate(cols))), shape=(L, L))


def _zs_matrix(x: np.ndarray, u: np.ndarray, kappa: float, p: float) -> sparse.csc_matrix:
    """Eigenproblem matrix for mu1 with the mixed walls Re(phi)=0 eliminated.

    Unknowns: psi1 at all L nodes, psi2 at interior nodes (psi2 = conj(phi),
    stored at index L-1+j); the wall condition psi2 = -psi1 at both ends is
    substituted into the stencils.
    """
    L = len(x)
    h = float(x[1] - x[0])
    lam = 1.0 / (2.0 * math.sin(kappa / 2.0))
    q = (2.0 * u / p) * math.cos(kappa / 2.0) ** 2
    c1 = 1j / lam
    D = _derivative_matrix(L, h)
    walls, inner = np.array([0, L - 1]), np.arange(1, L - 1)
    # psi2 rows (interior nodes): mu1 psi2 = -c1 (D psi2 + conj(q) psi1)
    sel = (D.row >= 1) & (D.row <= L - 2)
    r2, k2, d2 = D.row[sel], D.col[sel], D.data[sel]
    at_wall = (k2 == 0) | (k2 == L - 1)
    rows = [D.row, walls, inner, L - 1 + r2, L - 1 + inner]
    cols = [D.col, walls, L - 1 + inner, np.where(at_wall, k2, L - 1 + k2), inner]
    vals = [c1 * D.data,                           # psi1 rows: mu1 psi1 = c1 (D psi1 + q psi2)
            -c1 * q[walls],                        # psi2 at wall = -psi1
            c1 * q[inner],
            np.where(at_wall, c1 * d2, -c1 * d2),  # psi2[wall] = -psi1[wall]
            -c1 * np.conj(q[inner])]
    size = 2 * L - 2
    return sparse.csc_matrix((np.concatenate(vals),
                              (np.concatenate(rows), np.concatenate(cols))), shape=(size, size))


def _zs_disc_eigenvalues(x, u, kappa, p, radius: float, k: int) -> np.ndarray:
    """Eigenvalues of the ZS matrix nearest ZS_SHIFT, among them every one
    with |mu1| <= radius.

    ARPACK shift-invert starts with k values and doubles k until the
    farthest one returned lies outside |mu1 - shift| <= radius + |shift|, a
    disc that contains |mu1| <= radius.  Once 2k reaches the matrix size the
    whole spectrum is wanted and is taken from a dense solve.
    """
    M = _zs_matrix(np.asarray(x, float), np.asarray(u, complex), kappa, p)
    n = M.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
    reach = radius + abs(ZS_SHIFT)
    while 2 * k < n:
        try:
            w = eigs(M, k=k, sigma=ZS_SHIFT, v0=v0, return_eigenvectors=False)
        except RuntimeError as exc:  # ARPACK non-convergence, or a singular LU
            raise NumericalError(f"shift-invert solve of the {n}x{n} ZS matrix failed: "
                                 f"{exc}", diagnostics={"size": n, "k": k}) from exc
        dist = np.abs(w - ZS_SHIFT)
        if dist.min() < ZS_SHIFT_GAP * reach:
            raise NumericalError(f"shift {ZS_SHIFT} hits an eigenvalue of the {n}x{n} ZS "
                                 f"matrix (distance {dist.min():.1e})",
                                 diagnostics={"size": n, "gap": float(dist.min())})
        if dist.max() > reach:
            return w
        k *= 2
    return eig(M.toarray(), right=False)


def zs_eigenvalues(zs: ZsProblem, radius: float = 10.0,
                   stability_tol: float = ZS_STABILITY_TOL) -> np.ndarray:
    """Refinement-stable eigenvalues mu1 with |mu1| <= radius of the reduced
    spectral problem.

    The problem is solved on the given grid and on 2x- and 3x-refined grids
    (cubic spline of the potential); eigenvalues are kept iff they move less
    than stability_tol under both refinements.  Each solve is sparse ARPACK
    shift-invert about ZS_SHIFT (see _zs_disc_eigenvalues), which lies off
    the real axis: mu1 = 0 is an exact eigenvalue of the ZS matrix, so a
    zero shift would factor a singular matrix.  A shift that hits an
    eigenvalue raises NumericalError, as does ARPACK non-convergence.  The
    start vector is fixed (normal draws from seed 0), so results repeat
    bit for bit.  The base grid is solved on the disc |mu1| <= radius, the
    refined ones only on |mu1| <= max|kept| + stability_tol, starting from
    as many eigenvalues as are still kept.

    A potential that vanishes identically gives an empty result: the two
    components decouple into first-derivative operators (the psi1 one with
    no boundary condition at all), which have no well-posed spectrum.  Their
    eigenvalue 0 is 4-fold defective; its round-off cluster has |mu1| below
    stability_tol, so whether it survives the refinements would depend on
    round-off, not on the problem.
    """
    zs.check_decay()
    x, u = zs.xi_grid, zs.potential
    if not np.any(u):
        return np.zeros(0, dtype=complex)
    kept = _zs_disc_eigenvalues(x, u, zs.kappa, zs.p, radius, ZS_START_K)
    kept = kept[np.abs(kept) <= radius]
    spl_re = CubicSpline(x, u.real)
    spl_im = CubicSpline(x, u.imag)
    for factor in (2, 3):
        if len(kept) == 0:
            break
        x_fine = np.linspace(x[0], x[-1], factor * (len(x) - 1) + 1)
        u_fine = spl_re(x_fine) + 1j * spl_im(x_fine)
        fine = _zs_disc_eigenvalues(x_fine, u_fine, zs.kappa, zs.p,
                                    float(np.max(np.abs(kept))) + stability_tol, len(kept))
        moved = np.min(np.abs(fine[None, :] - kept[:, None]), axis=1)
        kept = kept[moved < stability_tol]
    return np.sort_complex(kept)


def band_edge_estimates(lattice: LatticeField, params: LpkdvParams, m: int,
                        kappa: float, N: int, bracket: float = 10.0,
                        variant: str = "corrected") -> np.ndarray:
    """Rescaled deviations N*(eigen_mu - 2cos(kappa/2)) of eigenvalues within
    bracket/N of the band reference."""
    sp = build_spectral_problem(lattice, params, m, "dirichlet", variant)
    w = eigenvalues(sp).real
    ref = 2.0 * math.cos(kappa / 2.0)
    sel = np.abs(w - ref) <= bracket / N
    return np.sort(N * (w[sel] - ref))


def spectral_limit_check(evolution, coeffs: ReductionCoefficients, N_list,
                         bracket: float = 10.0) -> dict:
    """Compare rescaled lattice band-reference deviations with the reduced
    problem's spectrum, per N.

    For each N a single-row ansatz field is assembled over one envelope
    period (lattice row length ~ period*N/M1, chosen = 3 mod 4 so both
    Dirichlet walls impose the same reduced condition Re(phi) = 0), and the
    reduced problem is posed on the stretched grid s = xi/M1 so its mu1
    eigenvalues are directly comparable.  Reported discrepancy per N is the
    mean distance from each lattice estimate to the nearest stable reduced
    eigenvalue; the expected trend is non-increasing in N.
    """
    N_list = list(N_list)
    if sorted(N_list) != N_list or len(N_list) < 2:
        raise DomainError("N_list must be ascending with at least 2 entries")
    kappa = coeffs.carrier.kappa
    period = evolution.period
    # reduced problem on the stretched slow variable (downsample for speed)
    env0 = evolution.value_at(evolution.tau_min)
    stride = max(1, evolution.L // 256)
    xs = (evolution.xi0 + evolution.dxi * np.arange(evolution.L))[::stride]
    zs = ZsProblem(xs / coeffs.M1, env0[::stride], kappa, coeffs.params.p)
    zs_window = zs_eigenvalues(zs, bracket)

    out = {"N": N_list, "estimates": [], "discrepancy": [], "notes": [],
           "zs_eigenvalues": [[z.real, z.imag] for z in zs_window]}
    for N in N_list:
        # eigenproblem size (= row length - 3, the a_n stencil cost) chosen
        # = 3 mod 4 so both Dirichlet walls impose the same reduced condition
        size = int(round(period * N / coeffs.M1))
        size -= (size - 3) % 4
        ans = assemble_ansatz(evolution, coeffs, N, (size + 3, 2))
        est = band_edge_estimates(ans.field, coeffs.params, 0, kappa, N, bracket)
        out["estimates"].append([float(v) for v in est])
        if len(est) == 0:
            out["discrepancy"].append(None)
            out["notes"].append("no near-band-reference eigenvalue")
            continue
        if len(zs_window) == 0:
            out["discrepancy"].append(None)
            out["notes"].append("no stable reduced eigenvalues")
            continue
        # compare only inside the range the reduced solver resolved
        resolved = est[np.abs(est) <= float(np.max(np.abs(zs_window))) * 1.001]
        if len(resolved) == 0:
            out["discrepancy"].append(None)
            out["notes"].append("no estimate inside the resolved range")
            continue
        d = [float(np.min(np.abs(zs_window - v))) for v in resolved]
        out["discrepancy"].append(float(np.mean(d)))
        out["notes"].append("")
    return out
