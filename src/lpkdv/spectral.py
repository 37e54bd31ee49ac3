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
that survive 2x and 3x grid refinements of the potential's Fourier series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eig, eigh_tridiagonal
from scipy.sparse.linalg import eigs

from .errors import DomainError, NumericalError, PreconditionError, SingularPotentialError
from .quad import LatticeField, LpkdvParams, check_denominators
from .reduction import ReductionCoefficients, assemble_ansatz, fourier_resample

BAND_EDGE_TOL = 1e-8          # |eigen_mu| > 2 + this counts as discrete spectrum
ISOSPECTRAL_RESIDUAL_TOL = 1e-9  # a field must solve the lpKdV this well for drift runs
EDGE_TOL = 1e-6               # potential deviation allowed within 5 columns of an edge
LIMIT_BRACKET = 10.0          # |N (eigen_mu - 2cos(kappa/2))| and |mu1| compared
ZS_DECAY_TOL = 1e-6           # |potential| allowed at both ends of a ZS interval
ZS_STABILITY_TOL = 1e-3       # refinement-movement threshold for kept eigenvalues
ZS_SHIFT = 0.1j               # shift-invert centre of the reduced eigen-solves
ZS_START_K = 40               # k of the first probe on the base grid
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
    check_denominators(p, (first, second), SingularPotentialError, "a_n bracket", 1)
    return 4 * p ** 2 / (first * second)


def build_spectral_problem(lattice: LatticeField, params: LpkdvParams, m: int,
                           variant: str = "corrected") -> SpectralProblem:
    """a_n from row m of the field between Dirichlet walls; the stencil eats
    one column on the left and two on the right."""
    if not (0 <= m < lattice.m_size):
        raise DomainError(f"row m = {m} outside window")
    row = lattice.values[:, m]
    if np.iscomplexobj(row) and np.max(np.abs(row.imag)) == 0.0:
        row = row.real
    return SpectralProblem(coefficient_row(row, params, variant), "dirichlet", n_min=1)


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


def nearest_partners(pool, values) -> np.ndarray:
    """For each of `values` the nearest element of `pool` (the first one on a
    tie); inf for every value if the pool is empty."""
    pool, values = np.asarray(pool), np.asarray(values)
    if len(pool) == 0:
        return np.full(len(values), np.inf)
    return pool[np.argmin(np.abs(pool[None, :] - values[:, None]), axis=1)]


def isospectral_drift(lattice: LatticeField, params: LpkdvParams, m_list,
                      variant: str = "corrected") -> dict:
    """Drift of the discrete spectrum (the eigenvalues outside [-2, 2]) across
    rows of an lpKdV solution: per row, the largest distance from a row-0
    eigenvalue to its nearest partner.

    Preconditions: the field solves the equation to ISOSPECTRAL_RESIDUAL_TOL,
    and each row's potential deviation from its edge values stays below
    EDGE_TOL within 5 columns of either edge (otherwise the window
    truncation, not the evolution, dominates the drift).
    """
    from .quad import max_residual

    m_list = list(m_list)
    if len(m_list) < 2:
        raise DomainError("m_list needs at least 2 rows")
    res = max_residual(lattice, params)
    if res > ISOSPECTRAL_RESIDUAL_TOL:
        raise PreconditionError(f"field residual {res:.3e} exceeds "
                                f"{ISOSPECTRAL_RESIDUAL_TOL:.0e}; not a solution")
    vals = lattice.values
    for m in m_list:
        row = np.abs(vals[:, m] - vals[0, m]), np.abs(vals[:, m] - vals[-1, m])
        left = float(np.max(row[0][:5]))
        right = float(np.max(row[1][-5:]))
        if max(left, right) > EDGE_TOL:
            raise PreconditionError(
                f"row {m}: potential not confined to interior "
                f"(edge deviation {max(left, right):.3e} > {EDGE_TOL:.0e})"
            )
    spectra = [np.sort_complex(bound_states(build_spectral_problem(lattice, params, m, variant)))
               for m in m_list]
    base = spectra[0]
    drifts = [float(np.max(np.abs(nearest_partners(s, base) - base), initial=0.0))
              for s in spectra[1:]]
    report = {
        "m": m_list,
        "bound_count": [len(s) for s in spectra],
        "reference_states": [[z.real, z.imag] for z in base],
        "drift": drifts,
        "max_drift": max(drifts),
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

    xi_grid must be uniform; the potential has to decay below ZS_DECAY_TOL
    at both ends for eigenvalue runs.
    """

    xi_grid: np.ndarray
    potential: np.ndarray
    kappa: float
    p: float

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
        if edge >= ZS_DECAY_TOL:
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


def _zs_disc_eigenvalues(x, u, kappa, p, radius: float, ks: list) -> np.ndarray:
    """Eigenvalues of the ZS matrix nearest ZS_SHIFT, among them every one
    with |mu1| <= radius.

    ks holds one entry, the k of the first ARPACK shift-invert call; on
    return it lists the k of every call made, in order, then "dense" if the
    dense solve ran.
    A call is enough once the farthest value returned lies outside
    |mu1 - shift| <= radius + |shift|, a disc that contains |mu1| <= radius.
    Otherwise k is sized from that call: the box-mode ladder is nearly
    uniform, so the count inside a disc grows like its radius, and
    k * reach / (farthest distance) + 2 values reach the disc's edge.  Once
    2k reaches the matrix size the whole spectrum is wanted and is taken
    from a dense solve.
    """
    M = _zs_matrix(np.asarray(x, float), np.asarray(u, complex), kappa, p)
    n = M.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
    reach = radius + abs(ZS_SHIFT)
    k = ks.pop()
    while 2 * k < n:
        ks.append(k)
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
        k = max(k + 1, math.ceil(k * reach / dist.max()) + 2)
    ks.append("dense")
    return eig(M.toarray(), right=False)


def zs_eigenvalues(zs: ZsProblem, radius: float = LIMIT_BRACKET,
                   eigensolve: list | None = None) -> np.ndarray:
    """Refinement-stable eigenvalues mu1 with |mu1| <= radius of the reduced
    spectral problem.

    The problem is solved on the given grid and on 2x- and 3x-refined grids;
    eigenvalues are kept iff they move less than ZS_STABILITY_TOL under both
    refinements.  The refined potential is the Fourier series of the given
    one, taken as periodic over the grid: it decays below ZS_DECAY_TOL at
    both ends, so the periodic extension is smooth to that level and the
    interpolation is spectrally accurate.  A potential the grid resolves
    only coarsely is not refused: an eigenvalue its interpolation error
    moves by ZS_STABILITY_TOL or more fails the refinement test.

    Each solve is sparse ARPACK shift-invert about ZS_SHIFT (see
    _zs_disc_eigenvalues), which lies off the real axis: mu1 = 0 is an exact
    eigenvalue of the ZS matrix, so a zero shift would factor a singular
    matrix.  A shift that hits an eigenvalue raises NumericalError, as does
    ARPACK non-convergence.  The start vector is fixed (normal draws from
    seed 0), so results repeat bit for bit.  The base grid is solved on the
    disc |mu1| <= radius with a first probe of ZS_START_K values, the
    refined ones only on |mu1| <= max|kept| + ZS_STABILITY_TOL, each asking
    first for 2 more values than the previous grid returned inside that
    disc: refinement moves the ladder only slightly, so one call usually
    suffices.

    eigensolve, if given, gets one {size, k, kept} per grid solved: the ZS
    matrix size, the k of each ARPACK call (then "dense" if the dense solve
    ran) and the number of eigenvalues still kept after that grid.

    A potential that vanishes identically gives an empty result: the two
    components decouple into first-derivative operators (the psi1 one with
    no boundary condition at all), which have no well-posed spectrum.  Their
    eigenvalue 0 is 4-fold defective; its round-off cluster has |mu1| below
    ZS_STABILITY_TOL, so whether it survives the refinements would depend on
    round-off, not on the problem.
    """
    zs.check_decay()
    x, u = zs.xi_grid, zs.potential
    if not np.any(u):
        return np.zeros(0, dtype=complex)
    eigensolve = [] if eigensolve is None else eigensolve
    ks = [ZS_START_K]
    w = _zs_disc_eigenvalues(x, u, zs.kappa, zs.p, radius, ks)
    kept = w[np.abs(w) <= radius]
    eigensolve.append({"size": 2 * len(x) - 2, "k": ks, "kept": len(kept)})
    for factor in (2, 3):
        if len(kept) == 0:
            break
        x_fine = np.linspace(x[0], x[-1], factor * (len(x) - 1) + 1)
        r = float(np.max(np.abs(kept))) + ZS_STABILITY_TOL
        ks = [int(np.sum(np.abs(w - ZS_SHIFT) <= r + abs(ZS_SHIFT))) + 2]
        u_fine = fourier_resample(u, x[0], x[1] - x[0], x_fine)
        w = _zs_disc_eigenvalues(x_fine, u_fine, zs.kappa, zs.p, r, ks)
        kept = kept[np.abs(nearest_partners(w, kept) - kept) < ZS_STABILITY_TOL]
        eigensolve.append({"size": 2 * len(x_fine) - 2, "k": ks, "kept": len(kept)})
    return np.sort_complex(kept)


def band_edge_estimates(lattice: LatticeField, params: LpkdvParams, m: int,
                        kappa: float, N: int) -> np.ndarray:
    """Rescaled deviations N*(eigen_mu - 2cos(kappa/2)) of eigenvalues within
    LIMIT_BRACKET/N of the band reference."""
    sp = build_spectral_problem(lattice, params, m)
    w = eigenvalues(sp).real
    ref = 2.0 * math.cos(kappa / 2.0)
    sel = np.abs(w - ref) <= LIMIT_BRACKET / N
    return np.sort(N * (w[sel] - ref))


def spectral_limit_check(evolution, coeffs: ReductionCoefficients, N_list) -> dict:
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
    eigensolve = []
    zs_window = zs_eigenvalues(zs, eigensolve=eigensolve)

    out = {"N": N_list, "estimates": [], "discrepancy": [], "notes": [],
           "zs_eigenvalues": [[z.real, z.imag] for z in zs_window],
           "eigensolve": eigensolve}
    for N in N_list:
        # eigenproblem size (= row length - 3, the a_n stencil cost) chosen
        # = 3 mod 4 so both Dirichlet walls impose the same reduced condition
        size = int(round(period * N / coeffs.M1))
        size -= (size - 3) % 4
        ans = assemble_ansatz(evolution, coeffs, N, (size + 3, 2))
        est = band_edge_estimates(ans.field, coeffs.params, 0, kappa, N)
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
        d = np.abs(nearest_partners(zs_window, resolved) - resolved)
        out["discrepancy"].append(float(np.mean(d)))
        out["notes"].append("")
    return out
