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

(with its complex conjugate) on the stretched slow variable s = xi / M1, u1
an nls.Envelope on that grid.  zs_eigenvalues discretizes that coupled
system for (phi, conj(phi)) with the mixed boundary condition Re(phi) = 0 at
both ends (the image of lattice Dirichlet walls), one-sided second-order
derivative rows at the ends, fourth-order central stencils inside, as the
sparse matrix B = -i M (M psi = mu1 psi), real for a real potential; it
finds the eigenvalues in a disc by ARPACK shift-invert on B and keeps only
those that survive 2x and 3x refinements of the grid, the potential's
spectrum zero-padded.
"""

from __future__ import annotations

import math

import numpy as np

# scipy.linalg and scipy.sparse are imported in the functions that call their
# solvers: about 0.2 s of imports that only a process that solves should pay
from .errors import DomainError, NumericalError, PreconditionError, SingularPotentialError
from .nls import Envelope, resize_spectra
from .quad import LatticeField, LpkdvParams, check_denominators
from .reduction import ReductionCoefficients, assemble_ansatz, evolve_rows, zs_potential

BAND_EDGE_TOL = 1e-8          # |eigen_mu| > 2 + this counts as discrete spectrum
ISOSPECTRAL_RESIDUAL_TOL = 1e-9  # a field must solve the lpKdV this well for drift runs
EDGE_TOL = 1e-6               # potential deviation allowed within 5 columns of an edge
LIMIT_BRACKET = 10.0          # |N (eigen_mu - 2cos(kappa/2))| and |mu1| compared
ZS_DECAY_TOL = 1e-6           # |potential| allowed at both ends of a ZS interval
ZS_STABILITY_TOL = 1e-3       # refinement-movement threshold for kept eigenvalues
ZS_SHIFT = 0.1j               # shift-invert centre (in mu1) of the reduced eigen-solves
ZS_START_K = 40               # k of the first probe on the base grid
# an eigenvalue nearer the shift than this times the disc radius means the
# shift hit it: shift-invert then loses about radius/distance x round-off
ZS_SHIFT_GAP = 1e-6


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
    with np.errstate(all="ignore"):  # _coefficients refuses a non-finite a_n
        return 4 * np.float64(p) ** 2 / (first * second)


def _check_row(lattice: LatticeField, m: int) -> None:
    if not (0 <= m < lattice.m_size):
        raise DomainError(f"row m = {m} outside window")


def build_spectral_problem(lattice: LatticeField, params: LpkdvParams, m: int,
                           variant: str = "corrected") -> np.ndarray:
    """a_n from row m of the field, for the problem between Dirichlet walls;
    the stencil eats one column on the left and two on the right."""
    _check_row(lattice, m)
    return coefficient_row(lattice.values[:, m], params, variant)


def _operator_matrix(a: np.ndarray, periodic: bool) -> np.ndarray:
    L = len(a)
    M = np.zeros((L, L), dtype=complex if np.iscomplexobj(a) else float)
    idx = np.arange(L - 1)
    M[idx + 1, idx] = 1.0
    M[idx, idx + 1] = a[:-1]
    if periodic:
        M[0, L - 1] = 1.0
        M[L - 1, 0] = a[-1]
    return M


def _coefficients(a) -> tuple:
    """(a as an array, whether it is real and positive), refusing an array
    that is not 1D or has fewer than 8 entries, or a non-finite a_n by its n
    (NumericalError).  Real positive a_n between Dirichlet walls gauge to a
    symmetric tridiagonal operator with off-diagonals sqrt(a_n) (diagonal
    similarity d[n+1]/d[n] = a_n^(-1/2))."""
    a = np.asarray(a)
    if a.ndim != 1 or a.size < 8:
        raise DomainError(f"eigenvalues need a 1D coefficient array of size >= 8, "
                          f"got shape {a.shape}")
    n = int(np.argmin(np.isfinite(a)))  # the first non-finite a_n, if any
    if not np.isfinite(a[n]):
        raise NumericalError(f"a_n = {a[n]} at n = {n} is not finite", {"n": n})
    return a, (not np.iscomplexobj(a)) and bool(np.all(a > 0))


def eigenvalues(a: np.ndarray, periodic: bool = False) -> np.ndarray:
    """All eigenvalues of phi[n-1] + a_n phi[n+1] = eigen_mu phi[n] over the
    coefficients a (1D, at least 8 of them) between Dirichlet walls, or on a
    ring if periodic, sorted by real part.

    For Dirichlet walls and positive a_n the gauged symmetric tridiagonal
    operator (_coefficients) is solved with a symmetric solver; anything
    else, complex a_n included, goes to a dense general solver.
    """
    from scipy.linalg import eig, eigh_tridiagonal

    a, symmetric = _coefficients(a)
    try:
        if not periodic and symmetric:
            w = eigh_tridiagonal(np.zeros(a.size), np.sqrt(a[:-1]), eigvals_only=True)
            return np.sort(w.astype(complex))
        w = eig(_operator_matrix(a, periodic), right=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    return w[np.argsort(w.real)]


def bound_states(a: np.ndarray) -> np.ndarray:
    """Eigenvalues outside the free band [-2, 2] (discrete spectrum) between
    Dirichlet walls, sorted: those with |eigen_mu| > 2 + BAND_EDGE_TOL.

    For positive a_n only those are solved for: bisection with Sturm counts
    (LAPACK stebz) on the gauged symmetric tridiagonal operator over
    (-R, -(2 + BAND_EDGE_TOL)] and (2 + BAND_EDGE_TOL, R], with R = 2 max
    sqrt(a_n) + 3 beyond the Gershgorin bound and the band edge, costs O(n k)
    for k bound states instead of the O(n^2) of the full spectrum.  Complex
    or non-positive a_n take the full dense solve of eigenvalues.
    """
    from scipy.linalg import eigh_tridiagonal

    a, symmetric = _coefficients(a)
    edge = 2.0 + BAND_EDGE_TOL
    if not symmetric:
        w = eigenvalues(a)
        return w[np.abs(w) > edge]
    off = np.sqrt(a[:-1])
    reach = 2.0 * float(np.max(off)) + 3.0
    try:
        w = np.concatenate([eigh_tridiagonal(np.zeros(a.size), off, eigvals_only=True,
                                             select="v", select_range=interval)
                            for interval in ((-reach, -edge), (edge, reach))])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    return w[np.abs(w) > edge].astype(complex)  # stebz sorts each interval


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
    eigenvalue to its nearest partner.  Every m must be a row of the window
    (DomainError, checked before any row is read).

    Preconditions: the field solves the equation to ISOSPECTRAL_RESIDUAL_TOL,
    and each row's potential deviation from its edge values stays below
    EDGE_TOL within 5 columns of either edge (otherwise the window
    truncation, not the evolution, dominates the drift).
    """
    # looked up at call time, so a wrapper set on quad.max_residual (the
    # traced run's quad.residual span) sees this call; a module-level import
    # would bind the unwrapped function
    from .quad import max_residual

    m_list = list(m_list)
    if len(m_list) < 2:
        raise DomainError("m_list needs at least 2 rows")
    for m in m_list:
        _check_row(lattice, m)
    res = max_residual(lattice, params)
    if res > ISOSPECTRAL_RESIDUAL_TOL:
        raise PreconditionError(f"field residual {res:.3e} exceeds "
                                f"{ISOSPECTRAL_RESIDUAL_TOL:.0e}; not a solution")
    rows = lattice.values[:, m_list]
    left = np.max(np.abs(rows[:5] - rows[0]), axis=0)
    right = np.max(np.abs(rows[-5:] - rows[-1]), axis=0)
    edge = np.where(right > left, right, left)  # max(left, right) per row, NaN as max() has it
    for m, dev in zip(m_list, edge):
        if dev > EDGE_TOL:
            raise PreconditionError(f"row {m}: potential not confined to interior "
                                    f"(edge deviation {dev:.3e} > {EDGE_TOL:.0e})")
    spectra = [np.sort_complex(bound_states(coefficient_row(row, params, variant)))
               for row in rows.T]
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


def _derivative_matrix(L: int, h: float):
    """d/ds with one-sided 2nd-order end rows, 2nd-order next to them, and
    4th-order central stencils in the interior, as a scipy.sparse coo_matrix."""
    from scipy import sparse

    j = np.arange(2, L - 2)
    rows = [np.array([0, 0, 0, 1, 1, L - 2, L - 2, L - 1, L - 1, L - 1]),
            j, j, j, j]
    cols = [np.array([0, 1, 2, 0, 2, L - 3, L - 1, L - 3, L - 2, L - 1]),
            j - 2, j - 1, j + 1, j + 2]
    vals = [np.array([-3.0, 4.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -4.0, 3.0]) / (2 * h)]
    vals += [np.full(len(j), c / (12 * h)) for c in (1.0, -8.0, 8.0, -1.0)]
    return sparse.coo_matrix((np.concatenate(vals),
                              (np.concatenate(rows), np.concatenate(cols))), shape=(L, L))


def _zs_matrix(h: float, u: np.ndarray, kappa: float, p: float):
    """B = -i M, M psi = mu1 psi with the mixed walls Re(phi)=0 eliminated:
    every entry of M carries i/lam, of B 1/lam, so B is real for a real u.

    Unknowns: psi1 at all L nodes, psi2 at interior nodes (psi2 = conj(phi),
    stored at index L-1+j); the wall condition psi2 = -psi1 at both ends is
    substituted into the stencils.
    """
    from scipy import sparse

    L = len(u)
    lam = 1.0 / (2.0 * math.sin(kappa / 2.0))
    q = zs_potential(u, p, kappa)
    c1 = 1.0 / lam
    D = _derivative_matrix(L, h)
    walls, inner = np.array([0, L - 1]), np.arange(1, L - 1)
    # psi2 rows (interior nodes): mu1 psi2 = -(i/lam) (D psi2 + conj(q) psi1)
    sel = (D.row >= 1) & (D.row <= L - 2)
    r2, k2, d2 = D.row[sel], D.col[sel], D.data[sel]
    at_wall = (k2 == 0) | (k2 == L - 1)
    rows = [D.row, walls, inner, L - 1 + r2, L - 1 + inner]
    cols = [D.col, walls, L - 1 + inner, np.where(at_wall, k2, L - 1 + k2), inner]
    # psi1 rows: mu1 psi1 = (i/lam) (D psi1 + q psi2)
    vals = [c1 * D.data,
            -c1 * q[walls],                        # psi2 at wall = -psi1
            c1 * q[inner],
            np.where(at_wall, c1 * d2, -c1 * d2),  # psi2[wall] = -psi1[wall]
            -c1 * np.conj(q[inner])]
    size = 2 * L - 2
    return sparse.csc_matrix((np.concatenate(vals),
                              (np.concatenate(rows), np.concatenate(cols))), shape=(size, size))


def _zs_disc_eigenvalues(B, radius: float, k: int) -> tuple:
    """(w, ks): eigenvalues mu1 of the ZS matrix B = -i M (_zs_matrix)
    nearest ZS_SHIFT, among them every one with |mu1| <= radius, and the k
    of every ARPACK shift-invert call made, in order, the first one k, then
    "dense" if the dense solve ran.

    A call is enough once the farthest value returned lies outside
    |mu1 - shift| <= radius + |shift|, a disc that contains |mu1| <= radius.
    Otherwise k is sized from that call: the box-mode ladder is nearly
    uniform, so the count inside a disc grows like its radius, and
    k * reach / (farthest distance) + 2 values reach the disc's edge.  Once
    2k reaches the matrix size the whole spectrum is wanted and is taken
    from a dense solve.

    The solves run on B about -i ZS_SHIFT = ZS_SHIFT.imag (the shift is
    imaginary), each eigenvalue w giving mu1 = i w, at the same distance from
    the shift.  B is real for a real potential, and the ARPACK and dense
    solves run in real arithmetic with it.
    """
    from scipy.linalg import eig
    from scipy.sparse.linalg import eigs

    n = B.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n).astype(B.dtype)
    reach = radius + abs(ZS_SHIFT)
    ks = []
    while 2 * k < n:
        ks.append(k)
        try:
            w = 1j * eigs(B, k=k, sigma=ZS_SHIFT.imag, v0=v0, return_eigenvectors=False)
        except RuntimeError as exc:  # ARPACK non-convergence, or a singular LU
            raise NumericalError(f"shift-invert solve of the {n}x{n} ZS matrix failed: "
                                 f"{exc}", diagnostics={"size": n, "k": k}) from exc
        dist = np.abs(w - ZS_SHIFT)
        if dist.min() < ZS_SHIFT_GAP * reach:
            raise NumericalError(f"shift {ZS_SHIFT} hits an eigenvalue of the {n}x{n} ZS "
                                 f"matrix (distance {dist.min():.1e})",
                                 diagnostics={"size": n, "gap": float(dist.min())})
        if dist.max() > reach:
            return w, ks
        k = max(k + 1, math.ceil(k * reach / dist.max()) + 2)
    return 1j * eig(B.toarray(), right=False), ks + ["dense"]


def _refined_potential(u: np.ndarray, factor: int) -> np.ndarray:
    """u on the grid factor times finer over the same span: the first
    factor (L - 1) + 1 points of the inverse fft of its spectrum zero-padded
    to factor L modes (nls.resize_spectra); of a real u the real part."""
    L = len(u)
    fine = np.fft.ifft(resize_spectra(np.fft.fft(u), factor * L))[:factor * (L - 1) + 1]
    return fine.real if np.isrealobj(u) else fine


def zs_eigenvalues(zs: Envelope, kappa: float, p: float,
                   eigensolve: list | None = None) -> np.ndarray:
    """Refinement-stable eigenvalues mu1 with |mu1| <= LIMIT_BRACKET of the
    reduced problem at (kappa, p) on zs, the potential on >= 16 points of s.

    The problem is solved on the given grid and on 2x- and 3x-refined grids;
    eigenvalues are kept iff they move less than ZS_STABILITY_TOL under both
    refinements.  The refined potential is the given one's spectrum
    zero-padded to 2x or 3x the modes (_refined_potential), its Fourier
    series over the grid taken as periodic.  It decays below ZS_DECAY_TOL at
    both ends, so the periodic extension is smooth to that level and the
    interpolation is spectrally accurate.  A potential the grid resolves
    only coarsely is not refused: an eigenvalue its interpolation error
    moves by ZS_STABILITY_TOL or more fails the refinement test.

    Each solve is sparse ARPACK shift-invert about ZS_SHIFT (see
    _zs_disc_eigenvalues; real arithmetic for a real potential, whose refined
    ones are real too), which lies off the real axis: mu1 = 0 is an exact
    eigenvalue of the ZS matrix, so a zero shift would factor a singular
    matrix.  A shift that hits an eigenvalue raises NumericalError, as does
    ARPACK non-convergence.  The start vector is fixed (normal draws from
    seed 0), so results repeat bit for bit.  The base grid is solved on the
    disc |mu1| <= LIMIT_BRACKET with a first probe of ZS_START_K values, the
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
    u = zs.values
    if len(u) < 16:
        raise DomainError(f"the reduced problem needs at least 16 grid points, got {len(u)}")
    edge = max(abs(u[0]), abs(u[-1]))
    if edge >= ZS_DECAY_TOL:
        raise PreconditionError(f"potential must decay at both ends: |u| = {edge:.3e}")
    if not np.any(u):
        return np.zeros(0, dtype=complex)
    u = u if np.any(u.imag) else u.real  # keeps the refined potentials real
    eigensolve = [] if eigensolve is None else eigensolve
    B = _zs_matrix(zs.dxi, u, kappa, p)
    w, ks = _zs_disc_eigenvalues(B, LIMIT_BRACKET, ZS_START_K)
    kept = w[np.abs(w) <= LIMIT_BRACKET]
    eigensolve.append({"size": B.shape[0], "k": ks, "kept": len(kept)})
    for factor in (2, 3):
        if len(kept) == 0:
            break
        r = float(np.max(np.abs(kept))) + ZS_STABILITY_TOL
        k = int(np.sum(np.abs(w - ZS_SHIFT) <= r + abs(ZS_SHIFT))) + 2
        B = _zs_matrix(zs.dxi / factor, _refined_potential(u, factor), kappa, p)
        w, ks = _zs_disc_eigenvalues(B, r, k)
        kept = kept[np.abs(nearest_partners(w, kept) - kept) < ZS_STABILITY_TOL]
        eigensolve.append({"size": B.shape[0], "k": ks, "kept": len(kept)})
    return np.sort_complex(kept)


def band_edge_estimates(lattice: LatticeField, params: LpkdvParams, m: int,
                        kappa: float, N: int) -> np.ndarray:
    """Rescaled deviations N*(eigen_mu - 2cos(kappa/2)) of eigenvalues within
    LIMIT_BRACKET/N of the band reference."""
    w = eigenvalues(build_spectral_problem(lattice, params, m)).real
    ref = 2.0 * math.cos(kappa / 2.0)
    sel = np.abs(w - ref) <= LIMIT_BRACKET / N
    return np.sort(N * (w[sel] - ref))


def spectral_limit_check(envelope, coeffs: ReductionCoefficients, N_list) -> dict:
    """Compare rescaled lattice band-reference deviations with the reduced
    problem's spectrum, per N, at the envelope's own slow time.

    The reduced problem is posed on the grid values of the envelope (an
    nls.Envelope), so that a real envelope gives a real potential.  For each
    N a single-row ansatz field, row 0 at envelope.tau, is assembled over
    one envelope period from the zero-step run of reduction.evolve_rows
    (lattice row length ~ period*N/M1, chosen = 3 mod 4 so both Dirichlet
    walls impose the same reduced condition Re(phi) = 0), and the reduced
    problem is posed on the stretched grid s = xi/M1 so its mu1 eigenvalues
    are directly comparable.  Reported discrepancy per N is the mean
    distance from each lattice estimate to the nearest stable reduced
    eigenvalue; the expected trend is non-increasing in N.
    """
    N_list = list(N_list)
    if sorted(N_list) != N_list or len(N_list) < 2:
        raise DomainError("N_list must be ascending with at least 2 entries")
    kappa = coeffs.kappa
    # reduced problem on the stretched slow variable (downsample for speed)
    stride = max(1, envelope.L // 256)
    zs = Envelope(envelope.xi0 / coeffs.M1, envelope.dxi * stride / coeffs.M1,
                  envelope.values[::stride])
    row = evolve_rows(envelope, coeffs, 1, N_list[0])
    estimates = []  # every lattice row is sized and assembled before the ZS solve
    for N in N_list:
        # eigenproblem size (= row length - 3, the a_n stencil cost) chosen
        # = 3 mod 4 so both Dirichlet walls impose the same reduced condition
        size = int(round(envelope.period * N / coeffs.M1))
        size -= (size - 3) % 4
        ans = assemble_ansatz(row, coeffs, N, (size + 3, 1))
        estimates.append(band_edge_estimates(ans.field, coeffs.params, 0, kappa, N))
    eigensolve = []
    zs_window = zs_eigenvalues(zs, kappa, coeffs.params.p, eigensolve=eigensolve)

    def compare(est) -> tuple:  # (discrepancy, note)
        if len(est) == 0:
            return None, "no near-band-reference eigenvalue"
        if len(zs_window) == 0:
            return None, "no stable reduced eigenvalues"
        # compare only inside the range the reduced solver resolved
        resolved = est[np.abs(est) <= float(np.max(np.abs(zs_window))) * 1.001]
        if len(resolved) == 0:
            return None, "no estimate inside the resolved range"
        return float(np.mean(np.abs(nearest_partners(zs_window, resolved) - resolved))), ""

    discrepancy, notes = zip(*map(compare, estimates))
    return {"N": N_list, "estimates": [[float(v) for v in est] for est in estimates],
            "discrepancy": list(discrepancy), "notes": list(notes),
            "zs_eigenvalues": [[z.real, z.imag] for z in zs_window], "eigensolve": eigensolve}
