import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg import eig

from lpkdv import spectral
from lpkdv.errors import (DomainError, NumericalError, PreconditionError,
                          SingularPotentialError)
from lpkdv.nls import Envelope, _check_spectra_resolved, gaussian_envelope
from lpkdv.quad import LatticeField, LpkdvParams
from lpkdv.spectral import (
    band_edge_estimates,
    bound_states,
    build_spectral_problem,
    coefficient_row,
    eigenvalues,
    isospectral_drift,
    nearest_partners,
    spectral_limit_check,
    zs_eigenvalues,
)
from tests.conftest import make_bump_solution

P15 = LpkdvParams(1.5, 0.5)
ZS_AT = (math.pi / 2, 1.5)  # (kappa, p) of the reduced problems below: ref_coeffs' carrier


class TestCoefficientRow:
    def test_zero_field_gives_free_operator(self):
        a = coefficient_row(np.zeros(20), P15)
        assert np.allclose(a, 1.0, atol=0.0)

    def test_constant_field_gives_free_operator(self):
        # the difference brackets are invariant under u -> u + const, like
        # the equation itself (the sum-bracket variant printed in some
        # sources is not; see the printed-variant tests below)
        a = coefficient_row(np.full(20, 0.7), P15)
        assert np.allclose(a, 1.0, atol=0.0)

    def test_printed_variant_constant_field(self):
        c = 0.4
        a = coefficient_row(np.full(20, c), P15, variant="printed")
        expect = 4 * P15.p ** 2 / (2 * P15.p - 2 * c) ** 2
        assert np.allclose(a, expect)

    def test_locality(self):
        u = np.zeros(30)
        base = coefficient_row(u, P15)
        u2 = u.copy()
        u2[12] = 0.3
        pert = coefficient_row(u2, P15)
        changed = np.nonzero(pert != base)[0] + 1  # a_n index offset
        # u at site s feeds a_n for n in [s-2, s+1]
        assert set(changed) == {10, 11, 12, 13}

    def test_singular_potential(self):
        u = np.zeros(12)
        u[6] = 2 * P15.p  # makes 2p - (u[n+1]-u[n-1]) vanish at n = 5
        with pytest.raises(SingularPotentialError):
            coefficient_row(u, P15)

    def test_row_too_short(self):
        with pytest.raises(DomainError):
            coefficient_row(np.zeros(3), P15)


class TestEigenvalues:
    def test_free_periodic_closed_form(self):
        L = 64
        w = np.sort(eigenvalues(np.ones(L), periodic=True).real)
        exact = np.sort(2 * np.cos(2 * np.pi * np.arange(L) / L))
        assert np.max(np.abs(w - exact)) < 1e-10

    def test_free_dirichlet_closed_form(self):
        L = 64
        w = np.sort(eigenvalues(np.ones(L)).real)
        exact = np.sort(2 * np.cos(np.pi * np.arange(1, L + 1) / (L + 1)))
        assert np.max(np.abs(w - exact)) < 1e-10

    def test_gauge_invariance(self):
        rng = np.random.default_rng(8)
        a = 1.0 + 0.5 * rng.random(48)
        sym = np.sort(eigenvalues(a).real)
        dense = np.sort(eigenvalues(a.astype(complex)).real)  # the dense general solver
        assert np.max(np.abs(sym - dense)) < 1e-10

    def test_free_spectrum_inside_band(self):
        w = eigenvalues(np.ones(64), periodic=True)
        assert np.all(np.abs(w) <= 2.0 + 1e-12)
        assert len(bound_states(np.ones(64))) == 0

    def test_size_minimum(self):
        with pytest.raises(DomainError):
            eigenvalues(np.ones(5))
        with pytest.raises(DomainError):
            bound_states(np.ones(5))
        with pytest.raises(DomainError):
            eigenvalues(np.ones((8, 8)))

    def test_build_from_field_row(self, bump_solution):
        field, params = bump_solution
        a = build_spectral_problem(field, params, 0)
        assert a.size == field.n_size - 3
        assert np.array_equal(a, coefficient_row(field.values[:, 0], params))

    @pytest.mark.parametrize("solve", [eigenvalues, bound_states,
                                       lambda a: eigenvalues(a, periodic=True)],
                             ids=["eigenvalues", "bound_states", "periodic"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_coefficient_named(self, solve, bad):
        """A NaN or infinite a_n is a NumericalError naming the first such n,
        where the solvers raised scipy's ValueError (infs or NaNs) or, for
        bisection, returned whatever stebz made of it."""
        a = np.ones(16, dtype=type(bad))
        a[11] = a[13] = bad
        with pytest.raises(NumericalError, match="at n = 11 is not finite") as info:
            solve(a)
        assert info.value.diagnostics == {"n": 11}

    def test_underflowing_brackets_give_non_finite_coefficients(self):
        """At p = 1e-300 both 4 p^2 and the bracket product underflow to 0,
        so a_n is 0/0: NaN, refused by the solvers, with no warning."""
        a = coefficient_row(np.zeros(20), LpkdvParams(1e-300, -0.5))
        assert np.isnan(a).any()
        with pytest.raises(NumericalError, match="is not finite"):
            bound_states(a)


def _band_filter(a):
    w = eigenvalues(a)
    return w[np.abs(w) > 2.0 + spectral.BAND_EDGE_TOL]


@pytest.fixture(scope="module")
def isospectral_windows():
    """The two bump windows of the isospectral subcommand's default config,
    with their lattice parameters."""
    small, params = make_bump_solution(n_size=200, center=100)
    return (small, make_bump_solution(n_size=400, center=100)[0]), params


class TestBoundStates:
    """bound_states solves only the eigenvalues outside the band (bisection
    for positive a_n); it must agree with filtering the full spectrum."""

    @staticmethod
    def assert_matches_full_filter(a):
        got, want = bound_states(a), np.sort_complex(_band_filter(a))
        assert len(got) == len(want)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
        return got

    @pytest.mark.parametrize("variant", ["corrected", "printed"])
    @pytest.mark.parametrize("m", [0, 5, 10])
    def test_isospectral_rows(self, isospectral_windows, m, variant):
        fields, params = isospectral_windows
        for field in fields:
            a = build_spectral_problem(field, params, m, variant)
            assert len(self.assert_matches_full_filter(a)) >= 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_positive_coefficients(self, seed):
        a = 0.5 + 2.0 * np.random.default_rng(seed).random(120)
        assert len(self.assert_matches_full_filter(a)) >= 10

    def test_free_operator_has_none(self):
        got = self.assert_matches_full_filter(np.ones(64))
        assert got.shape == (0,) and got.dtype == complex

    def test_full_solve_only_off_the_gauge(self, monkeypatch):
        calls = []
        full = spectral.eigenvalues
        monkeypatch.setattr(spectral, "eigenvalues", lambda a: calls.append(a) or full(a))
        a = np.ones(40)
        a[20:30] = 3.0
        self.assert_matches_full_filter(a)
        assert calls == []
        a[7] = -0.5
        assert len(self.assert_matches_full_filter(a)) >= 2
        assert len(calls) == 1


class TestIsospectral:
    def test_trivial_zero_field(self):
        f = LatticeField(np.zeros((40, 6)))
        rep = isospectral_drift(f, P15, [0, 2, 4])
        assert rep["max_drift"] == 0.0
        assert rep["note"] == "no discrete spectrum"

    def test_bound_states_conserved(self, bump_solution):
        field, params = bump_solution
        rep = isospectral_drift(field, params, list(range(11)))
        assert rep["bound_count"][0] >= 2
        assert rep["max_drift"] < 1e-3

    def test_drift_shrinks_with_window(self, bump_solution):
        field_small, params = bump_solution
        field_big, _ = make_bump_solution(n_size=400, center=200)
        small = isospectral_drift(field_small, params, list(range(11)))
        big = isospectral_drift(field_big, params, list(range(11)))
        assert small["max_drift"] / big["max_drift"] >= 2.0

    def test_printed_variant_is_not_isospectral(self, bump_solution):
        # negative control documenting the sum-bracket form of the source
        # text: its bound states drift thousands of times more
        field, params = bump_solution
        good = isospectral_drift(field, params, list(range(5)))
        bad = isospectral_drift(field, params, list(range(5)), variant="printed")
        assert bad["max_drift"] > 1e3 * good["max_drift"]

    @pytest.mark.parametrize("m", [11, -1])
    def test_row_outside_window(self, bump_solution, m):
        field, params = bump_solution
        with pytest.raises(DomainError, match=f"row m = {m} outside window"):
            isospectral_drift(field, params, [0, m])

    def test_residual_precondition(self):
        rng = np.random.default_rng(1)
        f = LatticeField(0.1 * rng.standard_normal((30, 6)))
        with pytest.raises(PreconditionError, match="residual"):
            isospectral_drift(f, LpkdvParams(1.5, -0.5), [0, 2])

    def test_ansatz_near_band_drift(self, ref_coeffs, ref_evolution):
        """Weak multiscale fields carry no discrete spectrum; the eigenvalues
        near the band reference still drift little across rows, and less at
        larger N (measured baselines 8.3e-3 / 4.1e-3 for N = 16 / 32; the
        ansatz is only an O(1/N^3) solution, so the drift is taken between
        the band-reference windows of band_edge_estimates, which has no
        solution gate)."""
        from lpkdv.reduction import assemble_ansatz

        params = ref_coeffs.params
        kappa = ref_coeffs.kappa
        drifts = {}
        for N in (16, 32):
            size = int(round(40.0 * N / ref_coeffs.M1))
            size -= (size - 3) % 4
            ans = assemble_ansatz(ref_evolution, ref_coeffs, N, (size + 3, 12))
            est = [band_edge_estimates(ans.field, params, m, kappa, N) for m in range(11)]
            drifts[N] = max(np.max(np.abs(nearest_partners(e, est[0]) - est[0]))
                            for e in est[1:]) / N
        assert drifts[32] <= drifts[16]
        assert drifts[32] <= 6e-3

    def test_confinement_precondition(self):
        # a tiny plane wave solves the equation to O(a^2) but oscillates all
        # the way to the window edges
        from lpkdv.quad import dispersion

        a = 1e-5
        n, m = np.arange(60)[:, None], np.arange(6)[None, :]
        f = LatticeField(a * np.exp(1j * (1.1 * n - dispersion(P15, 1.1) * m)))
        with pytest.raises(PreconditionError, match="confined"):
            isospectral_drift(f, P15, [0, 2])


@pytest.fixture(scope="module")
def zs_gaussian(ref_coeffs):
    x = np.linspace(0.0, 40.0, 200)
    return Envelope(0.0, x[1] / ref_coeffs.M1, np.exp(-((x - 12.0) / 1.25) ** 2 / 2))


class TestZsEigenvalues:
    @pytest.mark.parametrize("L", [256, 255])
    @pytest.mark.parametrize("factor", [2, 3])
    def test_refined_potential_matches_closed_form(self, L, factor):
        # the 2x/3x-refined potential of zs_eigenvalues, for a resolved
        # Gaussian times a plane wave on a periodic grid whose length is even
        # (Nyquist mode at j = -L/2) or odd (no Nyquist mode)
        xi0, dxi = -3.0, 40.0 / L
        x = xi0 + dxi * np.arange(L)
        x_fine = np.linspace(x[0], x[-1], factor * (L - 1) + 1)

        def closed_form(s):
            return np.exp(-((s - 12.0) / 1.25) ** 2 / 2 + 3j * s)

        got = spectral._refined_potential(closed_form(x), factor)
        assert got.shape == x_fine.shape
        assert np.max(np.abs(got - closed_form(x_fine))) <= 1e-12

    @pytest.mark.parametrize("L", [256, 255])
    def test_refined_real_potential_stays_real(self, L):
        # the Fourier series of real data is real, so the refined solves of
        # a real potential stay in real arithmetic
        xi0, dxi = -3.0, 40.0 / L
        u = np.exp(-((xi0 + dxi * np.arange(L) - 12.0) / 1.25) ** 2 / 2)
        got = spectral._refined_potential(u, 2)
        assert got.dtype == np.float64
        assert np.array_equal(got, spectral._refined_potential(u.astype(complex), 2).real)

    def test_zero_potential_empty(self, ref_coeffs):
        zs = Envelope(0.0, 40.0 / 127 / ref_coeffs.M1, np.zeros(128))
        assert len(zs_eigenvalues(zs, *ZS_AT)) == 0

    def test_gaussian_ladder(self, zs_gaussian):
        vals = zs_eigenvalues(zs_gaussian, *ZS_AT)
        assert len(vals) > 10
        assert np.max(np.abs(vals.imag)) < 1e-2

    def test_conjugation_symmetry(self, zs_gaussian):
        # spectrum closed under mu1 -> -conj(mu1)
        vals = zs_eigenvalues(zs_gaussian, *ZS_AT)
        win = vals[np.abs(vals) < 5]
        defect = max(np.min(np.abs(win - (-np.conj(v)))) for v in win)
        assert defect < 1e-8

    def test_negated_potential_spectrum(self, zs_gaussian, ref_coeffs):
        # on the infinite line (psi1, -psi2) maps the system for -u onto the
        # one for u, but the wall condition Re(phi) = 0 breaks that map (it
        # sends it to Im(phi) = 0), so the boxed ladders interleave instead
        # of coinciding; what survives is the mu1 -> -conj(mu1) closure and
        # the mode count
        flipped = dataclasses.replace(zs_gaussian, values=-zs_gaussian.values)
        a = zs_eigenvalues(zs_gaussian, *ZS_AT)
        b = zs_eigenvalues(flipped, *ZS_AT)
        a, b = a[np.abs(a) < 3], b[np.abs(b) < 3]
        assert len(a) == len(b) and len(a) > 10
        defect = max(np.min(np.abs(b - (-np.conj(v)))) for v in b)
        assert defect < 1e-8

    def test_coarsely_resolved_potential(self, ref_coeffs):
        # a width-0.3 envelope on the 1024-point NLS grid, taken every 4th
        # point as spectral_limit_check does: too coarse for the envelope
        # resolution check, but the refinement still solves it
        env = gaussian_envelope(1024, 0.0, 40.0, amplitude=1.0, width=0.3, center=12.0)
        u = env.values[::4]
        with pytest.raises(PreconditionError, match="resolved"):
            _check_spectra_resolved(np.fft.fft(u))
        zs = Envelope(env.xi0 / ref_coeffs.M1, 4 * env.dxi / ref_coeffs.M1, u)
        vals = zs_eigenvalues(zs, *ZS_AT)
        assert len(vals) > 10
        defect = max(np.min(np.abs(vals - (-np.conj(v)))) for v in vals)
        assert defect < 1e-8

    def test_decay_precondition(self):
        zs = Envelope(0.0, 10.0 / 63, np.full(64, 0.5))
        with pytest.raises(PreconditionError, match="decay"):
            zs_eigenvalues(zs, *ZS_AT)

    def test_short_grid_rejected(self):
        # 16 grid points are the least the stencils take; a zero potential
        # on them has no well-posed spectrum, so the result is empty
        assert len(zs_eigenvalues(Envelope(0.0, 0.1, np.zeros(16)), *ZS_AT)) == 0
        with pytest.raises(DomainError, match="at least 16 grid points, got 15"):
            zs_eigenvalues(Envelope(0.0, 0.1, np.zeros(15)), *ZS_AT)


def _loop_zs_matrix(h, u, kappa, p):
    """The ZS matrix built entry by entry on dense arrays: the reference for
    the vectorized sparse build."""
    L = len(u)
    D = np.zeros((L, L))
    D[0, :3] = np.array([-3.0, 4.0, -1.0]) / (2 * h)
    D[1, :3] = np.array([-1.0, 0.0, 1.0]) / (2 * h)
    for j in range(2, L - 2):
        D[j, j - 2:j + 3] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    D[L - 2, L - 3:] = np.array([-1.0, 0.0, 1.0]) / (2 * h)
    D[L - 1, L - 3:] = np.array([1.0, -4.0, 3.0]) / (2 * h)
    lam = 1.0 / (2.0 * math.sin(kappa / 2.0))
    q = (2.0 * u / p) * math.cos(kappa / 2.0) ** 2
    c1 = 1j / lam
    M = np.zeros((2 * L - 2, 2 * L - 2), dtype=complex)
    M[:L, :L] = c1 * D
    for j in range(L):
        if j == 0 or j == L - 1:
            M[j, j] += -c1 * q[j]
        else:
            M[j, L - 1 + j] = c1 * q[j]
    for j in range(1, L - 1):
        r = L - 1 + j
        for k in range(L):
            djk = D[j, k]
            if djk == 0.0:
                continue
            if k == 0 or k == L - 1:
                M[r, k] += c1 * djk
            else:
                M[r, L - 1 + k] += -c1 * djk
        M[r, j] += -c1 * np.conj(q[j])
    return D, M


def _dense_kept(zs, monkeypatch):
    """Kept set with every grid solved by dense eig of the same matrices
    B = -i M, each eigenvalue w giving mu1 = i w."""
    with monkeypatch.context() as mp:
        mp.setattr(spectral, "_zs_disc_eigenvalues",
                   lambda B, radius, k: (1j * eig(B.toarray(), right=False), ["dense"]))
        return zs_eigenvalues(zs, *ZS_AT)


def _phase_shifted(zs, phase):
    return dataclasses.replace(zs, values=zs.values * np.exp(1j * phase * zs.xi_grid))


def _spy(monkeypatch, owner, name, seen):
    """Record the name and matrix dtype of every call of owner.<name>; the
    spectral module imports its solvers when it calls them, so it sees the spy."""
    solver = getattr(owner, name)

    def spy(A, *args, **kwargs):
        seen.append((name, A.dtype))
        return solver(A, *args, **kwargs)
    monkeypatch.setattr(owner, name, spy)


@pytest.fixture(scope="module")
def zs_small(ref_coeffs):
    # 80 points on a 20-unit interval: the disc |mu1| <= 10 holds 70 of the
    # 158 base-grid eigenvalues, so a probe below 79 = 158/2 runs ARPACK
    x = np.linspace(0.0, 20.0, 80)
    return Envelope(0.0, x[1] / ref_coeffs.M1, np.exp(-((x - 10.0) / 1.25) ** 2 / 2))


@pytest.fixture(scope="module")
def zs_small_dense(zs_small):
    return _dense_kept(zs_small, pytest.MonkeyPatch())


class TestSparseZs:
    @pytest.mark.parametrize("phase", [0.0, 0.7])
    def test_matrix_matches_loop_build(self, zs_gaussian, phase):
        h = zs_gaussian.dxi
        u = _phase_shifted(zs_gaussian, phase).values
        D, M = _loop_zs_matrix(h, u, *ZS_AT)
        assert np.array_equal(spectral._derivative_matrix(len(u), h).toarray(), D)
        # _zs_matrix builds B = -i M
        assert np.array_equal(spectral._zs_matrix(h, u, *ZS_AT).toarray(), -1j * M)

    @pytest.mark.slow
    @pytest.mark.parametrize("amplitude", [1e-2, -1e-2, 1e-4, -1e-4])
    def test_dense_oracle_gaussian(self, zs_gaussian, amplitude, monkeypatch):
        zs = dataclasses.replace(zs_gaussian, values=amplitude * zs_gaussian.values)
        sparse_kept = zs_eigenvalues(zs, *ZS_AT)
        dense_kept = _dense_kept(zs, monkeypatch)
        assert len(sparse_kept) == len(dense_kept) > 0
        assert np.max(np.abs(sparse_kept - dense_kept)) <= 1e-9

    def test_dense_oracle_complex_potential(self, zs_small, monkeypatch):
        # a genuinely complex potential keeps the complex solves
        zs = _phase_shifted(zs_small, 0.7)
        sparse_kept = zs_eigenvalues(zs, *ZS_AT)
        dense_kept = _dense_kept(zs, monkeypatch)
        assert len(sparse_kept) == len(dense_kept) > 0
        assert np.max(np.abs(sparse_kept - dense_kept)) <= 1e-9

    @pytest.mark.parametrize("phase, dtype", [(0.0, np.float64), (0.7, np.complex128)])
    def test_arithmetic_follows_potential(self, zs_small, phase, dtype, monkeypatch):
        # a real potential reaches ARPACK and the dense solve as a real
        # matrix on every grid, a complex one as a complex matrix; a probe
        # of 79 values takes the dense solve on the base grid
        monkeypatch.setattr(spectral, "ZS_START_K", 79)
        seen = []
        for owner, name in ((scipy.sparse.linalg, "eigs"), (scipy.linalg, "eig")):
            _spy(monkeypatch, owner, name, seen)
        zs_eigenvalues(_phase_shifted(zs_small, phase), *ZS_AT)
        assert [name for name, _ in seen] == ["eig", "eigs", "eigs"]
        assert all(t == dtype for _, t in seen)

    @pytest.mark.slow
    def test_dense_oracle_evolved_envelope(self, ref_evolution, ref_coeffs, monkeypatch):
        # the tau_min snapshot, whose FFT round trip leaves round-off
        # imaginary parts: a near-real potential on the complex path
        evo = ref_evolution
        stride = evo.L // 256
        u = np.fft.ifft(evo.spectra_at([evo.tau_min]), axis=1)[0]
        zs = Envelope(evo.xi0 / ref_coeffs.M1, evo.dxi * stride / ref_coeffs.M1, u[::stride])
        sparse_kept = zs_eigenvalues(zs, *ZS_AT)
        dense_kept = _dense_kept(zs, monkeypatch)
        assert len(sparse_kept) == len(dense_kept) > 10
        assert np.max(np.abs(sparse_kept - dense_kept)) <= 1e-9

    @pytest.mark.parametrize("start_k", [1, 8, 40, 79])
    def test_kept_set_independent_of_probe(self, zs_small, zs_small_dense, start_k,
                                           monkeypatch):
        # 1 and 8 undershoot, so k is sized from the probe; 40 is the default
        # probe; 79 is half the base matrix size and takes the dense solve
        monkeypatch.setattr(spectral, "ZS_START_K", start_k)
        record = []
        kept = zs_eigenvalues(zs_small, *ZS_AT, eigensolve=record)
        base = record[0]
        assert base["size"] == 158
        assert base["k"][0] == ("dense" if start_k == 79 else start_k)
        assert len(kept) == len(zs_small_dense) > 0
        assert np.max(np.abs(kept - zs_small_dense)) <= 1e-9

    def test_shift_on_eigenvalue_rejected(self, zs_gaussian, monkeypatch):
        # mu1 = 0 is an exact eigenvalue of the ZS matrix
        monkeypatch.setattr(spectral, "ZS_SHIFT", 0.0)
        with pytest.raises(NumericalError, match="hits an eigenvalue"):
            zs_eigenvalues(zs_gaussian, *ZS_AT)


class TestSpectralLimit:
    def test_band_edge_estimates_free_ladder(self, ref_coeffs):
        # free field: rescaled deviations sit on the quantization ladder with
        # a rung pinned at zero when the problem size is 3 mod 4
        N, size = 32, 571
        f = LatticeField(np.zeros((size + 3, 2)))
        est = band_edge_estimates(f, P15, 0, math.pi / 2, N)
        assert np.min(np.abs(est)) < 1e-9

    def test_zero_envelope(self, ref_coeffs):
        env = gaussian_envelope(256, 0.0, 40.0, 0.0, 1.0, 20.0)
        rep = spectral_limit_check(env, ref_coeffs, [8, 16])
        assert all(d is None for d in rep["discrepancy"])
        assert len(rep["zs_eigenvalues"]) == 0

    def test_gaussian_run_poses_real_potential(self, ref_envelope, ref_coeffs, monkeypatch):
        # the reduced problem takes the envelope's own grid values, not a
        # step end of an NLS run, whose FFT round trip leaves round-off
        # imaginary parts: a Gaussian run is solved in real arithmetic
        posed = []
        monkeypatch.setattr(spectral, "zs_eigenvalues",
                            lambda zs, kappa, p, eigensolve:
                            posed.append((zs, kappa, p)) or np.zeros(0, dtype=complex))
        spectral_limit_check(ref_envelope, ref_coeffs, [16, 32])
        ((zs, kappa, p),) = posed
        assert (kappa, p) == (ref_coeffs.kappa, ref_coeffs.params.p) == ZS_AT
        assert not np.any(zs.values.imag)
        assert np.array_equal(zs.values, ref_envelope.values[::4])
        assert zs.dxi == 4 * ref_envelope.dxi / ref_coeffs.M1

    def test_single_row_matches_row_0(self, ref_evolution, ref_envelope, ref_coeffs,
                                      monkeypatch):
        # the lattice row comes from a zero-step run of the envelope, and its
        # estimates are row 0 of a two-row window over a longer run
        from lpkdv.reduction import assemble_ansatz

        monkeypatch.setattr(spectral, "zs_eigenvalues",
                            lambda zs, kappa, p, eigensolve: np.zeros(0, dtype=complex))
        rep = spectral_limit_check(ref_envelope, ref_coeffs, [16, 32, 64])
        for N, est in zip(rep["N"], rep["estimates"]):
            size = int(round(ref_envelope.period * N / ref_coeffs.M1))
            size -= (size - 3) % 4
            two = assemble_ansatz(ref_evolution, ref_coeffs, N, (size + 3, 2))
            ref = band_edge_estimates(two.field, ref_coeffs.params, 0,
                                      ref_coeffs.kappa, N)
            assert len(est) == len(ref) > 10
            assert np.max(np.abs(np.array(est) - ref)) <= 1e-12 * np.max(np.abs(ref))
