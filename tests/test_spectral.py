import math

import numpy as np
import pytest
from scipy.linalg import eig

from lpkdv import spectral
from lpkdv.errors import (DomainError, NumericalError, PreconditionError,
                          SingularPotentialError)
from lpkdv.nls import _check_resolved, gaussian_envelope
from lpkdv.quad import LatticeField, LpkdvParams
from lpkdv.reduction import fourier_resample
from lpkdv.spectral import (
    SpectralProblem,
    ZsProblem,
    band_edge_estimates,
    bound_states,
    build_spectral_problem,
    coefficient_row,
    eigenvalues,
    isospectral_drift,
    nearest_partners,
    spectral_limit_check,
    third_harmonic,
    zs_eigenvalues,
)
from tests.conftest import make_bump_solution

P15 = LpkdvParams(1.5, 0.5)


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
        w = np.sort(eigenvalues(SpectralProblem(np.ones(L), "periodic")).real)
        exact = np.sort(2 * np.cos(2 * np.pi * np.arange(L) / L))
        assert np.max(np.abs(w - exact)) < 1e-10

    def test_free_dirichlet_closed_form(self):
        L = 64
        w = np.sort(eigenvalues(SpectralProblem(np.ones(L), "dirichlet")).real)
        exact = np.sort(2 * np.cos(np.pi * np.arange(1, L + 1) / (L + 1)))
        assert np.max(np.abs(w - exact)) < 1e-10

    def test_gauge_invariance(self):
        rng = np.random.default_rng(8)
        a = 1.0 + 0.5 * rng.random(48)
        prob = SpectralProblem(a, "dirichlet")
        sym = np.sort(eigenvalues(prob).real)
        dense = np.sort(eigenvalues(prob, dense=True).real)
        assert np.max(np.abs(sym - dense)) < 1e-10

    def test_free_spectrum_inside_band(self):
        w = eigenvalues(SpectralProblem(np.ones(64), "periodic"))
        assert np.all(np.abs(w) <= 2.0 + 1e-12)
        assert len(bound_states(SpectralProblem(np.ones(64), "periodic"))) == 0

    def test_size_minimum(self):
        with pytest.raises(DomainError):
            eigenvalues(SpectralProblem(np.ones(5), "dirichlet"))

    def test_build_from_field_row(self, bump_solution):
        field, params = bump_solution
        sp = build_spectral_problem(field, params, 0)
        assert sp.size == field.n_size - 3
        assert sp.n_min == 1


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
        kappa = ref_coeffs.carrier.kappa
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
        from lpkdv.quad import dispersion, plane_wave_field

        a = 1e-5
        f = plane_wave_field(1.1, dispersion(P15, 1.1), 60, 6, amplitude=a)
        with pytest.raises(PreconditionError, match="confined"):
            isospectral_drift(f, P15, [0, 2])


class TestThirdHarmonic:
    def test_zero_potential(self):
        assert third_harmonic(1.0, 0.0, math.pi / 2) == 0.0

    def test_reference_value(self):
        # (e^{i pi} + e^{i pi/2})/(1 - e^{i pi/2}) = (-1+i)/(1-i) = -1
        got = third_harmonic(1.0, 1.0, math.pi / 2)
        assert abs(got - (-1.0)) < 1e-12

    def test_linearity(self):
        one = third_harmonic(0.7 + 0.1j, 0.5, 1.1)
        two = third_harmonic(0.7 + 0.1j, 1.0, 1.1)
        assert abs(two - 2 * one) < 1e-12

    def test_kappa_zero_rejected(self):
        with pytest.raises(DomainError):
            third_harmonic(1.0, 1.0, 0.0)


@pytest.fixture(scope="module")
def zs_gaussian(ref_coeffs):
    x = np.linspace(0.0, 40.0, 200)
    u = np.exp(-((x - 12.0) / 1.25) ** 2 / 2).astype(complex)
    return ZsProblem(x / ref_coeffs.M1, u, ref_coeffs.carrier.kappa, 1.5)


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

        got = fourier_resample(closed_form(x), xi0, dxi, x_fine)
        assert np.max(np.abs(got - closed_form(x_fine))) <= 1e-12

    def test_zero_potential_empty(self, ref_coeffs):
        x = np.linspace(0.0, 40.0, 128) / ref_coeffs.M1
        zs = ZsProblem(x, np.zeros(128, dtype=complex),
                       ref_coeffs.carrier.kappa, 1.5)
        assert len(zs_eigenvalues(zs)) == 0

    def test_gaussian_ladder(self, zs_gaussian):
        vals = zs_eigenvalues(zs_gaussian, radius=10.0)
        assert len(vals) > 10
        assert np.max(np.abs(vals.imag)) < 1e-2

    def test_conjugation_symmetry(self, zs_gaussian):
        # spectrum closed under mu1 -> -conj(mu1)
        vals = zs_eigenvalues(zs_gaussian, radius=10.0)
        win = vals[np.abs(vals) < 5]
        defect = max(np.min(np.abs(win - (-np.conj(v)))) for v in win)
        assert defect < 1e-8

    def test_negated_potential_spectrum(self, zs_gaussian, ref_coeffs):
        # on the infinite line (psi1, -psi2) maps the system for -u onto the
        # one for u, but the wall condition Re(phi) = 0 breaks that map (it
        # sends it to Im(phi) = 0), so the boxed ladders interleave instead
        # of coinciding; what survives is the mu1 -> -conj(mu1) closure and
        # the mode count
        flipped = ZsProblem(zs_gaussian.xi_grid, -zs_gaussian.potential,
                            ref_coeffs.carrier.kappa, 1.5)
        a = zs_eigenvalues(zs_gaussian, radius=10.0)
        b = zs_eigenvalues(flipped, radius=10.0)
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
            _check_resolved(u)
        x = env.xi0 + 4 * env.dxi * np.arange(len(u))
        vals = zs_eigenvalues(ZsProblem(x / ref_coeffs.M1, u, ref_coeffs.carrier.kappa, 1.5))
        assert len(vals) > 10
        defect = max(np.min(np.abs(vals - (-np.conj(v)))) for v in vals)
        assert defect < 1e-8

    def test_decay_precondition(self, ref_coeffs):
        x = np.linspace(0.0, 10.0, 64)
        zs = ZsProblem(x, np.full(64, 0.5, dtype=complex),
                       ref_coeffs.carrier.kappa, 1.5)
        with pytest.raises(PreconditionError, match="decay"):
            zs_eigenvalues(zs)

    def test_nonuniform_grid_rejected(self, ref_coeffs):
        x = np.concatenate([np.linspace(0, 1, 20), np.linspace(1.1, 3, 20)])
        with pytest.raises(DomainError, match="uniform"):
            ZsProblem(x, np.zeros(40, dtype=complex),
                      ref_coeffs.carrier.kappa, 1.5)


def _loop_zs_matrix(x, u, kappa, p):
    """The ZS matrix built entry by entry on dense arrays: the reference for
    the vectorized sparse build."""
    L = len(x)
    h = float(x[1] - x[0])
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
    """Kept set with every grid solved by dense eig of the same matrices."""
    with monkeypatch.context() as mp:
        mp.setattr(spectral, "_zs_disc_eigenvalues",
                   lambda x, u, kappa, p, radius, k:
                   eig(spectral._zs_matrix(x, u, kappa, p).toarray(), right=False))
        return zs_eigenvalues(zs, radius=10.0)


@pytest.fixture(scope="module")
def zs_small(ref_coeffs):
    # 80 points on a 20-unit interval: the disc |mu1| <= 10 holds 70 of the
    # 158 base-grid eigenvalues, so a probe below 79 = 158/2 runs ARPACK
    x = np.linspace(0.0, 20.0, 80)
    u = np.exp(-((x - 10.0) / 1.25) ** 2 / 2).astype(complex)
    return ZsProblem(x / ref_coeffs.M1, u, ref_coeffs.carrier.kappa, 1.5)


@pytest.fixture(scope="module")
def zs_small_dense(zs_small):
    return _dense_kept(zs_small, pytest.MonkeyPatch())


class TestSparseZs:
    @pytest.mark.parametrize("phase", [0.0, 0.7])
    def test_matrix_matches_loop_build(self, zs_gaussian, phase):
        x = zs_gaussian.xi_grid
        u = zs_gaussian.potential * np.exp(1j * phase * x)
        D, M = _loop_zs_matrix(x, u, zs_gaussian.kappa, zs_gaussian.p)
        h = float(x[1] - x[0])
        assert np.array_equal(spectral._derivative_matrix(len(x), h).toarray(), D)
        assert np.array_equal(
            spectral._zs_matrix(x, u, zs_gaussian.kappa, zs_gaussian.p).toarray(), M)

    @pytest.mark.parametrize("amplitude", [1e-2, -1e-2, 1e-4, -1e-4])
    def test_dense_oracle_gaussian(self, zs_gaussian, amplitude, monkeypatch):
        zs = ZsProblem(zs_gaussian.xi_grid, amplitude * zs_gaussian.potential,
                       zs_gaussian.kappa, zs_gaussian.p)
        sparse_kept = zs_eigenvalues(zs, radius=10.0)
        dense_kept = _dense_kept(zs, monkeypatch)
        assert len(sparse_kept) == len(dense_kept) > 0
        assert np.max(np.abs(sparse_kept - dense_kept)) <= 1e-9

    def test_dense_oracle_evolved_envelope(self, ref_evolution, ref_coeffs, monkeypatch):
        # the tau_min snapshot as spectral_limit_check poses it
        evo = ref_evolution
        stride = evo.L // 256
        xs = (evo.xi0 + evo.dxi * np.arange(evo.L))[::stride]
        zs = ZsProblem(xs / ref_coeffs.M1, evo.value_at(evo.tau_min)[::stride],
                       ref_coeffs.carrier.kappa, ref_coeffs.params.p)
        sparse_kept = zs_eigenvalues(zs, radius=10.0)
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
        kept = zs_eigenvalues(zs_small, radius=10.0, eigensolve=record)
        base = record[0]
        assert base["size"] == 158
        assert base["k"][0] == ("dense" if start_k == 79 else start_k)
        assert len(kept) == len(zs_small_dense) > 0
        assert np.max(np.abs(kept - zs_small_dense)) <= 1e-9

    def test_radius_bounds_result(self, zs_gaussian):
        wide = zs_eigenvalues(zs_gaussian, radius=10.0)
        narrow = zs_eigenvalues(zs_gaussian, radius=2.0)
        inside = wide[np.abs(wide) <= 2.0]
        assert np.max(np.abs(narrow)) <= 2.0
        assert len(narrow) == len(inside) > 0
        assert np.max(np.abs(narrow - inside)) <= 1e-12

    def test_shift_on_eigenvalue_rejected(self, zs_gaussian, monkeypatch):
        # mu1 = 0 is an exact eigenvalue of the ZS matrix
        monkeypatch.setattr(spectral, "ZS_SHIFT", 0.0)
        with pytest.raises(NumericalError, match="hits an eigenvalue"):
            zs_eigenvalues(zs_gaussian, radius=10.0)


class TestSpectralLimit:
    def test_band_edge_estimates_free_ladder(self, ref_coeffs):
        # free field: rescaled deviations sit on the quantization ladder with
        # a rung pinned at zero when the problem size is 3 mod 4
        N, size = 32, 571
        f = LatticeField(np.zeros((size + 3, 2)))
        est = band_edge_estimates(f, P15, 0, math.pi / 2, N)
        assert np.min(np.abs(est)) < 1e-9

    def test_zero_envelope(self, ref_coeffs):
        from lpkdv.nls import frozen_evolution

        env = gaussian_envelope(256, 0.0, 40.0, 0.0, 1.0, 20.0)
        evo = frozen_evolution(env, ref_coeffs.nls_coefficients())
        rep = spectral_limit_check(evo, ref_coeffs, [8, 16])
        assert all(d is None for d in rep["discrepancy"])
        assert len(rep["zs_eigenvalues"]) == 0
