import json
import math

import numpy as np
import pytest

from lpkdv.errors import DomainError, NumericalError, PreconditionError
from lpkdv.nls import (
    COMMUTATOR_STEP,
    DENSE_STEP_MULTIPLE,
    GUARD_BOUND,
    MAX_STEP_POINTS,
    Envelope,
    NlsCoefficients,
    _check_spectra_resolved,
    _commutators,
    _derivative,
    _linear_phase,
    _linear_rate,
    _phi,
    _spectral_derivative,
    commutator_floor,
    commutator_sweep,
    dense_dtau,
    envelope_from_json,
    envelope_to_json,
    gaussian_envelope,
    nls_evolve,
    nls_evolve_dense,
    plane_envelope,
    resize_spectra,
    save_envelope_csv,
    stable_dtau,
    symmetry_rhs,
)
from lpkdv.quad import LpkdvParams
from lpkdv.reduction import compute_coefficients, evolve_rows
from tests.conftest import REF_N_LIST, REF_WINDOW
from tests.frozen_oracle import frozen_evolution
from tests.rk4_oracle import rhs_values, rk4_evolve, rk4_values

C_REF = NlsCoefficients(-1.2, 16.0 / 75.0)


def make_env(L=256, period=40.0, amplitude=0.7, width=2.5, center=20.0):
    return gaussian_envelope(L, 0.0, period, amplitude, width, center)


class TestRhs:
    def test_zero(self):
        env = Envelope(0.0, 0.15625, np.zeros(256, dtype=complex))
        assert np.all(symmetry_rhs(env, C_REF, "nls") == 0.0)

    def test_constant(self):
        A = 0.8 - 0.3j
        env = Envelope(0.0, 0.1, np.full(64, A))
        got = symmetry_rhs(env, C_REF, "nls")
        assert np.allclose(got, -1j * C_REF.rho2 * abs(A) ** 2 * A, atol=1e-12)

    def test_plane_wave(self):
        A, kidx = 0.6, 3
        env = plane_envelope(256, 0.0, 40.0, A, kidx)
        k = 2 * math.pi * kidx / 40.0
        expect = -1j * (-C_REF.rho1 * k ** 2 + C_REF.rho2 * A ** 2) * env.values
        assert np.allclose(symmetry_rhs(env, C_REF, "nls"), expect, atol=1e-10)

    def test_matches_oracle_field(self):
        """The field the commutators check is the one the integrator steps,
        Lambda u_hat + N_hat; it equals the oracle's -i (rho1 u_xixi + rho2
        |u|^2 u), written out apart from it."""
        env = make_env()
        got = symmetry_rhs(env, C_REF, "nls")
        assert np.max(np.abs(got - rhs_values(env.values, env.dxi, C_REF))) <= 1e-14

    def test_grid_too_coarse(self):
        env = Envelope(0.0, 1.0, np.zeros(8, dtype=complex))
        with pytest.raises(DomainError, match="L = 8"):
            symmetry_rhs(env, C_REF, "nls")

    def test_rho1_nonzero_required(self):
        with pytest.raises(DomainError):
            NlsCoefficients(0.0, 1.0)


class TestEvolve:
    def test_zero_stays_zero(self):
        env = Envelope(0.0, 0.15625, np.zeros(256, dtype=complex))
        out = nls_evolve(env, C_REF, 1.0, 1e-3)
        assert np.all(out.values == 0.0)

    def test_constant_phase_rotation(self):
        A = 0.5
        env = Envelope(0.0, 40.0 / 256, np.full(256, A, dtype=complex))
        out = nls_evolve(env, C_REF, 1.0, 1e-3)
        exact = A * np.exp(-1j * C_REF.rho2 * A ** 2 * 1.0)
        assert np.max(np.abs(out.values - exact)) < 1e-8

    def test_plane_wave_exact(self):
        A, kidx = 0.4, 2
        env = plane_envelope(256, 0.0, 40.0, A, kidx)
        k = 2 * math.pi * kidx / 40.0
        out = nls_evolve(env, C_REF, 1.0, 5e-4)
        exact = env.values * np.exp(-1j * (C_REF.rho2 * A ** 2 - C_REF.rho1 * k ** 2))
        assert np.max(np.abs(out.values - exact)) < 1e-8
        assert np.max(np.abs(np.abs(out.values) - A)) < 1e-8

    def test_mass_conservation(self):
        env = make_env()
        out = nls_evolve(env, C_REF, 1.0, stable_dtau(env, C_REF))
        assert abs(out.mass() - env.mass()) / env.mass() <= 1e-8

    def test_fourth_order_in_time(self):
        # the RK4 oracle; at these steps the package integrator is at round-off
        env = make_env(L=128)
        ref = rk4_evolve(env, C_REF, 0.5, 1e-4)
        e1 = np.max(np.abs(rk4_evolve(env, C_REF, 0.5, 4e-3).values - ref.values))
        e2 = np.max(np.abs(rk4_evolve(env, C_REF, 0.5, 2e-3).values - ref.values))
        assert 10.0 <= e1 / e2 <= 24.0  # ~2^4

    def test_interaction_picture_fourth_order(self):
        # steps near the guard (stable_dtau = 0.084 here), where the error
        # is above round-off
        env = make_env(L=128)
        ref = nls_evolve(env, C_REF, 0.5, 1e-4)
        e1 = np.max(np.abs(nls_evolve(env, C_REF, 0.5, 1.6e-2).values - ref.values))
        e2 = np.max(np.abs(nls_evolve(env, C_REF, 0.5, 8e-3).values - ref.values))
        assert 10.0 <= e1 / e2 <= 24.0  # ~2^4

    def test_mass_drift_at_round_off(self, tmp_path):
        # nls-evolve at the default config (L = 1024, tau = 1, stable_dtau):
        # the increment form keeps the drift at round-off; a fixed per-step
        # propagator exp(Lambda dt/2) compounds its round-off to 1.1e-14
        from lpkdv.cli import run

        assert run("nls-evolve", None, str(tmp_path), quiet=True) == 0
        report = json.loads((tmp_path / "nls_report.json").read_text())
        assert report["mass_drift"] <= 2.0e-15, report

    def test_phase_equivariance(self):
        env = make_env()
        phi = 0.8321
        rotated = Envelope(env.xi0, env.dxi, env.values * np.exp(1j * phi))
        a = nls_evolve(env, C_REF, 0.3, 1e-3)
        b = nls_evolve(rotated, C_REF, 0.3, 1e-3)
        assert np.max(np.abs(b.values - a.values * np.exp(1j * phi))) < 1e-10

    def test_translation_equivariance(self):
        env = make_env()
        shift = 37
        shifted = Envelope(env.xi0, env.dxi, np.roll(env.values, shift))
        a = nls_evolve(env, C_REF, 0.3, 1e-3)
        b = nls_evolve(shifted, C_REF, 0.3, 1e-3)
        assert np.max(np.abs(b.values - np.roll(a.values, shift))) < 1e-10

    def test_stability_bound_enforced(self):
        env = make_env()
        with pytest.raises(DomainError, match="stability"):
            nls_evolve(env, C_REF, 1.0, 1.0)

    @pytest.mark.parametrize("dtau", [0.0, -1e-3])
    def test_non_positive_step_rejected(self, dtau):
        with pytest.raises(DomainError, match="positive"):
            nls_evolve(make_env(), C_REF, 1.0, dtau)


class TestDenseOutput:
    def test_interpolation_accuracy(self):
        env = make_env(L=128)
        evo = nls_evolve_dense(env, C_REF, 0.4, DENSE_STEP_MULTIPLE * 1e-3)
        mid = 0.2137
        direct = nls_evolve(env, C_REF, mid, 1e-3)
        assert np.max(np.abs(np.fft.ifft(evo.spectra_at([mid]), axis=1)[0] - direct.values)) < 1e-9

    def test_out_of_range(self):
        env = make_env(L=128)
        evo = nls_evolve_dense(env, C_REF, 0.1, 1e-3)
        with pytest.raises(DomainError, match="outside"):
            evo.spectra_at([0.2])

    def test_frozen_returns_initial(self):
        env = make_env(L=128)
        fro = frozen_evolution(env, C_REF)
        assert np.array_equal(fro.spectra_at([0.0])[0], np.fft.fft(env.values))
        assert np.allclose(np.fft.ifft(fro.spectra_at([123.4]), axis=1)[0], env.values)

    def test_step_ends_return_stored_spectra(self, ref_evolution):
        """At s = 0 the dense output is the stored u_hat bit for bit, at the
        first, an inner and the last step end."""
        evo = ref_evolution
        ends = [0, 1, evo.steps // 2, evo.steps - 1, evo.steps]
        got = evo.spectra_at(evo.taus[ends])
        assert got.view(np.uint64).tobytes() == evo.snapshots[ends].view(np.uint64).tobytes()

    def test_stores_spectrum_and_nonlinear_term(self):
        """snapshots hold fft(u) and nonlinear FFT(-i rho2 |u|^2 u) at each
        step end; the last step end matches nls_evolve to the end time."""
        env = make_env(L=128)
        evo = nls_evolve_dense(env, C_REF, 0.3, 0.02)
        assert evo.snapshots.shape == evo.nonlinear.shape == (evo.steps + 1, env.L)
        assert np.array_equal(evo.snapshots[0], np.fft.fft(env.values))
        u = np.fft.ifft(evo.snapshots[-1])
        assert np.allclose(evo.nonlinear[-1], np.fft.fft(-1j * C_REF.rho2 * np.abs(u) ** 2 * u),
                           rtol=0, atol=1e-13)
        assert np.array_equal(u, nls_evolve(env, C_REF, 0.3, 0.02).values)

    def test_dense_step(self):
        """dense_dtau is DENSE_STEP_MULTIPLE times stable_dtau, capped so
        that a short span still takes DENSE_MIN_STEPS = 3 steps."""
        env = make_env(L=128)
        full = DENSE_STEP_MULTIPLE * stable_dtau(env, C_REF)
        assert dense_dtau(env, C_REF, 10.0) == full
        assert dense_dtau(env, C_REF, full) == full / 3
        assert dense_dtau(env, C_REF, 0.0) == full

    def test_snapshot_budget(self, monkeypatch):
        """A run whose (steps + 1) * L passes MAX_STEP_POINTS is refused,
        naming its steps and points; one that fits exactly runs.  The budget
        holds for the end-point run as for the dense one."""
        import lpkdv.nls as nls

        env = make_env(L=128)
        points = 11 * 128  # 10 steps: 11 step ends of 128 points
        assert MAX_STEP_POINTS == 1 << 25
        monkeypatch.setattr(nls, "MAX_STEP_POINTS", points)
        assert nls_evolve_dense(env, C_REF, 0.1, 0.01).steps == 10
        assert nls_evolve(env, C_REF, 0.1, 0.01).tau == 0.1
        monkeypatch.setattr(nls, "MAX_STEP_POINTS", points - 1)
        for evolve in (nls_evolve_dense, nls_evolve):
            with pytest.raises(DomainError, match=f"needs 10 steps of 128 points, {points}"):
                evolve(env, C_REF, 0.1, 0.01)

    @pytest.mark.parametrize("steps, bound", [(0, 0.0), (1, 1e-8), (2, 1e-12), (3, 1e-12)])
    def test_few_steps(self, steps, bound):
        """With fewer than four step ends the polynomial through N_hat takes
        the ones there are (one step: a line, O(dtau^2) at mid-step); no
        step at all returns the initial profile."""
        env = make_env(L=128)
        evo = nls_evolve_dense(env, C_REF, 0.01 * steps, 0.01)
        direct = nls_evolve(env, C_REF, 0.005 * steps, 1e-3)
        assert evo.steps == steps
        assert np.max(np.abs(np.fft.ifft(evo.spectra_at([0.005 * steps]), axis=1)[0] - direct.values)) <= bound


# z on both sides of _phi's switch at |z| = 0.5; the evaluation's z = Lambda s
# is imaginary with |z| <= |rho1| k_max^2 dtau <= GUARD_BOUND; general complex z
PHI_POINTS = [0.0, 1e-9j, 0.1j, -0.3j, 0.4999j, 0.5j, -0.5001j, 0.7j, 2.0j, -9.0j,
               25.0j, -GUARD_BOUND * 1j, 0.3 - 0.2j, -0.45 + 0.1j, 1.5 + 2.0j, -3.0 - 0.4j]


@pytest.mark.parametrize("z", PHI_POINTS)
def test_phi_matches_augmented_expm(z):
    """phi_k(z) is the top-right entry of exp of the (k+1)x(k+1) matrix with z
    in the corner and ones on the superdiagonal (Sidje, ACM TOMS 24:130,
    1998).  Just above the switch the recurrence divides by |z| = 0.5 four
    times, which costs phi_4 about 100 ulp (1.9e-14 relative)."""
    from scipy.linalg import expm

    got = _phi(np.array([z]), 4)[:, 0]
    assert got[0] == np.exp(z)
    for k in range(1, 5):
        aug = np.diag(np.ones(k, dtype=complex), 1)
        aug[0, 0] = z
        want = expm(aug)[0, k]
        assert abs(got[k] - want) <= 1e-13 * abs(want), (k, got[k], want)


@pytest.mark.parametrize("L", [64, 65])
def test_linear_phase_bit_identical(L):
    """One exp per |k| gives exp(1j * outer(s, rate)) bit for bit, for even
    and odd grids, and the step loop's 1-D form for a scalar s."""
    rate = _linear_rate(L, 40.0 / L, C_REF)
    s = np.linspace(0.0, 0.37, 9)
    assert np.array_equal(_linear_phase(rate, s), np.exp(1j * np.outer(s, rate)))
    assert np.array_equal(_linear_phase(rate, 0.0123), np.exp(1j * rate * 0.0123))


# the off-reference points of the oracle test are compared on rows m <= 48
# only (a quarter of the window), which keeps the RK4 oracle's cost below 3 s
ORACLE_ROWS_OFF_REFERENCE = 48


@pytest.mark.parametrize("p, q, kappa", [(1.5, 0.5, math.pi / 2), (2.0, 1.0, 1.0),
                                         (3.0, 0.7, 0.6), (1.5, 0.5, 1.2)])
def test_dense_output_matches_rk4_oracle(p, q, kappa, ref_evolution, ref_envelope):
    """The exponential dense output at the CLI's dense step agrees with
    classic RK4 at a quarter of stable_dtau on the lattice rows tau = m / N^2
    of the reference window (N = 16): the reference evolution at the default
    point, the same envelope evolved with each other point's NLS
    coefficients.  The dense output lives on the run's working grid, whose
    points are every (envelope L / working L)-th point of the oracle's."""
    coeffs = compute_coefficients(LpkdvParams(p, q), kappa)
    c = coeffs.nls_coefficients()
    n_min = min(REF_N_LIST)
    if (p, q, kappa) == (1.5, 0.5, math.pi / 2):
        evo, rows = ref_evolution, REF_WINDOW[1]
    else:
        rows = ORACLE_ROWS_OFF_REFERENCE + 1
        evo = evolve_rows(ref_envelope, coeffs, rows, n_min)
    taus = coeffs.tau(np.arange(rows), n_min)
    oracle = rk4_values(ref_envelope, c, taus, stable_dtau(ref_envelope, c) / 4)
    stride = ref_envelope.L // evo.L
    assert evo.L < ref_envelope.L
    got = np.fft.ifft(evo.spectra_at(taus), axis=1)
    assert np.max(np.abs(got - oracle[:, ::stride])) <= 1e-9


class TestSymmetryRhs:
    def test_h1(self):
        env = make_env(L=64, width=4.0)
        assert np.array_equal(symmetry_rhs(env, C_REF, "h1"), 1j * env.values)

    def test_h2_plane_wave(self):
        A, kidx = 0.5, 4
        env = plane_envelope(256, 0.0, 40.0, A, kidx)
        k = 2 * math.pi * kidx / 40.0
        got = symmetry_rhs(env, C_REF, "h2")
        assert np.allclose(got, 1j * k * env.values, atol=1e-10)

    def test_h4_constant_vanishes(self):
        env = Envelope(0.0, 0.2, np.full(64, 0.3 + 0.1j))
        assert np.max(np.abs(symmetry_rhs(env, C_REF, "h4"))) < 1e-12

    def test_h3_is_nls_rhs(self):
        env = make_env(L=128)
        assert np.array_equal(symmetry_rhs(env, C_REF, "h3"),
                              symmetry_rhs(env, C_REF, "nls"))

    def test_unknown_flow(self):
        env = make_env(L=64, width=4.0)
        with pytest.raises(DomainError, match="unknown flow"):
            symmetry_rhs(env, C_REF, "h9")


class TestCommutators:
    def test_linear_pair_at_round_off(self):
        env = make_env()
        assert _commutators(env, [((C_REF, "h1"), (C_REF, "h2"))])[0] <= 1e-8

    def test_gauge_invariance_pair(self):
        env = make_env()
        assert _commutators(env, [((C_REF, "nls"), (C_REF, "h1"))])[0] <= 1e-8

    def test_unresolved_envelope_rejected(self):
        rng = np.random.default_rng(0)
        env = Envelope(0.0, 0.2, rng.standard_normal(64) + 0j)
        with pytest.raises(PreconditionError, match="resolved"):
            _commutators(env, [((C_REF, "h1"), (C_REF, "h2"))])[0]

    def test_aliased_cubic_rejected(self):
        # |u|^2 u carries three times u's band: u passes the resolution rule
        # here, its cubic does not, and the refusal names the cubic
        env = gaussian_envelope(1024, 0.0, 40.0, 1.0, 0.1, 12.0)
        _check_spectra_resolved(np.fft.fft(env.values))
        with pytest.raises(PreconditionError, match=r"^cubic \|u\|\^2 u not spectrally resolved"):
            _commutators(env, [((C_REF, "h1"), (C_REF, "h2"))])[0]

    def test_derivative_is_exact(self):
        """The Frechet derivative of the NLS field, K'[v] = -i rho1 v_xixi
        - i rho2 (2 |u|^2 v + u^2 conj(v)), is met to round-off, where the
        central difference alone is off by COMMUTATOR_STEP^2 / 6 K'''[v, v, v]."""
        env = make_env()
        u = env.values
        v = (1.0 + 2.0j) * u + symmetry_rhs(env, C_REF, "h4")

        def field(vals):
            return symmetry_rhs(Envelope(env.xi0, env.dxi, vals), C_REF, "nls")

        exact = (-1j * C_REF.rho1 * _spectral_derivative(v, env.dxi, 2)
                 - 1j * C_REF.rho2 * (2.0 * np.abs(u) ** 2 * v + u ** 2 * np.conj(v)))
        e = COMMUTATOR_STEP
        central = (field(u + e * v) - field(u - e * v)) / (2.0 * e)
        assert np.max(np.abs(_derivative(field, u, v) - exact)) <= 1e-11
        assert np.max(np.abs(central - exact)) >= 1e-6

    def test_sweep_all_pairs_pass(self):
        env = gaussian_envelope(96, 0.0, 60.0, 6.0, 3.0, 30.0)
        report = commutator_sweep(C_REF, env)
        assert report["passed"]
        assert len(report["sweep"]) == 6
        assert all(row["residual"] <= row["floor"] for row in report["sweep"])
        control = report["negative_control"]
        assert control["h4_rho2"] == 2.0 * C_REF.rho2
        assert control["residual"] > 1e3 * control["floor"]

    def test_floor_estimate_bounds_linear_pair(self):
        env = make_env()
        floor = commutator_floor(env, C_REF)
        got = _commutators(env, [((C_REF, "h1"), (C_REF, "h2"))])[0]
        assert got <= floor

    def test_wrong_h4_coefficient_detected(self):
        # negative control: with 2*rho2 instead of 3*rho2 in h4 the exact
        # commutator with the NLS flow is O(1), orders above the floor
        env = gaussian_envelope(96, 0.0, 60.0, 6.0, 3.0, 30.0)

        def k_nls(v):
            return symmetry_rhs(Envelope(env.xi0, env.dxi, v), C_REF, "nls")

        def k_bad(v):
            d1 = _spectral_derivative(v, env.dxi, 1)
            d3 = _spectral_derivative(v, env.dxi, 3)
            return C_REF.rho1 * d3 + 2.0 * C_REF.rho2 * np.abs(v) ** 2 * d1

        u = env.values
        bad = float(np.max(np.abs(_derivative(k_nls, u, k_bad(u))
                                  - _derivative(k_bad, u, k_nls(u)))))
        floor = commutator_floor(env, C_REF)
        assert _commutators(env, [((C_REF, "nls"), (C_REF, "h4"))])[0] <= floor
        assert bad > 1e3 * floor
        wrong = NlsCoefficients(C_REF.rho1, 2.0 / 3.0 * C_REF.rho2)
        # the same pair as commutator_sweep's control evaluates it
        got = _commutators(env, [((C_REF, "nls"), (wrong, "h4"))])[0]
        assert got == pytest.approx(bad, rel=1e-9)


class TestEnvelopeIO:
    def test_json_round_trip(self):
        env = make_env(L=64, width=4.0)
        back = envelope_from_json(json.loads(json.dumps(envelope_to_json(env))))
        assert np.array_equal(back.values, env.values)
        assert back.dxi == env.dxi and back.xi0 == env.xi0

    def test_csv_columns(self, tmp_path):
        env = make_env(L=32, width=6.0)
        path = tmp_path / "env.csv"
        save_envelope_csv(env, path)
        header = path.read_text().splitlines()[0]
        assert header == "xi,re,im"


def _on_envelope_grid(monkeypatch):
    """Make every run step on the envelope's own grid (the grid choice
    patched for the test only)."""
    import lpkdv.nls as nls

    monkeypatch.setattr(nls, "_working_grid", lambda L, band: L)


def _assert_same_dense_output(work, full, L):
    """Equal step plans and bands, and dense output within 1e-14 of max|u|
    at 7 taus, the working grid's padded to the envelope's L points."""
    assert (work.band, work.steps, work.dtau) == (full.band, full.steps, full.dtau)
    assert full.L == L and full.grids == (L,)
    taus = np.linspace(full.tau_min, full.tau_max, 7)
    want = np.fft.ifft(full.spectra_at(taus), axis=1)
    got = np.fft.ifft(resize_spectra(work.spectra_at(taus), L), axis=1)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _nls_evolve_envelope(tmp_path):
    from lpkdv.cli import run

    assert run("nls-evolve", None, str(tmp_path), quiet=True) == 0
    env = envelope_from_json(json.loads((tmp_path / "envelope.json").read_text()))
    assert env.tau == 1.0
    return env


@pytest.mark.parametrize("p, q, kappa, envelope", [
    (1.5, 0.5, math.pi / 2, "gaussian"), (2.0, 1.0, 1.0, "gaussian"),
    (3.0, 0.7, 0.6, "gaussian"), (1.5, 0.5, 1.2, "gaussian"),
    (1.5, 0.5, math.pi / 2, "plane"), (1.5, 0.5, math.pi / 2, "nls-evolve")])
def test_working_grid_matches_envelope_grid(p, q, kappa, envelope, ref_envelope, tmp_path,
                                            monkeypatch):
    """A dense run on the working grid (256 of 1024 points for the Gaussian,
    16 for the plane wave k = 3) gives the dense output of the same run on
    the envelope's own grid: at the oracle test's four points, and on a plane
    envelope and on the envelope.json of nls-evolve (tau = 1) at the default
    point."""
    coeffs = compute_coefficients(LpkdvParams(p, q), kappa)
    rows = REF_WINDOW[1] if (p, q, kappa, envelope) == (1.5, 0.5, math.pi / 2, "gaussian") \
        else ORACLE_ROWS_OFF_REFERENCE + 1
    env = {"gaussian": lambda: ref_envelope,
           "plane": lambda: plane_envelope(1024, 0.0, 40.0, 0.8, 3),
           "nls-evolve": lambda: _nls_evolve_envelope(tmp_path)}[envelope]()
    work = evolve_rows(env, coeffs, rows, min(REF_N_LIST))
    # nls-evolve's envelope at tau = 1 starts with band 79: 4 * 79 >= 256
    assert work.grids == ({"plane": 16, "nls-evolve": 512}.get(envelope, 256),)
    _on_envelope_grid(monkeypatch)
    _assert_same_dense_output(work, evolve_rows(env, coeffs, rows, min(REF_N_LIST)), env.L)


def test_band_at_nyquist_reruns_on_twice_the_grid(ref_coeffs, monkeypatch):
    """An amplitude-4 Gaussian starts with band 43 (256 points) and grows it
    to 131 over ansatz-residual's span: the run stops at band 128 and runs
    again on 512 points, and matches the run on the envelope's grid; the
    end-point run reruns too, and its end values match."""
    env = gaussian_envelope(1024, 0.0, 40.0, 4.0, 1.25, 12.0)
    c = ref_coeffs.nls_coefficients()
    work = evolve_rows(env, ref_coeffs, REF_WINDOW[1], min(REF_N_LIST))
    assert work.grids == (256, 512) and work.band == 131
    grids = []  # the dense run's steps, as an end-point run
    end = nls_evolve(env, c, work.tau_max, work.dtau * 1.001, grids)
    assert grids == [256, 512]
    _on_envelope_grid(monkeypatch)
    _assert_same_dense_output(work, evolve_rows(env, ref_coeffs, REF_WINDOW[1],
                                                min(REF_N_LIST)), env.L)
    want = nls_evolve(env, c, work.tau_max, work.dtau * 1.001).values
    assert np.max(np.abs(end.values - want)) <= 1e-14 * np.max(np.abs(want))


def test_wide_band_stays_on_envelope_grid(ref_coeffs):
    """A width-0.3 Gaussian starts with band 180 (308 over ansatz-residual's
    span): 4 * 180 >= 512, so it steps on the envelope's 1024 points."""
    env = gaussian_envelope(1024, 0.0, 40.0, 1.0, 0.3, 12.0)
    evo = evolve_rows(env, ref_coeffs, REF_WINDOW[1], min(REF_N_LIST))
    assert evo.band == 308 and evo.grids == (1024,) and evo.L == 1024
    grids = []
    nls_evolve(env, ref_coeffs.nls_coefficients(), 0.01, 1e-3, grids)
    assert grids == [1024]


@pytest.mark.filterwarnings("ignore:All-NaN slice")  # the record's max_abs is NaN
def test_divergence_reruns_up_to_envelope_grid():
    """An amplitude whose cube overflows turns the values non-finite on
    every grid: the run goes up to the envelope's own grid, where the
    divergence is raised."""
    env = gaussian_envelope(1024, 0.0, 40.0, 1e150, 1.25, 12.0)
    dtau = stable_dtau(env, C_REF)
    grids = []
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="diverged"):
        nls_evolve(env, C_REF, 30 * dtau, dtau, grids)
    assert grids == [256, 512, 1024]
