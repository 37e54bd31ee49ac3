import json
import math

import numpy as np
import pytest

from lpkdv.errors import DomainError, PreconditionError
from lpkdv.nls import (
    Envelope,
    NlsCoefficients,
    commutator_floor,
    commutator_sweep,
    commutator_test,
    envelope_from_json,
    envelope_to_json,
    frozen_evolution,
    gaussian_envelope,
    nls_evolve,
    nls_evolve_dense,
    plane_envelope,
    save_envelope_csv,
    stable_dtau,
    symmetry_rhs,
)
from lpkdv.quad import LpkdvParams
from lpkdv.reduction import compute_coefficients
from tests.conftest import REF_N_LIST, REF_WINDOW
from tests.rk4_oracle import rk4_evolve, rk4_values

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
        evo = nls_evolve_dense(env, C_REF, 0.4, 1e-3, store_every=4)
        mid = 0.2137
        direct = nls_evolve(env, C_REF, mid, 1e-3)
        assert np.max(np.abs(evo.value_at(mid) - direct.values)) < 1e-9

    def test_out_of_range(self):
        env = make_env(L=128)
        evo = nls_evolve_dense(env, C_REF, 0.1, 1e-3)
        with pytest.raises(DomainError, match="outside"):
            evo.value_at(0.2)

    def test_frozen_returns_initial(self):
        env = make_env(L=128)
        fro = frozen_evolution(env, C_REF)
        assert np.array_equal(fro.value_at(0.0), env.values)
        assert np.allclose(fro.value_at(123.4), env.values)


# the off-reference points of the oracle test are compared on rows m <= 48
# only (a quarter of the window), which keeps the RK4 oracle's cost below 3 s
ORACLE_ROWS_OFF_REFERENCE = 48


@pytest.mark.parametrize("p, q, kappa", [(1.5, 0.5, math.pi / 2), (2.0, 1.0, 1.0),
                                         (3.0, 0.7, 0.6), (1.5, 0.5, 1.2)])
def test_dense_output_matches_rk4_oracle(p, q, kappa, ref_evolution, ref_envelope):
    """The interaction-picture dense output agrees with classic RK4 at a
    quarter of the step on the lattice rows tau = m / N^2 of the reference
    window (N = 16): the reference evolution at the default point, the
    same envelope evolved with each other point's NLS coefficients."""
    coeffs = compute_coefficients(LpkdvParams(p, q), kappa, r=1.0, m2_tilde=1.0)
    c = coeffs.nls_coefficients()
    n_min = min(REF_N_LIST)
    if (p, q, kappa) == (1.5, 0.5, math.pi / 2):
        evo, rows = ref_evolution, REF_WINDOW[1]
    else:
        rows = ORACLE_ROWS_OFF_REFERENCE + 1
        evo = nls_evolve_dense(ref_envelope, c, coeffs.M2_tilde * (rows - 1) / n_min ** 2 * 1.01,
                               stable_dtau(ref_envelope, c))
    taus = coeffs.M2_tilde * np.arange(rows) / n_min ** 2
    oracle = rk4_values(ref_envelope, c, taus, stable_dtau(ref_envelope, c) / 4)
    assert np.max(np.abs(evo.values_at(taus) - oracle)) <= 1e-9


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
        assert commutator_test(C_REF, env, "h1", "h2", 1e-4) <= 1e-8

    def test_gauge_invariance_pair(self):
        env = make_env()
        assert commutator_test(C_REF, env, "nls", "h1", 1e-4) <= 1e-8

    def test_unresolved_envelope_rejected(self):
        rng = np.random.default_rng(0)
        env = Envelope(0.0, 0.2, rng.standard_normal(64) + 0j)
        with pytest.raises(PreconditionError, match="resolved"):
            commutator_test(C_REF, env, "h1", "h2", 1e-4)

    def test_h4_richardson_decrease(self):
        # coarse grid + wide decayed envelope: the eps^2 term dominates the
        # round-off floor and the halving factor approaches 4
        env = gaussian_envelope(96, 0.0, 60.0, 6.0, 3.0, 30.0)
        r1 = commutator_test(C_REF, env, "nls", "h4", 1e-4)
        r2 = commutator_test(C_REF, env, "nls", "h4", 5e-5)
        assert r1 / r2 >= 3.5

    def test_sweep_all_pairs_pass(self):
        env = gaussian_envelope(96, 0.0, 60.0, 6.0, 3.0, 30.0)
        report = commutator_sweep(C_REF, env)
        assert report["passed"]
        assert len(report["sweep"]) == 6

    def test_floor_estimate_bounds_linear_pair(self):
        env = make_env()
        floor = commutator_floor(env, C_REF, 2.5e-5)
        got = commutator_test(C_REF, env, "h1", "h2", 2.5e-5)
        assert got <= floor

    def test_wrong_h4_coefficient_detected(self):
        # negative control: with 2*rho2 instead of 3*rho2 in h4 the
        # commutator with the NLS flow is O(1), orders above the floor
        from lpkdv.nls import _rhs_values, _spectral_derivative

        env = gaussian_envelope(96, 0.0, 60.0, 6.0, 3.0, 30.0)
        eps = 1e-4

        def k_nls(v):
            return _rhs_values(v, env.dxi, C_REF)

        def k_bad(v):
            d1 = _spectral_derivative(v, env.dxi, 1)
            d3 = _spectral_derivative(v, env.dxi, 3)
            return C_REF.rho1 * d3 + 2.0 * C_REF.rho2 * np.abs(v) ** 2 * d1

        u = env.values
        ka, kb = k_nls(u), k_bad(u)
        da_kb = (k_nls(u + eps * kb) - k_nls(u - eps * kb)) / (2 * eps)
        db_ka = (k_bad(u + eps * ka) - k_bad(u - eps * ka)) / (2 * eps)
        bad = float(np.max(np.abs(da_kb - db_ka)))
        good = commutator_test(C_REF, env, "nls", "h4", eps)
        assert bad > 1e3 * good


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
