import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lpkdv.errors import DomainError, PreconditionError
from lpkdv.nls import Envelope, _check_spectra_resolved, gaussian_envelope
from lpkdv.quad import LpkdvParams
from lpkdv.reduction import (
    assemble_ansatz,
    compute_coefficients,
    evolve_rows,
    fit_scaling_exponent,
    residual_scaling,
)
from tests.conftest import REF_N_LIST, REF_WINDOW
from tests.dispersion_oracle import group_velocity
from tests.frozen_oracle import frozen_evolution
from tests.reduction_oracle import complex_forms

SQRT5 = math.sqrt(5.0)


class TestCoefficientValues:
    """Reference point p=1.5, q=0.5, kappa=pi/2."""

    def test_m1(self, ref_coeffs):
        assert abs(ref_coeffs.M1 - SQRT5) < 1e-9

    def test_m1_tilde(self, ref_coeffs):
        assert abs(ref_coeffs.M1_tilde - 3.0 / SQRT5) < 1e-9

    def test_rho1(self, ref_coeffs):
        assert abs(ref_coeffs.rho1 - (-1.2)) < 1e-9

    def test_rho2(self, ref_coeffs):
        assert abs(ref_coeffs.rho2 - 16.0 / 75.0) < 1e-9

    def test_tau2(self, ref_coeffs):
        assert abs(ref_coeffs.tau2 - 1j / 3.0) < 1e-9

    def test_tau1(self, ref_coeffs):
        # -4 cos^2(pi/4) / (p M1) = -4/(3 sqrt 5)
        assert abs(ref_coeffs.tau1 - (-4.0 / (3.0 * SQRT5))) < 1e-9

    def test_tau3(self, ref_coeffs):
        assert abs(ref_coeffs.tau3 - 2j / 3.0) < 1e-9

    def test_branch_and_signs(self, ref_coeffs):
        assert ref_coeffs.branch == -1
        assert ref_coeffs.M1 > 0 and ref_coeffs.M1_tilde > 0

    def test_defocusing_sign(self, ref_coeffs):
        assert ref_coeffs.rho1 * ref_coeffs.rho2 < 0

    def test_plus_branch_point(self):
        # pq < 0 selects the other correlated sign pair; the magnitudes at
        # this mu <-> zeta mirrored point coincide with the reference ones
        co = compute_coefficients(LpkdvParams(1.5, -0.5), math.pi / 2)
        assert co.branch == 1
        assert abs(co.M1 - SQRT5) < 1e-9
        assert abs(co.M1_tilde - 3.0 / SQRT5) < 1e-9
        assert abs(co.rho1 - 1.2) < 1e-9
        assert abs(co.rho2 - (-16.0 / 75.0)) < 1e-9
        assert co.rho1 * co.rho2 < 0

    def test_continuous_across_old_theta_curve(self):
        # zeta cos(kappa) = mu at kappa = pi/3 for mu=1, zeta=2, where the
        # phase of the complex forms' scale factor S is undefined
        names = ("M1", "M1_tilde", "tau1", "tau2", "tau3", "rho1", "rho2")
        at = compute_coefficients(LpkdvParams(1.5, 0.5), math.pi / 3)
        for kappa in (math.pi / 3 - 1e-6, math.pi / 3 + 1e-6):
            near = compute_coefficients(LpkdvParams(1.5, 0.5), kappa)
            assert near.branch == at.branch
            for name in names:
                a, b = getattr(at, name), getattr(near, name)
                assert abs(a - b) <= 1e-5 * abs(a), (name, a, b)

    def test_realness_over_random_draws(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            p = rng.uniform(0.6, 3.0)
            q = rng.uniform(0.05, p - 0.2)
            kappa = rng.uniform(0.15, math.pi - 0.25)
            co = compute_coefficients(LpkdvParams(p, q), kappa)
            assert co.M1 > 0 and co.M1_tilde > 0
            assert co.tau1 == co.tau1.real and co.tau2.real == co.tau3.real == 0.0

    @pytest.mark.parametrize("p, q, named", [(0.0, 0.5, "p != 0"), (1.5, 0.0, "q ~ 0")])
    def test_zero_parameter_named(self, p, q, named):
        with pytest.raises(DomainError, match=named):
            compute_coefficients(LpkdvParams(p, q), math.pi / 2)

    def test_matches_complex_forms(self):
        """The closed forms against the paper's complex forms, evaluated
        verbatim by the oracle, at draws away from the oracle's arctan curve
        zeta cos(kappa) = mu and from where its forms lose digits to
        cancellation (zeta^2 - mu^2 = 4pq at |p| << |q| or |q| << |p|, and
        1 - e^{i kappa} at small kappa)."""
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 200:
            p, q = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.1, 4.0, 2)
            kappa = rng.uniform(0.01, math.pi - 0.01)
            params = LpkdvParams(p, q)
            if abs(params.zeta * math.cos(kappa) - params.mu) < 1e-3:
                continue
            co, ref = compute_coefficients(params, kappa), complex_forms(params, kappa)
            assert co.branch == ref["branch"]
            for name in ("M1", "M1_tilde", "tau1", "tau2", "tau3"):
                assert abs(getattr(co, name) - ref[name]) <= 1e-12 * abs(ref[name]), name
            checked += 1


# both signs, magnitudes in [0.05, 4]: admissible values the group-velocity
# oracle's finite differences resolve to its 1e-6
NONZERO = st.builds(lambda sign, r: sign * r, st.sampled_from([-1.0, 1.0]),
                    st.floats(0.05, 4.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=NONZERO, q=NONZERO,
       kappa=st.floats(1e-9, math.pi - 1e-9, exclude_max=True))
@example(p=1.5, q=0.5, kappa=math.pi / 3)         # zeta cos(kappa) = mu
@example(p=2.0, q=1.0, kappa=math.acos(1.0 / 3.0))
@example(p=-1.5, q=-0.5, kappa=math.pi / 3)
@example(p=0.5, q=1.5, kappa=2.0 * math.pi / 3)
def test_coefficients_over_domain(p, q, kappa):
    """On the whole admissible domain (p, q != 0, p != +-q, kappa in
    (0, pi - 1e-9)) the coefficients exist, and branch * M1_tilde / M1 is the
    group velocity where the oracle's step fits inside (0, pi).  The
    reduction is defocusing where the printed rho2 resolves its factor
    (1 + cos(kappa))^2, which rounds to 0 within about 1e-8 of pi."""
    assume(abs(p) != abs(q))
    co = compute_coefficients(LpkdvParams(p, q), kappa)
    assert co.M1 > 0 and co.M1_tilde > 0
    if kappa < math.pi - 1e-6:
        assert co.rho1 * co.rho2 < 0
    if 1e-5 < kappa < math.pi - 1e-5:
        gv = group_velocity(co.params, kappa)
        assert abs(co.branch * co.M1_tilde / co.M1 - gv) < 1e-6 * max(1.0, abs(gv))


class TestGroupVelocity:
    def test_reference_point(self, ref_params, ref_coeffs):
        gv = group_velocity(ref_params, math.pi / 2)
        assert abs(gv - (-0.6)) < 1e-8
        assert abs(abs(gv) - ref_coeffs.M1_tilde / ref_coeffs.M1) < 1e-8

    def test_analytic_value_p2_q1(self):
        # d/dk of -2 atan((p/q) tan(k/2)) at k = pi/2 with p/q = 2 is -0.8
        gv = group_velocity(LpkdvParams(2.0, 1.0), math.pi / 2)
        assert abs(gv - (-0.8)) < 1e-8

    def test_small_kappa_limit(self):
        params = LpkdvParams(2.5, 0.7)
        gv = group_velocity(params, 1e-3)
        assert abs(gv - (-params.p / params.q)) < 1e-4

    def test_consistency_with_scale_ratio(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            p = rng.uniform(0.6, 3.0)
            q = rng.uniform(0.05, p - 0.2)
            kappa = rng.uniform(0.15, math.pi - 0.25)
            params = LpkdvParams(p, q)
            co = compute_coefficients(params, kappa)
            gv = group_velocity(params, kappa)
            assert abs(abs(gv) - co.M1_tilde / co.M1) < 1e-6 * max(1.0, abs(gv))


class TestSlowCoordinates:
    def test_xi_constant_along_characteristic(self, ref_coeffs):
        co = ref_coeffs
        rng = np.random.default_rng(4)
        for _ in range(10):
            n0, m0, s = rng.uniform(0, 50, 3)
            a = co.xi(n0, m0, 32)
            b = co.xi(n0 + co.M1_tilde * s, m0 + co.branch * co.M1 * s, 32)
            assert abs(a - b) < 1e-10

    def test_tau(self, ref_coeffs):
        assert ref_coeffs.tau(8, 16) == 8 / 256.0
        assert np.array_equal(ref_coeffs.tau(np.arange(3), 4), np.arange(3) / 16.0)

    def test_characteristic_matches_group_velocity(self, ref_params, ref_coeffs):
        # moving along constant xi means dn/dm = branch*M1_tilde/M1 = v_group
        slope = ref_coeffs.branch * ref_coeffs.M1_tilde / ref_coeffs.M1
        assert abs(slope - group_velocity(ref_params, math.pi / 2)) < 1e-8


def _grid_series(values, xi0, dxi, x, offsets, antiderivative):
    """Reference evaluation of periodic grid data xi0 + dxi*i (grid along
    axis 0, one profile per column), which must be spectrally resolved:
    column c at x[i] + offsets[c] as the sum over all the fft's modes of
    coef_k e^{i k (x - xi0)}, k from np.fft.fftfreq.  With antiderivative,
    the antiderivative zero at xi0: the series of coef_k / (i k) less its
    value at xi0, plus coef_0 (x - xi0)."""
    values = np.asarray(values).reshape(len(values), -1)
    spectra = np.fft.fft(values, axis=0)
    _check_spectra_resolved(spectra.T)
    coef = spectra / len(values)
    k = 2.0 * np.pi * np.fft.fftfreq(len(values), dxi)
    x = np.atleast_1d(x) - xi0
    ramp = 0.0
    if antiderivative:
        ramp = np.add.outer(x, offsets) * coef[0]
        periodic = coef[1:] / (1j * k[1:, None])
        coef = np.concatenate([-periodic.sum(axis=0, keepdims=True), periodic])
    return np.exp(1j * np.outer(x, k)) @ (coef * np.exp(1j * np.outer(k, offsets))) + ramp


def zeroth_harmonic(env, coeffs):
    """u1_0(xi) = Re(tau1) * (antiderivative of |u|^2, zero at xi0)."""
    amp2 = np.abs(env.values) ** 2
    _check_spectra_resolved(np.fft.fft(amp2))
    return lambda xi: coeffs.tau1.real * _grid_series(amp2, env.xi0, env.dxi, xi, [0.0],
                                                      True)[:, 0].real


class TestZerothHarmonic:
    def test_zero_envelope(self, ref_coeffs):
        env = Envelope(0.0, 0.1, np.zeros(64, dtype=complex))
        z = zeroth_harmonic(env, ref_coeffs)
        assert np.allclose(z(np.linspace(0, 6.4, 20)), 0.0)

    def test_constant_section_slope(self, ref_coeffs):
        # constant |u| = c on an interior plateau: slope there is Re(tau1) c^2
        L, dxi = 512, 40.0 / 512
        xi = dxi * np.arange(L)
        vals = 0.4 * (np.tanh((xi - 15) / 0.3) - np.tanh((xi - 25) / 0.3))
        env = Envelope(0.0, dxi, vals.astype(complex))
        z = zeroth_harmonic(env, ref_coeffs)
        slope = (z(22.0) - z(18.0))[0] / 4.0
        assert np.isclose(slope, ref_coeffs.tau1.real * 0.64, rtol=1e-6)

    def test_unresolved_plateau_rejected(self, ref_coeffs):
        # a step plateau puts 1.5e-3 of its energy in the top third of the
        # wavenumbers; its Fourier sum would ring, so it is refused
        L, dxi = 512, 40.0 / 512
        xi = dxi * np.arange(L)
        vals = np.where((xi > 15) & (xi < 25), 0.8, 0.0).astype(complex)
        with pytest.raises(PreconditionError, match="resolved"):
            zeroth_harmonic(Envelope(0.0, dxi, vals), ref_coeffs)

    def test_anchored_at_grid_start(self, ref_coeffs, ref_envelope):
        shifted = Envelope(-7.3, ref_envelope.dxi, ref_envelope.values)
        for env in (ref_envelope, shifted):
            assert abs(zeroth_harmonic(env, ref_coeffs)(env.xi0)[0]) < 1e-15

    def test_total_rise_matches_quadrature(self, ref_coeffs, ref_envelope):
        z = zeroth_harmonic(ref_envelope, ref_coeffs)
        rise = (z(ref_envelope.xi0 + ref_envelope.period) - z(ref_envelope.xi0))[0]
        # independent oracle: trapezoid integral of |u|^2 on a periodic grid
        amp2 = np.abs(ref_envelope.values) ** 2
        total = float(np.sum(amp2)) * ref_envelope.dxi
        assert np.isclose(rise, ref_coeffs.tau1.real * total, rtol=1e-8)

    def test_monotone_ramp(self, ref_coeffs, ref_envelope):
        z = zeroth_harmonic(ref_envelope, ref_coeffs)
        xs = np.linspace(0.0, 40.0, 200)
        diffs = np.diff(z(xs))
        assert np.all(diffs <= 1e-12)  # tau1 < 0 here: monotone decreasing

    def test_wrap_continuity(self, ref_coeffs, ref_envelope):
        z = zeroth_harmonic(ref_envelope, ref_coeffs)
        left = z(40.0 - 1e-9)
        right = z(40.0 + 1e-9)
        assert abs(left - right)[0] < 1e-6


class TestAssemble:
    def test_zero_envelope_zero_field(self, ref_coeffs):
        env = gaussian_envelope(256, 0.0, 40.0, 0.0, 1.0, 20.0)
        evo = frozen_evolution(env, ref_coeffs.nls_coefficients())
        ans = assemble_ansatz(evo, ref_coeffs, 16, (32, 16))
        assert np.all(ans.field.values == 0.0)

    def test_assembled_field_is_real(self, ref_evolution, ref_coeffs):
        ans = assemble_ansatz(ref_evolution, ref_coeffs, 32, (64, 32))
        assert ans.field.kind == "real"

    def test_window_sizes(self, ref_evolution, ref_coeffs):
        # a single row is a window; no row, or a single column, is not
        ans = assemble_ansatz(ref_evolution, ref_coeffs, 16, (32, 1))
        assert ans.field.shape == (32, 1)
        for window in ((32, 0), (1, 8)):
            with pytest.raises(DomainError, match="2x1"):
                assemble_ansatz(ref_evolution, ref_coeffs, 16, window)

    def test_rows_count_from_the_first_stored_time(self, ref_coeffs, ref_envelope):
        # the same envelope started at tau = 1 assembles the same field as at
        # tau = 0: row m sits at tau_min + m/N^2, and the NLS is autonomous
        fields = []
        for tau in (0.0, 1.0):
            env = Envelope(ref_envelope.xi0, ref_envelope.dxi, ref_envelope.values, tau)
            evo = evolve_rows(env, ref_coeffs, 24, 16)
            assert evo.tau_min == tau
            fields.append(assemble_ansatz(evo, ref_coeffs, 16, (64, 24)).field.values)
        assert np.max(np.abs(fields[1] - fields[0])) <= 1e-12 * np.max(np.abs(fields[0]))

    def test_amplitude_halves_with_doubled_N(self, ref_evolution, ref_coeffs):
        # window wide enough that both N cover the full envelope bump
        a16 = assemble_ansatz(ref_evolution, ref_coeffs, 16, (256, 32))
        a32 = assemble_ansatz(ref_evolution, ref_coeffs, 32, (256, 32))
        ratio = np.max(np.abs(a16.field.values)) / np.max(np.abs(a32.field.values))
        assert 1.8 <= ratio <= 2.2  # leading term ~ 1/N, within 10%

    def test_tau_out_of_range(self, ref_coeffs, ref_envelope):
        evo_short = frozen_evolution(ref_envelope, ref_coeffs.nls_coefficients())
        object.__setattr__(evo_short, "taus", np.array([0.0, 1e-4]))
        object.__setattr__(evo_short, "snapshots", evo_short.snapshots)
        with pytest.raises(DomainError, match="row m"):
            assemble_ansatz(evo_short, ref_coeffs, 4, (16, 64))

    def test_envelope_values_on_row(self, ref_evolution, ref_coeffs):
        ans = assemble_ansatz(ref_evolution, ref_coeffs, 32, (64, 8))
        vals = ans.envelope_values(np.arange(10.0), 3)
        assert vals.shape == (10,) and np.all(np.isfinite(vals))

    def test_envelope_values_match_closed_form(self, ref_coeffs, ref_envelope):
        # the Fourier sum reproduces the resolved Gaussian between grid
        # points to round-off, on several rows m in one call
        evo = frozen_evolution(ref_envelope, ref_coeffs.nls_coefficients())
        ans = assemble_ansatz(evo, ref_coeffs, 16, (8, 8))
        n = np.arange(0.0, 300.0, 0.7)
        m = np.array([0.0, 5.5, 40.0, 77.25])
        got = ans.envelope_values(n, m)
        xi = np.mod(ans.coeffs.xi(n[:, None], m[None, :], ans.N), 40.0)
        exact = np.exp(-((xi - 12.0) ** 2) / (2.0 * 1.25 ** 2))
        assert got.shape == (len(n), len(m))
        assert np.max(np.abs(got - exact)) < 1e-12

    def test_grid_start_offset(self, ref_coeffs):
        # the same periodic envelope sampled from xi0 = 0 and xi0 = -7.3
        # assembles the same field (48 rows: two row blocks) up to the global
        # constant of the zeroth-harmonic anchor, under which lpKdV is invariant
        c = ref_coeffs.nls_coefficients()
        fields = []
        for xi0 in (0.0, -7.3):
            env = gaussian_envelope(512, xi0, 40.0, 1.0, 1.25, 12.0)
            fields.append(assemble_ansatz(frozen_evolution(env, c), ref_coeffs,
                                          16, (64, 48)).field.values)
        diff = fields[1] - fields[0]
        assert np.max(np.abs(fields[0])) > 0.05
        assert np.max(np.abs(diff - diff.mean())) < 1e-12


def _grid_assemble(evolution, coeffs, N, window):
    """The field assembled through grid values, 32 rows at a time: the
    inverse fft of spectra_at, then _grid_series (resolution check and sum
    over all the fft's modes) at the lattice points, the zeroth harmonic
    likewise from |values|^2, and one exp per lattice point for the carrier
    phase, at xi = (M1 n - branch M1_tilde m)/N and tau = m/N^2 written out.  The reference for the
    spectral evaluation in assemble_ansatz, sharing none of its code."""
    n_size, m_size = window
    kappa, omega = coeffs.carrier.kappa, coeffs.carrier.omega
    ns = np.arange(n_size)
    x = (coeffs.M1 * ns) / N
    out = np.empty((n_size, m_size))
    for start in range(0, m_size, 32):
        ms = np.arange(start, min(start + 32, m_size))
        offsets = -coeffs.branch * coeffs.M1_tilde * ms / N
        values = np.fft.ifft(evolution.spectra_at(ms / N ** 2), axis=1).T
        u1 = _grid_series(values, evolution.xi0, evolution.dxi, x, offsets, False)
        phase = np.exp(1j * (kappa * ns[:, None] - omega * ms[None, :]))
        u0 = _grid_series(np.abs(values) ** 2, evolution.xi0, evolution.dxi, x, offsets, True)
        block = 2.0 * np.real(u1 * phase) / N + coeffs.tau1 * u0.real / N
        block += 2.0 * np.real(coeffs.tau2 * u1 ** 2 * phase ** 2) / N ** 2
        out[:, start:start + len(ms)] = block
    return out


class TestSpectralAssembly:
    @pytest.mark.parametrize("N", REF_N_LIST)
    @pytest.mark.parametrize("zeroth, second", [(True, True), (True, False),
                                                (False, True), (False, False)])
    def test_matches_grid_reference(self, ref_evolution, ref_coeffs, N, zeroth, second):
        # a harmonic left out is one whose coefficient is zeroed
        coeffs = replace(ref_coeffs, tau1=ref_coeffs.tau1 if zeroth else 0.0,
                         tau2=ref_coeffs.tau2 if second else 0j)
        ans = assemble_ansatz(ref_evolution, coeffs, N, REF_WINDOW)
        ref = _grid_assemble(ref_evolution, coeffs, N, REF_WINDOW)
        assert np.max(np.abs(ans.field.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matrix_widths(self, ref_evolution):
        # u1_1 takes j = -J..J and |u1_1|^2, real with twice the band,
        # j = 0..2J, so 4J must stay inside the grid |u1_1|^2 is formed on
        # (twice the working grid, within the envelope's), and J below the
        # working grid's Nyquist mode; J is the highest |j| at which a stored
        # step end carries |u_hat| or dtau |N_hat| above eps times its
        # largest |u_hat|, over every step end
        evo = ref_evolution
        J = evo.band
        assert 0 < 4 * J < min(2 * evo.L, evo.envelope_L)
        assert J < evo.L / 2
        mag = np.abs(evo.snapshots)
        floor = np.finfo(float).eps * mag.max(axis=1, keepdims=True)
        above = np.any((mag > floor) | (evo.dtau * np.abs(evo.nonlinear) > floor), axis=0)
        j = np.flatnonzero(above)
        assert J == np.minimum(j, evo.L - j).max()


class TestResolutionGuard:
    """assemble_ansatz refuses an envelope, or an envelope whose square, has
    more than 1e-10 of its energy in the top third of the wavenumbers."""

    @staticmethod
    def _assemble(values, coeffs):
        env = Envelope(0.0, 40.0 / len(values), values.astype(complex))
        return assemble_ansatz(frozen_evolution(env, coeffs.nls_coefficients()),
                               coeffs, 16, (32, 16))

    def test_unresolved_envelope(self, ref_coeffs):
        j = np.arange(64)
        with pytest.raises(PreconditionError, match="resolved"):
            self._assemble(np.exp(2j * np.pi * 28 * j / 64), ref_coeffs)

    def test_unresolved_square(self, ref_coeffs):
        # modes +-20 of 64 are resolved; |u|^2 puts a third of its energy in
        # modes +-40, which alias to -+24, beyond a third of the band
        j = np.arange(64)
        with pytest.raises(PreconditionError, match="resolved"):
            self._assemble(np.cos(2 * np.pi * 20 * j / 64), ref_coeffs)


class TestResidualScaling:
    def test_zero_envelope_exact(self, ref_coeffs):
        env = gaussian_envelope(256, 0.0, 40.0, 0.0, 1.0, 20.0)
        evo = frozen_evolution(env, ref_coeffs.nls_coefficients())
        rep = residual_scaling(evo, ref_coeffs, [8, 12, 16], (48, 24))
        assert rep["exponent"] == "exact"

    def test_nlist_validation(self, ref_evolution, ref_coeffs):
        with pytest.raises(DomainError):
            residual_scaling(ref_evolution, ref_coeffs, [32, 16, 64], (48, 24))

    def test_frozen_envelope_regression(self, ref_evolution, ref_coeffs,
                                        ref_envelope):
        """The tau-frozen ansatz keeps the 1/N^3 exponent but with a strictly
        larger constant (the NLS defect adds to the unreconstructed-harmonic
        residue at the same order)."""
        window, n_list = (192, 96), [16, 32, 64]
        evolved = residual_scaling(ref_evolution, ref_coeffs, n_list, window)
        frozen = residual_scaling(
            frozen_evolution(ref_envelope, ref_coeffs.nls_coefficients()),
            ref_coeffs, n_list, window)
        assert frozen["exponent"] > 2.7
        for r_froz, r_evol in zip(frozen["residual"], evolved["residual"]):
            assert r_froz > r_evol


def test_nls_coefficients_kill_first_harmonic_secularity(ref_coeffs, ref_envelope):
    """Demodulating the lattice residual at the carrier isolates the secular
    term the NLS is meant to cancel: evolving the envelope with perturbed
    (rho1, rho2) revives it in proportion to the perturbation, pinning the
    coefficient values independently of their closed forms."""
    from lpkdv.nls import NlsCoefficients, dense_dtau, nls_evolve_dense
    from lpkdv.quad import residual_field

    co = ref_coeffs
    params = co.params
    N, window = 32, (384, 160)
    tau_needed = (window[1] - 1) / N ** 2 * 1.01
    kappa, omega = co.carrier.kappa, co.carrier.omega

    def first_harmonic_residual(c):
        evo = nls_evolve_dense(ref_envelope, c, tau_needed,
                               dense_dtau(ref_envelope, c, tau_needed - ref_envelope.tau))
        ans = assemble_ansatz(evo, co, N, window)
        r = residual_field(ans.field, params)[8:-8, 8:-8]
        ns = np.arange(8, 8 + r.shape[0])
        ms = np.arange(8, 8 + r.shape[1])
        demod = r * np.exp(-1j * (kappa * ns[:, None] - omega * ms[None, :]))
        nb, mb = r.shape[0] // 4, r.shape[1] // 4
        blocks = demod[:nb * 4, :mb * 4].reshape(nb, 4, mb, 4).mean(axis=(1, 3))
        return float(np.max(np.abs(blocks)))

    base = first_harmonic_residual(NlsCoefficients(co.rho1, co.rho2))
    rho1_off = first_harmonic_residual(NlsCoefficients(co.rho1 * 1.1, co.rho2))
    both_off = first_harmonic_residual(NlsCoefficients(co.rho1 * 1.25, co.rho2 * 1.25))
    assert rho1_off >= 1.7 * base, (base, rho1_off)
    assert both_off >= 3.0 * base, (base, both_off)


def test_plus_branch_residual_scaling():
    """The 1/N^3 residual order holds on the other branch too (pq < 0,
    branch = +1): validates the correlated sign wiring end to end."""
    from lpkdv.nls import dense_dtau, gaussian_envelope, nls_evolve_dense

    co = compute_coefficients(LpkdvParams(1.5, -0.5), math.pi / 2)
    env = gaussian_envelope(1024, 0.0, 40.0, 1.0, 1.25, 12.0)
    c = co.nls_coefficients()
    window = (320, 96)
    tau_needed = (window[1] - 1) / 16 ** 2 * 1.01
    evo = nls_evolve_dense(env, c, tau_needed, dense_dtau(env, c, tau_needed - env.tau))
    rep = residual_scaling(evo, co, [16, 32, 64], window)
    assert rep["exponent"] >= 2.7, rep


def test_fit_scaling_exponent_recovers_slope():
    n = np.array([8, 16, 32, 64])
    r = 5.0 * (1.0 / n) ** 2.5
    expo, r2 = fit_scaling_exponent(n, r)
    assert abs(expo - 2.5) < 1e-12 and r2 > 0.999999
