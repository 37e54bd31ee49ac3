import numpy as np
import pytest

from lpkdv.errors import DomainError, PreconditionError, SingularFlowError
from lpkdv.nls import frozen_evolution, gaussian_envelope
from lpkdv.quad import LatticeField, LpkdvParams
from lpkdv.reduction import assemble_ansatz
from lpkdv.symmetries import (
    FlowState,
    flow_rhs,
    flow_step,
    harmonic_projection,
    symmetry_residual_scaling,
)

P = LpkdvParams(1.5, -0.5)


def interior(arr):
    return arr[~np.isnan(arr)]


class TestFlowRhs:
    @pytest.mark.parametrize("which", ["flow1", "flow2"])
    def test_vanishes_on_constants(self, which):
        f = LatticeField(np.full((12, 4), 3.3))
        rhs = flow_rhs(f, P, which).values
        assert np.max(np.abs(interior(rhs))) < 1e-15

    def test_flow1_direct_reading(self):
        # at a site with u[n-1] - u[n+1] = w the value is 1/(2p+w) - 1/(2p)
        params = LpkdvParams(1.0, 0.3)
        u = np.zeros((7, 3))
        u[2, 1], u[4, 1] = 1.5, -0.5  # w at n=3, m=1 is 1.5 - (-0.5) = 2
        rhs = flow_rhs(LatticeField(u), params, "flow1").values
        assert np.isclose(rhs[3, 1], 1.0 / 4.0 - 1.0 / 2.0)  # = -1/4

    def test_margins_marked_invalid(self):
        f = LatticeField(np.zeros((10, 3)))
        r1 = flow_rhs(f, P, "flow1").values
        assert np.all(np.isnan(r1[[0, -1], :])) and not np.any(np.isnan(r1[1:-1, :]))
        r2 = flow_rhs(f, P, "flow2").values
        assert np.all(np.isnan(r2[[0, 1, -2, -1], :]))

    def test_only_n_shifts(self):
        rng = np.random.default_rng(6)
        u = 0.1 * rng.standard_normal((14, 6))
        base = flow_rhs(LatticeField(u), P, "flow2").values
        u2 = u.copy()
        u2[:, 4] += 10.0  # whole different row
        pert = flow_rhs(LatticeField(u2), P, "flow2").values
        cols = [m for m in range(6) if m != 4]
        assert np.array_equal(base[:, cols][2:-2], pert[:, cols][2:-2])

    def test_singular_flow(self):
        u = np.zeros((9, 3))
        u[2, 0], u[4, 0] = -P.p, P.p  # u[n-1] - u[n+1] = -2p at n = 3
        with pytest.raises(SingularFlowError) as info:
            flow_rhs(LatticeField(u), P, "flow1")
        assert str(info.value) == "flow denominator below 1.5e-10 at n = 3, m = 0"
        assert info.value.location == (3, 0)
        assert all(type(v) is int for v in info.value.location)

    def test_unknown_flow(self):
        with pytest.raises(DomainError):
            flow_rhs(LatticeField(np.zeros((8, 3))), P, "flow7")


class TestFlowStep:
    def test_constant_unchanged(self):
        f = LatticeField(np.full((16, 4), 1.1))
        out = flow_step(FlowState(f), P, "flow1", 0.2)
        core = out.field.values[4:-4, :]
        assert np.max(np.abs(core - 1.1)) < 1e-15

    def test_margin_accounting(self):
        f = LatticeField(np.zeros((24, 4)))
        out = flow_step(FlowState(f), P, "flow2", 0.1)
        assert out.invalid_margin == 8  # 4 stages x stencil width 2
        assert out.lam == 0.1

    def test_step_back_reversibility(self, bump_solution):
        field, params = bump_solution
        dl = 0.25
        fwd = flow_step(FlowState(field), params, "flow1", dl)
        back = flow_step(fwd, params, "flow1", -dl)
        m = back.invalid_margin + 2
        defect = np.max(np.abs(back.field.values[m:-m, :]
                               - field.values[m:-m, :]))
        # O(dl^5) round trip; reference scale from the halved-step run
        fwd_h = flow_step(FlowState(field), params, "flow1", dl / 2)
        back_h = flow_step(fwd_h, params, "flow1", -dl / 2)
        defect_h = np.max(np.abs(back_h.field.values[m:-m, :]
                                 - field.values[m:-m, :]))
        assert defect < 1e-6
        assert defect / max(defect_h, 1e-300) > 16  # ~2^5 per halving

    def test_one_step_richardson(self, bump_solution):
        # the ONE-step defect against a dl/8-substep reference over the same
        # interval is the local error O(dl^5): halving dl cuts it by ~2^5
        field, params = bump_solution
        m = 18

        def one_step_defect(dl):
            single = flow_step(FlowState(field), params, "flow1", dl)
            state = FlowState(field)
            for _ in range(8):
                state = flow_step(state, params, "flow1", dl / 8)
            return np.max(np.abs(single.field.values[m:-m, :]
                                 - state.field.values[m:-m, :]))

        e1, e2 = one_step_defect(0.4), one_step_defect(0.2)
        assert 24 <= e1 / e2 <= 40  # ~2^5


class TestResidualScaling:
    def test_flow1_exponent(self, bump_solution):
        field, params = bump_solution
        rep = symmetry_residual_scaling(field, params, "flow1",
                                        [0.125, 0.25, 0.5])
        assert rep["passed"] and rep["exponent"] >= 4.0

    def test_flow2_exponent(self, bump_solution):
        field, params = bump_solution
        rep = symmetry_residual_scaling(field, params, "flow2",
                                        [0.125, 0.25, 0.5])
        assert rep["passed"] and rep["exponent"] >= 4.0

    def test_negative_control(self, bump_solution):
        field, params = bump_solution
        rep = symmetry_residual_scaling(field, params, "broken",
                                        [0.125, 0.25, 0.5])
        assert rep["exponent"] is not None and rep["exponent"] < 2.0

    def test_requires_solution(self):
        rng = np.random.default_rng(2)
        f = LatticeField(0.05 * rng.standard_normal((40, 8)))
        with pytest.raises(PreconditionError, match="not a solution"):
            symmetry_residual_scaling(f, P, "flow1", [0.1, 0.2, 0.4])

    @pytest.mark.parametrize("which", ["flow1", "flow2"])
    def test_all_below_floor(self, which):
        # both flows vanish exactly on a constant solution, so no residual
        # rises above the round-off floor and there is nothing to fit
        f = LatticeField(np.full((40, 6), 0.3))
        rep = symmetry_residual_scaling(f, P, which, [0.125, 0.25, 0.5])
        assert max(rep["residual"]) <= rep["floor"]
        assert rep["exponent"] is None
        assert rep["note"] == "below measurement floor"
        assert rep["passed"] is True

    def test_lambda_list_validation(self, bump_solution):
        field, params = bump_solution
        with pytest.raises(DomainError):
            symmetry_residual_scaling(field, params, "flow1", [0.5, 0.25, 0.125])


class TestHarmonicProjection:
    def test_zero_envelope(self, ref_coeffs):
        env = gaussian_envelope(128, 0.0, 40.0, 0.0, 1.0, 20.0)
        evo = frozen_evolution(env, ref_coeffs.nls_coefficients())
        ans = assemble_ansatz(evo, ref_coeffs, 16, (64, 16))
        rep = harmonic_projection(ans, ref_coeffs, "flow1")
        assert rep["n_points"] == 0

    def test_flow1_matches_reduced_coefficient(self, ref_evolution, ref_coeffs):
        ans = assemble_ansatz(ref_evolution, ref_coeffs, 32, (256, 64))
        rep = harmonic_projection(ans, ref_coeffs, "flow1")
        assert rep["weighted_rel_error"] <= 3.0 / 32

    def test_flow2_constant_multiple(self, ref_evolution, ref_coeffs):
        ans = assemble_ansatz(ref_evolution, ref_coeffs, 32, (256, 64))
        rep = harmonic_projection(ans, ref_coeffs, "flow2")
        f21 = rep["flow2_over_flow1"]
        assert f21["std_over_mean"] <= 0.05
        # reparametrization constant: (1 + cos(kappa)/2)/p^2, real
        p = ref_coeffs.params.p
        expect = (1.0 + np.cos(ref_coeffs.carrier.kappa) / 2.0) / p ** 2
        assert abs(complex(*f21["weighted_mean"]) - expect) < 0.05 * expect
