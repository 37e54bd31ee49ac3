import math

import numpy as np
import pytest

from lpkdv.errors import DomainError, PreconditionError, SingularFlowError
from lpkdv.nls import gaussian_envelope
from lpkdv.quad import LatticeField, LpkdvParams, evolve_ivp
from lpkdv.reduction import assemble_ansatz
from lpkdv.symmetries import (
    FLOW_STENCIL,
    first_harmonic_blocks,
    flow_rhs,
    flow_step,
    harmonic_projection,
    symmetry_residual_scaling,
)
from tests import flow_oracle
from tests.conftest import make_bump_solution
from tests.frozen_oracle import frozen_evolution

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

    @pytest.mark.parametrize("call", [flow_rhs, lambda f, p, w: flow_step(f, p, w, 0.1)],
                             ids=["flow_rhs", "flow_step"])
    def test_unknown_flow_one_message(self, call):
        """flow_rhs and flow_step refuse an unknown id with the same message."""
        with pytest.raises(DomainError, match=r"unknown flow 'h3'; expected one of "
                                              r"\('flow1', 'flow2', 'broken'\)"):
            call(LatticeField(np.zeros((16, 3))), P, "h3")


class TestFlowStep:
    def test_constant_unchanged(self):
        f = LatticeField(np.full((16, 4), 1.1))
        out = flow_step(f, P, "flow1", 0.2)
        core = out.values[4:-4, :]
        assert np.max(np.abs(core - 1.1)) < 1e-15

    def test_margin_accounting(self):
        # 4 stages x stencil width rows on each n-side are invalid and come out 0
        margin = 4 * FLOW_STENCIL["flow2"]
        out = flow_step(LatticeField(np.full((24, 4), 1.1)), P, "flow2", 0.1).values
        assert np.all(out[:margin] == 0.0) and np.all(out[-margin:] == 0.0)
        assert np.max(np.abs(out[margin:-margin] - 1.1)) < 1e-15

    def test_step_back_reversibility(self, bump_solution):
        field, params = bump_solution
        dl = 0.25
        fwd = flow_step(field, params, "flow1", dl)
        back = flow_step(fwd, params, "flow1", -dl)
        m = 2 * 4 * FLOW_STENCIL["flow1"] + 2  # two steps of erosion, plus 2
        defect = np.max(np.abs(back.values[m:-m, :]
                               - field.values[m:-m, :]))
        # O(dl^5) round trip; reference scale from the halved-step run
        fwd_h = flow_step(field, params, "flow1", dl / 2)
        back_h = flow_step(fwd_h, params, "flow1", -dl / 2)
        defect_h = np.max(np.abs(back_h.values[m:-m, :]
                                 - field.values[m:-m, :]))
        assert defect < 1e-6
        assert defect / max(defect_h, 1e-300) > 16  # ~2^5 per halving

    def test_one_step_richardson(self, bump_solution):
        # the ONE-step defect against a dl/8-substep reference over the same
        # interval is the local error O(dl^5): halving dl cuts it by ~2^5
        field, params = bump_solution
        m = 18

        def one_step_defect(dl):
            single = flow_step(field, params, "flow1", dl)
            state = field
            for _ in range(8):
                state = flow_step(state, params, "flow1", dl / 8)
            return np.max(np.abs(single.values[m:-m, :]
                                 - state.values[m:-m, :]))

        e1, e2 = one_step_defect(0.4), one_step_defect(0.2)
        assert 24 <= e1 / e2 <= 40  # ~2^5


class TestResidualScaling:
    def test_flow1_exponent(self, bump_solution):
        field, params = bump_solution
        rep = symmetry_residual_scaling(field, params, "flow1",
                                        [0.125, 0.25, 0.5])
        assert rep["exponent"] >= 4.0

    def test_flow2_exponent(self, bump_solution):
        field, params = bump_solution
        rep = symmetry_residual_scaling(field, params, "flow2",
                                        [0.125, 0.25, 0.5])
        assert rep["exponent"] >= 4.0

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
        assert "passed" not in rep  # the pass rule is flow-check's

    def test_lambda_list_validation(self, bump_solution):
        field, params = bump_solution
        with pytest.raises(DomainError):
            symmetry_residual_scaling(field, params, "flow1", [0.5, 0.25, 0.125])

    def test_unknown_flow_refused_before_any_residual(self, bump_solution, monkeypatch):
        """An unknown flow id is a DomainError naming it, raised before the
        input's residual scan, where the stencil lookup after that scan
        raised KeyError."""
        import lpkdv.symmetries as symmetries

        def scanned(*args, **kwargs):
            raise AssertionError("a residual was computed")

        monkeypatch.setattr(symmetries, "max_residual", scanned)
        monkeypatch.setattr(symmetries, "residual_field", scanned)
        field, params = bump_solution
        with pytest.raises(DomainError, match="unknown flow 'bogus'"):
            symmetry_residual_scaling(field, params, "bogus", [0.125, 0.25, 0.5])


class TestHarmonicProjection:
    def test_zero_envelope(self, ref_coeffs):
        env = gaussian_envelope(128, 0.0, 40.0, 0.0, 1.0, 20.0)
        evo = frozen_evolution(env, ref_coeffs.nls_coefficients())
        ans = assemble_ansatz(evo, ref_coeffs, 16, (64, 16))
        with pytest.raises(PreconditionError, match="ENVELOPE_FLOOR"):
            harmonic_projection(ans, "flow1", first_harmonic_blocks(ans, "flow1"))

    def test_flow1_matches_reduced_coefficient(self, ref_evolution, ref_coeffs):
        ans = assemble_ansatz(ref_evolution, ref_coeffs, 32, (256, 64))
        rep = harmonic_projection(ans, "flow1", first_harmonic_blocks(ans, "flow1"))
        assert rep["weighted_rel_error"] <= 3.0 / 32

    def test_flow2_constant_multiple(self, ref_evolution, ref_coeffs):
        ans = assemble_ansatz(ref_evolution, ref_coeffs, 32, (256, 64))
        rep = harmonic_projection(ans, "flow2", first_harmonic_blocks(ans, "flow1"))
        f21 = rep["flow2_over_flow1"]
        assert f21["std_over_mean"] <= 0.05
        # reparametrization constant: (1 + cos(kappa)/2)/p^2, real
        p = ref_coeffs.params.p
        expect = (1.0 + np.cos(ref_coeffs.carrier.kappa) / 2.0) / p ** 2
        assert abs(complex(*f21["weighted_mean"]) - expect) < 0.05 * expect

    @pytest.mark.parametrize("which", ["flow1", "flow2"])
    @pytest.mark.parametrize("N", [32, 64])
    def test_blocks_match_direct_demodulation(self, ref_evolution, ref_coeffs, which, N):
        """The separable carrier, e^{-i kappa n} e^{i omega m}, against the
        exp of every entry e^{-i (kappa n - omega m)}, on flow-project's
        384 x 384 window."""
        ans = assemble_ansatz(ref_evolution, ref_coeffs, N, (384, 384))
        kappa, omega = ref_coeffs.carrier.kappa, ref_coeffs.carrier.omega
        s, P = FLOW_STENCIL[which], math.ceil(2 * math.pi / kappa)
        inner = flow_rhs(ans.field, ref_coeffs.params, which).values[s:-s]
        n = s + np.arange(inner.shape[0])[:, None]
        m = np.arange(inner.shape[1])[None, :]
        demod = inner * np.exp(-1j * (kappa * n - omega * m))
        nb, mb = inner.shape[0] // P, inner.shape[1] // P
        want = demod[:nb * P, :mb * P].reshape(nb, P, mb, P).mean(axis=(1, 3))
        got, _ = first_harmonic_blocks(ans, which)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _complex_bump_solution(n_size, m_size):
    """An exact complex lpKdV solution: a bump times a carrier on the first row."""
    n = np.arange(n_size)
    row0 = 0.5 * np.exp(-((n - n_size // 2) / 10.0) ** 2 + 0.3j * n)
    return evolve_ivp(row0, np.full(m_size, row0[0]), P), P


def _record(call, *args):
    try:
        call(*args)
    except SingularFlowError as exc:
        return str(exc), exc.location, exc.stage
    return None


class TestFlowOracle:
    """The flow kernels against the textbook versions in tests/flow_oracle.py."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("which", ["flow1", "flow2", "broken"])
    def test_rhs_and_step_bit_identical(self, which, kind):
        rng = np.random.default_rng(41)
        for shape in [(2 * FLOW_STENCIL[which] + 1, 3), (2 * FLOW_STENCIL[which] + 1, 1),
                      (40, 7)]:
            u = 0.3 * rng.standard_normal(shape)
            f = LatticeField(u + 0.3j * rng.standard_normal(shape) if kind == "complex" else u)
            got, want = flow_rhs(f, P, which).values, flow_oracle.flow_values(f.values, P, which)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for lam in (0.125, -0.3, 0.5):
                got, want = flow_step(f, P, which, lam), flow_oracle.flow_step(f, P, which, lam)
                assert got.kind == want.kind == kind
                assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("which", ["flow1", "flow2", "broken"])
    @pytest.mark.parametrize("shape", [(200, 11), (4000, 24)])
    def test_sweep_residuals_bit_identical(self, which, kind, shape):
        field, params = (make_bump_solution(*shape) if kind == "real"
                         else _complex_bump_solution(*shape))
        assert field.kind == kind
        lambdas = [0.125, 0.25, 0.5]
        got = symmetry_residual_scaling(field, params, which, lambdas)["residual"]
        assert got == flow_oracle.residual_scaling(field, params, which, lambdas)

    # flow2's denominator rows on a 5-row window: D[1] is C's alone, D[2] A's
    # and D[3] B's; each (n, m) below makes D[n, m] = 2p + u[n-1] - u[n+1] = 0
    @pytest.mark.parametrize("zeros", [[(2, 1)], [(3, 2)], [(1, 0)], [(1, 0), (2, 1)]],
                             ids=["A", "B", "C", "C-first-row-major"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_flow2_fault_records(self, zeros, kind):
        u = np.zeros((5, 3), dtype=complex if kind == "complex" else float)
        for n, m in zeros:
            u[n - 1, m], u[n + 1, m] = -P.p, P.p
        f = LatticeField(u)
        for got, want in [(lambda: flow_rhs(f, P, "flow2"),
                           lambda: LatticeField(flow_oracle.flow_values(u, P, "flow2"))),
                          (lambda: flow_step(f, P, "flow2", 0.1),
                           lambda: flow_oracle.flow_step(f, P, "flow2", 0.1))]:
            record = _record(want)
            assert record is not None and _record(got) == record

    @pytest.mark.parametrize("n_size", [3, 4])
    def test_flow2_step_under_five_rows(self, n_size):
        """Below 5 rows no flow2 value exists and A, B and C are empty: a zero
        denominator D[1] is no fault, the step gives the textbook's zeros and
        no warning (an error under this suite's filter)."""
        u = np.zeros((n_size, 3))
        u[0, 1], u[2, 1] = -P.p, P.p    # D[1, 1] = 0
        got = flow_step(LatticeField(u), P, "flow2", 0.1)
        assert got.values.tobytes() == flow_oracle.flow_step(LatticeField(u), P, "flow2",
                                                             0.1).values.tobytes()

    def test_flow2_fault_records_name_the_row_major_first_of_a(self):
        """Two faults where C's comes first in row-major order: A is checked
        first, so its fault is the one reported, here as by the oracle."""
        u = np.zeros((5, 3))
        u[0, 0], u[2, 0] = -P.p, P.p    # D[1, 0] = 0: C's, reported at n = 2
        u[1, 1], u[3, 1] = -P.p, P.p    # D[2, 1] = 0: A's
        assert _record(flow_rhs, LatticeField(u), P, "flow2") == (
            "flow denominator below 1.5e-10 at n = 2, m = 1", (2, 1), None)

    @pytest.mark.parametrize("which, parent_peak", [("flow1", 9.1), ("flow2", 13.0),
                                                    ("broken", 9.1)])
    def test_sweep_peak_at_most_the_textbook_one(self, which, parent_peak):
        """One sweep of the 4000 x 24 bump window peaks, in tracemalloc, at no
        more windows than the textbook step's (measured 9.1, 13.0 and 9.1)."""
        import tracemalloc

        field, params = make_bump_solution(n_size=4000, m_size=24)
        tracemalloc.start()
        try:
            symmetry_residual_scaling(field, params, which, [0.125, 0.25, 0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < parent_peak * field.values.nbytes
