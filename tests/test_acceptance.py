"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
A criterion with a CLI contract runs the subcommand, so the CLI's pass rule
decides, and asserts exit 0 plus its literal bounds on the reported result;
the CLI tolerances are pinned by `test_default_tolerances_pinned`.  Runtime
bounds are asserted against the wall clock of the criterion body.
"""

import json
import math
import time

import numpy as np

from lpkdv.cli import DEFAULT_CONFIG, run
from lpkdv.nls import Envelope, gaussian_envelope, nls_evolve, plane_envelope
from lpkdv.quad import LpkdvParams
from lpkdv.reduction import compute_coefficients, group_velocity, residual_scaling
from tests.conftest import REF_N_LIST, REF_WINDOW


class Criterion:
    def __init__(self, number, label, limit_seconds):
        self.number = number
        self.label = label
        self.limit = limit_seconds
        self.t0 = time.monotonic()

    def finish(self):
        elapsed = time.monotonic() - self.t0
        print(f"ACCEPTANCE {self.number} ({self.label}): PASS [{elapsed:.1f}s "
              f"< {self.limit}s]")
        assert elapsed < self.limit, f"criterion {self.number} runtime exceeded"


def run_cli(tmp_path, subcommand, overrides=None):
    """Run a subcommand over the default config; assert it passes; its report."""
    cfg = tmp_path / f"{subcommand}.json"
    cfg.write_text(json.dumps(overrides or {}))
    out = tmp_path / subcommand
    assert run(subcommand, str(cfg), str(out), quiet=True) == 0
    return json.loads((out / "manifest.json").read_text())["result"]


def test_default_tolerances_pinned():
    """A loosened CLI tolerance fails here (cauchy_band: partner ratio in [0.75, 1.25])."""
    assert DEFAULT_CONFIG["tolerances"] == {
        "linear_residual": 1e-12,
        "ansatz_exponent": 2.7,
        "mass_drift": 1e-8,
        "projection_error_factor": 3.0,
        "flow_ratio_std": 0.05,
        "drift_shrink": 2.0,
        "cauchy_band": 0.25,
    }


def test_criterion_1_exact_operator_calculus(tmp_path):
    crit = Criterion(1, "exact operator calculus", 5.0)
    assert run_cli(tmp_path, "selftest")["failures"] == []
    crit.finish()


def test_criterion_2_dispersion(tmp_path):
    crit = Criterion(2, "plane-wave dispersion residual", 1.0)
    rep = run_cli(tmp_path, "dispersion", {"seed": 42})
    assert rep["max_linear_residual"] <= 1e-12, rep
    crit.finish()


def test_criterion_3_reduction_coefficients(ref_coeffs):
    crit = Criterion(3, "reduction coefficients", 1.0)
    assert abs(ref_coeffs.M1 - math.sqrt(5)) <= 1e-9
    assert abs(ref_coeffs.M1_tilde - 3 / math.sqrt(5)) <= 1e-9
    assert abs(ref_coeffs.rho1 - (-1.2)) <= 1e-9
    assert abs(ref_coeffs.rho2 - 16 / 75) <= 1e-9
    assert abs(ref_coeffs.tau2 - 1j / 3) <= 1e-9
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        p = rng.uniform(0.6, 3.0)
        q = rng.uniform(0.05, p - 0.2)
        kappa = rng.uniform(0.15, math.pi - 0.25)
        params = LpkdvParams(p, q)
        if abs(params.zeta * math.cos(kappa) - params.mu) < 1e-2:
            continue
        co = compute_coefficients(params, kappa)
        gv = group_velocity(params, kappa)
        assert abs(abs(gv) - co.M1_tilde / co.M1) <= 1e-6 * max(1.0, abs(gv))
        checked += 1
    crit.finish()


def test_criterion_4_multiscale_residual_scaling(tmp_path, ref_evolution, ref_coeffs):
    crit = Criterion(4, "multiscale residual scaling", 120.0)
    full = run_cli(tmp_path, "ansatz-residual")
    assert full["exponent"] >= 2.7, full
    no_second = residual_scaling(ref_evolution, ref_coeffs, REF_N_LIST,
                                 REF_WINDOW, include_second=False)
    no_zeroth = residual_scaling(ref_evolution, ref_coeffs, REF_N_LIST,
                                 REF_WINDOW, include_zeroth=False)
    assert full["exponent"] - no_second["exponent"] >= 0.7, no_second
    assert full["exponent"] - no_zeroth["exponent"] >= 0.7, no_zeroth
    crit.finish()


def test_criterion_5_nls_solver(tmp_path):
    crit = Criterion(5, "NLS solver exactness and conservation", 30.0)
    c = compute_coefficients(LpkdvParams(1.5, 0.5), math.pi / 2).nls_coefficients()
    L, period = 256, 40.0
    # constant-field exact solution over unit tau
    A = 0.5
    env_c = Envelope(0.0, period / L, np.full(L, A, dtype=complex))
    out = nls_evolve(env_c, c, 1.0, 1e-3)
    exact = A * np.exp(-1j * c.rho2 * A ** 2)
    assert np.max(np.abs(out.values - exact)) <= 1e-8
    # plane-wave exact solution
    A, kidx = 0.4, 3
    env_p = plane_envelope(L, 0.0, period, A, kidx)
    k = 2 * math.pi * kidx / period
    out = nls_evolve(env_p, c, 1.0, 5e-4)
    exact = env_p.values * np.exp(-1j * (c.rho2 * A ** 2 - c.rho1 * k ** 2))
    assert np.max(np.abs(out.values - exact)) <= 1e-8
    assert np.max(np.abs(np.abs(out.values) - A)) <= 1e-8
    # mass conservation at reference resolution
    rep = run_cli(tmp_path, "nls-evolve", {"nls": {"L": L, "tau_final": 1.0},
                  "envelope": {"amplitude": 0.8, "width": 2.5, "center": 20.0}})
    assert rep["mass_drift"] <= 1e-8, rep
    # phase and translation equivariance
    env_g = gaussian_envelope(L, 0.0, period, 0.8, 2.5, 20.0)
    phi = 1.2345
    a = nls_evolve(env_g, c, 0.5, 1e-3)
    b = nls_evolve(Envelope(0.0, env_g.dxi, env_g.values * np.exp(1j * phi)),
                   c, 0.5, 1e-3)
    assert np.max(np.abs(b.values - a.values * np.exp(1j * phi))) <= 1e-10
    shifted = nls_evolve(Envelope(0.0, env_g.dxi, np.roll(env_g.values, 31)),
                         c, 0.5, 1e-3)
    assert np.max(np.abs(shifted.values - np.roll(a.values, 31))) <= 1e-10
    crit.finish()


def test_criterion_6_nls_symmetry_commutators(tmp_path):
    crit = Criterion(6, "NLS symmetry commutators", 60.0)
    rep = run_cli(tmp_path, "commutators")
    for row in rep["sweep"]:
        assert row["passed"], row
    assert rep["passed"]
    crit.finish()


def test_criterion_7_lattice_symmetries(tmp_path):
    crit = Criterion(7, "lattice symmetry verification", 60.0)
    rep = run_cli(tmp_path, "flow-check")
    for which in ("flow1", "flow2"):
        assert rep[which]["exponent"] is None or rep[which]["exponent"] >= 4.0, rep
        assert rep[which]["passed"]
    neg = rep["negative_control"]
    assert neg["exponent"] is not None and neg["exponent"] < 2.0, neg
    crit.finish()


def test_criterion_8_harmonic_projection(tmp_path):
    crit = Criterion(8, "harmonic projection of the flows", 120.0)
    rep = run_cli(tmp_path, "flow-project")
    assert rep["flow1_N64"]["weighted_rel_error"] <= 3.0 / 64, rep
    assert 0.2 <= rep["error_halving_factor"] <= 0.8, rep
    assert rep["flow2_N64"]["flow2_over_flow1"]["std_over_mean"] <= 0.05, rep
    crit.finish()


def test_criterion_9_spectral_checks(tmp_path):
    crit = Criterion(9, "spectral problem checks", 180.0)
    # free-operator closed forms and gauge invariance
    rep = run_cli(tmp_path, "spectrum", {"seed": 3})
    for key in ("periodic_error", "dirichlet_error", "gauge_error"):
        assert rep[key] <= 1e-10, rep
    # isospectral drift shrinks >= 2x with doubled window
    rep = run_cli(tmp_path, "isospectral")
    assert rep["shrink_factor"] >= 2.0, rep
    # slow-variable limit of the spectral problem
    rep = run_cli(tmp_path, "zs-limit")
    disc = rep["discrepancy"]
    assert all(d is not None for d in disc), rep["notes"]
    assert disc[-1] <= disc[0], disc
    crit.finish()
