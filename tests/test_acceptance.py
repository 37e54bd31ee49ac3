"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
A criterion with a CLI contract calls that contract in-process on the
merged, validated config, so the CLI's pass rule decides, and asserts that
it passed plus the rule's bounds on its report, read from the same fixed
table `lpkdv.cli.BOUNDS`, which no config can change and
`test_default_tolerances_pinned` pins.  The suite writes no files.  Checks that no pass rule
makes (the ablation margins, the flow exponents, the NLS exactness) keep
their own literals.
Runtime bounds are asserted against the wall clock of the criterion body.
"""

import math
import time
from dataclasses import replace

import numpy as np

from lpkdv import cli
from lpkdv.cli import BOUNDS, DEFAULT_CONFIG
from lpkdv.nls import Envelope, gaussian_envelope, nls_evolve, plane_envelope
from lpkdv.quad import LpkdvParams
from lpkdv.reduction import compute_coefficients, residual_scaling
from tests.conftest import REF_N_LIST, REF_WINDOW
from tests.dispersion_oracle import group_velocity


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


def check(subcommand, overrides=None):
    """A subcommand's contract over the default config merged with
    `overrides`; asserts that it passes and returns its report."""
    cfg = cli._merge(DEFAULT_CONFIG, overrides or {})
    cli.validate_config(cfg)
    passed, report, _ = cli.COMMANDS[subcommand](cfg)
    assert passed, report
    return report


def test_default_tolerances_pinned():
    """A loosened pass-rule bound fails here (cauchy_band: partner ratio in
    [0.75, 1.25]), and the config has no key that could move one."""
    assert BOUNDS == {
        "lax_identity": 1e-12,
        "linear_residual": 1e-12,
        "dispersion_derivatives": 1e-12,
        "lattice_residual": 1e-10,
        "ansatz_exponent": 2.7,
        "mass_drift": 1e-8,
        "spectrum_error": 1e-10,
        "drift_shrink": 2.0,
        "isospectral_drift": 1e-10,
        "cauchy_band": 0.25,
        "flow_exponent": 4.0,
        "control_exponent": 2.0,
        "projection_error_factor": 3.0,
        "halving_band": (0.2, 0.8),
        "flow_ratio_std": 0.05,
    }
    assert "tolerances" not in DEFAULT_CONFIG


def test_criterion_1_exact_operator_calculus():
    crit = Criterion(1, "exact operator calculus", 5.0)
    assert check("selftest")["failures"] == []
    crit.finish()


def test_criterion_2_dispersion():
    crit = Criterion(2, "plane-wave dispersion residual", 1.0)
    rep = check("dispersion", {"seed": 42})
    assert rep["max_linear_residual"] <= BOUNDS["linear_residual"], rep
    crit.finish()


def test_criterion_3_reduction_coefficients(ref_coeffs):
    crit = Criterion(3, "reduction coefficients", 1.0)
    assert abs(ref_coeffs.M1 - math.sqrt(5)) <= 1e-9
    assert abs(ref_coeffs.M1_tilde - 3 / math.sqrt(5)) <= 1e-9
    assert abs(ref_coeffs.rho1 - (-1.2)) <= 1e-9
    assert abs(ref_coeffs.rho2 - 16 / 75) <= 1e-9
    assert abs(ref_coeffs.tau2 - 1j / 3) <= 1e-9
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.uniform(0.6, 3.0)
        q = rng.uniform(0.05, p - 0.2)
        kappa = rng.uniform(0.15, math.pi - 0.25)
        params = LpkdvParams(p, q)
        co = compute_coefficients(params, kappa)
        gv = group_velocity(params, kappa)
        assert abs(abs(gv) - co.M1_tilde / co.M1) <= 1e-6 * max(1.0, abs(gv))
    crit.finish()


def test_criterion_4_multiscale_residual_scaling(ref_evolution, ref_coeffs):
    crit = Criterion(4, "multiscale residual scaling", 120.0)
    full = check("ansatz-residual")
    assert full["exponent"] >= BOUNDS["ansatz_exponent"], full
    # the ablations: the second (tau2) or zeroth (tau1) harmonic zeroed
    no_second = residual_scaling(ref_evolution, replace(ref_coeffs, tau2=0j), REF_N_LIST,
                                 REF_WINDOW)
    no_zeroth = residual_scaling(ref_evolution, replace(ref_coeffs, tau1=0.0), REF_N_LIST,
                                 REF_WINDOW)
    assert full["exponent"] - no_second["exponent"] >= 0.7, no_second
    assert full["exponent"] - no_zeroth["exponent"] >= 0.7, no_zeroth
    crit.finish()


def test_criterion_5_nls_solver():
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
    rep = check("nls-evolve", {"nls": {"L": L, "tau_final": 1.0},
                               "envelope": {"amplitude": 0.8, "width": 2.5, "center": 20.0}})
    assert rep["mass_drift"] <= BOUNDS["mass_drift"], rep
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


def test_criterion_6_nls_symmetry_commutators():
    crit = Criterion(6, "NLS symmetry commutators", 60.0)
    rep = check("commutators")
    for row in rep["sweep"]:
        assert row["passed"] and row["residual"] <= row["floor"], row
    control = rep["negative_control"]
    assert control["residual"] > control["floor"], control
    assert rep["passed"]
    crit.finish()


def test_criterion_7_lattice_symmetries():
    crit = Criterion(7, "lattice symmetry verification", 60.0)
    rep = check("flow-check")
    for which in ("flow1", "flow2"):
        assert rep[which]["exponent"] is None or rep[which]["exponent"] >= 4.0, rep
        assert rep[which]["passed"]
    neg = rep["negative_control"]
    assert neg["exponent"] is not None and neg["exponent"] < BOUNDS["control_exponent"], neg
    crit.finish()


def test_criterion_8_harmonic_projection():
    crit = Criterion(8, "harmonic projection of the flows", 120.0)
    rep = check("flow-project")
    low, high = BOUNDS["halving_band"]
    assert rep["flow1_N64"]["weighted_rel_error"] <= BOUNDS["projection_error_factor"] / 64, rep
    assert low <= rep["error_halving_factor"] <= high, rep
    assert rep["flow2_N64"]["flow2_over_flow1"]["std_over_mean"] <= BOUNDS["flow_ratio_std"], rep
    crit.finish()


def test_criterion_9_spectral_checks():
    crit = Criterion(9, "spectral problem checks", 180.0)
    # free-operator closed forms and gauge invariance
    rep = check("spectrum", {"seed": 3})
    for key in ("periodic_error", "dirichlet_error", "gauge_error"):
        assert rep[key] <= BOUNDS["spectrum_error"], rep
    # isospectral drift shrinks >= 2x with doubled window, stays below its
    # bound on both windows, and the printed a_n drift above it
    rep = check("isospectral")
    assert rep["shrink_factor"] >= BOUNDS["drift_shrink"], rep
    for window in ("small_window", "large_window"):
        assert rep[window]["max_drift"] <= BOUNDS["isospectral_drift"], rep
    assert rep["negative_control"]["max_drift"] > BOUNDS["isospectral_drift"], rep
    # slow-variable limit of the spectral problem
    rep = check("zs-limit")
    disc = rep["discrepancy"]
    assert all(d is not None for d in disc), rep["notes"]
    assert disc[-1] <= disc[0], disc
    crit.finish()
