"""Batch front-end: config-driven experiments with structured reports.

Exit codes: 0 = the subcommand's numerical contract PASSed, 1 = numerical
FAIL (an error raised by the computation is recorded under "error" in the
manifest), 2 = configuration or usage error, reported on one stderr line.
Every run writes a manifest (config echo + versions + the subcommand's
report under "result", byte-reproducible for a fixed config, seed and BLAS
thread count) and a separate timings file (wall times, excluded from the
reproducibility claim) into the output directory.  The subcommands'
contracts do no I/O; `run` alone writes what they return.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from functools import reduce

import numpy as np
import scipy

from . import __version__, fieldio, nls, quad, reduction, symmetries
from . import difference_calculus as dc
from .errors import DomainError, LpkdvError


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "p": 1.5,
    "q": 0.5,
    "kappa": math.pi / 2,
    "N_list": [16, 32, 64],
    "envelope": {"type": "gaussian", "amplitude": 1.0, "width": 1.25, "center": 12.0},
    "nls": {"L": 1024, "period": 40.0, "tau_final": None},
    # lattice-solution experiments (simulate / isospectral / flow-check) run on
    # their own parameter point: |zeta| < |mu| keeps the zero background stable
    # under the corner recursion, so bump data stay confined and bounded
    "boundary": {"kind": "bump", "amplitude": 0.5, "width": 10.0, "center": None,
                 "n_size": 200, "m_size": 11, "p": 1.5, "q": -0.5},
    "seed": 1234,
}

# Every bound a subcommand's pass rule applies, read by that rule alone and
# pinned by test_default_tolerances_pinned; no config can move one.  The
# exceptions are the commutators' floor, a round-off estimate that
# nls.commutator_floor computes from the envelope, and the error estimate of
# quad.dispersion_derivatives, which dispersion adds to its bound.
BOUNDS = {
    "lax_identity": 1e-12,             # coeffs: |rho2 M1^2 / (rho1 g^2) / -2 - 1|
    "linear_residual": 1e-12,          # dispersion: worst plane-wave residual
    "dispersion_derivatives": 1e-6,    # dispersion: rho1, omega' M1 against differences of omega
    "lattice_residual": 1e-10,         # simulate: worst residual / (1 + max|u|)
    "ansatz_exponent": 2.7,            # ansatz-residual: least fitted exponent
    "mass_drift": 1e-8,                # nls-evolve: mass drift / max(1, span)
    "spectrum_error": 1e-10,           # spectrum: closed-form and gauge errors
    "drift_shrink": 2.0,               # isospectral: least drift shrink factor
    "isospectral_drift": 1e-10,        # isospectral: largest drift; the control exceeds it
    "cauchy_band": 0.25,               # zs-limit: partner ratio within 1 -+ band
    "flow_exponent": 4.0,              # flow-check: flow1 and flow2 reach it (or hit the floor)
    "control_exponent": 2.0,           # flow-check: the broken flow stays below
    "projection_error_factor": 3.0,    # flow-project: weighted error <= factor / N
    "halving_band": (0.2, 0.8),        # flow-project: error ratio from N/2 to N
    "flow_ratio_std": 0.05,            # flow-project: flow2/flow1 std over mean
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path) -> dict:
    if path is None:
        return dict(DEFAULT_CONFIG)
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return _merge(DEFAULT_CONFIG, doc)


_BOUNDARY_KINDS = ("bump", "random")
# the keys an envelope type needs beyond the defaults, with sample values
_ENVELOPE_TYPE_KEYS = {"gaussian": {}, "plane": {"k": 0}, "file": {"path": ""}}


def _fits(value, default) -> bool:
    """A JSON integer for an integer default, a finite number for a float
    default, a finite number or null for a null default, a list of what fits
    the default's first entry for a list, else the default's JSON type.  A
    finite number is one a float holds: no NaN, no infinity and no integer
    beyond the float range."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    number = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    if isinstance(default, int):
        return number and isinstance(value, int)
    if isinstance(default, float) or default is None:
        return number or (default is None and value is None)
    return isinstance(value, type(default))


def _check_schema(doc: dict, schema: dict, where: str = "") -> None:
    for key, value in doc.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {where + key!r}")
        if isinstance(schema[key], dict) and isinstance(value, dict):
            _check_schema(value, schema[key], where + key + ".")
        elif isinstance(schema[key], dict) or not _fits(value, schema[key]):
            raise ConfigError(f"{where + key} = {value!r} does not fit {schema[key]!r}")


def validate_config(cfg: dict) -> None:
    env = cfg["envelope"]
    extra = _ENVELOPE_TYPE_KEYS.get(env.get("type")) if isinstance(env, dict) else None
    if extra is None or not set(extra) <= set(env):
        raise ConfigError("envelope needs a type of gaussian, plane or file, plus k for "
                          f"plane and path for file; got {env!r}")
    _check_schema(cfg, dict(DEFAULT_CONFIG,
                            envelope=dict(DEFAULT_CONFIG["envelope"], **extra)))
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0; got {cfg['seed']}")
    n_list = cfg["N_list"]
    if not n_list or min(n_list) < 1 or sorted(n_list) != n_list or n_list[-1] < 2:
        raise ConfigError("N_list must be ascending positive integers, the last >= 2")
    if min(cfg["boundary"]["n_size"], cfg["boundary"]["m_size"]) < 2:
        raise ConfigError("boundary.n_size and boundary.m_size must be integers >= 2")
    if cfg["nls"]["L"] < nls.MIN_GRID:
        raise ConfigError(f"nls.L must be >= {nls.MIN_GRID}")
    if min(cfg[k]["width"] for k in ("envelope", "boundary")) <= 0:
        raise ConfigError("envelope and boundary widths must be positive")
    if cfg["boundary"]["p"] == 0:
        raise ConfigError("boundary.p must be nonzero: the lattice flows divide by p")
    if cfg["boundary"]["kind"] not in _BOUNDARY_KINDS:
        raise ConfigError(f"boundary.kind must be one of {', '.join(_BOUNDARY_KINDS)}; "
                          f"got {cfg['boundary']['kind']!r}")
    try:  # p, q, kappa: the domain the library enforces
        _build_coeffs(cfg)
    except DomainError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n").encode()


def write_json(path, doc) -> None:
    with open(path, "wb") as fh:
        fh.write(_json_bytes(doc))


def write_scaling_csv(path, header, rows) -> None:
    """CSV with the column names `header`, then one line per row of reprs."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _build_coeffs(cfg):
    return reduction.compute_coefficients(quad.LpkdvParams(cfg["p"], cfg["q"]), cfg["kappa"])


def _build_envelope(cfg):
    env_cfg = cfg["envelope"]
    L = cfg["nls"]["L"]
    period = float(cfg["nls"]["period"])
    kind = env_cfg["type"]
    if kind == "gaussian":
        return nls.gaussian_envelope(L, 0.0, period, env_cfg["amplitude"],
                                     env_cfg["width"], env_cfg["center"])
    if kind == "plane":
        return nls.plane_envelope(L, 0.0, period, env_cfg["amplitude"], env_cfg["k"])
    with open(env_cfg["path"]) as fh:
        return nls.envelope_from_json(json.load(fh))


def _nls_block(evolution) -> dict:
    """The NLS run behind a report: steps, the step size taken, the number
    of stored step ends, the band of modes they carry above round-off and
    the points of each working grid tried."""
    return {"steps": evolution.steps, "dtau": evolution.dtau,
            "snapshots": len(evolution.taus), "band": evolution.band,
            "grids": list(evolution.grids)}


def _bump_solution(cfg):
    """Exact lpKdV solution for lattice-side tests, with its own parameters."""
    b = cfg["boundary"]
    params = quad.LpkdvParams(b["p"], b["q"])
    n_size, m_size = b["n_size"], b["m_size"]
    n = np.arange(n_size)
    if b["kind"] == "bump":
        center = b["center"] if b["center"] is not None else n_size // 2
        row0 = b["amplitude"] * np.exp(-((n - center) / b["width"]) ** 2)
        col0 = np.full(m_size, row0[0])
    else:  # "random"; validate_config admits no other kind
        rng = np.random.default_rng(cfg["seed"])
        row0 = b["amplitude"] * rng.standard_normal(n_size)
        col0 = b["amplitude"] * rng.standard_normal(m_size)
        col0[0] = row0[0]
    return quad.evolve_ivp(row0, col0, params), params


# --- subcommands -------------------------------------------------------------
# Each contract cmd_<name>(cfg) takes a merged, validated config, does no I/O
# and returns (passed, report, files): `files` maps each output file name to
# its content, which run() alone writes (see run for the formats).


def cmd_selftest(cfg):
    def poly(coeffs, x):  # Horner's rule, exact over Fractions
        return reduce(lambda acc, c: acc * x + c, reversed(coeffs), Fraction(0))

    def fine_differences(coeffs, n1, h):  # [D_h^j at n1 for j = 0..3], from n1 + t h
        rows = [[poly(coeffs, n1 + t * h) for t in range(4)]]
        while len(rows[-1]) > 1:
            rows.append([b - a for a, b in zip(rows[-1], rows[-1][1:])])
        return [row[0] for row in rows]

    failures = []
    tables = dc.stirling_tables(6)
    if any(tables.first(i, i) != 1 or tables.second(i, i) != 1 for i in range(1, 7)):
        failures.append("Stirling table diagonals")
    ratios = [dc.ScaleRatio(m, n) for m, n in ((1, 1), (1, 2), (1, 3), (2, 5))]
    polys = [[Fraction(k + 1, 2 * k + 1) for k in range(deg + 1)] for deg in range(6)]
    seqs = [dc.sequence_from_function(lambda n: poly(c, n), 0, len(c) + 8) for c in polys]
    for h, holds in zip(ratios, dc.shift_verdicts(5, ratios)):
        for deg, (coeffs, seq) in enumerate(zip(polys, seqs)):
            if not all(holds[:deg + 1]):
                failures.append(f"shift decomposition degree {deg}, h={h.M}/{h.N}")
            fine = {}  # anchor n1 -> its fine_differences, computed once for all j
            for j in (1, 2, 3):
                got = dc.cross_lattice_difference(seq, h, j, deg)
                anchors = range(got.n_min, got.n_min + len(got))
                for n1 in set(anchors) - set(fine):
                    fine[n1] = fine_differences(coeffs, n1, h.value)
                if got.values != tuple(fine[n1][j] for n1 in anchors):
                    failures.append(f"cross-lattice d^{j} on degree {deg}, h={h.M}/{h.N}")
                if h.value == 1:  # the cross-lattice difference at h=1 is the forward one
                    fd = dc.forward_difference(seq, j)
                    k = min(len(got), len(fd))
                    if got.values[:k] != fd.values[:k]:
                        failures.append(f"forward difference d^{j} on degree {deg}")
    for deg in range(6):
        coeffs = [Fraction((-1) ** k, k + 2) for k in range(deg + 1)]
        seq = dc.sequence_from_function(lambda n: poly(coeffs, n), -3, deg + 8)
        der = dc.formal_derivative(seq, deg)
        dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
        exact = tuple(poly(dcoeffs, n) for n in range(der.n_min, der.n_min + len(der)))
        if der.values != exact:
            failures.append(f"formal derivative on degree {deg}")
    report = {"failures": failures, "checks": "exact operator calculus"}
    return len(failures) == 0, report, {"selftest_report.json": report}


def cmd_coeffs(cfg):
    """The coefficients, and the Lax-pair identity rho2 M1^2 / (rho1 g^2) = -2
    there and at 100 seeded draws with pq of either sign."""
    def ratio(co):  # g: the factor of the reduced ZS potential
        g = reduction.zs_potential(1.0, co.params.p, co.carrier.kappa)
        return co.rho2 * co.M1 ** 2 / (co.rho1 * g ** 2)

    coeffs = _build_coeffs(cfg)
    rng = np.random.default_rng(cfg["seed"])
    samples = rng.uniform((0.1, 0.1, 0.1), (4.0, 4.0, math.pi - 0.2), (100, 3)).tolist()
    draws = [ratio(reduction.compute_coefficients(quad.LpkdvParams(p, (-1) ** i * q), kappa))
             for i, (p, q, kappa) in enumerate(samples)]
    at, worst = ratio(coeffs), max(draws, key=lambda r: abs(r / 2.0 + 1.0))
    tol = BOUNDS["lax_identity"]
    doc = dict(coeffs.to_json(), lax_identity={
        "ratio": at, "worst_draw_ratio": worst, "draws": 100, "tolerance": tol})
    passed = all(abs(r / 2.0 + 1.0) <= tol for r in (at, worst))
    return passed, doc, {"coefficients.json": doc}


def _against_differences(coeffs) -> dict:
    """rho1 = -omega'' M1^2 / 2 and omega' M1 = branch M1_tilde at the config
    point, omega's derivatives by quad.dispersion_derivatives: for each the
    closed form, the value from the differences, their relative error and
    the differences' own error estimate on the same scale."""
    d1, d2, e1, e2 = quad.dispersion_derivatives(coeffs.params, coeffs.carrier.kappa)
    out = {}
    for key, closed, scale, value, error in (
            ("rho1", coeffs.rho1, -coeffs.M1 ** 2 / 2.0, d2, e2),
            ("velocity", coeffs.branch * coeffs.M1_tilde, coeffs.M1, d1, e1)):
        out[key] = {"closed": closed, "differences": scale * value,
                    "rel_error": abs(scale * value - closed) / abs(closed),
                    "estimate": abs(scale) * error / abs(closed)}
    return out


def cmd_dispersion(cfg):
    """The plane-wave residual of the dispersion relation at 100 seeded draws,
    and the reduction's rho1 and group velocity against its derivatives at
    the config point (within the bound plus the differences' estimate)."""
    tol = BOUNDS["linear_residual"]
    rng = np.random.default_rng(cfg["seed"])
    worst = 0.0
    draws = []
    for _ in range(100):
        p = rng.uniform(0.5, 3.0)
        q = rng.uniform(0.05, p - 0.2)
        kappa = rng.uniform(0.1, math.pi - 0.2)
        params = quad.LpkdvParams(p, q)
        r = quad.linear_residual_max(params, kappa)
        worst = max(worst, r)
        draws.append({"p": p, "q": q, "kappa": kappa,
                      "omega": quad.dispersion(params, kappa), "residual": r})
    checks = _against_differences(_build_coeffs(cfg))
    bound = BOUNDS["dispersion_derivatives"]
    report = {"max_linear_residual": worst, "tolerance": tol, "draws": draws[:5],
              "derivatives": dict(checks, tolerance=bound)}
    passed = worst <= tol and all(row["rel_error"] <= bound + row["estimate"]
                                  for row in checks.values())
    return passed, report, {"dispersion_report.json": report}


def cmd_simulate(cfg):
    field, params = _bump_solution(cfg)
    res = quad.max_residual(field, params)
    bound = BOUNDS["lattice_residual"] * (1.0 + float(np.max(np.abs(field.values))))
    report = {"max_residual": res, "bound": bound,
              "shape": list(field.shape), "kind": field.kind}
    return res <= bound, report, {"field.csv": field, "field.bin": field,
                                  "simulate_report.json": report}


def cmd_ansatz_residual(cfg):
    coeffs = _build_coeffs(cfg)
    window = (512, 192)
    n_list = list(cfg["N_list"])
    evolution = reduction.evolve_rows(_build_envelope(cfg), coeffs, window[1], min(n_list))
    report = dict(reduction.residual_scaling(evolution, coeffs, n_list, window),
                  nls=_nls_block(evolution))
    ok = report["exponent"] == "exact" or \
        report["exponent"] >= BOUNDS["ansatz_exponent"]
    scaling = (("N", "residual"), list(zip(report["N"], report["residual"])))
    return ok, report, {"ansatz_residual.json": report, "ansatz_residual.csv": scaling}


def cmd_nls_evolve(cfg):
    coeffs = _build_coeffs(cfg)
    env = _build_envelope(cfg)
    c = coeffs.nls_coefficients()
    dtau = nls.stable_dtau(env, c)
    tau_final = env.tau + 1.0 if cfg["nls"]["tau_final"] is None else cfg["nls"]["tau_final"]
    if tau_final <= env.tau:  # a drift over no step cannot fail
        raise ConfigError(f"nls.tau_final = {tau_final!r} must be > the envelope's tau "
                          f"= {env.tau!r}")
    grids = []
    out = nls.nls_evolve(env, c, tau_final, dtau, grids)
    drift = abs(out.mass() - env.mass()) / env.mass() if env.mass() > 0 else 0.0
    tol = BOUNDS["mass_drift"] * max(1.0, tau_final - env.tau)
    steps, dtau_taken = nls.step_plan(tau_final - env.tau, dtau)
    report = {"tau_final": tau_final, "dtau": dtau_taken, "steps": steps,
              "mass_drift": drift, "tolerance": tol, "grids": grids}
    return drift <= tol, report, {"envelope.csv": out, "envelope.json": nls.envelope_to_json(out),
                                  "nls_report.json": report}


def cmd_commutators(cfg):
    report = nls.commutator_sweep(_build_coeffs(cfg).nls_coefficients(), _build_envelope(cfg))
    return report["passed"], report, {"commutators.json": report}


def cmd_spectrum(cfg):
    # spectral loads scipy.linalg and scipy.sparse, which the other subcommands skip
    from .spectral import eigenvalues

    L = 64
    w_per = np.sort(eigenvalues(np.ones(L), periodic=True).real)
    exact_per = np.sort(2 * np.cos(2 * np.pi * np.arange(L) / L))
    err_per = float(np.max(np.abs(w_per - exact_per)))
    w_dir = np.sort(eigenvalues(np.ones(L)).real)
    exact_dir = np.sort(2 * np.cos(np.pi * np.arange(1, L + 1) / (L + 1)))
    err_dir = float(np.max(np.abs(w_dir - exact_dir)))
    rng = np.random.default_rng(cfg["seed"])
    a = 1.0 + 0.3 * rng.random(L)
    w_sym = np.sort(eigenvalues(a).real)
    w_dense = np.sort(eigenvalues(a, dense=True).real)
    err_gauge = float(np.max(np.abs(w_sym - w_dense)))
    tol = BOUNDS["spectrum_error"]
    report = {"periodic_error": err_per, "dirichlet_error": err_dir,
              "gauge_error": err_gauge, "tolerance": tol}
    spectrum = (("index", "re", "im"), [(i, float(z), 0.0) for i, z in enumerate(w_dir)])
    return max(err_per, err_dir, err_gauge) <= tol, report, {
        "spectrum_report.json": report, "spectrum.csv": spectrum}


def cmd_isospectral(cfg):
    """Spectral drift across rows on the bump window and on one twice as wide;
    the printed a_n on the small window is a control that must drift."""
    from .spectral import isospectral_drift  # deferred: see cmd_spectrum

    b = cfg["boundary"]
    m_list = list(range(b["m_size"]))
    field_small, params = _bump_solution(cfg)
    center = b["center"] if b["center"] is not None else b["n_size"] // 2
    field_big, _ = _bump_solution(dict(cfg, boundary=dict(b, n_size=2 * b["n_size"],
                                                          center=center)))
    rep_small = isospectral_drift(field_small, params, m_list)
    rep_big = isospectral_drift(field_big, params, m_list)
    control = isospectral_drift(field_small, params, m_list, variant="printed")
    shrink = None
    if rep_small["max_drift"] and rep_big["max_drift"]:
        shrink = rep_small["max_drift"] / rep_big["max_drift"]
    bound = BOUNDS["isospectral_drift"]
    report = {"small_window": rep_small, "large_window": rep_big,
              "shrink_factor": shrink, "drift_bound": bound,
              "negative_control": {"variant": "printed", "max_drift": control["max_drift"],
                                   "bound_count": control["bound_count"]}}
    ok = (rep_small["bound_count"][0] > 0 and shrink is not None
          and shrink >= BOUNDS["drift_shrink"]
          and max(rep_small["max_drift"], rep_big["max_drift"]) <= bound
          and control["max_drift"] > bound)
    return ok, report, {"isospectral_report.json": report}


def cmd_zs_limit(cfg):
    from .spectral import nearest_partners, spectral_limit_check  # deferred: see cmd_spectrum

    n_list = list(cfg["N_list"])
    report = spectral_limit_check(_build_envelope(cfg), _build_coeffs(cfg), n_list)
    disc = [d for d in report["discrepancy"] if d is not None]
    ok = len(disc) == len(n_list) and disc[-1] <= disc[0]
    band = BOUNDS["cauchy_band"]
    if ok and len(n_list) >= 3:
        e_mid = sorted(report["estimates"][-2], key=abs)[1:4]  # skip the near-zero rung
        partners = nearest_partners(report["estimates"][-1], e_mid)
        ok = all(1 - band <= partner / v <= 1 + band
                 for v, partner in zip(e_mid, partners) if v != 0)
    return ok, report, {"zs_limit_report.json": report}


def cmd_flow_check(cfg):
    solution, params = _bump_solution(cfg)
    lambdas = [0.125, 0.25, 0.5]
    report = {key: symmetries.symmetry_residual_scaling(solution, params, which, lambdas)
              for key, which in (("flow1", "flow1"), ("flow2", "flow2"),
                                 ("negative_control", "broken"))}
    files = {"flow_check.json": report}
    for key, rep in report.items():  # an exponent of None: every residual at the floor
        rep["passed"] = rep["exponent"] is None or rep["exponent"] >= BOUNDS["flow_exponent"]
        if key != "negative_control":
            files[f"{key}_residuals.csv"] = (("lambda", "residual"),
                                             list(zip(rep["lambda"], rep["residual"])))
    neg = report["negative_control"]["exponent"]
    ok = (report["flow1"]["passed"] and report["flow2"]["passed"]
          and neg is not None and neg < BOUNDS["control_exponent"])
    return ok, report, files


def cmd_flow_project(cfg):
    coeffs = _build_coeffs(cfg)
    n_list = cfg["N_list"]
    N = n_list[-1]
    window = (384, 384)
    evolution = reduction.evolve_rows(_build_envelope(cfg), coeffs, window[1], N // 2)
    report = {"nls": _nls_block(evolution)}
    errs = {}
    for n in (N // 2, N):
        ans = reduction.assemble_ansatz(evolution, coeffs, n, window)
        flow1 = symmetries.first_harmonic_blocks(ans, "flow1")
        rep1 = symmetries.harmonic_projection(ans, "flow1", flow1)
        errs[n] = rep1["weighted_rel_error"]
        report[f"flow1_N{n}"] = rep1
        if n == N:
            report[f"flow2_N{n}"] = symmetries.harmonic_projection(ans, "flow2", flow1)
    halving = errs[N] / errs[N // 2] if errs[N // 2] > 0 else 0.0
    report["error_halving_factor"] = halving
    low, high = BOUNDS["halving_band"]
    ok = (errs[N] <= BOUNDS["projection_error_factor"] / N and low <= halving <= high
          and report[f"flow2_N{N}"]["flow2_over_flow1"]["std_over_mean"]
          <= BOUNDS["flow_ratio_std"])
    return ok, report, {"flow_projection.json": report}


COMMANDS = {
    "selftest": cmd_selftest,
    "coeffs": cmd_coeffs,
    "dispersion": cmd_dispersion,
    "simulate": cmd_simulate,
    "ansatz-residual": cmd_ansatz_residual,
    "nls-evolve": cmd_nls_evolve,
    "commutators": cmd_commutators,
    "spectrum": cmd_spectrum,
    "isospectral": cmd_isospectral,
    "zs-limit": cmd_zs_limit,
    "flow-check": cmd_flow_check,
    "flow-project": cmd_flow_project,
}
SUBCOMMANDS = tuple(COMMANDS)


def run(subcommand: str, config_path=None, out_dir=None, quiet=False) -> int:
    """Dispatch one subcommand and write its files: a dict as JSON, a (header,
    rows) pair as CSV, an Envelope or a LatticeField (binary under a .bin
    name) through its module's saver; then the manifest and the timings, the
    only files left when the computation raises.  Returns the exit code."""
    if subcommand not in COMMANDS:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return 2
    out_dir = out_dir or f"lpkdv-run-{subcommand}"
    try:
        cfg = load_config(config_path)
        validate_config(cfg)
        os.makedirs(out_dir, exist_ok=True)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.time()
    error = None
    try:
        passed, report, files = COMMANDS[subcommand](cfg)
        for name in list(files):
            path, content = os.path.join(out_dir, name), files.pop(name)
            if isinstance(content, dict):
                write_json(path, content)
            elif isinstance(content, tuple):
                write_scaling_csv(path, *content)
            elif isinstance(content, nls.Envelope):
                nls.save_envelope_csv(content, path)
            elif name.endswith(".bin"):
                fieldio.save_field_binary(content, path)
            else:
                fieldio.save_field_csv(content, path)
            del content  # hold no artifact past its write
        if subcommand == "coeffs" and not quiet:
            print(json.dumps(report, indent=2, sort_keys=True))
    except (ConfigError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LpkdvError as exc:
        passed, report = False, None
        error = {"type": type(exc).__name__, "message": str(exc), **vars(exc)}
        print(f"error: {error['type']}: {exc}", file=sys.stderr)
    wall = time.time() - t0
    manifest = {
        "subcommand": subcommand,
        "config": cfg,
        "passed": bool(passed),
        "result": report,
        "error": error,
        "versions": {"lpkdv": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    write_json(os.path.join(out_dir, "timings.json"),
               {"subcommand": subcommand, "wall_seconds": wall})
    if not quiet:
        print(f"{subcommand}: {'PASS' if passed else 'FAIL'} ({wall:.1f}s) -> {out_dir}")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lpkdv",
        description="lattice potential KdV workbench: multiscale NLS reduction, "
                    "spectral problem, symmetry flows",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
