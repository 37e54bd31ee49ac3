"""Batch front-end: config-driven experiments with structured reports.

Exit codes: 0 = the subcommand's numerical contract PASSed, 1 = numerical
FAIL (an error raised by the computation is recorded under "error" in the
manifest), 2 = configuration or usage error, reported on one stderr line.
Every run writes a manifest (config echo + versions + the subcommand's
report under "result", byte-reproducible for a fixed config, seed and BLAS
thread count) and a separate timings file (wall times, excluded from the
reproducibility claim) into the output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .errors import DomainError, LpkdvError


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "p": 1.5,
    "q": 0.5,
    "kappa": math.pi / 2,
    "r": 1.0,
    "M2_tilde": 1.0,
    "branch": None,
    "N_list": [16, 32, 64],
    "window": [512, 192],
    "envelope": {"type": "gaussian", "amplitude": 1.0, "width": 1.25, "center": 12.0},
    "nls": {"L": 1024, "period": 40.0, "dtau": None, "tau_final": None},
    # lattice-solution experiments (simulate / isospectral / flow-check) run on
    # their own parameter point: |zeta| < |mu| keeps the zero background stable
    # under the corner recursion, so bump data stay confined and bounded
    "boundary": {"kind": "bump", "amplitude": 0.5, "width": 10.0, "center": None,
                 "n_size": 200, "m_size": 11, "p": 1.5, "q": -0.5},
    # coarse grid + wide decayed envelope keeps the Frechet round-off floor
    # below the eps^2 signal, making the Richardson decrease visible
    "commutators": {"L": 96, "period": 60.0, "amplitude": 6.0, "width": 3.0,
                    "center": 30.0, "eps": [1e-4, 5e-5, 2.5e-5]},
    "tolerances": {
        "linear_residual": 1e-12,
        "ansatz_exponent": 2.7,
        "mass_drift": 1e-8,
        "projection_error_factor": 3.0,
        "flow_ratio_std": 0.05,
        "drift_shrink": 2.0,
        "cauchy_band": 0.25,
    },
    "seed": 1234,
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
    """A whole number for an integer default, a number for a float default,
    a number or null for a null default, a list of what fits the default's
    first entry for a list, else the default's JSON type."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, int):
        return number and (isinstance(value, int) or value.is_integer())
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
    from .nls import MIN_GRID

    env = cfg["envelope"]
    extra = _ENVELOPE_TYPE_KEYS.get(env.get("type")) if isinstance(env, dict) else None
    if extra is None or not set(extra) <= set(env):
        raise ConfigError("envelope needs a type of gaussian, plane or file, plus k for "
                          f"plane and path for file; got {env!r}")
    _check_schema(cfg, dict(DEFAULT_CONFIG,
                            envelope=dict(DEFAULT_CONFIG["envelope"], **extra)))
    n_list = cfg["N_list"]
    if not n_list or min(n_list) < 1 or sorted(n_list) != n_list or n_list[-1] < 2:
        raise ConfigError("N_list must be ascending positive integers, the last >= 2")
    if len(cfg["window"]) != 2 or min(cfg["window"]) < 2:
        raise ConfigError("window must be two integers >= 2")
    if min(cfg["nls"]["L"], cfg["commutators"]["L"]) < MIN_GRID:
        raise ConfigError(f"nls.L and commutators.L must be >= {MIN_GRID}")
    if min(cfg[k]["width"] for k in ("envelope", "commutators", "boundary")) <= 0:
        raise ConfigError("envelope, commutators and boundary widths must be positive")
    eps = cfg["commutators"]["eps"]
    if len(eps) < 2 or min(eps) <= 0:
        raise ConfigError("commutators.eps needs at least 2 positive entries")
    if cfg["boundary"].get("p", cfg["p"]) == 0:
        raise ConfigError("boundary.p must be nonzero: the lattice flows divide by p")
    if cfg["boundary"]["kind"] not in _BOUNDARY_KINDS:
        raise ConfigError(f"boundary.kind must be one of {', '.join(_BOUNDARY_KINDS)}; "
                          f"got {cfg['boundary']['kind']!r}")
    try:  # p, q, kappa, r, M2_tilde, branch: the domain the library enforces
        _build_coeffs(cfg)
    except DomainError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n").encode()


def write_json(path, doc) -> None:
    with open(path, "wb") as fh:
        fh.write(_json_bytes(doc))


def write_scaling_csv(path, xs, ys, x_name, y_name) -> None:
    with open(path, "w") as fh:
        fh.write(f"{x_name},{y_name}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{x},{y!r}\n")


def _build_params(cfg):
    from .quad import LpkdvParams

    return LpkdvParams(cfg["p"], cfg["q"])


def _build_coeffs(cfg):
    from .reduction import compute_coefficients

    return compute_coefficients(_build_params(cfg), cfg["kappa"], r=cfg["r"],
                                m2_tilde=cfg["M2_tilde"], branch=cfg["branch"])


def _build_envelope(cfg):
    from .nls import envelope_from_json, gaussian_envelope, plane_envelope

    env_cfg = cfg["envelope"]
    L = int(cfg["nls"]["L"])
    period = float(cfg["nls"]["period"])
    kind = env_cfg["type"]
    if kind == "gaussian":
        return gaussian_envelope(L, 0.0, period, env_cfg["amplitude"],
                                 env_cfg["width"], env_cfg["center"])
    if kind == "plane":
        return plane_envelope(L, 0.0, period, env_cfg["amplitude"], int(env_cfg["k"]))
    with open(env_cfg["path"]) as fh:
        return envelope_from_json(json.load(fh))


def _dtau(cfg, env, c) -> float:
    """nls.dtau, or the stable step for env when it is null; any number,
    0 included, is taken as given (the NLS solver refuses one <= 0)."""
    from .nls import stable_dtau

    dtau = cfg["nls"]["dtau"]
    return stable_dtau(env, c) if dtau is None else dtau


def _evolve_dense(cfg, coeffs, rows, n_min):
    """The envelope evolved far enough for lattice rows 0..rows-1 at N = n_min
    (tau = M2_tilde * m / N^2), with a 1% margin, and a snapshot at every step:
    sparser snapshots cost interpolation accuracy (see EnvelopeEvolution)."""
    from .nls import nls_evolve_dense

    env = _build_envelope(cfg)
    c = coeffs.nls_coefficients()
    tau_final = coeffs.M2_tilde * (rows - 1) / n_min ** 2 * 1.01
    return nls_evolve_dense(env, c, tau_final, _dtau(cfg, env, c))


def _nls_block(evolution) -> dict:
    """The NLS run behind a report: steps, the step size taken and the
    number of stored snapshots."""
    return {"steps": evolution.steps, "dtau": evolution.dtau,
            "snapshots": len(evolution.taus)}


def _bump_solution(cfg):
    """Exact lpKdV solution for lattice-side tests, with its own parameters."""
    import numpy as np

    from .quad import LpkdvParams, evolve_ivp

    b = cfg["boundary"]
    params = LpkdvParams(b.get("p", cfg["p"]), b.get("q", cfg["q"]))
    n_size, m_size = int(b["n_size"]), int(b["m_size"])
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
    return evolve_ivp(row0, col0, params), params


# --- subcommands -------------------------------------------------------------


def cmd_selftest(cfg, out_dir, quiet):
    from fractions import Fraction

    from . import difference_calculus as dc

    def poly(coeffs, x):
        return sum(c * Fraction(x) ** k for k, c in enumerate(coeffs))

    failures = []
    tables = dc.stirling_tables(6)
    if any(tables.first(i, i) != 1 or tables.second(i, i) != 1 for i in range(1, 7)):
        failures.append("Stirling table diagonals")
    ratios = [dc.ScaleRatio(1, 1), dc.ScaleRatio(1, 2), dc.ScaleRatio(1, 3),
              dc.ScaleRatio(2, 5)]
    for h in ratios:
        for deg in range(6):
            if not dc.verify_shift_decomposition(deg, h):
                failures.append(f"shift decomposition degree {deg}, h={h.M}/{h.N}")
            coeffs = [Fraction(k + 1, 2 * k + 1) for k in range(deg + 1)]
            seq = dc.sequence_from_function(lambda n: poly(coeffs, n), 0, deg + 9)
            for j in (1, 2, 3):
                got = dc.cross_lattice_difference(seq, h, j, deg)
                direct = tuple(
                    sum((-1) ** (j - t) * math.comb(j, t) * poly(coeffs, n1 + t * h.value)
                        for t in range(j + 1))
                    for n1 in range(got.n_min, got.n_min + len(got)))
                if got.values != direct:
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
    write_json(os.path.join(out_dir, "selftest_report.json"), report)
    return len(failures) == 0, report


def cmd_coeffs(cfg, out_dir, quiet):
    coeffs = _build_coeffs(cfg)
    doc = coeffs.to_json()
    write_json(os.path.join(out_dir, "coefficients.json"), doc)
    if not quiet:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return True, doc


def cmd_dispersion(cfg, out_dir, quiet):
    import numpy as np

    from .quad import LpkdvParams, dispersion, linear_residual_max

    tol = cfg["tolerances"]["linear_residual"]
    rng = np.random.default_rng(cfg["seed"])
    worst = 0.0
    draws = []
    for _ in range(100):
        p = rng.uniform(0.5, 3.0)
        q = rng.uniform(0.05, p - 0.2)
        kappa = rng.uniform(0.1, math.pi - 0.2)
        params = LpkdvParams(p, q)
        r = linear_residual_max(params, kappa)
        worst = max(worst, r)
        draws.append({"p": p, "q": q, "kappa": kappa,
                      "omega": dispersion(params, kappa), "residual": r})
    report = {"max_linear_residual": worst, "tolerance": tol, "draws": draws[:5]}
    write_json(os.path.join(out_dir, "dispersion_report.json"), report)
    return worst <= tol, report


def cmd_simulate(cfg, out_dir, quiet):
    import numpy as np

    from .fieldio import save_field_binary, save_field_csv
    from .quad import max_residual

    field, params = _bump_solution(cfg)
    res = max_residual(field, params)
    bound = 1e-10 * (1.0 + float(np.max(np.abs(field.values))))
    save_field_csv(field, os.path.join(out_dir, "field.csv"))
    save_field_binary(field, os.path.join(out_dir, "field.bin"))
    report = {"max_residual": res, "bound": bound,
              "shape": list(field.shape), "kind": field.kind}
    write_json(os.path.join(out_dir, "simulate_report.json"), report)
    return res <= bound, report


def cmd_ansatz_residual(cfg, out_dir, quiet):
    from .reduction import residual_scaling

    coeffs = _build_coeffs(cfg)
    window = tuple(cfg["window"])
    n_list = list(cfg["N_list"])
    evolution = _evolve_dense(cfg, coeffs, window[1], min(n_list))
    report = dict(residual_scaling(evolution, coeffs, n_list, window),
                  nls=_nls_block(evolution))
    write_json(os.path.join(out_dir, "ansatz_residual.json"), report)
    write_scaling_csv(os.path.join(out_dir, "ansatz_residual.csv"),
                      report["N"], report["residual"], "N", "residual")
    ok = report["exponent"] == "exact" or \
        report["exponent"] >= cfg["tolerances"]["ansatz_exponent"]
    return ok, report


def cmd_nls_evolve(cfg, out_dir, quiet):
    from .nls import nls_evolve, save_envelope_csv, envelope_to_json, step_plan

    coeffs = _build_coeffs(cfg)
    env = _build_envelope(cfg)
    c = coeffs.nls_coefficients()
    dtau = _dtau(cfg, env, c)
    tau_final = 1.0 if cfg["nls"]["tau_final"] is None else cfg["nls"]["tau_final"]
    out = nls_evolve(env, c, tau_final, dtau)
    drift = abs(out.mass() - env.mass()) / env.mass() if env.mass() > 0 else 0.0
    save_envelope_csv(out, os.path.join(out_dir, "envelope.csv"))
    write_json(os.path.join(out_dir, "envelope.json"), envelope_to_json(out))
    tol = cfg["tolerances"]["mass_drift"] * max(1.0, tau_final)
    steps, dtau_taken = step_plan(tau_final - env.tau, dtau)
    report = {"tau_final": tau_final, "dtau": dtau_taken, "steps": steps,
              "mass_drift": drift, "tolerance": tol}
    write_json(os.path.join(out_dir, "nls_report.json"), report)
    return drift <= tol, report


def cmd_commutators(cfg, out_dir, quiet):
    from .nls import commutator_sweep, gaussian_envelope

    coeffs = _build_coeffs(cfg)
    cc = cfg["commutators"]
    env = gaussian_envelope(int(cc["L"]), 0.0, cc["period"], cc["amplitude"],
                            cc["width"], cc["center"])
    report = commutator_sweep(coeffs.nls_coefficients(), env,
                              eps_list=tuple(cc["eps"]))
    write_json(os.path.join(out_dir, "commutators.json"), report)
    return report["passed"], report


def cmd_spectrum(cfg, out_dir, quiet):
    import numpy as np

    from .spectral import SpectralProblem, eigenvalues

    params = _build_params(cfg)
    L = 64
    free_p = SpectralProblem(np.ones(L), "periodic")
    w_per = np.sort(eigenvalues(free_p).real)
    exact_per = np.sort(2 * np.cos(2 * np.pi * np.arange(L) / L))
    err_per = float(np.max(np.abs(w_per - exact_per)))
    free_d = SpectralProblem(np.ones(L), "dirichlet")
    w_dir = np.sort(eigenvalues(free_d).real)
    exact_dir = np.sort(2 * np.cos(np.pi * np.arange(1, L + 1) / (L + 1)))
    err_dir = float(np.max(np.abs(w_dir - exact_dir)))
    rng = np.random.default_rng(cfg["seed"])
    a = 1.0 + 0.3 * rng.random(L)
    prob = SpectralProblem(a, "dirichlet")
    w_sym = np.sort(eigenvalues(prob).real)
    w_dense = np.sort(eigenvalues(prob, dense=True).real)
    err_gauge = float(np.max(np.abs(w_sym - w_dense)))
    report = {"periodic_error": err_per, "dirichlet_error": err_dir,
              "gauge_error": err_gauge, "tolerance": 1e-10}
    write_json(os.path.join(out_dir, "spectrum_report.json"), report)
    with open(os.path.join(out_dir, "spectrum.csv"), "w") as fh:
        fh.write("index,re,im\n")
        for i, z in enumerate(w_dir):
            fh.write(f"{i},{z!r},0.0\n")
    return max(err_per, err_dir, err_gauge) <= 1e-10, report


def cmd_isospectral(cfg, out_dir, quiet):
    from .spectral import isospectral_drift

    b = dict(cfg["boundary"])
    m_list = list(range(int(b["m_size"])))
    field_small, params = _bump_solution(cfg)
    cfg_big = dict(cfg)
    cfg_big["boundary"] = dict(b, n_size=2 * int(b["n_size"]),
                               center=(b["center"] if b["center"] is not None
                                       else b["n_size"] // 2))
    field_big, _ = _bump_solution(cfg_big)
    rep_small = isospectral_drift(field_small, params, m_list)
    rep_big = isospectral_drift(field_big, params, m_list)
    shrink = None
    if rep_small["max_drift"] and rep_big["max_drift"]:
        shrink = rep_small["max_drift"] / rep_big["max_drift"]
    report = {"small_window": rep_small, "large_window": rep_big,
              "shrink_factor": shrink}
    write_json(os.path.join(out_dir, "isospectral_report.json"), report)
    ok = (rep_small["bound_count"][0] > 0 and shrink is not None
          and shrink >= cfg["tolerances"]["drift_shrink"])
    return ok, report


def cmd_zs_limit(cfg, out_dir, quiet):
    from .spectral import nearest_partners, spectral_limit_check

    coeffs = _build_coeffs(cfg)
    n_list = list(cfg["N_list"])
    # the check assembles rows m = 0 and 1 of the ansatz at every N
    evolution = _evolve_dense(cfg, coeffs, 2, min(n_list))
    report = dict(spectral_limit_check(evolution, coeffs, n_list),
                  nls=_nls_block(evolution))
    write_json(os.path.join(out_dir, "zs_limit_report.json"), report)
    disc = [d for d in report["discrepancy"] if d is not None]
    ok = len(disc) == len(n_list) and disc[-1] <= disc[0]
    band = cfg["tolerances"]["cauchy_band"]
    if ok and len(n_list) >= 3:
        e_mid = sorted(report["estimates"][-2], key=abs)[1:4]  # skip the near-zero rung
        partners = nearest_partners(report["estimates"][-1], e_mid)
        ok = all(1 - band <= partner / v <= 1 + band
                 for v, partner in zip(e_mid, partners) if v != 0)
    return ok, report


def cmd_flow_check(cfg, out_dir, quiet):
    from .symmetries import symmetry_residual_scaling

    solution, params = _bump_solution(cfg)
    lambdas = [0.125, 0.25, 0.5]
    report = {}
    ok = True
    for which in ("flow1", "flow2"):
        rep = symmetry_residual_scaling(solution, params, which, lambdas)
        report[which] = rep
        ok = ok and rep["passed"]
        write_scaling_csv(os.path.join(out_dir, f"{which}_residuals.csv"),
                          rep["lambda"], rep["residual"], "lambda", "residual")
    neg = symmetry_residual_scaling(solution, params, "broken", lambdas)
    report["negative_control"] = neg
    ok = ok and neg["exponent"] is not None and neg["exponent"] < 2.0
    write_json(os.path.join(out_dir, "flow_check.json"), report)
    return ok, report


def cmd_flow_project(cfg, out_dir, quiet):
    from .reduction import assemble_ansatz
    from .symmetries import first_harmonic_blocks, harmonic_projection

    coeffs = _build_coeffs(cfg)
    n_list = cfg["N_list"]
    N = int(n_list[-1])
    window = (384, 384)
    evolution = _evolve_dense(cfg, coeffs, window[1], N // 2)
    report = {"nls": _nls_block(evolution), "assembly": {"modes": [], "modes_zeroth": []}}
    errs = {}
    for n in (N // 2, N):
        ans = assemble_ansatz(evolution, coeffs, n, window)
        report["assembly"]["modes"].append(ans.modes)
        report["assembly"]["modes_zeroth"].append(ans.modes_zeroth)
        flow1 = first_harmonic_blocks(ans, "flow1")
        rep1 = harmonic_projection(ans, coeffs, "flow1", flow1)
        errs[n] = rep1["weighted_rel_error"]
        report[f"flow1_N{n}"] = rep1
        if n == N:
            report[f"flow2_N{n}"] = harmonic_projection(ans, coeffs, "flow2", flow1)
    factor = cfg["tolerances"]["projection_error_factor"]
    halving = errs[N] / errs[N // 2] if errs[N // 2] > 0 else 0.0
    report["error_halving_factor"] = halving
    ok = (errs[N] <= factor / N and 0.2 <= halving <= 0.8
          and report[f"flow2_N{N}"]["flow2_over_flow1"]["std_over_mean"]
          <= cfg["tolerances"]["flow_ratio_std"])
    write_json(os.path.join(out_dir, "flow_projection.json"), report)
    return ok, report


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
    """Dispatch one subcommand; returns the process exit code."""
    if subcommand not in COMMANDS:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(config_path)
        validate_config(cfg)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = out_dir or f"lpkdv-run-{subcommand}"
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    error = None
    try:
        passed, report = COMMANDS[subcommand](cfg, out_dir, quiet)
    except (ConfigError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LpkdvError as exc:
        passed, report = False, None
        error = {"type": type(exc).__name__, "message": str(exc), **vars(exc)}
        print(f"error: {error['type']}: {exc}", file=sys.stderr)
    wall = time.time() - t0
    from . import __version__
    import numpy
    import scipy

    manifest = {
        "subcommand": subcommand,
        "config": cfg,
        "passed": bool(passed),
        "result": report,
        "error": error,
        "versions": {"lpkdv": __version__, "numpy": numpy.__version__,
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
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS/OpenMP threads (set before numpy loads)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    code = run(args.subcommand, args.config, args.out, args.quiet)
    return code


if __name__ == "__main__":
    sys.exit(main())
