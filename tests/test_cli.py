import json
import math
import os
import subprocess
import sys

import pytest

from lpkdv.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    load_config,
    main,
    run,
    validate_config,
)


def read(path):
    with open(path) as fh:
        return json.load(fh)


class TestConfig:
    def test_defaults_validate(self):
        validate_config(load_config(None))

    def test_merge_nested(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"envelope": {"amplitude": 0.5}}))
        cfg = load_config(cfg_path)
        assert cfg["envelope"]["amplitude"] == 0.5
        assert cfg["envelope"]["width"] == DEFAULT_CONFIG["envelope"]["width"]

    def test_p_equals_q_rejected(self):
        cfg = load_config(None)
        cfg["q"] = cfg["p"]
        with pytest.raises(ConfigError, match="mu"):
            validate_config(cfg)

    def test_kappa_range(self):
        cfg = load_config(None)
        cfg["kappa"] = 4.0
        with pytest.raises(ConfigError, match="kappa"):
            validate_config(cfg)


class TestRun:
    def test_coeffs_values(self, tmp_path):
        out = tmp_path / "out"
        assert run("coeffs", None, str(out), quiet=True) == 0
        doc = read(out / "coefficients.json")
        assert abs(doc["M1"] - math.sqrt(5)) < 1e-6
        assert abs(doc["rho1"] - (-1.2)) < 1e-9
        assert abs(doc["rho2"] - 16.0 / 75.0) < 1e-6
        assert abs(doc["tau2"]["im"] - 1.0 / 3.0) < 1e-9

    def test_selftest_passes(self, tmp_path):
        assert run("selftest", None, str(tmp_path / "o"), quiet=True) == 0

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"p": 1.0, "q": 1.0}))
        code = run("dispersion", str(cfg), str(tmp_path / "o"), quiet=True)
        assert code == 2
        assert "mu" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_broken_json_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run("coeffs", str(cfg), str(tmp_path / "o"), quiet=True) == 2

    def test_reproducible_reports(self, tmp_path):
        for sub, names in (("spectrum", ("spectrum_report.json", "spectrum.csv")),
                           ("zs-limit", ("zs_limit_report.json",))):
            out1, out2 = tmp_path / sub / "a", tmp_path / sub / "b"
            assert run(sub, None, str(out1), quiet=True) == 0
            assert run(sub, None, str(out2), quiet=True) == 0
            for name in ("manifest.json",) + names:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_assembly_counters(self, tmp_path):
        # one (modes, modes_zeroth) pair per assembled N, in the order assembled
        for sub, name, n_count in (("ansatz-residual", "ansatz_residual.json", 3),
                                   ("flow-project", "flow_projection.json", 2)):
            assert run(sub, None, str(tmp_path / sub), quiet=True) == 0
            block = read(tmp_path / sub / name)["assembly"]
            assert set(block) == {"modes", "modes_zeroth"}
            assert len(block["modes"]) == len(block["modes_zeroth"]) == n_count
            assert all(m % 2 == 1 and z % 2 == 1 for m, z in
                       zip(block["modes"], block["modes_zeroth"]))

    def test_zs_limit_eigensolve_counters(self, tmp_path):
        # k is sized from one probe on the base grid and from the previous
        # grid on each refinement, never doubled
        assert run("zs-limit", None, str(tmp_path), quiet=True) == 0
        rep = read(tmp_path / "zs_limit_report.json")
        block = rep["eigensolve"]
        assert [g["size"] for g in block] == [510, 1020, 1530]
        assert all(isinstance(k, int) for g in block for k in g["k"])
        assert len(block[0]["k"]) <= 2
        assert [len(g["k"]) for g in block[1:]] == [1, 1]
        assert block[-1]["kept"] == len(rep["zs_eigenvalues"])

    def test_simulate_artifacts_round_trip(self, tmp_path):
        from lpkdv.fieldio import load_field_binary, load_field_csv

        out = tmp_path / "sim"
        assert run("simulate", None, str(out), quiet=True) == 0
        f_csv = load_field_csv(out / "field.csv")
        f_bin = load_field_binary(out / "field.bin")
        assert f_csv == f_bin

    def test_flow_check(self, tmp_path):
        out = tmp_path / "fc"
        assert run("flow-check", None, str(out), quiet=True) == 0
        rep = read(out / "flow_check.json")
        assert rep["flow1"]["passed"] and rep["flow2"]["passed"]
        assert rep["negative_control"]["exponent"] < 2.0

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m"
        run("coeffs", None, str(out), quiet=True)
        doc = read(out / "manifest.json")
        assert doc["passed"] is True
        assert "numpy" in doc["versions"] and "lpkdv" in doc["versions"]
        assert doc["config"]["p"] == 1.5
        assert doc["result"] == read(out / "coefficients.json")
        timings = read(out / "timings.json")
        assert "wall_seconds" in timings


class TestEnvelopeConfigs:
    def test_plane_envelope(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "envelope": {"type": "plane", "amplitude": 0.3, "k": 2},
            "nls": {"L": 128, "period": 40.0, "tau_final": 0.2},
        }))
        out = tmp_path / "o"
        assert run("nls-evolve", str(cfg), str(out), quiet=True) == 0

    def test_file_envelope(self, tmp_path):
        import numpy as np

        from lpkdv.nls import envelope_to_json, gaussian_envelope

        env = gaussian_envelope(128, 0.0, 40.0, 0.5, 2.0, 20.0)
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(envelope_to_json(env)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "envelope": {"type": "file", "path": str(env_path)},
            "nls": {"L": 128, "period": 40.0, "tau_final": 0.1},
        }))
        assert run("nls-evolve", str(cfg), str(tmp_path / "o"), quiet=True) == 0

    def test_zero_tau_final_takes_no_step(self, tmp_path):
        # a null tau_final means the default 1.0; 0 is taken as given
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nls": {"L": 128, "period": 40.0, "tau_final": 0.0}}))
        out = tmp_path / "o"
        assert run("nls-evolve", str(cfg), str(out), quiet=True) == 0
        rep = read(out / "nls_report.json")
        assert rep["steps"] == 0 and rep["tau_final"] == 0.0

    def test_random_boundary_simulate(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "boundary": {"kind": "random", "amplitude": 0.02,
                         "n_size": 60, "m_size": 8, "p": 1.5, "q": -0.5},
        }))
        assert run("simulate", str(cfg), str(tmp_path / "o"), quiet=True) == 0

    def test_unknown_envelope_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"envelope": {"type": "sawtooth"}}))
        assert run("nls-evolve", str(cfg), str(tmp_path / "o"), quiet=True) == 2


def test_main_entry(tmp_path, capsys):
    code = main(["coeffs", "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0


@pytest.mark.parametrize("p, q, kappa", [(2.0, 1.0, 1.0), (3.0, 0.7, 0.6),
                                         (1.5, 0.5, 1.2)])
def test_ansatz_residual_across_domain(tmp_path, p, q, kappa):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": p, "q": q, "kappa": kappa}))
    out = tmp_path / "o"
    assert run("ansatz-residual", str(cfg), str(out), quiet=True) == 0
    assert read(out / "ansatz_residual.json")["exponent"] >= 2.7


@pytest.mark.parametrize("subcommand, doc, code", [
    ("ansatz-residual", {"N_list": [16, 32]}, 2),
    ("nls-evolve", {"envelope": {"type": "file"}}, 2),
    ("coeffs", {"kappa": "x"}, 2),
    ("ansatz-residual", {"N_list": [0, 1, 2]}, 2),
    ("simulate", {"boundary": {"p": 1.0, "q": 1.0}}, 2),
    ("coeffs", {"Nlist": [16, 32, 64]}, 2),
    ("nls-evolve", {"nls": {"dtau": -1.0}}, 2),
    ("commutators", {"commutators": {"width": 0.1}}, 1),
    ("nls-evolve", {"envelope": {"type": "file", "path": "$TMP/empty.json"}}, 2),
    ("nls-evolve", {"boundary": {"kind": "nope"}}, 2),
    ("flow-check", {"tolerances": {"flow_exponent": 4.0}}, 2),
    ("nls-evolve", {"nls": {"L": 0}}, 2),
    ("flow-project", {"N_list": [1]}, 2),
    ("commutators", {"commutators": {"eps": []}}, 2),
    ("nls-evolve", {"envelope": {"width": 0.0}}, 2),
    ("simulate", {"boundary": {"width": 0.0}}, 2),
    ("flow-check", {"boundary": {"p": 0.0, "q": 0.5, "kind": "random", "amplitude": 0.01}}, 2),
    ("nls-evolve", {"nls": {"dtau": 0.0}}, 2),
    ("ansatz-residual", {"nls": {"dtau": 0.0}}, 2),
    ("nls-evolve", {"envelope": {"type": "file", "path": "$TMP/ragged.json"}}, 2),
    ("nls-evolve", {"envelope": {"type": "file", "path": "$TMP/text_dxi.json"}}, 2),
    ("nls-evolve", {"envelope": {"type": "file", "path": "$TMP/text_re.json"}}, 2),
])
def test_failure_exit_codes(tmp_path, capsys, subcommand, doc, code):
    """Config mistakes exit 2 with one 'config error:' line; an error raised
    by the computation exits 1 and is recorded in the manifest.  "$TMP" in a
    config stands for the test's directory, which holds an empty JSON
    object as empty.json and malformed envelope documents: re and im of
    unequal length (ragged.json), a text dxi (text_dxi.json) and a text re
    (text_re.json)."""
    (tmp_path / "empty.json").write_text("{}")
    envelope = {"re": [0.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0], "xi0": 0.0, "dxi": 0.5}
    for name, change in [("ragged", {"im": [0.0, 0.0]}), ("text_dxi", {"dxi": "a"}),
                         ("text_re", {"re": "abc"})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(envelope, **change)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace("$TMP", str(tmp_path)))
    out = tmp_path / "o"
    assert run(subcommand, str(cfg), str(out), quiet=True) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if code == 2:
        assert err.startswith("config error:")
    else:
        manifest = read(out / "manifest.json")
        assert manifest["passed"] is False and manifest["result"] is None
        assert manifest["error"]["type"] == "PreconditionError"
        assert "resolved" in manifest["error"]["message"]


# per tolerance key: the subcommand whose pass rule reads it, and a value no
# run can meet
IMPOSSIBLE_TOLERANCES = {
    "linear_residual": ("dispersion", -1.0),
    "ansatz_exponent": ("ansatz-residual", 100.0),
    "mass_drift": ("nls-evolve", -1.0),
    "projection_error_factor": ("flow-project", -1.0),
    "flow_ratio_std": ("flow-project", -1.0),
    "drift_shrink": ("isospectral", 1e9),
    "cauchy_band": ("zs-limit", -1.0),
}


@pytest.mark.parametrize("key", sorted(IMPOSSIBLE_TOLERANCES))
def test_tolerance_is_read(tmp_path, key):
    """Every tolerance decides its subcommand's exit code: an impossible
    value makes the run exit 1 with its report still in the manifest."""
    assert set(IMPOSSIBLE_TOLERANCES) == set(DEFAULT_CONFIG["tolerances"])
    subcommand, value = IMPOSSIBLE_TOLERANCES[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {key: value}}))
    out = tmp_path / "o"
    assert run(subcommand, str(cfg), str(out), quiet=True) == 1
    manifest = read(out / "manifest.json")
    assert manifest["passed"] is False and manifest["result"] is not None


def test_zs_limit_solver_failure_exit_1(tmp_path, capsys, monkeypatch):
    """ARPACK non-convergence in the reduced eigen-solve is a numerical
    failure: exit 1 with a NumericalError record in the manifest."""
    from scipy.sparse.linalg import ArpackNoConvergence

    from lpkdv import spectral

    def fail(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(spectral, "eigs", fail)
    out = tmp_path / "o"
    assert run("zs-limit", None, str(out), quiet=True) == 1
    assert capsys.readouterr().err.startswith("error: NumericalError")
    manifest = read(out / "manifest.json")
    assert manifest["passed"] is False and manifest["result"] is None
    assert manifest["error"]["type"] == "NumericalError"
    assert manifest["error"]["diagnostics"]["size"] == 510


def test_cli_import_defers_numpy():
    """--threads can only act if numpy is not loaded before main() runs."""
    import lpkdv

    code = ("import sys, lpkdv.cli; assert 'numpy' not in sys.modules; "
            "from lpkdv import LatticeField; assert 'numpy' in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lpkdv.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_public_names_resolve():
    """Every name in lpkdv.__all__ loads, so `from lpkdv import *` works."""
    import lpkdv

    for name in lpkdv.__all__:
        getattr(lpkdv, name)


def test_spectral_import_skips_interpolate():
    """The reduced eigen-solve refines its potential by Fourier series, not
    by a spline: importing the spectral module loads no scipy.interpolate."""
    import lpkdv

    code = ("import sys, lpkdv.spectral; "
            "assert 'scipy.interpolate' not in sys.modules, 'scipy.interpolate loaded'")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lpkdv.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_import_skips_scipy_fft():
    """numpy.fft is the package's FFT: at these lengths scipy.fft saves a few
    microseconds per transform but costs about 0.1 s to import."""
    import lpkdv

    code = ("import sys, lpkdv.cli, lpkdv.nls, lpkdv.reduction, lpkdv.spectral, "
            "lpkdv.symmetries; assert 'scipy.fft' not in sys.modules, 'scipy.fft loaded'")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lpkdv.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
