import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lpkdv import cli
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
        assert doc["tau1"]["im"] == doc["tau2"]["re"] == 0.0
        assert "theta" not in doc and "S" not in doc
        assert doc["lax_identity"]["ratio"] == -2.0 and doc["lax_identity"]["draws"] == 100

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
        # one band per dense run, in its nls block, and no per-N assembly
        # block: every N is assembled over the modes |j| <= band; the run
        # steps on a 256-point working grid with no rerun
        for sub, name in (("ansatz-residual", "ansatz_residual.json"),
                          ("flow-project", "flow_projection.json")):
            assert run(sub, None, str(tmp_path / sub), quiet=True) == 0
            rep = read(tmp_path / sub / name)
            assert "assembly" not in rep
            assert set(rep["nls"]) == {"steps", "dtau", "snapshots", "band", "grids"}
            assert rep["nls"]["band"] == 86
            assert rep["nls"]["grids"] == [256]

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
        assert rep["negative_control"]["exponent"] < cli.BOUNDS["control_exponent"]

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


def test_coeffs_echo(tmp_path, capsys):
    """Without --quiet, coeffs prints its coefficients as JSON, then the
    PASS line."""
    assert main(["coeffs", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    doc, end = json.JSONDecoder().raw_decode(out)
    assert doc == read(tmp_path / "coefficients.json")
    assert out[end:].lstrip().startswith("coeffs: PASS")


def test_contracts_do_no_io(monkeypatch):
    """With every writer raising, the cheap contracts still return
    (passed, report, files): they write nothing themselves."""
    from lpkdv import fieldio, nls

    def refuse(*args, **kwargs):
        raise AssertionError("a contract wrote a file")

    for owner, name in ((cli, "write_json"), (cli, "write_scaling_csv"),
                        (fieldio, "save_field_csv"), (fieldio, "save_field_binary"),
                        (nls, "save_envelope_csv")):
        monkeypatch.setattr(owner, name, refuse)
    cfg = cli._merge(DEFAULT_CONFIG, {"boundary": {"n_size": 40, "m_size": 6}})
    validate_config(cfg)
    for subcommand in ("selftest", "coeffs", "dispersion", "spectrum", "commutators",
                       "simulate"):
        passed, report, files = cli.COMMANDS[subcommand](cfg)
        assert passed, subcommand
        assert isinstance(report, dict) and isinstance(files, dict) and files


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_out_dir_holds_the_contract_files(tmp_path, monkeypatch, subcommand):
    """run writes exactly the files the contract returns, plus the manifest
    and the timings."""
    contract = cli.COMMANDS[subcommand]
    names = []

    def spy(cfg):
        passed, report, files = contract(cfg)
        names.extend(files)
        return passed, report, files

    monkeypatch.setitem(cli.COMMANDS, subcommand, spy)
    assert run(subcommand, None, str(tmp_path), quiet=True) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(names + ["manifest.json", "timings.json"])


def test_computation_error_leaves_no_artifacts(tmp_path, monkeypatch):
    """An error raised part way through a computation, here by flow-check's
    flow2 scaling after flow1's, leaves only the manifest and the timings."""
    from lpkdv import symmetries
    from lpkdv.errors import NumericalError

    scaling = symmetries.symmetry_residual_scaling

    def fail_flow2(solution, params, which, lambdas):
        if which == "flow2":
            raise NumericalError("flow2 scaling failed")
        return scaling(solution, params, which, lambdas)

    monkeypatch.setattr(symmetries, "symmetry_residual_scaling", fail_flow2)
    assert run("flow-check", None, str(tmp_path), quiet=True) == 1
    assert sorted(os.listdir(tmp_path)) == ["manifest.json", "timings.json"]
    assert read(tmp_path / "manifest.json")["error"]["type"] == "NumericalError"


def test_spectrum_csv_cells_are_numbers(tmp_path):
    """spectrum.csv holds index,re,im and plain decimals: every cell parses
    as a number."""
    assert run("spectrum", None, str(tmp_path), quiet=True) == 0
    with open(tmp_path / "spectrum.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["index", "re", "im"] and len(rows) == 64
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unusable_out_dir_exit_2(tmp_path, capsys, out):
    """An --out that is an existing file, or lies under one, is a config
    mistake: exit 2 with one 'config error:' line and no traceback."""
    (tmp_path / "file").write_text("")
    assert main(["coeffs", "--out", str(tmp_path / out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


# (1.5, 0.5, pi/3) and (2, 1, arccos(1/3)) lie on zeta cos(kappa) = mu, where
# the phase of the complex forms' scale factor is undefined
@pytest.mark.parametrize("p, q, kappa", [(2.0, 1.0, 1.0), (3.0, 0.7, 0.6),
                                         (1.5, 0.5, 1.2), (1.5, 0.5, math.pi / 3),
                                         (2.0, 1.0, math.acos(1.0 / 3.0))])
def test_ansatz_residual_across_domain(tmp_path, p, q, kappa):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": p, "q": q, "kappa": kappa}))
    out = tmp_path / "o"
    assert run("ansatz-residual", str(cfg), str(out), quiet=True) == 0
    assert read(out / "ansatz_residual.json")["exponent"] >= cli.BOUNDS["ansatz_exponent"]


@pytest.mark.parametrize("p, q, kappa", [(2.0, 1.0, 1.0), (3.0, 0.7, 0.6), (1.5, 0.5, 1.2),
                                         (1.5, 0.5, 2.5), (0.8, 0.3, 2.0)])
def test_commutators_across_domain(tmp_path, p, q, kappa):
    """Every pair of reduced flows commutes to its round-off floor on the NLS
    envelope, and the wrong-cubic control stays above its floor, away from
    the default point too (rho2 = 0.0019 at (1.5, 0.5, 2.5))."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": p, "q": q, "kappa": kappa}))
    out = tmp_path / "o"
    assert run("commutators", str(cfg), str(out), quiet=True) == 0
    rep = read(out / "commutators.json")
    assert all(row["residual"] <= row["floor"] for row in rep["sweep"])
    assert rep["negative_control"]["residual"] > rep["negative_control"]["floor"]


@pytest.mark.parametrize("doc, code, named", [
    ({"kappa": math.pi / 3}, 0, None),
    ({"p": 2.0, "q": 1.0, "kappa": math.acos(1.0 / 3.0)}, 0, None),
    ({"p": 0.0}, 2, "p != 0"),
    ({"q": 0.0}, 2, "q ~ 0"),
    ({"kappa": 3.14}, 0, None),
    ({"kappa": math.pi - 1e-6}, 0, None),
    ({"kappa": math.pi - 1e-9}, 0, None),
])
def test_coeffs_across_domain(tmp_path, capsys, doc, code, named):
    """coeffs holds on the curve zeta cos(kappa) = mu too, and up to the
    dispersion relation's limit kappa = pi - 1e-9, where the reduction stays
    defocusing (rho2 and tau1 keep their relative accuracy as
    cos^2(kappa/2) -> 0); p = 0 and q = 0 are config errors whose line names
    the parameter."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run("coeffs", str(cfg), str(tmp_path / "o"), quiet=True) == code
    if named:
        assert named in capsys.readouterr().err
    else:
        assert read(tmp_path / "o" / "coefficients.json")["defocusing"] is True


def test_coeffs_wrong_rho2_exit_1(tmp_path, monkeypatch):
    """A rho2 off by 0.1% breaks rho2 M1^2 / (rho1 g^2) = -2 at every point:
    coeffs exits 1 with its report in the manifest."""
    import dataclasses

    from lpkdv import reduction

    compute = reduction.compute_coefficients

    def wrong_rho2(params, kappa):
        co = compute(params, kappa)
        return dataclasses.replace(co, rho2=co.rho2 * 1.001)

    monkeypatch.setattr(reduction, "compute_coefficients", wrong_rho2)
    out = tmp_path / "o"
    assert run("coeffs", None, str(out), quiet=True) == 1
    block = read(out / "manifest.json")["result"]["lax_identity"]
    assert abs(block["ratio"] / -2.0 - 1.0) > 9e-4


def test_dispersion_derivatives_at_config_point(tmp_path):
    """dispersion checks rho1 = -omega'' M1^2 / 2 and omega' M1 = branch
    M1_tilde against 7-point differences of the dispersion relation at the
    config point, on both branches: 1.2 and 1.341641 at (1.5, -0.5, pi/2)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": -0.5}))
    assert run("dispersion", str(cfg), str(tmp_path / "o"), quiet=True) == 0
    block = read(tmp_path / "o" / "dispersion_report.json")["derivatives"]
    assert block["tolerance"] == cli.BOUNDS["dispersion_derivatives"]
    assert abs(block["rho1"]["differences"] - 1.2) <= 1e-8
    assert abs(block["velocity"]["differences"] - 1.341641) <= 1e-6
    for row in (block["rho1"], block["velocity"]):
        assert row["rel_error"] <= 1e-8 and row["estimate"] <= 1e-7


@pytest.mark.parametrize("doc, code", [
    ({"kappa": 1e-6}, 0), ({"kappa": 3.14}, 0), ({"kappa": math.pi - 1e-6}, 0),
    ({"p": 1.0, "q": 0.01, "kappa": 0.01}, 0), ({"kappa": math.pi - 1e-9}, 2)])
def test_dispersion_derivatives_across_domain(tmp_path, capsys, doc, code):
    """Near kappa = 0 or pi and at extreme |p/q| the differences' error
    estimate grows with their error, so the check holds; within 4e-9 of pi
    the stencil would cross the dispersion relation's limit pi - 1e-9, a
    config error that names it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run("dispersion", str(cfg), str(tmp_path / "o"), quiet=True) == code
    if code == 2:
        assert "too close to pi" in capsys.readouterr().err


@pytest.mark.parametrize("field, factor", [("rho1", 1.1), ("M1_tilde", 1.01)])
def test_dispersion_wrong_coefficient_exit_1(tmp_path, monkeypatch, field, factor):
    """A rho1 off by 10% or an M1_tilde off by 1% breaks its relation to the
    dispersion relation's derivatives: dispersion exits 1."""
    import dataclasses

    from lpkdv import reduction

    compute = reduction.compute_coefficients

    def wrong(params, kappa):
        co = compute(params, kappa)
        return dataclasses.replace(co, **{field: getattr(co, field) * factor})

    monkeypatch.setattr(reduction, "compute_coefficients", wrong)
    out = tmp_path / "o"
    assert run("dispersion", None, str(out), quiet=True) == 1
    block = read(out / "manifest.json")["result"]["derivatives"]
    key = "rho1" if field == "rho1" else "velocity"
    assert block[key]["rel_error"] > 100 * (block["tolerance"] + block[key]["estimate"])


def test_commutators_wrong_h4_cubic_exit_1(tmp_path, monkeypatch):
    """An h4 whose cubic carries 2.9 rho2 in place of 3 rho2 fails its
    commutator with the NLS: exit 1 with the report in the manifest.  The
    wrong h4 is still a phase symmetry, so its pair with h1 passes."""
    from lpkdv import nls

    flow = nls._flow

    def wrong_h4(u, dxi, c, which):
        if which != "h4":
            return flow(u, dxi, c, which)
        d1 = nls._spectral_derivative(u, dxi, 1)
        d3 = nls._spectral_derivative(u, dxi, 3)
        return c.rho1 * d3 + 2.9 * c.rho2 * np.abs(u) ** 2 * d1

    monkeypatch.setattr(nls, "_flow", wrong_h4)
    out = tmp_path / "o"
    assert run("commutators", None, str(out), quiet=True) == 1
    rows = {tuple(row["pair"]): row for row in read(out / "manifest.json")["result"]["sweep"]}
    assert not rows[("nls", "h4")]["passed"] and rows[("nls", "h1")]["passed"]
    assert rows[("h1", "h4")]["passed"]


def test_isospectral_conserved_control_exit_1(tmp_path, monkeypatch):
    """A control that is isospectral shows nothing: with the printed variant
    returning the corrected a_n, the run exits 1, although both true drifts
    meet their bound and shrink."""
    from lpkdv import spectral

    row = spectral.coefficient_row
    monkeypatch.setattr(spectral, "coefficient_row",
                        lambda u, params, variant="corrected": row(u, params))
    out = tmp_path / "o"
    assert run("isospectral", None, str(out), quiet=True) == 1
    rep = read(out / "manifest.json")["result"]
    bound = rep["drift_bound"]
    assert rep["negative_control"]["max_drift"] <= bound
    assert max(rep[w]["max_drift"] for w in ("small_window", "large_window")) <= bound
    assert rep["shrink_factor"] >= cli.BOUNDS["drift_shrink"]


def test_commutators_commuting_control_exit_1(tmp_path, monkeypatch):
    """A control that commutes shows nothing: with its h4 built from the true
    rho2 the run exits 1, although every pair passes."""
    from lpkdv import nls

    true = nls.NlsCoefficients
    monkeypatch.setattr(nls, "NlsCoefficients", lambda rho1, rho2: true(rho1, rho2 / 2.0))
    out = tmp_path / "o"
    assert run("commutators", None, str(out), quiet=True) == 1
    rep = read(out / "manifest.json")["result"]
    assert all(row["passed"] for row in rep["sweep"])
    assert rep["negative_control"]["residual"] <= rep["negative_control"]["floor"]


def test_commutators_aliased_cubic_exit_1(tmp_path):
    """A width-0.1 envelope is resolved on the default grid (top-third energy
    3.3e-14) but its cubic |u|^2 u is not (1.2e-5): exit 1 with a
    PreconditionError record, not a failed contract."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"width": 0.1}}))
    out = tmp_path / "o"
    assert run("commutators", str(cfg), str(out), quiet=True) == 1
    manifest = read(out / "manifest.json")
    assert manifest["result"] is None
    assert manifest["error"]["type"] == "PreconditionError"


# non-finite numbers, which Python's json reads: (subcommand, config, key named)
NON_FINITE = [
    ("nls-evolve", {"nls": {"tau_final": math.nan}}, "nls.tau_final"),
    ("nls-evolve", {"nls": {"tau_final": math.inf}}, "nls.tau_final"),
    ("coeffs", {"p": math.inf}, "p"),
    ("nls-evolve", {"envelope": {"center": math.nan}}, "envelope.center"),
    ("commutators", {"commutators": {"eps": [1e-4, math.inf]}}, "commutators.eps"),
]

# malformed envelope documents, each a valid one with one change
ENVELOPE = {"re": [0.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0], "xi0": 0.0, "dxi": 0.5}
ENVELOPE_FILES = {"ragged": {"im": [0.0, 0.0]}, "text_dxi": {"dxi": "a"},
                  "text_re": {"re": "abc"}, "nan_dxi": {"dxi": math.nan},
                  "inf_xi0": {"xi0": math.inf}}


@pytest.mark.parametrize("subcommand, doc, code", [
    ("ansatz-residual", {"N_list": [16, 32]}, 2),
    ("nls-evolve", {"envelope": {"type": "file"}}, 2),
    ("coeffs", {"kappa": "x"}, 2),
    ("ansatz-residual", {"N_list": [0, 1, 2]}, 2),
    ("simulate", {"boundary": {"p": 1.0, "q": 1.0}}, 2),
    ("coeffs", {"Nlist": [16, 32, 64]}, 2),
    ("nls-evolve", {"nls": {"dtau": 0.01}}, 2),
    ("commutators", {"envelope": {"width": 0.05}}, 1),
    ("nls-evolve", {"envelope": {"type": "file", "path": "$TMP/empty.json"}}, 2),
    ("nls-evolve", {"boundary": {"kind": "nope"}}, 2),
    ("flow-check", {"tolerances": {"flow_exponent": 4.0}}, 2),
    ("nls-evolve", {"nls": {"L": 0}}, 2),
    ("flow-project", {"N_list": [1]}, 2),
    ("commutators", {"commutators": {"L": 96}}, 2),
    ("nls-evolve", {"envelope": {"width": 0.0}}, 2),
    ("simulate", {"boundary": {"width": 0.0}}, 2),
    ("flow-check", {"boundary": {"p": 0.0, "q": 0.5, "kind": "random", "amplitude": 0.01}}, 2),
    ("nls-evolve", {"M2_tilde": 1e-300}, 2),
    ("ansatz-residual", {"branch": 1}, 2),
    ("nls-evolve", {"envelope": {"type": "file", "path": "$TMP/ragged.json"}}, 2),
    ("nls-evolve", {"envelope": {"type": "file", "path": "$TMP/text_dxi.json"}}, 2),
    ("nls-evolve", {"envelope": {"type": "file", "path": "$TMP/text_re.json"}}, 2),
    ("nls-evolve", {"envelope": {"type": "file", "path": "$TMP/nan_dxi.json"}}, 2),
    ("nls-evolve", {"envelope": {"type": "file", "path": "$TMP/inf_xi0.json"}}, 2),
    ("dispersion", {"tolerances": {"linear_residual": 1.0}}, 2),
    ("dispersion", {"seed": 2.0}, 2),
    ("spectrum", {"seed": 1e30}, 2),
    ("dispersion", {"seed": -1}, 2),
    ("ansatz-residual", {"window": [512, 192]}, 2),
    ("ansatz-residual", {"N_list": [1, 2, 3]}, 2),
    ("flow-project", {"N_list": [2]}, 2),
    ("simulate", {"boundary": {"n_size": 0}}, 2),
    ("simulate", {"boundary": {"n_size": -5}}, 2),
    ("simulate", {"boundary": {"n_size": 1}}, 2),
    ("flow-check", {"boundary": {"n_size": 0}}, 2),
    ("flow-check", {"boundary": {"n_size": -5, "kind": "random"}}, 2),
    ("isospectral", {"boundary": {"n_size": 0}}, 2),
    ("isospectral", {"boundary": {"n_size": -5}}, 2),
    ("coeffs", {"r": 1e200}, 2),
    *[(subcommand, doc, 2) for subcommand, doc, _ in NON_FINITE],
    ("nls-evolve", {"envelope": {"amplitude": 1e200}}, 2),
    ("ansatz-residual", {"envelope": {"amplitude": 1e200}}, 2),
    ("nls-evolve", {"nls": {"tau_final": 0.0}}, 2),
])
def test_failure_exit_codes(tmp_path, capsys, subcommand, doc, code):
    """Config mistakes exit 2 with one 'config error:' line; an error raised
    by the computation exits 1 and is recorded in the manifest.  The retired
    keys r, M2_tilde, branch, nls.dtau, window and the commutators block are
    unknown keys; an envelope of width 0.05 on the default grid is refused as
    unresolved (top-third energy 1.5e-4); an amplitude
    whose square overflows has a stable step of 0, which the step guard
    refuses; a tau_final at the envelope's own tau (0) asks for a mass drift
    over no step, which cannot fail.  "$TMP" in a config stands for the test's directory, which
    holds an empty JSON object as empty.json and malformed envelope
    documents: re and im of unequal length (ragged.json), a text dxi
    (text_dxi.json), a text re (text_re.json), a NaN dxi (nan_dxi.json) and
    an infinite xi0 (inf_xi0.json)."""
    (tmp_path / "empty.json").write_text("{}")
    for name, change in ENVELOPE_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(ENVELOPE, **change)))
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


@pytest.mark.parametrize("subcommand, doc, key", NON_FINITE)
def test_non_finite_config_number_named(tmp_path, capsys, subcommand, doc, key):
    """A NaN or infinite config number is refused by the schema check, on one
    line that names its key, before any computation sees it; under a retired
    block (commutators) the line names the block as unknown."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(subcommand, str(cfg), str(tmp_path / "o"), quiet=True) == 2
    err = capsys.readouterr().err
    block = key.split(".")[0]
    named = f"{key} = " if block in DEFAULT_CONFIG else f"unknown config key {block!r}"
    assert err.startswith(f"config error: {named}") and err.count("\n") == 1


def test_config_leaves_pinned():
    """The config surface is fixed: a new knob needs a deliberate edit here,
    as a new bound does in test_default_tolerances_pinned."""
    def leaves(doc, where=""):
        for key, value in doc.items():
            if isinstance(value, dict):
                yield from leaves(value, where + key + ".")
            else:
                yield where + key

    assert sorted(leaves(DEFAULT_CONFIG)) == sorted([
        "p", "q", "kappa", "N_list", "seed",
        "envelope.type", "envelope.amplitude", "envelope.width", "envelope.center",
        "nls.L", "nls.period", "nls.tau_final",
        "boundary.kind", "boundary.amplitude", "boundary.width", "boundary.center",
        "boundary.n_size", "boundary.m_size", "boundary.p", "boundary.q",
    ])


def test_dense_run_keeps_the_cubic():
    """A dense run for rows 0 and 1 at N = 16 spans less than one dense
    step, yet takes DENSE_MIN_STEPS = 3 steps, so that the cubic through
    N_hat has its 4 step ends; ansatz-residual's run (192 rows) keeps its
    145 steps of DENSE_STEP_MULTIPLE times stable_dtau."""
    from lpkdv import reduction

    cfg = load_config(None)
    coeffs = cli._build_coeffs(cfg)
    env = cli._build_envelope(cfg)
    evolution = reduction.evolve_rows(env, coeffs, 2, 16)
    assert evolution.steps >= 3 and len(evolution.taus) == evolution.steps + 1
    assert reduction.evolve_rows(env, coeffs, 192, 16).steps == 145


def test_flow_project_zero_envelope_exit_1(tmp_path, capsys):
    """An envelope below ENVELOPE_FLOOR everywhere leaves nothing to project:
    exit 1 with a PreconditionError record, not a KeyError traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"amplitude": 0.0}}))
    out = tmp_path / "o"
    assert run("flow-project", str(cfg), str(out), quiet=True) == 1
    assert capsys.readouterr().err.startswith("error: PreconditionError")
    manifest = read(out / "manifest.json")
    assert manifest["passed"] is False and manifest["result"] is None
    assert manifest["error"]["type"] == "PreconditionError"
    assert "ENVELOPE_FLOOR" in manifest["error"]["message"]


@pytest.mark.parametrize("subcommand", ["commutators", "nls-evolve"])
def test_non_finite_envelope_values_exit_2(tmp_path, capsys, subcommand):
    """A NaN in an envelope file's values is refused as it is read: exit 2
    with a config error line, where commutators ran on it and exited 1
    with no error record, and the dense runs blamed a NaN step."""
    doc = dict(ENVELOPE, re=[0.0] * 10 + [math.nan] + [0.0] * 53, im=[0.0] * 64)
    (tmp_path / "env.json").write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"type": "file", "path": str(tmp_path / "env.json")}}))
    assert run(subcommand, str(cfg), str(tmp_path / "o"), quiet=True) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite re, im and tau" in err


def test_overflowing_envelope_commutators_exit_1(tmp_path, capsys):
    """A finite envelope of 1e200 overflows |u|^2 u: the resolution check
    refuses the NaN it leaves (exit 1, PreconditionError record) before the
    round-off floor squares the amplitude."""
    doc = dict(ENVELOPE, re=[1e200] * 64, im=[0.0] * 64)
    (tmp_path / "env.json").write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"type": "file", "path": str(tmp_path / "env.json")}}))
    out = tmp_path / "o"
    assert run("commutators", str(cfg), str(out), quiet=True) == 1
    assert capsys.readouterr().err.startswith("error: PreconditionError: cubic |u|^2 u")
    manifest = read(out / "manifest.json")
    assert manifest["result"] is None and manifest["error"]["type"] == "PreconditionError"


def test_flow_project_window_shorter_than_carrier_period_exit_1(tmp_path, capsys):
    """At kappa = 0.01 the carrier period P = ceil(2 pi / kappa) = 629 sites
    is longer than the 384 x 384 window, so no block is whole: exit 1 with
    a PreconditionError record naming P, not a ValueError traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 0.01}))
    out = tmp_path / "o"
    assert run("flow-project", str(cfg), str(out), quiet=True) == 1
    assert capsys.readouterr().err.startswith("error: PreconditionError")
    manifest = read(out / "manifest.json")
    assert manifest["result"] is None and manifest["error"]["type"] == "PreconditionError"
    assert "P = 629 is longer than the 384 x 384 window" in manifest["error"]["message"]


def test_dense_run_over_budget_exit_2(tmp_path, capsys):
    """N_list = [2] asks flow-project for rows up to tau = 383 * 1.01 (N = 1) at
    the dense step: 73941 steps, whose 73942 step ends of 1024 points make
    75716608 step points, over nls.MAX_STEP_POINTS (1 GiB of stored spectra).
    The run is refused before the store is allocated: exit 2, one config
    error line naming the steps and points."""
    import tracemalloc

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N_list": [2]}))
    tracemalloc.start()
    try:
        assert run("flow-project", str(cfg), str(tmp_path / "o"), quiet=True) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "73941 steps of 1024 points, 75716608 step points" in err
    assert peak < 64 << 20


def test_nls_evolve_over_budget_exit_2(tmp_path, capsys, monkeypatch):
    """nls.period = 1.0 shrinks the grid spacing 40 times, so nls-evolve's
    stable step asks for 1223290 steps to tau = 1, over nls.MAX_STEP_POINTS
    at L = 1024.  The end-point run has the dense run's budget: exit 2 with
    one config error line, before a single step is taken."""
    from lpkdv import nls

    def refuse(*args):
        raise AssertionError("the over-budget run stepped")

    monkeypatch.setattr(nls, "_nonlinear", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nls": {"period": 1.0}}))
    assert run("nls-evolve", str(cfg), str(tmp_path / "o"), quiet=True) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "1223290 steps of 1024 points" in err


def test_config_integer_beyond_float_range_exit_2(tmp_path, capsys):
    """A JSON integer a float cannot hold (10**400) is not a finite number:
    the schema check refuses it on one line naming the key, where
    math.isfinite raised OverflowError out of the run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 10 ** 400}))
    assert run("coeffs", str(cfg), str(tmp_path / "o"), quiet=True) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: p = ") and err.count("\n") == 1


def test_envelope_integer_beyond_float_range_exit_2(tmp_path, capsys):
    """An envelope file with 10**400 in re is refused as it is read, like a
    NaN there, where the float conversion raised OverflowError out of the run."""
    doc = dict(ENVELOPE, re=[0.0] * 10 + [10 ** 400] + [0.0] * 53, im=[0.0] * 64)
    (tmp_path / "env.json").write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"type": "file", "path": str(tmp_path / "env.json")}}))
    assert run("nls-evolve", str(cfg), str(tmp_path / "o"), quiet=True) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "finite re, im and tau" in err


def test_flow_check_floor_exponent_passes(tmp_path, monkeypatch):
    """flow-check's rule, not the scaling, decides: flows whose residuals all
    sit at the floor (exponent None) pass, the control still decides."""
    from lpkdv import symmetries

    scaling = symmetries.symmetry_residual_scaling

    def at_floor(solution, params, which, lambdas):
        rep = scaling(solution, params, which, lambdas)
        if which == "broken":
            return rep
        return dict(rep, exponent=None, note="below measurement floor")

    monkeypatch.setattr(symmetries, "symmetry_residual_scaling", at_floor)
    assert run("flow-check", None, str(tmp_path), quiet=True) == 0
    rep = read(tmp_path / "flow_check.json")
    assert rep["flow1"]["passed"] is rep["flow2"]["passed"] is True
    assert rep["negative_control"]["passed"] is False


@pytest.mark.parametrize("name, words", [("nan_dxi", "grid spacing dxi = nan"),
                                         ("inf_xi0", "grid origin xi0 = inf")])
def test_non_finite_envelope_grid_named(tmp_path, capsys, name, words):
    """A NaN or infinite grid in a file envelope is refused when the envelope
    is built, by a message naming the grid, not later by the step guard."""
    (tmp_path / "env.json").write_text(json.dumps(dict(ENVELOPE, **ENVELOPE_FILES[name])))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"type": "file", "path": str(tmp_path / "env.json")}}))
    assert run("nls-evolve", str(cfg), str(tmp_path / "o"), quiet=True) == 2
    assert words in capsys.readouterr().err


# per entry of cli.BOUNDS: the subcommand whose pass rule reads it, and a
# value no run can meet
IMPOSSIBLE_BOUNDS = {
    "lax_identity": ("coeffs", -1.0),
    "linear_residual": ("dispersion", -1.0),
    "dispersion_derivatives": ("dispersion", -1.0),
    "lattice_residual": ("simulate", -1.0),
    "ansatz_exponent": ("ansatz-residual", 100.0),
    "mass_drift": ("nls-evolve", -1.0),
    "spectrum_error": ("spectrum", -1.0),
    "drift_shrink": ("isospectral", 1e9),
    "isospectral_drift": ("isospectral", -1.0),
    "cauchy_band": ("zs-limit", -1.0),
    "flow_exponent": ("flow-check", 1e9),
    "control_exponent": ("flow-check", -1e9),
    "projection_error_factor": ("flow-project", -1.0),
    "halving_band": ("flow-project", (1.0, 0.0)),
    "flow_ratio_std": ("flow-project", -1.0),
}


@pytest.mark.parametrize("key", sorted(IMPOSSIBLE_BOUNDS))
def test_tolerance_is_read(tmp_path, monkeypatch, key):
    """Every bound decides its subcommand's exit code: an impossible value
    makes the run exit 1 with its report still in the manifest."""
    assert set(IMPOSSIBLE_BOUNDS) == set(cli.BOUNDS)
    subcommand, value = IMPOSSIBLE_BOUNDS[key]
    monkeypatch.setitem(cli.BOUNDS, key, value)
    out = tmp_path / "o"
    assert run(subcommand, None, str(out), quiet=True) == 1
    manifest = read(out / "manifest.json")
    assert manifest["passed"] is False and manifest["result"] is not None


@pytest.mark.parametrize("subcommand, name", [("ansatz-residual", "ansatz_residual.json"),
                                               ("flow-project", "flow_projection.json")])
def test_dense_steps_follow_the_step_passed(tmp_path, monkeypatch, subcommand, name):
    """A dense subcommand's nls block is step_plan(span, dtau) of the dtau it
    passes to nls_evolve_dense, positionally, with one snapshot per step
    end: the benchmark's tracer computes nls.steps from those arguments."""
    from lpkdv import nls

    calls = []
    evolve = nls.nls_evolve_dense

    def spy(env, c, tau_final, dtau):
        calls.append((tau_final - env.tau, dtau))
        return evolve(env, c, tau_final, dtau)

    monkeypatch.setattr(nls, "nls_evolve_dense", spy)
    assert run(subcommand, None, str(tmp_path), quiet=True) == 0
    block = read(tmp_path / name)["nls"]
    (span, dtau), = calls
    assert (block["steps"], block["dtau"]) == nls.step_plan(span, dtau)
    assert block["snapshots"] == block["steps"] + 1


def test_zs_limit_runs_no_nls(tmp_path, monkeypatch):
    """zs-limit reads only row 0 of the ansatz, at the envelope's own slow
    time: its one dense NLS call spans 0, and its report has no nls block."""
    from lpkdv import nls

    spans = []
    evolve = nls.nls_evolve_dense

    def spy(env, c, tau_final, dtau):
        spans.append(tau_final - env.tau)
        return evolve(env, c, tau_final, dtau)

    monkeypatch.setattr(nls, "nls_evolve_dense", spy)
    assert run("zs-limit", None, str(tmp_path), quiet=True) == 0
    assert spans == [0.0]
    assert "nls" not in read(tmp_path / "zs_limit_report.json")


@pytest.fixture(scope="module")
def evolved_envelope_config(tmp_path_factory):
    """A config whose file envelope is nls-evolve's own envelope.json, at
    tau = 1."""
    root = tmp_path_factory.mktemp("evolved")
    assert run("nls-evolve", None, str(root / "nls"), quiet=True) == 0
    assert read(root / "nls" / "envelope.json")["tau"] == 1.0
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"envelope": {"type": "file",
                                            "path": str(root / "nls" / "envelope.json")}}))
    return cfg


@pytest.mark.parametrize("subcommand, name, key, low, high", [
    ("ansatz-residual", "ansatz_residual.json", "exponent", 2.9, 3.1),
    ("flow-project", "flow_projection.json", "error_halving_factor", 0.23, 0.26)])
def test_evolved_envelope_passes(evolved_envelope_config, tmp_path, subcommand, name, key,
                                 low, high):
    """Lattice rows count slow time from the envelope's own tau: an envelope
    that nls-evolve wrote at tau = 1 passes ansatz-residual and flow-project,
    whose runs start there."""
    out = tmp_path / "o"
    assert run(subcommand, str(evolved_envelope_config), str(out), quiet=True) == 0
    rep = read(out / name)
    assert low <= rep[key] <= high
    assert rep["nls"]["steps"] > 0


def test_evolved_envelope_nls_evolve_steps(evolved_envelope_config, tmp_path):
    """A null nls.tau_final runs one unit of slow time from the envelope's own
    tau, and the drift tolerance scales with that span: nls-evolve fed its
    own envelope.json (tau = 1) steps to tau = 2 and passes."""
    out = tmp_path / "o"
    assert run("nls-evolve", str(evolved_envelope_config), str(out), quiet=True) == 0
    rep = read(out / "nls_report.json")
    assert rep["steps"] > 0 and rep["tau_final"] == 2.0
    assert rep["tolerance"] == cli.BOUNDS["mass_drift"]
    assert rep["mass_drift"] <= rep["tolerance"]
    assert read(out / "envelope.json")["tau"] == 2.0


def test_evolved_envelope_zs_limit_precondition(evolved_envelope_config, tmp_path, capsys):
    """The envelope nls-evolve wrote at tau = 1 has dispersed to the ends of
    its period, above ZS_DECAY_TOL there: zs-limit exits 1 with a
    PreconditionError record, not 2 with a config error."""
    out = tmp_path / "o"
    assert run("zs-limit", str(evolved_envelope_config), str(out), quiet=True) == 1
    assert capsys.readouterr().err.startswith("error: PreconditionError")
    manifest = read(out / "manifest.json")
    assert manifest["error"]["type"] == "PreconditionError"
    assert "decay" in manifest["error"]["message"]


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


def test_cli_import_skips_scipy_linalg_and_sparse():
    """Only the spectral subcommands need scipy.linalg and scipy.sparse, about
    0.35 s to import: the CLI defers the spectral module to them."""
    import lpkdv

    code = ("import sys, lpkdv.cli; loaded = [m for m in ('scipy.linalg', 'scipy.sparse') "
            "if m in sys.modules]; assert not loaded, f'{loaded} loaded'")
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
