"""Tests of the benchmark's own checks, tracer and comparison rules.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

They show that each output check can fail and that a failed operation is
counted; none of them runs a full workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BANDS = {"nls-evolve": {"nls.mass_drift": {"ref": 2e-16, "lo": None, "hi": 2e-15}}}


def fake_run(code=0, mass_drift=2e-16, raises=None):
    """A stand-in for lpkdv.cli.run that writes an nls-evolve report."""
    def run(subcommand, config_path, out_dir, quiet=False):
        if raises is not None:
            raise raises
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "nls_report.json"), "w") as fh:
            json.dump({"mass_drift": mass_drift}, fh)
        return code
    return run


class TestOperationGate:
    def test_clean_operation_passes(self, tmp_path):
        rec = worker.run_op(fake_run(), "nls-evolve", None, str(tmp_path), BANDS)
        assert rec["ok"] and rec["headlines"] == {"nls.mass_drift": 2e-16}

    def test_nonzero_exit_fails(self, tmp_path):
        rec = worker.run_op(fake_run(code=1), "nls-evolve", None, str(tmp_path), BANDS)
        assert not rec["ok"] and rec["problems"] == ["exit code 1"]

    def test_escaped_exception_fails(self, tmp_path):
        rec = worker.run_op(fake_run(raises=KeyError("path")), "nls-evolve", None,
                            str(tmp_path), BANDS)
        assert not rec["ok"] and "escaped KeyError" in rec["problems"][0]

    def test_perturbed_headline_fails(self, tmp_path):
        rec = worker.run_op(fake_run(mass_drift=3e-15), "nls-evolve", None,
                            str(tmp_path), BANDS)
        assert not rec["ok"] and "above band" in rec["problems"][0]

    def test_missing_headline_fails(self, tmp_path):
        rec = worker.run_op(fake_run(mass_drift=None), "nls-evolve", None,
                            str(tmp_path), BANDS)
        assert not rec["ok"] and "missing" in rec["problems"][0]

    def test_failed_operations_are_counted(self, tmp_path, monkeypatch):
        """A perturbed headline inside a measured pass shows up in `failed`."""
        monkeypatch.setattr(workloads, "HEADLINES", {"nls-evolve": workloads._nls})
        monkeypatch.setattr(workloads, "load_bands", lambda: BANDS)
        monkeypatch.setattr(worker, "probe_setup", lambda args: 0.5)
        cli = types.SimpleNamespace(run=fake_run(mass_drift=1.0))
        args = types.SimpleNamespace(workload="multiscale", seconds=0.0, trace=0,
                                     seed=1, work=str(tmp_path))
        result = worker.measure(args, cli, {"default": (None, {})})
        n_ops = len(workloads.WORKLOADS["multiscale"])
        assert result["attempted"] == 3 * n_ops
        assert result["failed"] == 3  # nls-evolve in each of the 3 passes
        assert all(f["subcommand"] == "nls-evolve" for f in result["failures"])

    def test_traced_run_pairs_every_operation(self, tmp_path, monkeypatch):
        """With tracing, each pass runs every operation untraced and traced."""
        monkeypatch.setattr(workloads, "HEADLINES", {"nls-evolve": workloads._nls})
        monkeypatch.setattr(workloads, "load_bands", lambda: BANDS)
        cli = types.SimpleNamespace(run=fake_run())
        args = types.SimpleNamespace(workload="multiscale", seconds=0.0, trace=1,
                                     seed=1, work=str(tmp_path))
        result = worker.measure(args, cli, {"default": (None, {})})
        n_ops = len(workloads.WORKLOADS["multiscale"])
        assert result["attempted"] == (1 + 2 * 2) * n_ops and result["failed"] == 0
        assert len(result["pass_walls"]) == len(result["traced_pass_walls"]) == 2
        assert set(result["coverage"]) == {f"cli.{op.subcommand}"
                                           for op in workloads.WORKLOADS["multiscale"]}
        assert result["layers"]["trace.overhead_ratio"] > -1.0


def test_every_band_in_baseline_is_checkable():
    """Each recorded band rejects a value far outside it."""
    for sub, bands in workloads.load_bands().items():
        for name, band in bands.items():
            far = (band["hi"] * 100 if band["hi"] is not None and band["hi"] > 0
                   else band["lo"] / 100 if band["lo"] is not None and band["lo"] > 0
                   else (band["lo"] or 0) - 1e3)
            assert workloads.check_headlines({name: far}, {name: band}), (sub, name)


def test_round_trip_check_detects_one_ulp(tmp_path):
    from lpkdv import fieldio
    from lpkdv.quad import LatticeField

    field = LatticeField(np.linspace(-1.0, 1.0, 24).reshape(6, 4))
    fieldio.save_field_csv(field, str(tmp_path / "field.csv"))
    fieldio.save_field_binary(field, str(tmp_path / "field.bin"))
    assert workloads.check_round_trip(str(tmp_path), field) == []
    bumped = field.values.copy()
    bumped[2, 1] = np.nextafter(bumped[2, 1], 2.0)
    assert len(workloads.check_round_trip(str(tmp_path), LatticeField(bumped))) == 2


class TestTracer:
    def test_self_time_and_folding(self):
        ticks = iter(range(100))
        tr = tracing.Tracer(clock=lambda: float(next(ticks)))
        mod = types.SimpleNamespace()

        def leaf():
            return 1

        def inner():
            return mod.leaf() + mod.leaf()

        def outer():
            return mod.inner() + mod.inner()

        mod.leaf, mod.inner, mod.outer = leaf, inner, outer
        tr.install([(mod, "outer", "a", None), (mod, "inner", "b", None),
                    (mod, "leaf", "b", lambda a, k, r: {"n": r})])
        assert mod.outer() == 4
        tr.uninstall()
        assert mod.outer is outer and mod.leaf is leaf
        names = [s.name for s in tr.spans]
        assert names == ["a", "b", "b"]  # leaf calls fold into their b parent
        summary = tracing.summarize(tr.spans)
        a, b = summary["a"], summary["b"]
        assert a["self_s"] == pytest.approx(a["total_s"] - b["total_s"])
        assert b["counts"] == {}  # folded calls record no counts

    def test_coverage(self):
        spans = [tracing.Span("cli.x", 0.0, None, 10.0),
                 tracing.Span("nls.evolve", 1.0, 0, 8.0),
                 tracing.Span("quad.residual", 8.0, 0, 9.5)]
        assert tracing.coverage(spans, "cli.") == {"cli.x": [pytest.approx(0.85)]}

    def test_plan_wraps_existing_attributes(self):
        tr = tracing.Tracer()
        plan = tracing.lpkdv_plan()
        tr.install(plan)
        tr.uninstall()
        for owner, attr, _, _ in plan:
            assert not hasattr(getattr(owner, attr), "__wrapped__")


class TestCompare:
    def test_gain(self):
        parent = [10.0 + 0.1 * i for i in range(10)]
        change = [8.0 + 0.1 * i for i in range(10)]
        v = compare.verdict(parent, change, list(zip(parent, change)), 0.1, True)
        assert v["verdict"] == "gain" and v["wins"] == 10

    def test_regression(self):
        parent = [10.0 + 0.01 * i for i in range(10)]
        change = [12.0 + 0.01 * i for i in range(10)]
        v = compare.verdict(parent, change, list(zip(parent, change)), 0.1, True)
        assert v["verdict"] == "regression"

    def test_unresolved_when_spread_exceeds_bound(self):
        parent = [8.0, 12.0] * 5
        change = [7.9, 12.1] * 5
        v = compare.verdict(parent, change, list(zip(parent, change)), 0.1, True)
        assert v["verdict"] == "unresolved"

    def test_small_change_is_no_regression_not_gain(self):
        parent = [10.0 + 0.1 * i for i in range(10)]
        change = [x - 0.05 for x in parent]
        v = compare.verdict(parent, change, list(zip(parent, change)), 0.1, True)
        assert v["verdict"] == "no regression"

    def test_tail_percentile_needs_ten_beyond(self):
        assert bench_run.tail_percentile(list(range(19))) is None
        assert bench_run.tail_percentile(list(range(20)))[0] == 50
        assert bench_run.tail_percentile(list(range(40)))[0] == 75


def test_fails_without_program_source(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero and
    prints no result line."""
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lattice",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
