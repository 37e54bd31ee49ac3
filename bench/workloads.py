"""Workload definitions, generated configs and output checks.

A workload is a list of operations; an operation is one `lpkdv` subcommand
run on one generated config.  The workload seed feeds the config's `seed`
field; every workload stays at the reference point (p, q, kappa) =
(1.5, 0.5, pi/2), so the program receives only the generated config.

An operation fails on a non-zero exit, an escaped exception, or a failed
output check: a headline number outside the band recorded from the seed
commit (`baseline.json`), or, for `simulate`, a field read back from CSV or
binary that is not bit-identical to the one written.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "baseline.json")

# simulate and flow-check run on a wider boundary window than the default
# 200 x 11, so that evolve_ivp, the flow RK4 steps and field I/O do work a
# timer resolves.  4000 x 24 keeps CSV write plus read-back to about 40% of
# the lattice pass; at 2000 x 100 CSV I/O swamps the other layers.
# isospectral stays on the default window: at wider windows its
# shrink_factor divides one round-off-level drift by another.
LATTICE_WINDOW = {"n_size": 4000, "m_size": 24}


@dataclass(frozen=True)
class Op:
    subcommand: str
    config: str  # key into the workload's generated configs


WORKLOADS = {
    "multiscale": (
        Op("ansatz-residual", "default"),
        Op("flow-project", "default"),
        Op("nls-evolve", "default"),
        Op("commutators", "default"),
    ),
    "spectral-limit": (
        Op("zs-limit", "default"),
    ),
    "lattice": (
        Op("selftest", "default"),
        Op("coeffs", "default"),
        Op("dispersion", "default"),
        Op("spectrum", "default"),
        Op("isospectral", "default"),
        Op("simulate", "wide"),
        Op("flow-check", "wide"),
    ),
}


def configs(workload: str, seed: int) -> dict:
    """The config documents (overrides merged by the CLI over its defaults)
    that the workload's operations receive."""
    docs = {"default": {"seed": int(seed)}}
    if any(op.config == "wide" for op in WORKLOADS[workload]):
        docs["wide"] = {"seed": int(seed), "boundary": dict(LATTICE_WINDOW)}
    return docs


# --- headline numbers ---------------------------------------------------------


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _ansatz(out_dir):
    rep = _load(out_dir, "ansatz_residual.json")
    out = {"ansatz.exponent": rep["exponent"]}
    for n, r in zip(rep["N"], rep["residual"]):
        out[f"ansatz.residual_N{n}"] = r
    return out


def _projection(out_dir):
    rep = _load(out_dir, "flow_projection.json")
    out = {"projection.halving_factor": rep["error_halving_factor"]}
    for key, sub in rep.items():
        if key.startswith("flow1_N"):
            out[f"projection.{key}.rel_error"] = sub["weighted_rel_error"]
        elif key.startswith("flow2_N"):
            out[f"projection.{key}.rel_error"] = sub["weighted_rel_error"]
            out[f"projection.{key}.std_over_mean"] = \
                sub["flow2_over_flow1"]["std_over_mean"]
    return out


def _nls(out_dir):
    return {"nls.mass_drift": _load(out_dir, "nls_report.json")["mass_drift"]}


def _zs(out_dir):
    rep = _load(out_dir, "zs_limit_report.json")
    return {f"zs.discrepancy_N{n}": d for n, d in zip(rep["N"], rep["discrepancy"])}


def _flow_check(out_dir):
    rep = _load(out_dir, "flow_check.json")
    return {f"flow_check.{k}.exponent": rep[k]["exponent"]
            for k in ("flow1", "flow2", "negative_control")}


def _isospectral(out_dir):
    rep = _load(out_dir, "isospectral_report.json")
    return {"isospectral.small_max_drift": rep["small_window"]["max_drift"],
            "isospectral.large_max_drift": rep["large_window"]["max_drift"],
            "isospectral.shrink_factor": rep["shrink_factor"]}


HEADLINES = {
    "ansatz-residual": _ansatz,
    "flow-project": _projection,
    "nls-evolve": _nls,
    "zs-limit": _zs,
    "flow-check": _flow_check,
    "isospectral": _isospectral,
}


def headline_values(subcommand: str, out_dir: str) -> dict:
    extract = HEADLINES.get(subcommand)
    return extract(out_dir) if extract else {}


def load_baseline(path: str = BASELINE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_bands() -> dict:
    """subcommand -> headline name -> {"ref", "lo", "hi"}; a null lo or hi
    is unbounded."""
    return load_baseline()["headline_bands"]


def check_headlines(values: dict, bands: dict) -> list:
    """Problems with one operation's headline numbers: every name in
    `bands` must be present, finite and inside its band."""
    problems = []
    for name, band in bands.items():
        v = values.get(name)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{name}: missing or not a finite number ({v!r})")
            continue
        if band["lo"] is not None and v < band["lo"]:
            problems.append(f"{name} = {v!r} below band [{band['lo']}, {band['hi']}]")
        if band["hi"] is not None and v > band["hi"]:
            problems.append(f"{name} = {v!r} above band [{band['lo']}, {band['hi']}]")
    return problems


def rel_deviation(values: dict, bands: dict) -> float:
    """Largest |value - ref| / |ref| over the headline numbers given."""
    devs = [abs(v - bands[k]["ref"]) / abs(bands[k]["ref"])
            for k, v in values.items()
            if k in bands and isinstance(v, (int, float)) and bands[k]["ref"]]
    return max(devs, default=0.0)


def same_field(a, b) -> bool:
    """Bit-identical lattice fields: same kind, shape and float64 bytes."""
    return (a.kind == b.kind and a.values.shape == b.values.shape
            and a.values.tobytes() == b.values.tobytes())


def check_round_trip(out_dir: str, reference) -> list:
    """Read both field files `simulate` wrote; each must equal `reference`
    exactly."""
    from lpkdv import fieldio

    problems = []
    for name, load in (("field.csv", fieldio.load_field_csv),
                       ("field.bin", fieldio.load_field_binary)):
        if not same_field(load(os.path.join(out_dir, name)), reference):
            problems.append(f"{name} read back differs from the field written")
    return problems
