"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: `Tracer.install` replaces
the public functions of each `lpkdv` layer module with wrappers that open a
span around the call, and `Tracer.uninstall` puts the originals back, so
traced and untraced passes can alternate in one process.  Nothing under
`src/` is changed.

A span records its name, start, end, parent and a few work counts.  Spans
are kept in memory; the worker writes them out when it ends.  A layer's
self time is its span's duration minus the time its child spans cover.
A call into a layer from inside a span of the same name (for example
`max_residual` calling `residual_field`) is folded into the outer span, so
calls and counts are not counted twice.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = math.nan
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, counts: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        if counts:
            for k, v in counts.items():
                span.counts[k] = span.counts.get(k, 0) + v
        popped = self._stack.pop()
        assert popped == idx, "spans must close in LIFO order"

    def current_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, fn, name: str, counter=None):
        """A wrapper of `fn` that records a span `name`; `counter(args,
        kwargs, result)` returns the work counts of one call."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.current_name() == name:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                tracer.end(idx, counts)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- installation ----------------------------------------------------------

    def install(self, plan) -> None:
        """Wrap each (owner, attribute, span name, counter) of `plan`.  The
        owner is a module or a class; the attribute must exist."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in plan:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.
    Spans of one thread nest strictly, so the children never overlap."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, total and self seconds, and summed counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, selfs):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "counts": {}})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += self_s
        for k, v in s.counts.items():
            row["counts"][k] = row["counts"].get(k, 0) + v
    return out


def coverage(spans: list[Span], root_prefix: str) -> dict:
    """For each root span whose name starts with `root_prefix`: the share of
    its duration that its direct children cover."""
    covered = {}
    for i, s in enumerate(spans):
        if s.parent is not None and spans[s.parent].name.startswith(root_prefix):
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    out = {}
    for i, s in enumerate(spans):
        if s.parent is None and s.name.startswith(root_prefix):
            dur = s.end - s.start
            out.setdefault(s.name, []).append(covered.get(i, 0.0) / dur if dur > 0 else 1.0)
    return out


# --- the layer plan for lpkdv ------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _nls_evolve_counts(args, kwargs, result):
    """Computed RK4 work of one nls_evolve / nls_evolve_dense call: the step
    count follows the solver's own rule; every step makes 8 length-L FFTs
    (forward and inverse for each of the 4 stages)."""
    env = _arg(args, kwargs, 0, "env")
    tau_final = _arg(args, kwargs, 2, "tau_final")
    dtau = _arg(args, kwargs, 3, "dtau")
    span = tau_final - env.tau
    steps = 0 if span == 0 else max(1, int(math.ceil(span / dtau - 1e-12)))
    counts = {"steps": steps, "fft": 8 * steps}
    snaps = getattr(result, "snapshots", None)
    if snaps is not None:
        counts["snapshots"] = int(snaps.shape[0])
        counts["snapshot_bytes"] = int(snaps.nbytes)
    return counts


def _assemble_counts(args, kwargs, result):
    return {"points": int(result.field.values.size)}


def _eig_counts(args, kwargs, result):
    return {"size": int(_arg(args, kwargs, 0, "sp").size)}


def _zs_counts(args, kwargs, result):
    """Dense-eig work of zs_eigenvalues, computed from the grid: the base
    grid and its 2x and 3x refinements give complex matrices of dimension
    2L-2.  Flop estimate: 10 n^3 complex operations for an eigenvalues-only
    Hessenberg QR (Golub & Van Loan), 4 real flops each."""
    L0 = len(_arg(args, kwargs, 0, "zs").xi_grid)
    dims = [2 * (f * (L0 - 1) + 1) - 2 for f in (1, 2, 3)]
    return {"matrix_dims": sum(dims), "flop": sum(40 * n ** 3 for n in dims),
            "kept": int(len(result))}


def _evolve_ivp_counts(args, kwargs, result):
    return {"points": int(result.values.size)}


def _residual_counts(args, kwargs, result):
    n, m = _arg(args, kwargs, 0, "field").shape
    return {"plaquettes": (n - 1) * (m - 1)}


def _write_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _read_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def lpkdv_plan():
    """(owner, attribute, span name, counter) for every layer entry point the
    CLI reaches.  A name another module imported with `from .x import f` is
    also wrapped where that module looks it up."""
    from lpkdv import (cli, difference_calculus, fieldio, nls, quad, reduction, spectral,
                       symmetries)

    plan = [
        (cli, "load_config", "cli.config", None),
        (cli, "validate_config", "cli.config", None),
        (cli, "write_json", "cli.report", None),
        (cli, "write_scaling_csv", "cli.report", None),
        (quad, "evolve_ivp", "quad.evolve_ivp", _evolve_ivp_counts),
        (quad, "max_residual", "quad.residual", _residual_counts),
        (quad, "residual_field", "quad.residual", _residual_counts),
        (quad, "linear_residual_max", "quad.dispersion", None),
        (quad, "dispersion", "quad.dispersion", None),
        (reduction, "max_residual", "quad.residual", _residual_counts),
        (symmetries, "max_residual", "quad.residual", _residual_counts),
        (symmetries, "residual_field", "quad.residual", _residual_counts),
        (fieldio, "save_field_csv", "fieldio.write", _write_counts),
        (fieldio, "save_field_binary", "fieldio.write", _write_counts),
        (fieldio, "load_field_csv", "fieldio.read", _read_counts),
        (fieldio, "load_field_binary", "fieldio.read", _read_counts),
        (reduction, "compute_coefficients", "reduction.coefficients", None),
        (reduction, "assemble_ansatz", "reduction.assemble", _assemble_counts),
        (spectral, "assemble_ansatz", "reduction.assemble", _assemble_counts),
        (reduction.AnsatzField, "envelope_values", "reduction.envelope_values", None),
        (reduction, "residual_scaling", "reduction.residual_scaling", None),
        (nls, "nls_evolve", "nls.evolve", _nls_evolve_counts),
        (nls, "nls_evolve_dense", "nls.evolve", _nls_evolve_counts),
        (nls, "commutator_sweep", "nls.commutator", None),
        (nls, "stable_dtau", "nls.envelope", None),
        (nls, "gaussian_envelope", "nls.envelope", None),
        (nls, "plane_envelope", "nls.envelope", None),
        (nls, "save_envelope_csv", "nls.io", None),
        (nls, "envelope_to_json", "nls.io", None),
        (spectral, "eigenvalues", "spectral.eig", _eig_counts),
        (spectral, "build_spectral_problem", "spectral.build", None),
        (spectral, "isospectral_drift", "spectral.isospectral", None),
        (spectral, "band_edge_estimates", "spectral.band_edge", None),
        (spectral, "zs_eigenvalues", "spectral.zs", _zs_counts),
        (spectral, "spectral_limit_check", "spectral.limit_check", None),
        (symmetries, "harmonic_projection", "symmetries.projection", None),
        (symmetries, "flow_step", "symmetries.flow_step", None),
        (symmetries, "flow_rhs", "symmetries.flow_rhs", None),
        (symmetries, "symmetry_residual_scaling", "symmetries.residual_scaling", None),
    ]
    for attr in ("stirling_tables", "sequence_from_function", "cross_lattice_difference",
                 "formal_derivative", "verify_shift_decomposition"):
        plan.append((difference_calculus, attr, "difference_calculus", None))
    return plan
