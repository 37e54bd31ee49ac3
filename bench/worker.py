"""Run one benchmark workload in this (fresh) process and write its result.

Started by `run.py` with the BLAS/OpenMP thread variables already set in
the environment, so they hold before numpy is imported.  The CLI layer is
driven in-process through `lpkdv.cli.run`.

With `--setup-only` the process stops after set-up and prints `ready`.
Otherwise it runs one warm-up pass through the workload's operations, which
is checked but not timed, then measured passes until `--seconds` have
elapsed (and at least two passes ran).  Between passes it starts
`--setup-only` copies of itself and times each from spawn to `ready`: that
is the set-up cost.  With `--trace 1` each pass runs every operation twice
in a row, traced and untraced, so the tracing overhead is measured on
adjacent runs in the same process, and set-up is not probed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# A run never measures past this, so that it ends well inside 180 s.
HARD_STOP_S = 120.0
# Set-up probes are spread over the run, at most one per PROBE_SHARE of
# it, so that their median samples the whole run.
PROBE_SHARE = 1 / 6
MIN_PROBES = 3
# Measured passes per run, at least (after the warm-up pass).
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Host-speed reference.  On shared machines the host's speed moves by up
# to ~2x in phases of seconds to minutes, by different amounts for
# different kinds of code.  Between operations (and after each set-up
# probe) the worker times a fixed piece of work of the workload's own kind
# (none of it uses lpkdv); each reported time is multiplied by REF / (mean
# sampled time).  REF per kind is `host_reference_s` in baseline.json: the
# typical sampled time recorded at the seed commit, so a reported time is
# the time the code takes at the host speed typical of that record.
HOST_REF_S = workloads.load_baseline()["host_reference_s"]
SPEED_KINDS = {
    "multiscale": ("fft", "python"),
    "spectral-limit": ("eig",),
    "lattice": ("rows",),
    "setup": ("spawn",),
}
# Least time between two host-speed samples inside a pass.
SEGMENT_S = 1.0


def host_sample(kinds) -> dict:
    """Seconds taken by each kind of reference work in `kinds`: length-1024
    FFTs with small-array arithmetic; an interpreter loop; three dense
    complex LAPACK eigs of dimension 360; CSV rows written and parsed, a
    small-array recursion and rational arithmetic; and a fresh interpreter
    importing numpy."""
    import numpy as np
    from scipy.linalg import eig

    rng = np.random.default_rng(12345)
    out = {}
    if "fft" in kinds:
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        k = np.exp(1j * np.linspace(0.0, 3.0, 1024))
        t0 = time.perf_counter()
        for _ in range(300):
            x = np.fft.ifft(np.fft.fft(x) * k)
            x = x * np.exp(0.01j * np.abs(x) ** 2)
        out["fft"] = time.perf_counter() - t0
    if "python" in kinds:
        t0 = time.perf_counter()
        s = 0
        for i in range(250_000):
            s += i * i % 7
        out["python"] = time.perf_counter() - t0
    if "eig" in kinds:
        a = rng.standard_normal((360, 360)) + 1j * rng.standard_normal((360, 360))
        t0 = time.perf_counter()
        for _ in range(3):  # spectral-limit passes are long, so samples are few
            eig(a, right=False)
        out["eig"] = time.perf_counter() - t0
    if "rows" in kinds:
        vals = rng.standard_normal(6000)
        buf = io.StringIO()
        t0 = time.perf_counter()
        csv.writer(buf).writerows((n, repr(float(v))) for n, v in enumerate(vals))
        back = np.array([float(r[1]) for r in csv.reader(io.StringIO(buf.getvalue()))])
        u = np.zeros(64)
        for d in range(3000):
            u[1:] = u[:-1] + 0.5 * back[d] / (u[1:] - 3.0)
        sum(Fraction(n, 7) ** 2 for n in range(600))
        out["rows"] = time.perf_counter() - t0
    if "spawn" in kinds:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        out["spawn"] = time.perf_counter() - t0
    return out


def host_speed(samples: list, kinds) -> float:
    """REF / mean sampled time, summed over `kinds`: above 1 when the host
    ran faster than the reference, below 1 when slower.  The mean, not the
    median: samples are short and the host's speed is bimodal, so only the
    mean follows the time-averaged speed that a longer pass sees."""
    ref = sum(HOST_REF_S[k] for k in kinds)
    return ref / sum(statistics.mean(s[k] for s in samples) for k in kinds)


def setup(workload: str, seed: int, work_dir: str):
    """Import the package, its layer modules, numpy and scipy, and build the
    workload's configs.  Returns (cli module, {config key: (path, merged)})."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import lpkdv
    from lpkdv import (cli, difference_calculus, fieldio, nls, quad,  # noqa: F401
                       reduction, spectral, symmetries)

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(lpkdv.__file__), src]) != src:
        raise RuntimeError(f"lpkdv imported from {lpkdv.__file__}, not from {src}")
    os.makedirs(work_dir, exist_ok=True)
    docs = {}
    for key, doc in workloads.configs(workload, seed).items():
        path = os.path.join(work_dir, f"config-{key}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        merged = cli.load_config(path)
        cli.validate_config(merged)
        docs[key] = (path, merged)
    return cli, docs


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its `ready` line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--work", args.work, "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return t1 - t0


def run_op(run, subcommand: str, config_path: str, out_dir: str, bands: dict,
           reference=None) -> dict:
    """Run one operation and check its outputs.  `run` has the signature of
    `lpkdv.cli.run`.  The operation fails on a non-zero exit, an escaped
    exception, or a failed output check."""
    rec = {"subcommand": subcommand, "problems": [], "headlines": {}}
    t0 = time.perf_counter()
    try:
        code = run(subcommand, config_path, out_dir, quiet=True)
    except Exception as exc:  # the benchmark keeps running and counts it
        code = None
        rec["problems"].append(f"escaped {type(exc).__name__}: {exc}")
        rec["traceback"] = traceback.format_exc(limit=-3)
    rec["seconds"] = time.perf_counter() - t0
    if code is not None and code != 0:
        rec["problems"].append(f"exit code {code}")
    if code == 0:
        try:
            rec["headlines"] = workloads.headline_values(subcommand, out_dir)
            rec["problems"] += workloads.check_headlines(rec["headlines"],
                                                         bands.get(subcommand, {}))
            if reference is not None:
                rec["problems"] += workloads.check_round_trip(out_dir, reference)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            rec["problems"].append(f"output check failed: {type(exc).__name__}: {exc}")
    rec["ok"] = not rec["problems"]
    return rec


def env_record() -> dict:
    """Machine, thread pinning, versions and code identity of this run."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = os.path.join(ROOT, "src", "lpkdv")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def git_commit(root: str):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(summaries: list, overhead: float, op_seconds: dict, coverages: dict,
                  max_rel_dev: float, all_subcommands) -> dict:
    """Per-layer metrics of the traced run.  Each per-pass number is the
    median over passes; counts repeat exactly from pass to pass."""

    def per_pass(fn):
        return _median([fn(s) for s in summaries])

    def calls(name):
        return per_pass(lambda s: s.get(name, {}).get("calls", 0))

    def self_s(name):
        return per_pass(lambda s: s.get(name, {}).get("self_s", 0.0))

    def count(name, key):
        return per_pass(lambda s: s.get(name, {}).get("counts", {}).get(key, 0))

    def ratio(name, key, scale):
        def one(s):
            row = s.get(name, {})
            n = row.get("counts", {}).get(key, 0)
            return row.get("self_s", 0.0) / n * scale if n else 0.0
        return per_pass(one)

    m = {
        "nls.evolve.calls": calls("nls.evolve"),
        "nls.evolve.self_s": self_s("nls.evolve"),
        "nls.steps": count("nls.evolve", "steps"),
        "nls.step_us": ratio("nls.evolve", "steps", 1e6),
        "nls.fft_count": count("nls.evolve", "fft"),
        "nls.snapshots": count("nls.evolve", "snapshots"),
        "nls.snapshot_mb": count("nls.evolve", "snapshot_bytes") / 1e6,
        "nls.commutator.self_s": self_s("nls.commutator"),
        "reduction.assemble.calls": calls("reduction.assemble"),
        "reduction.assemble.self_s": self_s("reduction.assemble"),
        "reduction.assemble.points": count("reduction.assemble", "points"),
        "reduction.assemble.ns_per_point": ratio("reduction.assemble", "points", 1e9),
        "reduction.envelope_values.calls": calls("reduction.envelope_values"),
        "reduction.envelope_values.self_s": self_s("reduction.envelope_values"),
        "reduction.residual_scaling.self_s": self_s("reduction.residual_scaling"),
        "spectral.zs.self_s": self_s("spectral.zs"),
        "spectral.zs.matrix_dims": count("spectral.zs", "matrix_dims"),
        "spectral.zs.gflop_computed": count("spectral.zs", "flop") / 1e9,
        "spectral.zs.kept": count("spectral.zs", "kept"),
        "spectral.eig.calls": calls("spectral.eig"),
        "spectral.eig.self_s": self_s("spectral.eig"),
        "spectral.eig.size_sum": count("spectral.eig", "size"),
        "spectral.isospectral.self_s": self_s("spectral.isospectral"),
        "spectral.band_edge.self_s": self_s("spectral.band_edge"),
        "symmetries.projection.calls": calls("symmetries.projection"),
        "symmetries.projection.self_s": self_s("symmetries.projection"),
        "symmetries.flow_step.calls": calls("symmetries.flow_step"),
        "symmetries.flow_step.self_s": self_s("symmetries.flow_step"),
        "symmetries.residual_scaling.self_s": self_s("symmetries.residual_scaling"),
        "quad.evolve_ivp.self_s": self_s("quad.evolve_ivp"),
        "quad.evolve_ivp.points": count("quad.evolve_ivp", "points"),
        "quad.residual.self_s": self_s("quad.residual"),
        "quad.residual.plaquettes": count("quad.residual", "plaquettes"),
        "fieldio.write.self_s": self_s("fieldio.write"),
        "fieldio.write.bytes": count("fieldio.write", "bytes"),
        "fieldio.read.self_s": self_s("fieldio.read"),
        "fieldio.read.bytes": count("fieldio.read", "bytes"),
        "difference_calculus.calls": calls("difference_calculus"),
        "difference_calculus.self_s": self_s("difference_calculus"),
        # the CLI layer's own time: config handling, report writing and
        # what no other layer's span covers
        "cli.self_s": per_pass(lambda s: sum(row["self_s"] for name, row in s.items()
                                             if name.startswith("cli."))),
    }
    for sub in all_subcommands:
        m[f"cli.{sub}.wall_s"] = _median(op_seconds.get(sub, []))
    m["trace.overhead_ratio"] = overhead
    m["trace.coverage"] = min((_median(v) for v in coverages.values()), default=0.0)
    m["headline.max_rel_dev"] = max_rel_dev
    return m


def measure(args, cli, docs) -> dict:
    ops = workloads.WORKLOADS[args.workload]
    bands = workloads.load_bands()
    reference = None
    if any(op.subcommand == "simulate" for op in ops):
        reference = cli._bump_solution(docs["wide"][1])[0]
    tracer = tracing.Tracer()
    plan = tracing.lpkdv_plan() if args.trace else None
    kinds = SPEED_KINDS[args.workload]
    samples = [host_sample(kinds)]

    def one_pass(variants: tuple) -> dict:
        """Run each operation once per entry of `variants` (True: traced),
        back to back, so that the traced and the untraced run of an
        operation see the same host speed."""
        shutil.rmtree(os.path.join(args.work, "pass"), ignore_errors=True)
        tracer.spans = []
        recs, walls, segment = [], {False: 0.0, True: 0.0}, 0.0
        for i, op in enumerate(ops):
            for traced in variants:
                out_dir = os.path.join(args.work, "pass", f"op{i}-{op.subcommand}"
                                       + ("-traced" if traced else ""))
                if traced:
                    tracer.install(plan)
                try:
                    run = tracer.wrap(cli.run, f"cli.{op.subcommand}") if traced else cli.run
                    t0 = time.perf_counter()
                    rec = run_op(run, op.subcommand, docs[op.config][0], out_dir,
                                 bands, reference if op.subcommand == "simulate" else None)
                    dt = time.perf_counter() - t0
                finally:
                    if traced:
                        tracer.uninstall()
                rec["traced"] = traced
                recs.append(rec)
                walls[traced] += dt
                if args.trace:
                    # each run between two host samples, so that a traced
                    # run and its untraced twin compare at the same speed
                    samples.append(host_sample(kinds))
                    rec["scaled_s"] = dt * host_speed(samples[-2:], kinds)
                else:
                    segment += dt
            if not args.trace and (segment >= SEGMENT_S or i == len(ops) - 1):
                samples.append(host_sample(kinds))
                segment = 0.0
        return {"ops": recs, "wall_s": walls[False], "traced_wall_s": walls[True]}

    # With --trace 1 every pass runs each operation untraced and traced, in
    # the order of `variants`, which alternates from pass to pass.
    variants = ((True, False), (False, True)) if args.trace else ((False,),)
    # The warm-up pass pays the first calls' costs (lazy imports, page
    # faults, cold caches, the first host sample); its operations are
    # checked and counted, its times are not used.
    warmup = one_pass((False,))
    del samples[:-1]
    passes, summaries, traced_spans, setups, setup_samples = [], [], [], [], []
    t_begin = last_probe = time.perf_counter()
    while True:
        if not args.trace and (not setups or time.perf_counter() - last_probe
                               >= PROBE_SHARE * args.seconds):
            last_probe = time.perf_counter()
            setups.append(probe_setup(args))
            setup_samples.append(host_sample(SPEED_KINDS["setup"]))
        passes.append(one_pass(variants[len(passes) % len(variants)]))
        if args.trace:
            summaries.append(tracing.summarize(tracer.spans))
            traced_spans.append([vars(s) for s in tracer.spans])
        elapsed = time.perf_counter() - t_begin
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and len(passes) >= MIN_PASSES):
            break
    while not args.trace and len(setups) < MIN_PROBES:
        setups.append(probe_setup(args))
        setup_samples.append(host_sample(SPEED_KINDS["setup"]))

    op_seconds = {}
    for p in passes:
        for rec in p["ops"]:
            if not rec["traced"]:
                op_seconds.setdefault(rec["subcommand"], []).append(rec["seconds"])
    coverages = {}
    for spans in traced_spans:
        objs = [tracing.Span(**s) for s in spans]
        for name, vals in tracing.coverage(objs, "cli.").items():
            coverages.setdefault(name, []).extend(vals)
    all_recs = [rec for p in [warmup] + passes for rec in p["ops"]]
    max_rel_dev = max((workloads.rel_deviation(rec["headlines"],
                                               bands.get(rec["subcommand"], {}))
                       for rec in all_recs), default=0.0)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_record(),
        "pass_walls": [p["wall_s"] for p in passes],
        "warmup_wall_s": warmup["wall_s"],
        "setup_samples": setups,
        "host_samples": samples + setup_samples,
        "host_speed": {"wall": host_speed(samples, kinds),
                       "setup": (host_speed(setup_samples, SPEED_KINDS["setup"])
                                 if setup_samples else 1.0)},
        "traced_pass_walls": [p["traced_wall_s"] for p in passes if args.trace],
        "attempted": len(all_recs),
        "failed": sum(not rec["ok"] for rec in all_recs),
        "failures": [{k: rec[k] for k in ("subcommand", "problems")}
                     for rec in all_recs if not rec["ok"]][:20],
        "headlines": {rec["subcommand"]: rec["headlines"] for rec in all_recs},
        "headline_max_rel_dev": max_rel_dev,
        "op_seconds": op_seconds,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        from lpkdv.cli import SUBCOMMANDS

        scaled = {False: 0.0, True: 0.0}
        for p in passes:
            for rec in p["ops"]:
                scaled[rec["traced"]] += rec["scaled_s"]
        overhead = scaled[True] / scaled[False] - 1.0
        result["layers"] = layer_metrics(summaries, overhead, op_seconds, coverages,
                                         max_rel_dev, SUBCOMMANDS)
        result["coverage"] = {k: _median(v) for k, v in coverages.items()}
        result["layer_summary"] = summaries[-1] if summaries else {}
        result["spans"] = traced_spans[-1] if traced_spans else []
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for CLI outputs")
    ap.add_argument("--result", help="where to write the result JSON")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    cli, docs = setup(args.workload, args.seed, args.work)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    result = measure(args, cli, docs)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
