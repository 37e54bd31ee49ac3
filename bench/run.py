"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload multiscale --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`; nothing needs installing).  Each workload runs in a fresh single
process with BLAS/OpenMP pinned to one thread.  Set-up time is measured by
starting fresh interpreters that only import and build the config, spread
over the run.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json
(wall_s, setup_s, peak_rss_mb); with `--trace 1` the per-layer ones, from
passes that run every operation traced and untraced, back to back.  wall_s and setup_s are
scaled by the host's measured speed: the worker samples a fixed reference
work between operations and multiplies each time by the reference time in
`bench/baseline.json` over the sampled time (the host this was built on
changes speed by up to 2x over minutes); the raw times are printed beside
them and kept in the result file.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The full result, with the environment record and every pass
time, is also written under `bench/results/` for `compare.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUN_LIMIT_S = 175.0  # the whole run, probes included, ends within this
PERCENTILES = (99, 95, 90, 75, 50)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, env, work, result_path, deadline) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--result", result_path]
    # its own process group, so that a timeout also stops its set-up probes
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("workload process timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exit {proc.returncode}: "
                           f"{(out + err).strip()[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def tail_percentile(samples: list):
    """(p, value) for the highest of PERCENTILES with at least ten samples
    beyond it, or None when the run has too few samples."""
    n = len(samples)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lpkdv benchmark: one workload run")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=os.path.join(HERE, "results"),
                    help="directory for the full result JSON")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    started = time.time()

    if not os.path.isfile(os.path.join(ROOT, "src", "lpkdv", "cli.py")):
        print(f"no lpkdv source under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    env = child_env()
    work = os.path.join(HERE, ".work", f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(args.results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    result_path = os.path.join(args.results,
                               f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json")
    try:
        result = run_worker(args, env, work, result_path, deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    walls = result["pass_walls"]
    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        speed = result["host_speed"]
        values = {"wall_s": statistics.median(walls) * speed["wall"],
                  "setup_s": statistics.median(result["setup_samples"]) * speed["setup"],
                  "peak_rss_mb": result["peak_rss_mib"]}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result.update(metrics=metrics, started_unix=started)
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)} untraced, {len(result['traced_pass_walls'])} traced")
    if not args.trace:
        tail = tail_percentile([w * speed["wall"] for w in walls])
        tail_txt = f", p{tail[0]} {tail[1]:.4f} s" if tail else ", no tail percentile (< 20 passes)"
        print(f"  wall_s       {values['wall_s']:.4f} s  median of {len(walls)} passes{tail_txt}"
              f"  (raw {statistics.median(walls):.4f} s, host speed {speed['wall']:.3f})")
        print(f"  setup_s      {values['setup_s']:.4f} s  median of "
              f"{len(result['setup_samples'])} fresh interpreters  (raw "
              f"{statistics.median(result['setup_samples']):.4f} s, host speed {speed['setup']:.3f})")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MiB")
    else:
        for m in wanted:
            print(f"  {m['name']:<36} {values[m['name']]:.6g} {m['unit']}")
    print(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:.4f}  "
          f"(operations = subcommand runs)")
    for f in result["failures"][:5]:
        print(f"  FAILED {f['subcommand']}: {'; '.join(f['problems'])}")
    print(f"  result file  {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
