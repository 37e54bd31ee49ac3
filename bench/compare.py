"""Compare two commits' benchmark result sets, run alternating pairs, or
record a baseline.

    python3 bench/compare.py pairs --parent A --change B --seeds 1-10 --out DIR
    python3 bench/compare.py report DIR/parent DIR/change
    python3 bench/compare.py baseline DIR/parent [--write]

`pairs` runs `bench/run.py` of two checkouts (A: the parent commit, B: the
change) on the same seeds, on every workload of BENCHMARK.json for its
`run_seconds`, alternating which side runs first, and refuses
to run when their benchmark code differs.  `report` applies the rules of a
gain claim to the end-to-end metrics, one row per workload and metric:

- runs are paired by (workload, seed);
- gain: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  spread;
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: either side's interquartile spread exceeds the bound, unless
  every change run is better than every parent run;
- a workload whose change runs fail more operations than the parent's voids
  any gain on it.

`baseline` prints the medians and quartiles of a result set and, with
`--write`, stores them with the headline bands in `bench/baseline.json`.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def load_results(path: str, trace: int = 0) -> list:
    files = [path] if os.path.isfile(path) else sorted(glob.glob(os.path.join(path, "*.json")))
    out = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if doc.get("trace") == trace and "metrics" in doc:
            out.append(doc)
    return out


def quartiles(xs: list):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def _better(a, b, lower: bool) -> bool:
    return a < b if lower else a > b


def verdict(parent: list, change: list, pairs: list, bound: float, lower: bool) -> dict:
    """Apply the gain / regression / unresolved rules to one metric.
    `pairs` holds (parent value, change value) of runs with the same seed."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread_p, spread_c = (p3 - p1) / pm, (c3 - c1) / cm
    wins = sum(_better(c, p, lower) for p, c in pairs)
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    all_better = all(_better(c, p, lower) for c in change for p in parent)
    gain = (len(pairs) > 0 and wins >= 0.9 * len(pairs)
            and abs(cm - pm) > (p3 - p1) and _better(cm, pm, lower))
    if max(spread_p, spread_c) > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regression"
    elif gain:
        v = "gain"
    else:
        v = "no regression"
    return {"verdict": v, "pairs": len(pairs), "wins": wins,
            "parent": [p1, pm, p3], "change": [c1, cm, c3],
            "spread_parent": spread_p, "spread_change": spread_c,
            "worse_by": worse, "bound": bound}


def report(parent_dir: str, change_dir: str, spec: dict) -> list:
    parent, change = load_results(parent_dir), load_results(change_dir)
    rows = []
    for w in WORKLOADS:
        ps = {r["seed"]: r for r in parent if r["workload"] == w}
        cs = {r["seed"]: r for r in change if r["workload"] == w}
        if not ps or not cs:
            continue
        seeds = sorted(set(ps) & set(cs))
        change_first = sum(cs[s]["started_unix"] < ps[s]["started_unix"] for s in seeds)
        fail_p = sum(r["failed"] for r in ps.values()) / sum(r["attempted"] for r in ps.values())
        fail_c = sum(r["failed"] for r in cs.values()) / sum(r["attempted"] for r in cs.values())
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            row = verdict([r["metrics"][name]["value"] for r in ps.values()],
                          [r["metrics"][name]["value"] for r in cs.values()],
                          [(ps[s]["metrics"][name]["value"], cs[s]["metrics"][name]["value"])
                           for s in seeds], m["bound"], lower)
            if row["verdict"] == "gain" and fail_c > fail_p:
                row["verdict"] = "gain void: more failures"
            row.update(workload=w, metric=name, unit=m["unit"], change_first=change_first,
                       fail_ratio=[fail_p, fail_c])
            rows.append(row)
    return rows


def print_rows(rows: list) -> None:
    print(f"{'workload':<15}{'metric':<13}{'parent med [q1,q3]':<30}{'change med [q1,q3]':<30}"
          f"{'wins':>7}{'worse':>8}  verdict  (fail ratio parent/change; change ran first)")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:<15}{r['metric']:<13}"
              f"{f'{p[1]:.4g} [{p[0]:.4g},{p[2]:.4g}]':<30}"
              f"{f'{c[1]:.4g} [{c[0]:.4g},{c[2]:.4g}]':<30}"
              f"{r['wins']:>3}/{r['pairs']:<3}{r['worse_by']:>+8.3f}  {r['verdict']}"
              f"  ({r['fail_ratio'][0]:.3g}/{r['fail_ratio'][1]:.3g}; "
              f"{r['change_first']}/{r['pairs']})")


# --- alternating pairs ------------------------------------------------------------


def bench_digest(checkout: str) -> str:
    """Hash of the benchmark's own files in a checkout."""
    h = hashlib.sha256()
    base = os.path.join(checkout, "bench")
    for name in sorted(os.listdir(base)):
        path = os.path.join(base, name)
        if os.path.isfile(path) and name.endswith((".py", ".json")):
            with open(path, "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    with open(os.path.join(checkout, "BENCHMARK.json"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_pairs(args) -> int:
    if bench_digest(args.parent) != bench_digest(args.change):
        print("the two checkouts have different benchmark code; refusing", file=sys.stderr)
        return 2
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sides = {"parent": args.parent, "change": args.change}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for w in (w["name"] for w in spec["workloads"]):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, os.path.join(sides[side], "bench", "run.py"),
                       "--workload", w, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0", "--results", os.path.join(os.path.abspath(args.out), side)]
                proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
                print(f"{side:<7} {w:<15} seed {seed:<4} exit {proc.returncode}  {last[0][:150]}",
                      flush=True)
    return 0


# --- baseline ---------------------------------------------------------------------


def headline_band(name: str, ref: float) -> dict:
    """Band for one headline number around its seed-commit value.
    Round-off-level drifts may shrink freely and grow tenfold; their ratio
    (the isospectral shrink factor) may fall tenfold; exponents keep 2% and
    the other errors, residuals and factors 5%."""
    if name.endswith(("max_drift", "mass_drift")):
        return {"ref": ref, "lo": None, "hi": 10 * ref}
    if name.endswith("shrink_factor"):
        return {"ref": ref, "lo": ref / 10, "hi": None}
    rel = 0.02 if name.endswith("exponent") else 0.05
    lo, hi = sorted((ref * (1 - rel), ref * (1 + rel)))
    return {"ref": ref, "lo": lo, "hi": hi}


def host_sample_medians(runs: list) -> dict:
    """Per kind of host-speed sample, the median over runs of the run's mean
    sample time (the source of baseline.json's host_reference_s)."""
    means = {}
    for r in runs:
        kinds = {}
        for sample in r["host_samples"]:
            for k, v in sample.items():
                kinds.setdefault(k, []).append(v)
        for k, v in kinds.items():
            means.setdefault(k, []).append(statistics.mean(v))
    return {k: statistics.median(v) for k, v in sorted(means.items())}


def baseline(args, spec: dict) -> int:
    results = load_results(args.results) + load_results(args.results, trace=1)
    summary, bands, env = {}, {}, None
    for w in WORKLOADS:
        runs = [r for r in results if r["workload"] == w and r["trace"] == 0]
        traced = [r for r in results if r["workload"] == w and r["trace"] == 1]
        if not runs:
            continue
        env = runs[-1]["env"]
        row = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
               "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
               "passes_per_run": [len(r["pass_walls"]) for r in runs]}
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in runs])
            row[m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                              "spread": (q3 - q1) / med}
        row["host_sample_s"] = host_sample_medians(runs)
        if traced:
            row["per_layer_median"] = {
                m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
                for m in spec["per_layer"]}
        summary[w] = row
        for sub, values in runs[-1]["headlines"].items():
            if values:
                bands[sub] = {k: headline_band(k, v) for k, v in sorted(values.items())}
    print(json.dumps(summary, indent=1))
    if args.write:
        with open(BASELINE) as fh:
            doc = json.load(fh)
        doc.update(seed_commit=summary, env=env, headline_bands=bands)
        with open(BASELINE, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("report", help="compare two result sets")
    rp.add_argument("parent")
    rp.add_argument("change")
    pp = sub.add_parser("pairs", help="run alternating pairs on two checkouts")
    pp.add_argument("--parent", required=True)
    pp.add_argument("--change", required=True)
    pp.add_argument("--seeds", default="1-10")
    pp.add_argument("--out", required=True)
    bp = sub.add_parser("baseline", help="summarize a result set")
    bp.add_argument("results")
    bp.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.cmd == "pairs":
        return run_pairs(args)
    if args.cmd == "baseline":
        return baseline(args, spec)
    print_rows(report(args.parent, args.change, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
