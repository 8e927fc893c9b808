#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

    python3 benchmark/steadiness.py [--runs 10] [--workload NAME ...]

Run from the root of a checkout. For each workload it runs two sets,
back to back, of `benchmark/run.py --trace 0` `--runs` times, each run
with another seed and the second set with the first set's seeds. For
every end-to-end metric and set it prints the median, the quartiles and
the spread: the distance between the first and third quartile as a share
of the median (`statistics.quantiles(values, n=4)`). It fails if any
spread is above the metric's bound in BENCHMARK.json, or if the second
set's median is worse than the first's by more than the bound.

It then runs `--trace 1` twice with one seed and checks that every exact
per-layer metric (critical paths, knees, p99s, absorbed writes, thread
switches, recovery crashes, ...) repeats bit for bit. Every run's host
context (nproc, git rev, workers, 1-minute load) is printed next to its
figures. Exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import HOST_UNITS, WORKLOADS  # noqa: E402

FIRST_SEED = 1
SETS = 2
EXACT_REPEATS = 2


def run_once(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    context = next((json.loads(l[8:]) for l in lines if l.startswith("context ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if r.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(r.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed (exit {r.returncode})")
    return context, {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    opts = ap.parse_args()
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in opts.workload or [w["name"] for w in spec["workloads"]]:
        seeds = range(FIRST_SEED, FIRST_SEED + opts.runs)
        medians = []
        for s in range(SETS):
            values = {name: [] for name in bounds}
            for seed in seeds:
                context, metrics = run_once(workload, seed, seconds, 0)
                print(f"{workload} set {s + 1} seed {seed}: load {context.get('loadavg_1m', 0):.2f} "
                      f"nproc {context.get('nproc')} workers {context.get('workers')} "
                      f"rev {context.get('git_rev')} " +
                      " ".join(f"{k}={v:.6g}" for k, v in sorted(metrics.items())), flush=True)
                for name in bounds:
                    values[name].append(metrics[name])
            meds = {}
            for name, m in bounds.items():
                q1, q2, q3, sp = spread(values[name])
                meds[name] = q2
                verdict = "ok" if sp <= m["bound"] else "FAIL"
                if sp > m["bound"] / 3 and verdict == "ok":
                    verdict = "ok (above a third of the bound)"
                ok &= verdict != "FAIL"
                print(f"  {workload:<17} {name:<12} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                      f"spread {sp:.4f} bound {m['bound']} {m['unit']} {verdict}", flush=True)
            medians.append(meds)
        for name, m in bounds.items():
            a, b = medians[0][name], medians[1][name]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "FAIL"
            ok &= verdict == "ok"
            print(f"  {workload:<17} {name:<12} set 2 vs set 1: {worse:+.4f} worse, bound "
                  f"{m['bound']} {verdict}", flush=True)

        runs = [run_once(workload, FIRST_SEED, seconds, 1)[1] for _ in range(EXACT_REPEATS)]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        exact = sorted(k for k in runs[0] if units[k] not in HOST_UNITS)
        differ = [k for k in exact if any(r.get(k) != runs[0][k] for r in runs[1:])]
        ok &= not differ
        print(f"  {workload:<17} {len(exact)} exact per-layer metrics over {len(runs)} traced runs, "
              f"seed {FIRST_SEED}: " + (f"DIFFER {differ}" if differ else "bit-for-bit identical"),
              flush=True)
        first = runs[0]
        layer_sum = first["traced_wall_s"] - first["unattributed_s"]
        print(f"  {workload:<17} traced wall {first['traced_wall_s']:.4f} s, layers {layer_sum:.4f} s "
              f"({100 * layer_sum / first['traced_wall_s']:.1f}%), unattributed "
              f"{first['unattributed_s']:.4f} s, trace overhead {first['trace_overhead_frac']:+.3f}",
              flush=True)
    print("steadiness: " + ("ok" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
