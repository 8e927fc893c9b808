#!/usr/bin/env python3
"""Repository benchmark: the `psim` subcommands run as a user runs them.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. It builds `psim` and the traced-run
harness (`benchmark/layers`) from source, sets up, checks the program's
outputs, then repeats one workload iteration until `--seconds` are used.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
spends half the time on untraced iterations and half on traced ones and
reports the per-layer metrics. `--smoke` shrinks every input; the
benchmark's own tests use it. The last line of stdout is the result
object. A failed check makes `correct` false and the exit code 1. See benchmark/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPEC = "BENCHMARK.json"
# Smoke iterations timed for `setup_s`, each as the summed wall time of
# its psim processes; the fast quartile is reported.
SETUP_REPEATS = 21
# Fewest iterations a measurement takes, even when they overrun.
MIN_ITERATIONS = 3
MODELS = 5
# Units of host-timing per-layer metrics, which vary run to run. Every
# other per-layer metric is an exact output of the models and repeats bit
# for bit for a seed.
HOST_UNITS = ("s", "MB/s", "x")


def fast_quartile(times):
    """The lower quartile of iteration times. Interference on a shared
    host only ever slows an iteration, and it comes in episodes of
    seconds, so the fast quartile moves less between runs of the same
    code than the median does (see benchmark/README.md)."""
    return statistics.quantiles(times, n=4)[0]


class Failure(Exception):
    """A check failed; the run reports `correct: false`."""


def strip_meta(text):
    """Drops the single-line run-provenance object psim reports carry."""
    return "\n".join(line for line in text.splitlines() if not line.startswith('  "meta"'))



class Pipeline:
    """capture → analyze (all five models) → profile --model epoch."""

    group = "pipeline"

    def __init__(self, queue, threads, inserts, barriers, focus):
        self.queue, self.threads, self.inserts = queue, threads, inserts
        self.barriers, self.focus = barriers, focus

    def smoke(self):
        return Pipeline(self.queue, self.threads, max(100, self.inserts // 10), 2, self.focus)

    def commands(self, seed, work):
        trace = str(work / "run.trace")
        return [
            ("capture", ["capture", "--queue", self.queue, "--threads", str(self.threads),
                         "--inserts", str(self.inserts), "--seed", str(seed), "--out", trace], 0),
            ("analyze", ["analyze", "--trace", trace, "--json"], 0),
            ("profile", ["profile", "--trace", trace, "--model", "epoch",
                         "--barriers", str(self.barriers), "--json"], 0),
        ]

    def outcome(self, results, work):
        """Checks one iteration. Returns (attempted, failed, ops,
        fingerprint); the fingerprint must repeat for a seed."""
        failed = sum(1 for r in results.values() if r["rc"] != 0)
        if failed:
            return len(results), failed, 0, None
        inserts = self.threads * self.inserts
        analyze = json.loads(results["analyze"]["out"])
        profile = json.loads(results["profile"]["out"])
        epoch = next(m["critical_path"] for m in analyze["models"] if m["model"] == "epoch")
        if analyze["trace"]["work_items"] != inserts:
            raise Failure(f"analyze saw {analyze['trace']['work_items']} inserts, expected {inserts}")
        if profile["timing_critical_path"] != epoch:
            raise Failure(f"profile timing cp {profile['timing_critical_path']} != analyze epoch cp {epoch}")
        fingerprint = (
            hashlib.sha256((work / "run.trace").read_bytes()).hexdigest(),
            strip_meta(results["analyze"]["out"]),
            strip_meta(results["profile"]["out"]),
        )
        return len(results), 0, inserts, fingerprint

    def cross_check(self, results, layer_metrics):
        """psim's critical paths must equal the in-process analysis."""
        for m in json.loads(results["analyze"]["out"])["models"]:
            inproc = layer_metrics[f"analyze.critical_path.{m['model']}"]
            if inproc != m["critical_path"]:
                raise Failure(f"psim analyze {m['model']} cp {m['critical_path']} != in-process {inproc}")

    def layer_args(self, seed, work):
        return ["pipeline", "--queue", self.queue, "--threads", str(self.threads),
                "--inserts", str(self.inserts), "--barriers", str(self.barriers),
                "--seed", str(seed), "--dir", str(work)]


class Serve:
    """psim serve --smoke at fixed rates, then a --knee sweep."""

    group = "serve"
    focus = "rate"
    shards = 8

    def __init__(self, keys, ops, rates, knee_ops):
        self.keys, self.ops, self.rates, self.knee_ops = keys, ops, rates, knee_ops

    def smoke(self):
        return Serve(max(10_000, self.keys // 10), max(5_000, self.ops // 10), self.rates,
                     max(2_000, self.knee_ops // 2))

    def commands(self, seed, work):
        base = ["serve", "--smoke", "--structure", "kv", "--model", "all", "--keys", str(self.keys),
                "--theta", "0.99", "--get-ratio", "0.5", "--batch", "32", "--seed", str(seed), "--json"]
        cmds = [(f"rate{r:g}", base + ["--ops", str(self.ops), "--rate", repr(r)], 0) for r in self.rates]
        return cmds + [("knee", base + ["--ops", str(self.knee_ops), "--knee"], 0)]

    def outcome(self, results, work):
        # An operation is one shard's run of one model, validated by
        # re-recovering the shard afterwards; psim exits nonzero if any
        # validation fails.
        attempted = failed = offered = 0
        for name, r in results.items():
            if r["rc"] != 0:
                attempted += self.shards * MODELS
                failed += self.shards * MODELS
                continue
            report = json.loads(r["out"])
            if name == "knee":
                runs = sum(m["runs"] for m in report["models"])
                attempted += self.shards * runs
                offered += self.knee_ops * runs
                continue
            attempted += self.shards * len(report["models"])
            for m in report["models"]:
                if m["completed"] + m["shed"] != m["offered"]:
                    raise Failure(f"{name} {m['model']}: completed {m['completed']} + shed "
                                  f"{m['shed']} != offered {m['offered']}")
                offered += m["offered"]
        fingerprint = None if failed else tuple(strip_meta(r["out"]) for r in results.values())
        return attempted, failed, offered, fingerprint

    def cross_check(self, results, layer_metrics):
        pass

    def layer_args(self, seed, work):
        return ["serve", "--keys", str(self.keys), "--ops", str(self.ops),
                "--rates", ",".join(repr(r) for r in self.rates),
                "--knee-ops", str(self.knee_ops), "--seed", str(seed)]


class Fuzz:
    """psim crash-fuzz over the stock matrix, then the cwl-elided cells."""

    group = "fuzz"
    focus = "stock"

    def __init__(self, injections, elided_injections):
        self.injections, self.elided_injections = injections, elided_injections

    def smoke(self):
        return Fuzz(max(1_000, self.injections // 50), max(200, self.elided_injections // 10))

    def commands(self, seed, work):
        base = ["crash-fuzz", "--model", "all", "--seed", str(seed), "--json"]
        return [
            ("stock", base + ["--structure", "stock", "--injections", str(self.injections)], 0),
            # The elided specimen must be caught, so psim exits 1.
            ("elided", base + ["--structure", "cwl-elided", "--injections", str(self.elided_injections)], 1),
        ]

    def outcome(self, results, work):
        # An operation is one stock-cell injection.
        stock, elided = results["stock"], results["elided"]
        attempted = 4 * MODELS * self.injections
        if stock["rc"] not in (0, 1) or not stock["out"].strip():
            return attempted, attempted, attempted, None
        failed = sum(c["failures"] for c in json.loads(stock["out"])["cells"])
        if elided["rc"] != 1:
            raise Failure(f"cwl-elided crash-fuzz exited {elided['rc']}, expected a caught failure")
        for c in json.loads(elided["out"])["cells"]:
            # Strict persists in program order, so the elided barrier is
            # harmless there; every relaxed model must catch it, with a
            # shrunk first failure.
            ff = c["first_failure"]
            if c["model"] == "strict":
                if c["failures"]:
                    raise Failure(f"cwl-elided/strict failed {c['failures']} injections")
            elif not c["failures"] or not ff or not ff["dropped_lines"]:
                raise Failure(f"cwl-elided/{c['model']} was not caught with a shrunk failure: {c}")
        fingerprint = None if failed else (strip_meta(stock["out"]), strip_meta(elided["out"]))
        return attempted, failed, attempted, fingerprint

    def cross_check(self, results, layer_metrics):
        pass

    def layer_args(self, seed, work):
        return ["fuzz", "--injections", str(self.injections),
                "--elided-injections", str(self.elided_injections), "--seed", str(seed)]


WORKLOADS = {
    "capture-cwl-2t": Pipeline("cwl", threads=2, inserts=2000, barriers=8, focus="capture"),
    "analyze-2lc-1t": Pipeline("2lc", threads=1, inserts=8000, barriers=8, focus="analyze"),
    "serve-kv-batched": Serve(keys=100_000, ops=50_000, rates=(5e6, 15e6), knee_ops=5_000),
    "fuzz-matrix": Fuzz(injections=50_000, elided_injections=2_000),
}

# A traced run also probes the layer groups off its workload's path, at
# these sizes, so every traced run reports every per-layer metric. The
# probes are kept out of the traced wall time.
PROBES = {
    "pipeline": WORKLOADS["capture-cwl-2t"].smoke(),
    "serve": WORKLOADS["serve-kv-batched"].smoke(),
    "fuzz": WORKLOADS["fuzz-matrix"].smoke(),
}


def run_psim(bins, args, work):
    """Runs psim to completion: rc, stdout, stderr, wall s, peak RSS MB.
    It runs under the harness's `exec`, which reports psim's own wall
    time and peak RSS."""
    psim, harness = bins
    report = work / "exec.report"
    with open(work / "stderr", "w+b") as err:
        proc = subprocess.run([harness, "exec", str(report), psim] + args,
                              stdout=subprocess.PIPE, stderr=err)
        err.seek(0)
        stderr = err.read().decode()
    fields = dict(line.split(" ") for line in report.read_text().splitlines())
    report.unlink()
    return {"rc": proc.returncode, "out": proc.stdout.decode(), "err": stderr,
            "wall": float(fields["wall"]), "rss_mb": int(fields["rss_kb"]) / 1024.0}


def iterate(bins, workload, seed, work):
    """One workload iteration: every command in order, then its checks."""
    results = {}
    for name, args, want_rc in workload.commands(seed, work):
        r = run_psim(bins, args, work)
        if r["rc"] != want_rc:
            sys.stderr.write(f"psim {' '.join(args)} exited {r['rc']}: {r['err'][-500:]}\n")
        results[name] = r
    return results, workload.outcome(results, work)


def layers(harness, args):
    """Runs one harness group. Returns the layer times on psim's own path
    (`span`), every other metric (`ref` layer times of reference-only
    work, and `metric`), and the wall time of the psim-path work."""
    r = subprocess.run([harness] + args, capture_output=True, text=True)
    if r.returncode != 0:
        raise Failure(f"bench-layers {' '.join(args)} failed: {r.stderr[-500:]}")
    spans, metrics, failed, wall = {}, {}, [], None
    for line in r.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("span", "ref", "metric"):
            name, value = rest.split(" ")
            (spans if kind == "span" else metrics)[name] = float(value)
        elif kind == "check" and not rest.endswith(" ok"):
            failed.append(rest)
        elif kind == "wall":
            wall = float(rest)
    if failed:
        raise Failure("; ".join(failed))
    return spans, metrics, wall


def build():
    """Builds psim and the harness; returns their paths or exits 2."""
    target = Path(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    for argv in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml", "--bin", "psim"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "benchmark/layers/Cargo.toml"],
    ):
        if subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write(f"build failed: {' '.join(argv)}\n")
            sys.exit(2)
    return str(target / "release" / "psim"), str(target / "release" / "bench-layers")


def host_context():
    """Host facts that tell a noisy sample from a regression."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True,
                             text=True, env=env).stdout.strip()
    except OSError:
        rev = ""
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "git_rev": rev or os.environ.get("OBSV_GIT_REV", "unknown"),
        "workers": int(os.environ.get("SWEEP_THREADS") or nproc),
        "loadavg_1m": os.getloadavg()[0],
    }


def measure(bins, workload, seed, work, seconds):
    """Untraced iterations until `seconds` pass. Each iteration's outputs
    must repeat the first iteration's exactly. Stops at the first
    iteration with a failed operation."""
    samples, attempted, failed, reference = [], 0, 0, None
    start = time.perf_counter()
    while len(samples) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        results, (tried, bad, ops, fingerprint) = iterate(bins, workload, seed, work)
        attempted += tried
        failed += bad
        if bad:
            break
        if reference is None:
            reference = fingerprint
        elif fingerprint != reference:
            raise Failure("an iteration's outputs differ from the first iteration's for the same seed")
        samples.append({
            "wall": sum(r["wall"] for r in results.values()),
            "focus": sum(r["wall"] for name, r in results.items() if name.startswith(workload.focus)),
            "ops": ops,
            "rss": max(r["rss_mb"] for r in results.values()),
        })
    return samples, attempted, failed, results


def traced(harness, workload, seed, work, seconds, untraced_wall):
    """Traced iterations of the workload's own layer group, then one probe
    of each other group. Reports the median-wall iteration, whose layer
    times on psim's path plus `unattributed_s` add back to
    `traced_wall_s`; reference-only work is outside that wall."""
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        runs.append(layers(harness, workload.layer_args(seed, work)))
    runs.sort(key=lambda r: r[2])
    spans, metrics, wall = runs[(len(runs) - 1) // 2]
    out = {**spans, **metrics}
    out["traced_wall_s"] = wall
    out["unattributed_s"] = wall - sum(spans.values())
    out["trace_overhead_frac"] = wall / untraced_wall - 1.0
    for group, probe in PROBES.items():
        if group != workload.group:
            spans, metrics, _ = layers(harness, probe.layer_args(seed, work))
            out.update(spans)
            out.update(metrics)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="shrink every input")
    opts = ap.parse_args()

    spec = json.loads(Path(SPEC).read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if opts.trace else "end_to_end"]}
    bins = build()
    harness = bins[1]
    context = host_context()
    print("context " + json.dumps(context, sort_keys=True))

    workload = WORKLOADS[opts.workload]
    if opts.smoke:
        workload = workload.smoke()
    work = Path(".bench_work") / f"{opts.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        # Set-up: smoke iterations, which also warm the binary and caches.
        setups = []
        for _ in range(SETUP_REPEATS):
            results, (tried, bad, _, _) = iterate(bins, workload.smoke(), opts.seed, work)
            setups.append(sum(r["wall"] for r in results.values()))
            if bad:
                raise Failure(f"{bad} of {tried} operations failed during set-up")

        # Checks that need the in-process harness: encode/decode round
        # trip, chunked against sequential analysis, serve at one worker
        # against many, every fuzz cell's verdict.
        _, check_metrics, _ = layers(harness, workload.layer_args(opts.seed, work) + ["--cross-check"])

        seconds = opts.seconds / 2 if opts.trace else opts.seconds
        samples, attempted, failed, last = measure(bins, workload, opts.seed, work, seconds)
        if failed:
            raise Failure(f"{failed} of {attempted} operations failed")
        workload.cross_check(last, check_metrics)
        untraced_wall = statistics.median(s["wall"] for s in samples)
        print(f"{len(samples)} untraced iterations, median wall {untraced_wall:.4f} s")
        if opts.trace:
            metrics = traced(harness, workload, opts.seed, work, opts.seconds / 2, untraced_wall)
        else:
            metrics = {
                "ops_per_s": samples[0]["ops"] / fast_quartile(s["wall"] for s in samples),
                "focus_s": fast_quartile(s["focus"] for s in samples),
                "peak_rss_mb": max(s["rss"] for s in samples),
                "setup_s": fast_quartile(setups),
            }
        missing = set(units) - set(metrics)
        if missing:
            raise Failure(f"metrics not measured: {sorted(missing)}")
    except Failure as e:
        correct = False
        sys.stderr.write(f"check failed: {e}\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name in sorted(metrics):
        print(f"{name:<36} {metrics[name]:>16.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
