"""Benchmark for ``dpmobility privatize`` and ``dpmobility compare``.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Generates the workload's city and GPS corpus from the seed (set-up), then
runs the CLI from those files to written outputs, again and again for S
seconds, each time in a fresh worker process (``worker.py``).  With
``--trace 1`` it also runs traced invocations and reports per-layer numbers.
The outputs are checked afterwards; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs the workload at a tiny shape.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from checkout import ROOT, SRC, use_checkout_source

use_checkout_source()

import numpy as np
from dpmobility import formats, synth

import checks
import tracing
import workloads as W

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = json.loads((BENCH / "expected_outputs.json").read_text(encoding="utf-8"))
WORK_ROOT = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_REPS = 3  # set-up runs per benchmark run; setup_s is their median
MIN_REPS = 3  # untraced invocations per run, even when S seconds pass sooner
MIN_P99_CALLS = 1000  # select_radius calls pooled before quoting a p99
WORKER_TIMEOUT_S = 150


def setup(wl: W.Workload, seed: int, work: Path) -> dict[str, list[float]]:
    """Generate and write the inputs SETUP_REPS times; per-rep timings."""
    network, trips = work / "network.geojson", work / "trips.csv"
    timings: dict[str, list[float]] = {"setup_s": [], "city_s": [], "trips_s": []}
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        net = synth.generate_city(
            synth.SynthCityConfig(
                rows=wl.rows, cols=wl.cols, spacing_m=W.SPACING_M,
                arterial_every=W.ARTERIAL_EVERY, seed=seed,
            )
        )
        t1 = time.perf_counter()
        gps, _ = synth.generate_trips(
            net,
            synth.SynthTripConfig(
                n_trips=wl.trips_per_day,
                n_devices=wl.n_devices,
                days=W.DATES,
                hour_window=W.HOUR_WINDOW,
                od_popularity_alpha=wl.od_alpha,
                gps_interval_s=wl.gps_interval_s,
                repeat_fraction=wl.repeat_fraction,
                seed=seed,
                utc_offset_hours=W.UTC_OFFSET_H,
            ),
        )
        t2 = time.perf_counter()
        formats.save_network_geojson(net, network)
        formats.save_trips_csv(gps, trips)
        t3 = time.perf_counter()
        timings["setup_s"].append(t3 - t0)
        timings["city_s"].append(t1 - t0)
        timings["trips_s"].append(t2 - t1)
    return timings


def invoke(argv: list[str], work: Path, tag: str, traced: bool) -> dict:
    """One CLI invocation in a fresh worker process."""
    result = work / f"result-{tag}.json"
    spans = work / f"spans-{tag}.json" if traced else None
    spec = {"argv": argv, "result": str(result), "spans": str(spans) if spans else None}
    env = {k: v for k, v in os.environ.items() if k != "DP_MOBILITY_THREADS"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        cwd=work, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result.is_file():
        return {"rc": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    out = json.loads(result.read_text(encoding="utf-8"))
    if spans is not None:
        out["spans"] = json.loads(spans.read_text(encoding="utf-8"))
        spans.unlink()
    return out


class Runs:
    """Invocations of one workload and the output digest of each."""

    def __init__(self, wl: W.Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.done: list[dict] = []

    def run(self, traced: bool) -> dict:
        k = len(self.done)
        out = self.work / f"out-{k}"
        argv = self.wl.cli_argv(
            str(self.work / "network.geojson"), str(self.work / "trips.csv"), str(out), self.seed
        )
        rep = invoke(argv, self.work, str(k), traced)
        if "spans" in rep:
            rep["layers"], rep["samples"] = tracing.summarize(rep.pop("spans"))
        rep["out"] = out
        rep["digest"] = checks.hash_outputs(self.wl.command, out) if rep["rc"] == 0 else None
        self.done.append(rep)
        return rep


def check_runs(runs: Runs, expected: dict | None) -> tuple[int, list[str], dict, dict | None]:
    """Count failed invocations; each failed check fails every invocation
    whose outputs it concerns."""
    problems: list[str] = []
    ok = [r for r in runs.done if r["digest"] is not None]
    for r in runs.done:
        if r["rc"] != 0:
            problems.append(f"invocation exited {r['rc']}: {r.get('error', '')}")
        elif r["digest"] is None:
            problems.append("invocation left an output CSV unwritten")
    properties: dict = {}
    reference = ok[0]["digest"] if ok else None
    bad_digests: list[dict] = []
    if ok:
        found, properties = checks.inspect(
            runs.wl, runs.work / "network.geojson", runs.work / "trips.csv", ok[0]["out"]
        )
        if expected is not None and reference != expected:
            found.append(f"outputs {reference} differ from the recorded {expected}")
        problems += found
        if found:
            bad_digests.append(reference)
    for r in ok:
        if r["digest"] != reference:
            problems.append(f"rerun outputs differ: {r['digest']} != {reference}")
            bad_digests.append(r["digest"])
    failed = sum(1 for r in runs.done if r["digest"] is None or r["digest"] in bad_digests)
    return failed, problems, properties, reference


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]


def environment(seed: int) -> dict:
    try:
        # The ceiling keeps git from searching directories above the checkout.
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    source = hashlib.sha256()
    for path in sorted((SRC / "dpmobility").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "DP_MOBILITY_THREADS": None,  # removed from the workers' environment
        "effective_threads": os.cpu_count() or 1,
        "seed": seed,
    }


def layer_metrics(traced: list[dict], untraced_wall: float, setups: dict, props: dict) -> dict:
    per_rep = [rep["layers"] for rep in traced]
    pooled: dict[str, list] = {}
    for rep in traced:
        for key, vals in rep["samples"].items():
            pooled.setdefault(key, []).extend(vals)
    out = {key: statistics.median(v[key] for v in per_rep) for key in per_rep[0]}
    ms = pooled.get("select_radius_ms", [0.0])
    out.update({
        "synth.generate_city_s": statistics.median(setups["city_s"]),
        "synth.generate_trips_s": statistics.median(setups["trips_s"]),
        "adaptive.select_radius_p50_ms": quantile(ms, 0.50),
        "adaptive.select_radius_p99_ms": quantile(ms, 0.99),
        "adaptive.iterations_mean": statistics.fmean(pooled.get("iterations", [0])),
        "adaptive.candidates_mean": statistics.fmean(pooled.get("candidates", [0])),
        "privatize.endpoints_fired": props["endpoints_fired"],
        "privatize.fire_share": props["fire_share"],
        "privatize.trips_out_share": sum(pooled["trips_out"]) / sum(pooled["trips_in"]),
        "trajectories.samples_per_trip_mean": props["samples_per_trip_mean"],
        "aggregate.traversals_per_link_mean": props["traversals_per_link_mean"],
        "trace.overhead_s": out["trace.wall_s"] - untraced_wall,
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shape, for testing")
    args = parser.parse_args()

    wl = W.WORKLOADS[args.workload]
    shape = "smoke" if args.smoke else "full"
    if args.smoke:
        wl = wl.smoke()
    recorded = EXPECTED[shape]
    expected = recorded["outputs"][wl.name] if args.seed == recorded["seed"] else None

    work = WORK_ROOT / f"{wl.name}-{shape}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = setup(wl, args.seed, work)
        runs = Runs(wl, args.seed, work)
        # A traced run splits the S seconds between untraced and traced
        # invocations, so that it takes about as long as an untraced run.
        untraced = []
        deadline = time.perf_counter() + args.seconds / (1 + args.trace)
        while len(untraced) < MIN_REPS or time.perf_counter() < deadline:
            untraced.append(runs.run(traced=False))
        traced = []
        deadline = time.perf_counter() + args.seconds / 2
        while args.trace and (
            not traced
            or sum(len(r.get("samples", {}).get("select_radius_ms", ())) for r in traced)
            < MIN_P99_CALLS
            and time.perf_counter() < deadline
        ):
            traced.append(runs.run(traced=True))
        failed, problems, props, digest = check_runs(runs, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [r["wall_s"] for r in untraced if "wall_s" in r]
    wall_s = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setups["setup_s"]),
        "wall_s": wall_s,
        "trips_per_s": props.get("trips_in_window", 0) / wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced if "peak_rss_mb" in r),
    }
    metric_spec = SPEC["end_to_end"]
    if args.trace:
        values = layer_metrics([r for r in traced if "layers" in r], wall_s, setups, props)
        metric_spec = SPEC["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}

    record = {
        "workload": wl.name,
        "shape": shape,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup": setups,
        "wall_s": walls,
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced if "peak_rss_mb" in r],
        "traced_invocations": len(traced),
        "select_radius_calls_traced": sum(
            len(r.get("samples", {}).get("select_radius_ms", ())) for r in traced
        ),
        "properties": props,
        "outputs": digest,
        "problems": problems,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = RESULTS / f"BENCH_{wl.name}-{shape}-s{args.seed}-t{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    attempted = len(runs.done)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
