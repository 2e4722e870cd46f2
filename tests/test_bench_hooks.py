"""The benchmark patches package functions by name, reads the package's
output files back and pins the bytes they hold; a change that breaks any of
that must fail here, not only in a benchmark run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from dpmobility.cli import main

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


class PassThrough:
    def wrap(self, fn, name, info=None):
        return fn


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.instrument(PassThrough())


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_outputs_pass_the_checks_and_match_the_recorded_digests(name, tmp_path,
                                                                      monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    recorded = run.EXPECTED["smoke"]
    wl = run.W.WORKLOADS[name].smoke()
    run.setup(wl, recorded["seed"], tmp_path)
    network, trips, out = tmp_path / "network.geojson", tmp_path / "trips.csv", tmp_path / "out"
    assert main(wl.cli_argv(str(network), str(trips), str(out), recorded["seed"])) == 0
    problems, _ = run.checks.inspect(wl, network, trips, out)
    assert problems == []
    assert run.checks.hash_outputs(wl.command, out) == recorded["outputs"][name]


# Instrumenting patches the package for the rest of the process, so the
# traced runs go to a child interpreter.
TRACED_SMOKE = """
import json, sys
from pathlib import Path

bench, work, names = sys.argv[1], Path(sys.argv[2]), json.loads(sys.argv[3])
sys.path.insert(0, bench)
import run, tracing
from dpmobility import cli

seed = run.EXPECTED["smoke"]["seed"]
cases = []
for name in names:
    wl = run.W.WORKLOADS[name].smoke()
    (work / name).mkdir()
    run.setup(wl, seed, work / name)
    cases.append((name, wl))
tracer = tracing.Tracer()
tracing.instrument(tracer)
result = {}
for name, wl in cases:
    tracer.spans.clear()
    d = work / name
    argv = wl.cli_argv(str(d / "network.geojson"), str(d / "trips.csv"), str(d / "out"), seed)
    rc = cli.main(argv)
    values, samples = tracing.summarize(tracer.spans)
    result[name] = {
        "rc": rc,
        "calls": values["adaptive.select_radius_calls"],
        "iterations": len(samples.get("iterations", [])),
        "candidates": len(samples.get("candidates", [])),
    }
print(json.dumps(result))
"""


def test_traced_smoke_runs_read_every_traced_result(tmp_path):
    """The tracer's ``info`` readers run on real results: one buffer
    sample per ``select_radius`` call, on every workload."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SMOKE, str(BENCH), str(tmp_path), json.dumps(WORKLOADS)],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == set(WORKLOADS)
    for name, r in result.items():
        assert r["rc"] == 0, name
        assert r["calls"] >= 1, name
        assert r["iterations"] == r["candidates"] == r["calls"], name
