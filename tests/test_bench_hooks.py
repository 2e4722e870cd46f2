"""The benchmark patches package functions by name, reads the package's
output files back and pins the bytes they hold; a change that breaks any of
that must fail here, not only in a benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

from dpmobility.cli import main

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
