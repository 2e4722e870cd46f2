"""The benchmark tracer patches package functions by name; a rename or a
deletion of one of them must fail here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


class PassThrough:
    def wrap(self, fn, name, info=None):
        return fn


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.instrument(PassThrough())
