"""Run one dpmobility CLI invocation in this process and report its wall
time and peak resident memory.

Usage: python3 bench/worker.py SPEC_JSON

SPEC_JSON holds ``argv`` (the CLI arguments), ``result`` (where to write
``{"rc", "wall_s", "peak_rss_mb"}``) and ``spans`` (where to write the
trace, or null for an untraced run).  A fresh process per invocation keeps
the benchmark's own set-up out of the peak-memory reading.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from checkout import use_checkout_source


def main() -> None:
    spec = json.loads(sys.argv[1])
    use_checkout_source()
    from dpmobility import cli

    tracer = None
    if spec["spans"]:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)

    start = time.perf_counter()
    rc = cli.main(spec["argv"])
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        with open(spec["spans"], "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump({"rc": rc, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}, f)


if __name__ == "__main__":
    main()
