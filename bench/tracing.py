"""Spans around calls into each dpmobility module, recorded from the
benchmark's own code.

``instrument`` replaces public functions with timing wrappers under the
names their callers look them up by (``dpmobility.privatize.select_radius``
is what ``privatize_trajectories`` calls, ``RoadNetwork.links_within`` is
what ``select_radius`` calls), so nothing in the package changes.  Each span
records its name, start, end, parent and whether the call raised.  Spans
stay in memory until the traced process writes them out.

``summarize`` turns the spans of one traced CLI invocation into per-layer
numbers.  A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

ROOT_SPAN = "cli.main"
SAVE_SPANS = (
    "formats.save_aggregation_csv",
    "formats.save_overlay_geojson",
    "formats.save_report_csv",
    "formats.save_compare_csv",
    "formats.write_manifest",
)


class Tracer:
    """Collects spans as tuples ``(id, parent_id, name, start, end, failed, info)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        # One parent stack per thread: match_corpus matches trips on a pool.
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, info=None):
        """``fn`` recording one span per call; ``info(result)`` may attach a
        small dict from the return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread starts with an empty stack: its spans belong to
            # the main-thread call that is waiting for the pool.
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(result) if info is not None and not failed else None
                self.spans.append((sid, parent, name, start, end, failed, extra))

        return traced


def _buffer_info(result) -> dict:
    return {"iterations": result.iterations, "candidates": len(result.buffer_set_fc)}


def _report_info(result) -> dict:
    _, report = result
    return {"trips_in": report.trips_in, "trips_out": report.trips_out}


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function of the imported dpmobility package."""
    from dpmobility import cli, formats, metrics, privatize
    from dpmobility.network import RoadNetwork

    def patch(owner, attr: str, name: str, info=None) -> None:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, info))

    patch(cli, "main", ROOT_SPAN)
    patch(cli, "window_filter", "trajectories.window_filter")
    patch(cli, "compare", "metrics.compare")
    for span in ("formats.load_network", "formats.load_trips_csv") + SAVE_SPANS:
        patch(formats, span.split(".")[1], span)
    for module in (privatize, metrics):
        patch(module, "match_corpus", "privatize.match_corpus")
        patch(module, "privatize_trajectories", "privatize.privatize_trajectories", _report_info)
        patch(module, "aggregate", "aggregate.aggregate")
    patch(privatize, "match_trajectory", "matching.match_trajectory")
    patch(privatize, "select_radius", "adaptive.select_radius", _buffer_info)
    patch(privatize, "perturb", "noise.perturb")
    patch(privatize, "match_noisy_endpoint", "matching.match_noisy_endpoint")
    patch(privatize, "rebuild_trajectory", "matching.rebuild_trajectory")
    patch(metrics, "unchanged_single_count_od", "metrics.unchanged_single_count_od")
    for method in ("nearest_node", "shortest_path", "links_within", "nearest_link"):
        patch(RoadNetwork, method, "network." + method)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans: list) -> tuple[dict[str, float], dict[str, list]]:
    """Per-layer numbers of one traced invocation, plus per-call samples
    that the caller pools across invocations."""
    names = {sid: name for sid, _, name, *_ in spans}
    children: dict[int | None, list] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)

    def self_time(span) -> float:
        sid, _, _, start, end, *_ = span
        return end - start - _covered([(s[3], s[4]) for s in children[sid]], start, end)

    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    failed: dict[str, int] = defaultdict(int)
    for span in spans:
        _, parent, name, start, end, did_fail, _ = span
        if name == "network.shortest_path":
            caller = {
                "matching.match_trajectory": ".match",
                "matching.rebuild_trajectory": ".rebuild",
            }.get(names.get(parent), ".other")
            name += caller
        busy[name] += end - start
        calls[name] += 1
        failed[name] += did_fail
        if name in ("privatize.privatize_trajectories", "metrics.compare", ROOT_SPAN):
            self_s[name] += self_time(span)

    (root,) = [s for s in spans if s[2] == ROOT_SPAN]
    values = {
        "formats.load_network_s": busy["formats.load_network"],
        "formats.load_trips_csv_s": busy["formats.load_trips_csv"],
        "formats.save_s": sum(busy[name] for name in SAVE_SPANS),
        "trajectories.window_filter_s": busy["trajectories.window_filter"],
        "privatize.match_corpus_s": busy["privatize.match_corpus"],
        "matching.match_trajectory_s": busy["matching.match_trajectory"],
        "matching.match_trajectory_calls": calls["matching.match_trajectory"],
        "matching.unmatchable": failed["matching.match_trajectory"],
        "network.nearest_node_s": busy["network.nearest_node"],
        "network.nearest_node_calls": calls["network.nearest_node"],
        "network.links_within_s": busy["network.links_within"],
        "network.links_within_calls": calls["network.links_within"],
        "network.nearest_link_s": busy["network.nearest_link"],
        "adaptive.select_radius_s": busy["adaptive.select_radius"],
        "adaptive.select_radius_calls": calls["adaptive.select_radius"],
        "noise.perturb_s": busy["noise.perturb"],
        "noise.perturb_calls": calls["noise.perturb"],
        "matching.match_noisy_endpoint_s": busy["matching.match_noisy_endpoint"],
        "matching.rebuild_trajectory_s": busy["matching.rebuild_trajectory"],
        "privatize.privatize_trajectories_s": self_s["privatize.privatize_trajectories"],
        "privatize.privatize_trajectories_calls": calls["privatize.privatize_trajectories"],
        "aggregate.aggregate_s": busy["aggregate.aggregate"],
        "metrics.compare_s": self_s["metrics.compare"],
        "metrics.unchanged_single_count_od_s": busy["metrics.unchanged_single_count_od"],
        "cli.self_s": self_s[ROOT_SPAN],
        "trace.wall_s": root[4] - root[3],
    }
    for caller in (".match", ".rebuild"):
        values["network.shortest_path_s" + caller] = busy["network.shortest_path" + caller]
        values["network.shortest_path_calls" + caller] = calls["network.shortest_path" + caller]

    samples: dict[str, list] = defaultdict(list)
    for _, _, name, start, end, _, extra in spans:
        if name == "adaptive.select_radius":
            samples["select_radius_ms"].append((end - start) * 1e3)
        for key in extra or ():
            samples[key].append(extra[key])
    return values, dict(samples)
