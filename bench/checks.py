"""Output checks and workload properties.

After the timed invocations, the windowed corpus is matched again with the
package's public functions, and the written outputs are checked against it:

* ``privatize``: every endpoint whose link has an in-window count of 1, or
  whose trip repeats a (device, origin link, destination link) pair, is
  marked perturbed in ``privatization_report.csv`` or its trip is excluded.
* ``compare``: ``compare.csv`` has one row per removal model and raw
  reference, plus one ``dp-ani`` row per epsilon of the ladder.

The same pass measures the workload properties that decide how much work a
run does: trips in the window, GPS samples per trip, traversals per link,
and the share of endpoints that fire.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from dpmobility import formats
from dpmobility.aggregate import compute_link_counts
from dpmobility.matching import MatchConfig
from dpmobility.privatize import DESTINATION, ORIGIN, detect_repeated_od, match_corpus
from dpmobility.trajectories import window_filter

import workloads as W

OUTPUT_CSVS = {
    "privatize": ("privatization_report.csv", "privatized_aggregation.csv"),
    "compare": ("compare.csv",),
}


def hash_outputs(command: str, out: Path) -> dict[str, str] | None:
    """SHA-256 of each CSV output; ``manifest.json`` is left out because it
    echoes input paths.  ``None`` when an output is missing."""
    digests = {}
    for name in OUTPUT_CSVS[command]:
        path = out / name
        if not path.is_file():
            return None
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def inspect(wl: W.Workload, network: Path, trips: Path, out: Path) -> tuple[list[str], dict]:
    """Problems found in the outputs under ``out``, and workload properties."""
    net = formats.load_network(network)
    gps = formats.load_trips_csv(trips, gap_s=W.GAP_S)
    corpus = window_filter(gps, W.HOUR_WINDOW, frozenset(W.DAYS.split(",")), W.UTC_OFFSET_H)
    matched, unmatchable = match_corpus(
        corpus, net, MatchConfig(W.SNAP_RADIUS_M, W.MAX_NODE_SKIP), W.UTC_OFFSET_H
    )
    counts = compute_link_counts(t for t in matched if t is not None)
    repeated = detect_repeated_od(matched)
    must_fire = {
        (i, end)
        for i, trip in enumerate(matched)
        if trip is not None
        for end, link in ((ORIGIN, trip.links[0]), (DESTINATION, trip.links[-1]))
        if counts[link] == 1 or i in repeated
    }
    n_matched = len(corpus) - unmatchable
    properties = {
        "trips_in_window": len(corpus),
        "trips_unmatchable": unmatchable,
        "samples_per_trip_mean": sum(len(g.samples) for g in corpus) / len(corpus),
        "traversals_per_link_mean": sum(counts.values()) / len(counts),
        "endpoints_fired": len(must_fire),
        "fire_share": len(must_fire) / (2 * n_matched),
    }
    if wl.command == "compare":
        return _check_compare(wl, out / "compare.csv"), properties
    return _check_report(out / "privatization_report.csv", matched, must_fire), properties


def _check_compare(wl: W.Workload, path: Path) -> list[str]:
    rows = formats.load_compare_csv(path)
    expected = len(W.COMPARE_MODELS) - 1 + len(wl.epsilons)
    problems = []
    if len(rows) != expected:
        problems.append(f"compare.csv has {len(rows)} rows, expected {expected}")
    epsilons = [float(r["epsilon"]) for r in rows if r["model"] == "dp-ani"]
    if epsilons != list(wl.epsilons):
        problems.append(f"compare.csv dp-ani epsilons {epsilons} != {list(wl.epsilons)}")
    return problems


def _check_report(path: Path, matched: list, must_fire: set) -> list[str]:
    report = formats.load_report_csv(path)
    problems = []
    if report.trips_in != len(matched):
        problems.append(f"report trips_in={report.trips_in}, window holds {len(matched)} trips")
    decisions = {(d.trip, d.end): d for d in report.decisions}
    released = {trip for trip, _ in decisions}
    if len(decisions) != len(report.decisions):
        problems.append("report has duplicate endpoint decisions")
    if len(matched) - len(released) != report.trips_in - report.trips_out:
        problems.append(
            f"{len(matched) - len(released)} trips have no decisions but the report "
            f"excludes {report.trips_in - report.trips_out}"
        )
    for trip in released:
        if not 0 <= trip < len(matched) or matched[trip] is None:
            problems.append(f"report decides on trip {trip}, which did not match")
            continue
        for end, link in ((ORIGIN, matched[trip].links[0]), (DESTINATION, matched[trip].links[-1])):
            d = decisions.get((trip, end))
            if d is None or d.original_link != link:
                problems.append(f"trip {trip} {end}: decision does not match link {link}")
    unperturbed = sorted(
        key for key in must_fire if key in decisions and not decisions[key].perturbed
    )
    if unperturbed:
        problems.append(
            f"{len(unperturbed)} single-count or repeated-OD endpoints released "
            f"unperturbed, first {unperturbed[0]}"
        )
    return problems
