"""Utility metrics over aggregated mobility networks and trip corpora."""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from .aggregate import AggregatedMobilityNetwork, aggregate
from .errors import WindowMismatchError
from .matching import MatchConfig
from .network import LinkId, NodeId, RoadNetwork
from .noise import validate_epsilon
# ``match_corpus`` is not called here; it stays importable under this
# module's name because bench/tracing.py wraps ``metrics.match_corpus``.
from .privatize import match_corpus  # noqa: F401
from .privatize import (
    _BASELINES,
    PrivacyConfig,
    SOURCE_DP_ANI,
    _plan,
    match_window,
    privatize_trajectories,
)
from .trajectories import GpsTrajectory, LinkTrajectory, Window

METERS_PER_MILE = 1609.344

MODEL_RAW = "raw"
DEFAULT_MODELS = (MODEL_RAW, SOURCE_DP_ANI) + tuple(_BASELINES)
DEFAULT_EPSILONS = (0.05, 0.1, 1.0, 1.5, 2.0, 5.0, 10.0, 15.0)

COMPARE_COLUMNS = (
    "model",
    "epsilon",
    "network_length_mi",
    "vmt_mi",
    "vht_h",
    "vhd_h",
    "unchanged_slc_od",
    "privatized_ratio",
    "trips_excluded",
)


def network_length(agg: AggregatedMobilityNetwork, net: RoadNetwork) -> float:
    """Total length in miles of the links active in the aggregation."""
    return sum(net.links[lid].length_m for lid in agg.counts) / METERS_PER_MILE


def vmt(corpus: Sequence[LinkTrajectory], net: RoadNetwork) -> float:
    """Vehicle miles traveled: traversal lengths summed with multiplicity."""
    meters = sum(net.links[lid].length_m for t in corpus for lid in t.links)
    return meters / METERS_PER_MILE


def vht(corpus: Sequence[LinkTrajectory], net: RoadNetwork) -> float:
    """Vehicle hours traveled at free-flow speeds."""
    seconds = 0.0
    for t in corpus:
        seconds += sum(net.links[lid].length_m / net.links[lid].speed_mps for lid in t.links)
    return seconds / 3600.0


def vhd(
    corpus: Sequence[LinkTrajectory],
    net: RoadNetwork,
    observed_speeds: Mapping[LinkId, float] | None = None,
) -> float:
    """Vehicle hours of delay versus free flow; zero without observations."""
    if not observed_speeds:
        return 0.0
    seconds = 0.0
    for t in corpus:
        for lid in t.links:
            obs = observed_speeds.get(lid)
            if obs is None:
                continue
            link = net.links[lid]
            seconds += max(0.0, link.length_m / obs - link.length_m / link.speed_mps)
    return seconds / 3600.0


def intersection_density(
    agg: AggregatedMobilityNetwork, net: RoadNetwork
) -> tuple[dict[NodeId, int], dict[int, float]]:
    """Active incident link count per node, plus its unit-mass histogram."""
    density = {nid: 0 for nid in net.nodes}
    for lid in agg.counts:
        link = net.links[lid]
        density[link.from_node] += 1
        density[link.to_node] += 1
    hist = Counter(density.values())
    total = sum(hist.values())
    histogram = {value: count / total for value, count in sorted(hist.items())}
    return density, histogram


def unchanged_single_count_od(
    raw: AggregatedMobilityNetwork,
    raw_ods: Mapping[int, tuple[LinkId, LinkId]],
    privatized: AggregatedMobilityNetwork,
    released: Mapping[int, LinkTrajectory],
) -> tuple[int, float]:
    """Count raw single-count endpoint links surviving privatization.

    ``raw_ods`` and ``released`` are keyed by corpus position; a trip
    missing from ``released`` was dropped.  A link counts as unchanged when
    it was the origin or destination link of a trip with a raw count of
    one, and after privatization it is still that trip's endpoint link
    with a count of one.  The ratio is the privatized fraction,
    1 - unchanged/total (1.0 when there was nothing to privatize).
    """
    if raw.window != privatized.window:
        raise WindowMismatchError(
            f"raw window {raw.window} != privatized window {privatized.window}"
        )
    single = {
        lid
        for od in raw_ods.values()
        for lid in od
        if raw.counts.get(lid) == 1
    }
    unchanged = set()
    for trip, (o_link, d_link) in raw_ods.items():
        t = released.get(trip)
        if t is None:
            continue
        for old, new in ((o_link, t.links[0]), (d_link, t.links[-1])):
            if old in single and new == old and privatized.counts.get(old) == 1:
                unchanged.add(old)
    total = len(single)
    ratio = 1.0 - len(unchanged) / total if total else 1.0
    return len(unchanged), ratio


def compare(
    gps_corpus: Sequence[GpsTrajectory],
    net: RoadNetwork,
    cfg: PrivacyConfig,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    models: Sequence[str] = DEFAULT_MODELS,
    match_cfg: MatchConfig = MatchConfig(),
    window: Window | None = None,
) -> list[dict]:
    """Run every requested model and emit one metrics row per run.

    Every model sees the matched trips inside ``window``; each of them is
    matched once, and trips outside it are never matched.  Removal-style
    models and the raw reference run once; the adaptive-noise model draws
    once per epsilon from one shared plan.  An empty or unknown model
    list, a bad epsilon, and no epsilons for the adaptive-noise model are
    rejected before any matching.  Rows are dictionaries keyed by
    COMPARE_COLUMNS; ``epsilon`` is None for epsilon-independent models,
    and ``trips_excluded`` counts every trip of ``gps_corpus`` that the row
    does not release, those outside the window included.
    """
    if not models:
        raise ValueError("no models requested")
    unknown = set(models) - set(DEFAULT_MODELS)
    if unknown:
        raise ValueError(f"unknown models: {sorted(unknown)}")
    if SOURCE_DP_ANI in models and not epsilons:
        raise ValueError(f"model {SOURCE_DP_ANI} needs at least one epsilon")
    for eps in epsilons:
        validate_epsilon(eps)

    raw_trips, left_out = match_window(gps_corpus, net, match_cfg, window)
    raw_agg = aggregate(list(raw_trips.values()), window=window)
    raw_ods = {i: (t.links[0], t.links[-1]) for i, t in raw_trips.items()}

    def releases():
        """(model, epsilon, released trips keyed by corpus position)."""
        for model in models:
            if model == MODEL_RAW:
                yield model, None, raw_trips
            elif model in _BASELINES:
                aligned = _BASELINES[model](list(raw_trips.values()))
                yield model, None, {i: t for i, t in zip(raw_trips, aligned) if t is not None}
            else:  # adaptive noise: one plan, one draw per epsilon
                plan = _plan(gps_corpus, net, cfg, raw_trips, left_out)
                for eps in epsilons:
                    yield model, eps, privatize_trajectories(plan, net, eps)[0]

    rows = []
    for model, epsilon, released in releases():
        corpus = list(released.values())
        agg = aggregate(corpus, window=window, source=model)
        unchanged, ratio = unchanged_single_count_od(raw_agg, raw_ods, agg, released)
        rows.append({
            "model": model,
            "epsilon": epsilon,
            "network_length_mi": network_length(agg, net),
            "vmt_mi": vmt(corpus, net),
            "vht_h": vht(corpus, net),
            "vhd_h": vhd(corpus, net),
            "unchanged_slc_od": unchanged,
            "privatized_ratio": ratio,
            "trips_excluded": len(gps_corpus) - len(released),
        })
    return rows
