"""The paper's pipeline written plainly: the oracle the tests hold every
stage of ``dpmobility`` to.

Nothing here indexes, memoizes or batches.  Snapping measures every node,
radius queries measure every link, routes come from a plain Dijkstra over
``net.links``, and a buffer grows by comparing one full set of link
distances with each probe.  Each rule the package promises is spelled out
once, with its tie-break and its float order:

* a sample snaps to the smallest ``(haversine distance, node id)`` within
  the snap radius;
* a route is the smallest ``(length folded from 0.0 in path order, link
  path)``;
* a noisy point snaps to the smallest ``(distance_to_link, link id)`` among
  its candidates, then to that link's end node with the smaller
  ``(haversine distance, node id)``;
* a fired end's noise comes from ``SeedRule(seed).generator(link, end)``:
  theta, then p; the radius is ``max(unit_radius(p) / eps, 0) * R``;
* VMT folds every traversal's length in corpus order, VHT adds one
  subtotal per trip, and network length adds each active link once, in
  the order the released trips first traverse it.

It shares only the package's record types and its exact primitives:
``haversine_distance``, the planar ``project`` and ``point_to_segment``,
``displace``, the seed derivation and the Lambert-W inverse CDF
(``laplace_uniforms``, ``unit_radius``, ``scale_radius``).
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from dpmobility.adaptive import BufferResult
from dpmobility.errors import DisplacementRangeError
from dpmobility.geometry import (EARTH_RADIUS_M, GeoPoint, PlanarPoint, displace,
                                 haversine_distance, point_to_segment, project)
from dpmobility.matching import MatchConfig
from dpmobility.noise import SeedRule, laplace_uniforms, scale_radius, unit_radius
from dpmobility.privatize import DESTINATION, ORIGIN, EndpointDecision, PrivacyConfig
from dpmobility.trajectories import LinkTrajectory, Window

MILE_M = 1609.344
WEEKDAYS = ("M", "T", "W", "Th", "F", "Sa", "Su")

# Fire reasons of an end: its in-window link count is 1, or (count above
# 1) its trip repeats a (device, origin link, destination link).
COUNT_1 = "count_1"
REPEATED_OD = "repeated_od"


# -- geometry ------------------------------------------------------------


def unproject(p: PlanarPoint) -> GeoPoint:
    """Algebraic inverse of ``geometry.project`` for the same anchor."""
    lat = p.anchor.lat + math.degrees(p.y / EARTH_RADIUS_M)
    lon = p.anchor.lon + math.degrees(
        p.x / (EARTH_RADIUS_M * math.cos(math.radians(p.anchor.lat)))
    )
    return GeoPoint(lat, lon)


def radial_cdf(epsilon: float, r):
    """CDF of the planar Laplace radial marginal: 1 - (1 + eps*r)*exp(-eps*r)."""
    er = epsilon * np.asarray(r, dtype=float)
    return 1.0 - (1.0 + er) * np.exp(-er)


# -- network -------------------------------------------------------------


def nearest_node(net, p: GeoPoint, within: float):
    """The node with the smallest ``(distance, id)``; None past ``within``."""
    d, nid = min((haversine_distance(p, q), nid) for nid, q in net.nodes.items())
    return nid if d <= within else None


def distance_to_link(net, p: GeoPoint, lid: str) -> float:
    """Distance from ``p`` to the link's polyline: every vertex projected
    into ``p``'s own frame, the smallest segment distance."""
    origin = PlanarPoint(0.0, 0.0, p)
    pts = [project(g, p) for g in net.links[lid].geometry]
    return min(point_to_segment(origin, a, b)[0] for a, b in zip(pts, pts[1:]))


def within(net, center: GeoPoint, radius: float) -> set[str]:
    """Every link whose geometry comes within ``radius`` of ``center``."""
    return {lid for lid in net.links if distance_to_link(net, center, lid) <= radius}


def path_length(net, path) -> float:
    """Length of a link path, added in path order from 0.0."""
    return functools.reduce(lambda acc, lid: acc + net.links[lid].length_m, path, 0.0)


def is_connected(net, links) -> bool:
    return all(net.links[a].to_node == net.links[b].from_node for a, b in zip(links, links[1:]))


def shortest_path(net, source: str, target: str) -> list[str] | None:
    """Dijkstra over ``(length, link path)``; ``[]`` from a node to itself,
    None when ``target`` cannot be reached."""
    out: dict[str, list[str]] = {}
    for lid, link in net.links.items():
        out.setdefault(link.from_node, []).append(lid)
    heap = [(0.0, (), source)]
    settled = set()
    while heap:
        dist, path, node = heapq.heappop(heap)
        if node == target:
            return list(path)
        if node in settled:
            continue
        settled.add(node)
        for lid in out.get(node, ()):
            link = net.links[lid]
            if link.to_node not in settled:
                heapq.heappush(heap, (dist + link.length_m, path + (lid,), link.to_node))
    return None


def simple_paths(net, source: str, target: str) -> list[list[str]]:
    """Every simple directed link path from ``source`` to ``target``, by
    exhaustive search; for tiny graphs only."""
    paths = []

    def walk(node, seen, acc):
        if node == target:
            paths.append(list(acc))
            return
        for lid, link in net.links.items():
            if link.from_node == node and link.to_node not in seen:
                seen.add(link.to_node)
                acc.append(lid)
                walk(link.to_node, seen, acc)
                acc.pop()
                seen.remove(link.to_node)

    walk(source, {source}, [])
    return paths


# -- matching --------------------------------------------------------------


def in_window(window: Window | None, g) -> bool:
    """Whether the trip's first sample, read at the window's UTC offset,
    falls in its hours and on one of its weekdays."""
    if window is None:
        return True
    local = datetime.fromtimestamp(g.samples[0].t, timezone(timedelta(hours=window.utc_offset_hours)))
    return (window.hours[0] <= local.hour < window.hours[1]
            and WEEKDAYS[local.weekday()] in window.days)


def match(net, g, cfg: MatchConfig = MatchConfig()) -> LinkTrajectory | None:
    """One GPS trip's link trajectory, or None where it is unmatchable.

    Each sample snaps alone.  More than ``max_node_skip`` misses in a row,
    fewer than two snapped samples, a trip that stays on one node, or a leg
    without a path make it unmatchable.  Repeated nodes, then repeated
    links, collapse.
    """
    nodes: list[str] = []
    snapped = misses = 0
    for s in g.samples:
        node = nearest_node(net, s.point, cfg.snap_radius_m)
        if node is None:
            misses += 1
            if misses > cfg.max_node_skip:
                return None
            continue
        misses = 0
        snapped += 1
        if not nodes or nodes[-1] != node:
            nodes.append(node)
    if snapped < 2 or len(nodes) < 2:
        return None
    links: list[str] = []
    for a, b in zip(nodes, nodes[1:]):
        leg = shortest_path(net, a, b)
        if leg is None:
            return None
        for lid in leg:
            if not links or links[-1] != lid:
                links.append(lid)
    return LinkTrajectory(g.device, tuple(links))


# -- counting and the fire rule -----------------------------------------------


def link_counts(corpus) -> dict[str, int]:
    """Traversals per link, every repeat inside a trip included."""
    counts: dict[str, int] = {}
    for trip in corpus:
        for lid in trip.links:
            counts[lid] = counts.get(lid, 0) + 1
    return counts


def repeated_od(corpus) -> set[int]:
    """Positions of the trips sharing (device, origin link, destination
    link) with another trip; None entries are skipped."""
    flagged = set()
    for i, a in enumerate(corpus):
        for j, b in enumerate(corpus):
            if i != j and a is not None and b is not None and \
                    (a.device, a.links[0], a.links[-1]) == (b.device, b.links[0], b.links[-1]):
                flagged.add(i)
    return flagged


# -- perturbation ---------------------------------------------------------------


def final_buffer(net, point: GeoPoint, fc: int, h1: int, h2: int,
                 initial_buffer_m: float = 20.0, step_m: float = 10.0,
                 max_buffer_m: float = 5000.0) -> BufferResult | None:
    """The first probed buffer holding more than ``h1`` links and more
    than ``h2`` links of class ``fc``; None where the cap comes first.
    Every link is measured once, then each probe compares."""
    distance = {lid: distance_to_link(net, point, lid) for lid in net.links}
    z, iterations = initial_buffer_m, 0
    while z <= max_buffer_m:
        iterations += 1
        inside = [lid for lid, d in distance.items() if d <= z]
        same_class = frozenset(lid for lid in inside if net.links[lid].functional_class == fc)
        if len(inside) > h1 and len(same_class) > h2:
            return BufferResult(z / 2.0, same_class, iterations)
        z += step_m
    return None


def noisy_point(point: GeoPoint, radius_m: float, seed: int, link: str, end: str,
                epsilon: float) -> GeoPoint:
    """The end's planar Laplace point; raises DisplacementRangeError past
    ``geometry.MAX_DISPLACEMENT_M``."""
    theta, p = laplace_uniforms(SeedRule(seed).generator(link, end))
    r = float(scale_radius(unit_radius(p), epsilon)) * radius_m
    return displace(point, r, theta)


def snap_noisy(net, z: GeoPoint, candidates) -> tuple[str, str]:
    """(candidate link, its end node) the noisy point ``z`` snaps to."""
    _, lid = min((distance_to_link(net, z, c), c) for c in candidates)
    link = net.links[lid]
    _, node = min((haversine_distance(z, net.nodes[n]), n) for n in (link.from_node, link.to_node))
    return lid, node


def rebuild(net, links: tuple[str, ...], new_origin: str | None,
            new_destination: str | None) -> tuple[str, ...] | None:
    """The trip re-routed from ``new_origin`` into the head node of its
    first link, and from the tail node of its last link to
    ``new_destination``, interior links kept; a one-link trip is routed
    between its new ends (or from the new origin to the link's head, or
    from its tail to the new destination).  None where a route is missing
    or nothing is left."""
    if new_origin is None and new_destination is None:
        return links
    head = net.links[links[0]].to_node
    tail = net.links[links[-1]].from_node
    if len(links) == 1:
        route = shortest_path(net, new_origin if new_origin is not None else tail,
                              new_destination if new_destination is not None else head)
        return tuple(route) if route else None
    prefix = [links[0]] if new_origin is None else shortest_path(net, new_origin, head)
    suffix = [links[-1]] if new_destination is None else shortest_path(net, tail, new_destination)
    if prefix is None or suffix is None:
        return None
    return tuple(prefix) + links[1:-1] + tuple(suffix) or None


# -- releases ----------------------------------------------------------------------


@dataclass
class Release:
    """What one draw releases, keyed like the package's report."""

    trips_in: int
    released: dict[int, LinkTrajectory]
    counts: dict[str, int]
    decisions: list[EndpointDecision]
    excluded: dict[str, int]
    endpoints_perturbed: int
    endpoints_unchanged_single_count: int
    fire_reasons: set[str]

    @property
    def trips_out(self) -> int:
        return len(self.released)


def matched_in_window(gps_corpus, net, match_cfg: MatchConfig, window: Window | None):
    """The in-window trips that match, by corpus position, and how many
    trips were left out as ``out_of_window`` and ``unmatchable``."""
    causes: Counter[str] = Counter()
    trips: dict[int, LinkTrajectory] = {}
    for i, g in enumerate(gps_corpus):
        if not in_window(window, g):
            causes["out_of_window"] += 1
            continue
        trip = match(net, g, match_cfg)
        if trip is None:
            causes["unmatchable"] += 1
        else:
            trips[i] = trip
    return trips, causes


def release(gps_corpus, net, cfg: PrivacyConfig, epsilon: float,
            match_cfg: MatchConfig = MatchConfig(), window: Window | None = None) -> Release:
    """One release of the trips of ``gps_corpus`` inside ``window``."""
    trips, causes = matched_in_window(gps_corpus, net, match_cfg, window)
    return _draw(gps_corpus, net, cfg, epsilon, trips, causes)


def _draw(gps_corpus, net, cfg, epsilon, trips, causes) -> Release:
    """The release of the matched in-window ``trips``: fire, size buffers,
    draw, snap, re-route and count.  ``causes`` counts the trips already
    left out."""
    counts = link_counts(trips.values())
    repeated = repeated_od([trips.get(i) for i in range(len(gps_corpus))])
    causes = Counter(causes)
    released: dict[int, LinkTrajectory] = {}
    decisions: list[EndpointDecision] = []
    reasons: set[str] = set()

    kept = {}  # trip position -> {end: (link, point, buffer)} of its fired ends
    for i, trip in trips.items():
        g = gps_corpus[i]
        ends = {}
        for end, link, point in ((ORIGIN, trip.links[0], g.samples[0].point),
                                 (DESTINATION, trip.links[-1], g.samples[-1].point)):
            if counts[link] == 1 or i in repeated:
                ends[end] = (link, point, final_buffer(
                    net, point, net.links[link].functional_class, cfg.h1, cfg.h2,
                    cfg.initial_buffer_m, cfg.buffer_step_m, cfg.max_buffer_m))
                reasons.add(COUNT_1 if counts[link] == 1 else REPEATED_OD)
        if any(buffer is None for _, _, buffer in ends.values()):
            causes["sparse_network"] += 1
        else:
            kept[i] = ends

    for i, ends in kept.items():
        trip = trips[i]
        snaps = {}
        try:
            for end, (link, point, buffer) in ends.items():
                z = noisy_point(point, buffer.radius_m, cfg.global_seed, link, end, epsilon)
                snaps[end] = snap_noisy(net, z, buffer.buffer_set_fc)
        except DisplacementRangeError:
            causes["noise_out_of_range"] += 1
            continue
        links = rebuild(net, trip.links, *(snaps[e][1] if e in snaps else None
                                          for e in (ORIGIN, DESTINATION)))
        if links is None:
            causes["unmatchable_rebuild"] += 1
            continue
        released[i] = LinkTrajectory(trip.device, links)
        for end, original, new in ((ORIGIN, trip.links[0], links[0]),
                                   (DESTINATION, trip.links[-1], links[-1])):
            fired = ends.get(end)
            decisions.append(EndpointDecision(
                i, end, original, fired is not None, snaps[end][0] if fired else None,
                new, fired[2].radius_m if fired else None,
            ))

    new_counts = link_counts(released.values())
    perturbed = [d for d in decisions if d.perturbed]
    return Release(
        trips_in=len(gps_corpus),
        released=released,
        counts=new_counts,
        decisions=decisions,
        excluded={cause: n for cause, n in causes.items() if n},
        endpoints_perturbed=len(perturbed),
        endpoints_unchanged_single_count=sum(
            counts.get(d.original_link) == 1 and d.new_link == d.original_link
            and new_counts.get(d.original_link) == 1
            for d in perturbed
        ),
        fire_reasons=reasons,
    )


# -- removal baselines ------------------------------------------------------------


def trip_remove(corpus) -> list[LinkTrajectory | None]:
    """Each trip, or None where its first or last link is traversed once."""
    counts = link_counts(corpus)
    return [None if 1 in (counts[t.links[0]], counts[t.links[-1]]) else t for t in corpus]


def od_remove(corpus) -> list[LinkTrajectory | None]:
    """Each trip without its first and last link where those are
    traversed once; None where nothing is left."""
    counts = link_counts(corpus)
    out = []
    for t in corpus:
        links = list(t.links)
        if counts[links[0]] == 1:
            links = links[1:]
        if links and counts[links[-1]] == 1:
            links = links[:-1]
        out.append(LinkTrajectory(t.device, tuple(links)) if links else None)
    return out


def od_successive(corpus) -> list[LinkTrajectory | None]:
    """Each trip without the runs of links traversed once at either end;
    None where nothing is left."""
    counts = link_counts(corpus)
    out = []
    for t in corpus:
        links = list(t.links)
        while links and counts[links[0]] == 1:
            links = links[1:]
        while links and counts[links[-1]] == 1:
            links = links[:-1]
        out.append(LinkTrajectory(t.device, tuple(links)) if links else None)
    return out


BASELINES = {"trip-remove": trip_remove, "od-remove": od_remove, "od-successive": od_successive}


# -- metrics ------------------------------------------------------------------------


def utility(net, corpus) -> dict[str, float]:
    """Network length, VMT, VHT and VHD of a released corpus."""
    active: dict[str, None] = {}
    meters = 0.0
    seconds = 0.0
    for t in corpus:
        trip_seconds = 0.0
        for lid in t.links:
            link = net.links[lid]
            active.setdefault(lid)
            meters += link.length_m
            trip_seconds += link.length_m / link.speed_mps
        seconds += trip_seconds
    return {
        "network_length_mi": path_length(net, active) / MILE_M,
        "vmt_mi": meters / MILE_M,
        "vht_h": seconds / 3600.0,
        "vhd_h": 0.0,
    }


def unchanged_single_count_od(raw: dict[int, LinkTrajectory],
                              released: dict[int, LinkTrajectory]) -> tuple[int, float]:
    """Distinct single-count raw end links that a released trip still
    ends on with a count of 1, and the privatized ratio."""
    raw_counts = link_counts(raw.values())
    counts = link_counts(released.values())
    single = {lid for t in raw.values() for lid in (t.links[0], t.links[-1])
              if raw_counts[lid] == 1}
    unchanged = set()
    for i, t in released.items():
        for old, new in ((raw[i].links[0], t.links[0]), (raw[i].links[-1], t.links[-1])):
            if old in single and new == old and counts[old] == 1:
                unchanged.add(old)
    return len(unchanged), (1.0 - len(unchanged) / len(single) if single else 1.0)


def compare_rows(gps_corpus, net, cfg: PrivacyConfig, epsilons, models,
                 match_cfg: MatchConfig = MatchConfig(), window: Window | None = None
                 ) -> list[dict]:
    """One metrics row per model (``raw``, ``dp-ani`` once per epsilon, or
    a key of ``BASELINES``), in the order asked for."""
    raw, causes = matched_in_window(gps_corpus, net, match_cfg, window)
    rows = []

    def row(model, epsilon, released):
        unchanged, ratio = unchanged_single_count_od(raw, released)
        rows.append({
            "model": model,
            "epsilon": epsilon,
            **utility(net, released.values()),
            "unchanged_slc_od": unchanged,
            "privatized_ratio": ratio,
            "trips_excluded": len(gps_corpus) - len(released),
        })

    for model in models:
        if model == "raw":
            row(model, None, raw)
        elif model == "dp-ani":
            for eps in epsilons:
                row(model, eps, _draw(gps_corpus, net, cfg, eps, raw, causes).released)
        else:
            kept = BASELINES[model](list(raw.values()))
            row(model, None, {i: t for i, t in zip(raw, kept) if t is not None})
    return rows
