"""Reproducible synthetic grid cities and trip corpora for experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

import numpy as np

from .errors import NoPathError
from .geometry import EARTH_RADIUS_M, GeoPoint, displace, haversine_distance
from .network import Link, LinkId, NodeId, RoadNetwork
from .trajectories import DEFAULT_UTC_OFFSET_H, GpsSample, GpsTrajectory, LinkTrajectory, Window

# Anchor of the generated grid; arbitrary mid-latitude location.
BASE_LAT = 37.80
BASE_LON = -122.30

ARTERIAL_CLASS = 2
ARTERIAL_SPEED_MPS = 18.0
STREET_CLASS = 4
STREET_SPEED_MPS = 11.0

# Scheduling keeps this much quiet time between a device's trips so that
# gap-based trip splitting reassembles the written corpus exactly.
_MIN_TRIP_SEPARATION_S = 310.0


@dataclass(frozen=True)
class SynthCityConfig:
    """Grid city layout: ``rows`` x ``cols`` nodes spaced ``spacing_m``
    apart, with every ``arterial_every``-th row/column line an arterial.

    ``seed`` changes nothing, because :func:`generate_city` draws nothing
    at random; it stays only while the benchmark's set-up passes it.
    """

    rows: int
    cols: int
    spacing_m: float = 100.0
    arterial_every: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid needs at least 2x2 nodes")
        if self.spacing_m <= 0.0:
            raise ValueError("spacing must be positive")


@dataclass(frozen=True)
class SynthTripConfig:
    """Trip corpus shape.

    ``n_trips`` trips are generated per day.  The first
    ``round(repeat_fraction * n_devices)`` devices are commuters: each
    takes one trip per day between a fixed endpoint pair drawn once.
    Remaining trips rotate through the other devices, endpoints
    Zipf-weighted over nodes so a popular core coexists with a long tail
    of rarely visited links.
    """

    n_trips: int
    n_devices: int
    days: tuple[date, ...]
    hour_window: tuple[int, int] = (13, 14)
    od_popularity_alpha: float = 1.0
    gps_interval_s: float = 30.0
    jitter_sigma_m: float = 5.0
    repeat_fraction: float = 0.0
    seed: int = 0
    utc_offset_hours: float = DEFAULT_UTC_OFFSET_H

    def __post_init__(self):
        if self.n_trips < 1:
            raise ValueError("n_trips must be >= 1")
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if not self.days:
            raise ValueError("at least one day is required")
        if self.jitter_sigma_m < 0.0:
            raise ValueError("jitter must be >= 0")
        if not (0.0 <= self.repeat_fraction <= 1.0):
            raise ValueError("repeat_fraction must lie in [0, 1]")
        if self.gps_interval_s <= 0.0:
            raise ValueError("gps interval must be positive")
        Window(self.hour_window, frozenset(), self.utc_offset_hours)  # checks hours and offset


def _node_id(r: int, c: int) -> NodeId:
    return f"n{r:03d}_{c:03d}"


def generate_city(cfg: SynthCityConfig) -> RoadNetwork:
    """Bidirectional grid digraph; each undirected street is two links."""
    dlat = math.degrees(cfg.spacing_m / EARTH_RADIUS_M)
    dlon = math.degrees(cfg.spacing_m / (EARTH_RADIUS_M * math.cos(math.radians(BASE_LAT))))
    nodes: dict[NodeId, GeoPoint] = {
        _node_id(r, c): GeoPoint(BASE_LAT + r * dlat, BASE_LON + c * dlon)
        for r in range(cfg.rows)
        for c in range(cfg.cols)
    }

    def is_arterial(line_index: int) -> bool:
        return cfg.arterial_every > 0 and line_index % cfg.arterial_every == 0

    links: dict[LinkId, Link] = {}

    def add_pair(a: NodeId, b: NodeId, arterial: bool) -> None:
        fc = ARTERIAL_CLASS if arterial else STREET_CLASS
        speed = ARTERIAL_SPEED_MPS if arterial else STREET_SPEED_MPS
        for u, v in ((a, b), (b, a)):
            lid = f"{u}>{v}"
            links[lid] = Link(
                id=lid,
                from_node=u,
                to_node=v,
                geometry=(nodes[u], nodes[v]),
                length_m=cfg.spacing_m,
                functional_class=fc,
                speed_mps=speed,
            )

    for r in range(cfg.rows):
        for c in range(cfg.cols):
            if c + 1 < cfg.cols:  # east-west street along row r
                add_pair(_node_id(r, c), _node_id(r, c + 1), is_arterial(r))
            if r + 1 < cfg.rows:  # north-south street along column c
                add_pair(_node_id(r, c), _node_id(r + 1, c), is_arterial(c))
    return RoadNetwork(nodes, links)


def _route_points(net: RoadNetwork, route: list[LinkId]) -> tuple[list[GeoPoint], list[float]]:
    """Polyline of a link route and cumulative arc length at each vertex."""
    pts: list[GeoPoint] = []
    cum: list[float] = []
    offset = 0.0
    for lid in route:
        link = net.links[lid]
        geom = link.geometry
        chords = [haversine_distance(a, b) for a, b in zip(geom, geom[1:])]
        total = sum(chords) or 1.0
        if not pts:
            pts.append(geom[0])
            cum.append(0.0)
        acc = 0.0
        for p, chord in zip(geom[1:], chords):
            acc += chord
            pts.append(p)
            cum.append(offset + link.length_m * acc / total)
        offset += link.length_m
    return pts, cum


def _interpolate(pts: list[GeoPoint], cum: list[float], s: float) -> GeoPoint:
    if s <= 0.0:
        return pts[0]
    if s >= cum[-1]:
        return pts[-1]
    hi = next(i for i, c in enumerate(cum) if c >= s)
    lo = hi - 1
    span = cum[hi] - cum[lo]
    f = (s - cum[lo]) / span if span > 0 else 0.0
    a, b = pts[lo], pts[hi]
    return GeoPoint(a.lat + f * (b.lat - a.lat), a.lon + f * (b.lon - a.lon))


def _local_midnight_epoch(day: date, utc_offset_hours: float) -> float:
    tz = timezone(timedelta(hours=utc_offset_hours))
    return datetime(day.year, day.month, day.day, tzinfo=tz).timestamp()


def generate_trips(
    net: RoadNetwork, cfg: SynthTripConfig
) -> tuple[list[GpsTrajectory], list[LinkTrajectory]]:
    """Generate a GPS corpus and its ground-truth link corpus.

    Routes are shortest paths between the drawn endpoints, sampled at
    free-flow pace every ``gps_interval_s`` seconds with isotropic Gaussian
    position jitter.  Fully deterministic in ``cfg.seed``.
    """
    node_ids = sorted(net.nodes)
    ranks = np.arange(1, len(node_ids) + 1, dtype=float)
    weights = ranks ** -cfg.od_popularity_alpha
    probs = weights / weights.sum()

    def draw_od(rng: np.random.Generator) -> tuple[NodeId, NodeId]:
        for _ in range(64):
            o, d = rng.choice(len(node_ids), size=2, p=probs)
            if o == d:
                continue
            try:
                net.shortest_path(node_ids[o], node_ids[d])
            except NoPathError:
                continue
            return node_ids[o], node_ids[d]
        raise RuntimeError("could not draw a routable endpoint pair")

    devices = [f"d{j:04d}" for j in range(cfg.n_devices)]
    n_repeat = min(round(cfg.repeat_fraction * cfg.n_devices), cfg.n_trips)
    repeat_devices = devices[:n_repeat]
    pool = devices[n_repeat:] or devices

    od_rng = np.random.default_rng([cfg.seed, 1])
    repeat_od = {dev: draw_od(od_rng) for dev in repeat_devices}

    gps_corpus: list[GpsTrajectory] = []
    truth: list[LinkTrajectory] = []
    window_start = cfg.hour_window[0] * 3600.0
    window_len = (cfg.hour_window[1] - cfg.hour_window[0]) * 3600.0

    for day_idx, day in enumerate(cfg.days):
        day_rng = np.random.default_rng([cfg.seed, 2, day_idx])
        plan: list[tuple[str, NodeId, NodeId]] = [
            (dev, *repeat_od[dev]) for dev in repeat_devices
        ]
        rotation = int(day_rng.integers(len(pool)))
        for j in range(cfg.n_trips - n_repeat):
            dev = pool[(rotation + j) % len(pool)]
            o, d = draw_od(day_rng)
            plan.append((dev, o, d))

        routes = [net.shortest_path(o, d) for _, o, d in plan]
        durations = [
            sum(net.links[lid].length_m / net.links[lid].speed_mps for lid in route)
            for route in routes
        ]

        # One slot per trip and device; start jitter leaves room for the
        # trip plus a quiet margin so ingestion re-splits trips exactly.
        per_device: dict[str, list[int]] = {}
        for k, (dev, _, _) in enumerate(plan):
            per_device.setdefault(dev, []).append(k)
        starts: dict[int, float] = {}
        for dev, ks in per_device.items():
            slot = window_len / len(ks)
            for j, k in enumerate(ks):
                free = slot - durations[k] - _MIN_TRIP_SEPARATION_S
                jitter_s = float(day_rng.uniform(0.0, max(free, 1.0)))
                starts[k] = window_start + j * slot + jitter_s

        midnight = _local_midnight_epoch(day, cfg.utc_offset_hours)
        for k, (dev, o, d) in enumerate(plan):
            trip_rng = np.random.default_rng([cfg.seed, 3, day_idx, k])
            route = routes[k]
            pts, cum = _route_points(net, route)
            link_durations = [
                net.links[lid].length_m / net.links[lid].speed_mps for lid in route
            ]
            total_time = durations[k]

            times = [0.0]
            while times[-1] + cfg.gps_interval_s < total_time:
                times.append(times[-1] + cfg.gps_interval_s)
            if total_time - times[-1] >= 0.01:
                times.append(total_time)
            else:
                times[-1] = total_time

            t0 = midnight + starts[k]
            samples = []
            for tau in times:
                s = 0.0
                remaining = tau
                for lid, dur in zip(route, link_durations):
                    if remaining >= dur:
                        s += net.links[lid].length_m
                        remaining -= dur
                    else:
                        s += net.links[lid].length_m * remaining / dur
                        break
                point = _interpolate(pts, cum, s)
                if cfg.jitter_sigma_m > 0.0:
                    dx, dy = trip_rng.normal(0.0, cfg.jitter_sigma_m, size=2)
                    point = displace(point, math.hypot(dx, dy), math.atan2(dy, dx))
                samples.append(GpsSample(device=dev, t=round(t0 + tau, 3), point=point))
            gps_corpus.append(GpsTrajectory(device=dev, samples=tuple(samples)))
            truth.append(LinkTrajectory(device=dev, links=tuple(route)))
    return gps_corpus, truth
