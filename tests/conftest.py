"""Shared builders for small deterministic test networks and trips."""

from __future__ import annotations

import itertools
import math
import os
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import dpmobility
import dpmobility.privatize as privatize_module
from dpmobility.geometry import EARTH_RADIUS_M, GeoPoint, haversine_distance
from dpmobility.network import Link, RoadNetwork
from dpmobility.synth import SynthCityConfig, generate_city
from dpmobility.trajectories import GpsSample, GpsTrajectory

BASE = GeoPoint(37.80, -122.30)


def offset_point(base: GeoPoint, east_m: float, north_m: float) -> GeoPoint:
    lat = base.lat + math.degrees(north_m / EARTH_RADIUS_M)
    lon = base.lon + math.degrees(
        east_m / (EARTH_RADIUS_M * math.cos(math.radians(base.lat)))
    )
    return GeoPoint(lat, lon)


def make_network(nodes_m: dict[str, tuple[float, float]],
                 edges: list[tuple[str, str, str] | tuple[str, str, str, dict]],
                 base: GeoPoint = BASE) -> RoadNetwork:
    """Network from planar offsets (meters) and (id, from, to[, attrs]) edges."""
    nodes = {nid: offset_point(base, x, y) for nid, (x, y) in nodes_m.items()}
    links = {}
    for edge in edges:
        lid, a, b = edge[:3]
        attrs = edge[3] if len(edge) > 3 else {}
        geometry = (nodes[a], nodes[b])
        links[lid] = Link(
            id=lid,
            from_node=a,
            to_node=b,
            geometry=geometry,
            length_m=attrs.get("length_m", haversine_distance(*geometry)),
            functional_class=attrs.get("fc", 4),
            speed_mps=attrs.get("speed_mps", 10.0),
        )
    return RoadNetwork(nodes, links)


def random_network(rng: np.random.Generator, n_nodes: int, base: GeoPoint,
                   span_m: float = 2000.0) -> RoadNetwork:
    """Random digraph: each node pair gets a link with probability 0.4,
    and that link a reverse with probability 0.7; random classes."""
    nodes_m = {
        f"n{i}": (float(rng.uniform(0, span_m)), float(rng.uniform(0, span_m)))
        for i in range(n_nodes)
    }
    edges = []
    k = 0
    for a, b in itertools.combinations(sorted(nodes_m), 2):
        if rng.random() < 0.4:
            edges.append((f"e{k:03d}", a, b, {"fc": int(rng.integers(1, 6))}))
            k += 1
            if rng.random() < 0.7:
                edges.append((f"e{k:03d}", b, a, {"fc": int(rng.integers(1, 6))}))
                k += 1
    if not edges:
        names = sorted(nodes_m)
        edges.append(("e000", names[0], names[1]))
    return make_network(nodes_m, edges, base)


def integer_length_network(rng: np.random.Generator, n_nodes: int) -> RoadNetwork:
    """Random digraph on a 100 m lattice whose links have whole-100 m lengths."""
    cells = rng.choice(16, size=n_nodes, replace=False)
    nodes_m = {f"n{i}": (100.0 * (c % 4), 100.0 * (c // 4)) for i, c in enumerate(cells)}
    points = {nid: offset_point(BASE, x, y) for nid, (x, y) in nodes_m.items()}
    edges = []
    for a, b in itertools.permutations(sorted(nodes_m), 2):
        if rng.random() < 0.45:
            chord = haversine_distance(points[a], points[b])
            length = 100.0 * (math.ceil(chord / 100.0) + int(rng.integers(0, 2)))
            edges.append((f"e{len(edges):03d}", a, b, {"length_m": length}))
    return make_network(nodes_m, edges)


def grid3x3(spacing: float = 100.0) -> RoadNetwork:
    return generate_city(SynthCityConfig(rows=3, cols=3, spacing_m=spacing, arterial_every=0))


def local_epoch(day_iso: str, hh: int = 13, mm: int = 30, utc_offset_hours: float = -8.0) -> float:
    tz = timezone(timedelta(hours=utc_offset_hours))
    return datetime.fromisoformat(f"{day_iso}T{hh:02d}:{mm:02d}:00").replace(tzinfo=tz).timestamp()


def trip_through_nodes(net: RoadNetwork, node_ids: list[str], day_iso: str,
                       device: str = "dev0", dt_s: float = 12.0,
                       hh: int = 13, mm: int = 30) -> GpsTrajectory:
    t0 = local_epoch(day_iso, hh, mm)
    samples = tuple(
        GpsSample(device=device, t=t0 + i * dt_s, point=net.nodes[n])
        for i, n in enumerate(node_ids)
    )
    return GpsTrajectory(device=device, samples=samples)


def trip_along_route(net: RoadNetwork, origin: str, destination: str, day_iso: str,
                     device: str = "dev0", hh: int = 13, mm: int = 30) -> GpsTrajectory:
    route = net.shortest_path(origin, destination)
    nodes = [origin] + [net.links[lid].to_node for lid in route]
    return trip_through_nodes(net, nodes, day_iso, device=device, hh=hh, mm=mm)


def child_env(**overrides: str) -> dict[str, str]:
    """Environment for a child interpreter that imports the dpmobility
    under test, also when it is found only through pytest's pythonpath."""
    env = dict(os.environ, **overrides)
    src = str(Path(dpmobility.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def city20() -> RoadNetwork:
    return generate_city(SynthCityConfig(rows=20, cols=20, spacing_m=100.0,
                                         arterial_every=5, seed=42))


@pytest.fixture
def match_calls(monkeypatch) -> list[GpsTrajectory]:
    """The GPS trips passed to ``match_corpus`` during the test, in call order."""
    calls: list[GpsTrajectory] = []
    real = privatize_module.match_corpus

    def counting(gps_corpus, *args, **kwargs):
        calls.extend(gps_corpus)
        return real(gps_corpus, *args, **kwargs)

    monkeypatch.setattr(privatize_module, "match_corpus", counting)
    return calls


@pytest.fixture
def measured_links(monkeypatch) -> list[list[int]]:
    """The link positions each ``RoadNetwork.link_distances`` call is
    handed during the test, in call order."""
    calls: list[list[int]] = []
    real = RoadNetwork.link_distances

    def recording(self, p, links):
        calls.append(links.tolist())
        return real(self, p, links)

    monkeypatch.setattr(RoadNetwork, "link_distances", recording)
    return calls
