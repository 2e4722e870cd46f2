"""Shared builders for small deterministic test networks and trips."""

from __future__ import annotations

import math
import os
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import dpmobility
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
            lanes=attrs.get("lanes", 1),
        )
    return RoadNetwork(nodes, links)


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
