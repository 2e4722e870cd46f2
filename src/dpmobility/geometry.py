"""Geodesic and local planar geometry shared by the spatial modules.

All distances are meters on a 6,371 km sphere.  Nearby points are compared
in a local equirectangular frame anchored at a per-query reference point;
at the buffer scales this pipeline works with (tens of meters up to a few
kilometres) the approximation is sub-meter, so no projection library is
needed.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DisplacementRangeError

EARTH_RADIUS_M = 6_371_000.0

# Displacements beyond this are rejected: the flat-frame approximation
# degrades, and no buffer radius in this pipeline comes anywhere close.
MAX_DISPLACEMENT_M = 100_000.0


class GeoPoint(NamedTuple):
    """Latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float


class PlanarPoint(NamedTuple):
    """Point in a local east/north frame (meters) around an anchor."""

    x: float
    y: float
    anchor: GeoPoint


def validate_geopoint(p: GeoPoint) -> GeoPoint:
    """Raise ValueError unless both coordinates are finite and in range."""
    if not (math.isfinite(p.lat) and math.isfinite(p.lon)):
        raise ValueError(f"non-finite coordinate: {p!r}")
    if not (-90.0 <= p.lat <= 90.0):
        raise ValueError(f"latitude out of range: {p.lat}")
    if not (-180.0 <= p.lon <= 180.0):
        raise ValueError(f"longitude out of range: {p.lon}")
    return p


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters.

    Symmetric, non-negative, and exact on the sphere for any separation.
    """
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def project(p: GeoPoint, anchor: GeoPoint) -> PlanarPoint:
    """Equirectangular projection of ``p`` into the frame around ``anchor``.

    x grows east, y grows north.
    """
    x = EARTH_RADIUS_M * math.radians(p.lon - anchor.lon) * math.cos(math.radians(anchor.lat))
    y = EARTH_RADIUS_M * math.radians(p.lat - anchor.lat)
    return PlanarPoint(x, y, anchor)


def project_batch(lats, lons, anchor: GeoPoint) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`project`; returns (x, y) arrays in meters."""
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    x = EARTH_RADIUS_M * np.radians(lons - anchor.lon) * math.cos(math.radians(anchor.lat))
    y = EARTH_RADIUS_M * np.radians(lats - anchor.lat)
    return x, y


def displace_batch(origin: GeoPoint, r, theta) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`displace` without the range check.

    Returns (lat, lon) arrays for moves of ``r`` meters at angle ``theta``
    (radians, counterclockwise from east) away from ``origin``.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dx = r * np.cos(theta)
    dy = r * np.sin(theta)
    lat = origin.lat + np.degrees(dy / EARTH_RADIUS_M)
    # Scaling east displacement at the mid-latitude of the move keeps the
    # round-trip distance error well inside the 0.1% contract at 10 km.
    mid = np.radians(0.5 * (origin.lat + lat))
    lon = origin.lon + np.degrees(dx / (EARTH_RADIUS_M * np.cos(mid)))
    return lat, lon


def displace(origin: GeoPoint, r: float, theta: float) -> GeoPoint:
    """Move ``r`` meters from ``origin`` along bearing ``theta``.

    ``theta`` is measured counterclockwise from east, in radians.  Raises
    :class:`DisplacementRangeError` for moves over 100 km, ValueError for
    negative ``r``.
    """
    if r < 0.0:
        raise ValueError(f"negative displacement: {r}")
    if r > MAX_DISPLACEMENT_M:
        raise DisplacementRangeError(
            f"displacement {r:.0f} m exceeds local-frame limit {MAX_DISPLACEMENT_M:.0f} m"
        )
    lat, lon = displace_batch(origin, r, theta)
    return GeoPoint(float(lat), float(lon))


def point_to_segment(
    p: PlanarPoint, a: PlanarPoint, b: PlanarPoint
) -> tuple[float, PlanarPoint]:
    """Distance from ``p`` to segment ``a``-``b`` and the closest point on it.

    Degenerate segments (``a == b``) are allowed and reduce to the point
    distance.
    """
    ax, ay = a.x, a.y
    vx, vy = b.x - ax, b.y - ay
    wx, wy = p.x - ax, p.y - ay
    vv = vx * vx + vy * vy
    if vv <= 0.0:
        t = 0.0
    else:
        t = min(1.0, max(0.0, (wx * vx + wy * vy) / vv))
    cx = ax + t * vx
    cy = ay + t * vy
    return math.hypot(p.x - cx, p.y - cy), PlanarPoint(cx, cy, a.anchor)


def fold_sum(values: Iterable[float]) -> float:
    """``values`` added one at a time, left to right, from 0.0.

    Builtin ``sum`` compensates float rounding since Python 3.12, so its
    float result depends on the interpreter; this fold gives the bits of
    3.10 and 3.11 on every version.
    """
    return functools.reduce(operator.add, values, 0.0)
