"""GPS sample streams, trip segmentation, link trajectories, and the
release window.

:class:`Window` is the only place a trip meets the local clock: it reads
the origin timestamp at its own UTC offset.  A matched
:class:`LinkTrajectory` carries no time at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Sequence

from .geometry import GeoPoint, validate_geopoint
from .network import LinkId

DEFAULT_TRIP_GAP_S = 300.0
# Dataset region default; day-of-week boundaries follow this offset.
DEFAULT_UTC_OFFSET_H = -8.0

WEEKDAY_LABELS = ("M", "T", "W", "Th", "F", "Sa", "Su")


@dataclass(frozen=True)
class GpsSample:
    """One positioning fix from one device."""

    device: str
    t: float  # UTC epoch seconds
    point: GeoPoint

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"non-finite timestamp: {self.t}")
        validate_geopoint(self.point)


@dataclass(frozen=True)
class GpsTrajectory:
    """Time-ordered samples of a single trip; first sample is the origin,
    last sample is the destination."""

    device: str
    samples: tuple[GpsSample, ...]

    def __post_init__(self):
        if len(self.samples) < 2:
            raise ValueError("a trip needs at least 2 samples")
        for a, b in zip(self.samples, self.samples[1:]):
            if not (b.t > a.t):
                raise ValueError("timestamps must be strictly increasing")
        for s in self.samples:
            if s.device != self.device:
                raise ValueError("mixed devices within one trip")

    @property
    def origin(self) -> GeoPoint:
        return self.samples[0].point

    @property
    def destination(self) -> GeoPoint:
        return self.samples[-1].point


@dataclass(frozen=True)
class LinkTrajectory:
    """Ordered, connected link sequence for one trip."""

    device: str
    links: tuple[LinkId, ...]

    def __post_init__(self):
        if len(self.links) < 1:
            raise ValueError("a link trajectory needs at least 1 link")


def validate_trip_gap(gap_s: float) -> None:
    """Raise ValueError unless ``gap_s`` is a finite, positive number of seconds."""
    if not (0.0 < gap_s < math.inf):
        raise ValueError(f"trip gap must be finite and positive: {gap_s}")


def split_trips(
    stream: Iterable[GpsSample], gap_s: float = DEFAULT_TRIP_GAP_S
) -> list[GpsTrajectory]:
    """Cut one device's time-ordered sample stream into trips.

    A new trip starts whenever the inter-sample gap exceeds ``gap_s``.
    Trips with fewer than 2 samples are dropped; samples repeating the
    previous timestamp are discarded.  Raises ValueError unless ``gap_s``
    is finite and positive.
    """
    validate_trip_gap(gap_s)
    trips: list[GpsTrajectory] = []
    run: list[GpsSample] = []
    for s in stream:
        if run:
            if s.t < run[-1].t:
                raise ValueError("sample stream is not time-ordered")
            if s.t == run[-1].t:
                continue
            if s.t - run[-1].t > gap_s:
                if len(run) >= 2:
                    trips.append(GpsTrajectory(run[0].device, tuple(run)))
                run = []
        run.append(s)
    if len(run) >= 2:
        trips.append(GpsTrajectory(run[0].device, tuple(run)))
    return trips


def local_day_hour(t: float, utc_offset_hours: float = DEFAULT_UTC_OFFSET_H) -> tuple[date, int]:
    """Calendar date and hour-of-day of epoch second ``t`` at a fixed offset."""
    tz = timezone(timedelta(hours=utc_offset_hours))
    dt = datetime.fromtimestamp(t, tz)
    return dt.date(), dt.hour


def weekday_label(d: date) -> str:
    return WEEKDAY_LABELS[d.weekday()]


@dataclass(frozen=True)
class Window:
    """Half-open local hour range plus weekday labels; a GPS trip is inside
    when its origin timestamp, read at ``utc_offset_hours``, falls in both.

    The offset must be finite and strictly inside (-24, 24) hours.
    """

    hours: tuple[int, int]
    days: frozenset[str]
    utc_offset_hours: float = DEFAULT_UTC_OFFSET_H

    def __post_init__(self):
        h0, h1 = self.hours
        if not (0 <= h0 < h1 <= 24):
            raise ValueError(f"invalid hour window: {self.hours}")
        bad = set(self.days) - set(WEEKDAY_LABELS)
        if bad:
            raise ValueError(f"unknown weekday labels: {sorted(bad)}")
        if not (-24.0 < self.utc_offset_hours < 24.0):
            raise ValueError(f"UTC offset must lie strictly inside (-24, 24) h: "
                             f"{self.utc_offset_hours}")

    def contains(self, trip: GpsTrajectory) -> bool:
        day, hour = local_day_hour(trip.samples[0].t, self.utc_offset_hours)
        return self.hours[0] <= hour < self.hours[1] and weekday_label(day) in self.days

    def label(self) -> str:
        return f"{self.hours[0]:02d}-{self.hours[1]:02d}/" + ",".join(sorted(self.days))


def window_filter(
    corpus: Sequence[GpsTrajectory],
    hour_window: tuple[int, int],
    days: frozenset[str] | set[str],
    utc_offset_hours: float = DEFAULT_UTC_OFFSET_H,
) -> list[GpsTrajectory]:
    """Keep the trips inside ``Window(hour_window, days, utc_offset_hours)``.
    Idempotent."""
    window = Window(tuple(hour_window), frozenset(days), utc_offset_hours)
    return [g for g in corpus if window.contains(g)]
