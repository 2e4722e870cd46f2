import math
from collections import Counter
from dataclasses import fields
from datetime import date

import pytest

from dpmobility.formats import load_trips_csv
from dpmobility.geometry import GeoPoint
from dpmobility.trajectories import (
    GpsSample,
    GpsTrajectory,
    LinkTrajectory,
    Window,
    local_day_hour,
    split_trips,
    weekday_label,
    window_filter,
)

from conftest import grid3x3, local_epoch, trip_through_nodes


def samples_with_gaps(gaps: list[float], device: str = "d1") -> list[GpsSample]:
    t = 1_700_000_000.0
    out = [GpsSample(device=device, t=t, point=GeoPoint(37.8, -122.3))]
    for g in gaps:
        t += g
        out.append(GpsSample(device=device, t=t, point=GeoPoint(37.8, -122.3)))
    return out


class TestSplitTrips:
    def test_single_trip(self):
        trips = split_trips(samples_with_gaps([30.0] * 9))
        assert len(trips) == 1
        assert len(trips[0].samples) == 10

    def test_one_gap_over_threshold(self):
        trips = split_trips(samples_with_gaps([30, 30, 600, 30]))
        assert [len(t.samples) for t in trips] == [3, 2]

    def test_all_singletons_dropped(self):
        trips = split_trips(samples_with_gaps([600, 600, 600]))
        assert trips == []

    def test_partition_property(self):
        stream = samples_with_gaps([30, 30, 600, 30, 601, 10, 10, 800])
        trips = split_trips(stream)
        assert [len(t.samples) for t in trips] == [3, 2, 3]
        kept = [s for t in trips for s in t.samples]
        # trips plus dropped singletons partition the input sample multiset
        assert Counter(s.t for s in kept) <= Counter(s.t for s in stream)
        assert len(stream) - len(kept) == 1  # the trailing isolated sample

    def test_rejects_unordered(self):
        stream = samples_with_gaps([30, 30])
        with pytest.raises(ValueError):
            split_trips(list(reversed(stream)))

    @pytest.mark.parametrize("gap", [0.0, -5.0, float("nan"), float("inf")])
    def test_rejects_malformed_gap(self, gap):
        with pytest.raises(ValueError):
            split_trips(samples_with_gaps([30, 30]), gap)
        with pytest.raises(ValueError):
            split_trips([], gap)

    @pytest.mark.parametrize("gap", [-5.0, float("nan")])
    def test_loader_rejects_malformed_gap(self, tmp_path, gap):
        # Checked before any row is read, so even a file with no samples fails.
        path = tmp_path / "trips.csv"
        path.write_text("device_id,timestamp,lat,lon\n")
        with pytest.raises(ValueError):
            load_trips_csv(path, gap_s=gap)

    def test_duplicate_timestamp_dropped(self):
        stream = samples_with_gaps([30, 0, 30])
        trips = split_trips(stream)
        assert len(trips) == 1
        assert len(trips[0].samples) == 3


class TestTrajectoryInvariants:
    def test_requires_two_samples(self):
        s = samples_with_gaps([])
        with pytest.raises(ValueError):
            GpsTrajectory(device="d1", samples=tuple(s))

    def test_requires_increasing_time(self):
        s = samples_with_gaps([30.0])
        with pytest.raises(ValueError):
            GpsTrajectory(device="d1", samples=(s[1], s[0]))

    @pytest.mark.parametrize("trip_device, other", [("d1", 1), ("d1", 2), ("d2", None)],
                             ids=["second-sample", "last-sample", "trip-device"])
    def test_requires_one_device(self, trip_device, other):
        s = samples_with_gaps([30.0, 30.0])
        if other is not None:
            s[other] = GpsSample(device="d2", t=s[other].t, point=s[other].point)
        with pytest.raises(ValueError, match="mixed devices within one trip"):
            GpsTrajectory(device=trip_device, samples=tuple(s))

    def test_link_trajectory_needs_links(self):
        with pytest.raises(ValueError):
            LinkTrajectory(device="d", links=())

    def test_link_trajectory_carries_no_time(self):
        assert [f.name for f in fields(LinkTrajectory)] == ["device", "links"]


class TestLocalTime:
    def test_day_hour_at_offset(self):
        t = local_epoch("2026-01-06", 13, 30)  # a Tuesday
        day, hour = local_day_hour(t)
        assert day == date(2026, 1, 6)
        assert hour == 13

    def test_weekday_labels(self):
        assert weekday_label(date(2026, 1, 5)) == "M"
        assert weekday_label(date(2026, 1, 6)) == "T"
        assert weekday_label(date(2026, 1, 7)) == "W"
        assert weekday_label(date(2026, 1, 8)) == "Th"
        assert weekday_label(date(2026, 1, 9)) == "F"
        assert weekday_label(date(2026, 1, 10)) == "Sa"
        assert weekday_label(date(2026, 1, 11)) == "Su"


class TestWindowFilter:
    def corpus(self):
        net = grid3x3()
        return [
            trip_through_nodes(net, ["n000_000", "n000_001"], "2026-01-06", hh=13, mm=30),
            trip_through_nodes(net, ["n000_000", "n000_001"], "2026-01-06", hh=12, mm=59),
            trip_through_nodes(net, ["n000_000", "n000_001"], "2026-01-10", hh=13, mm=30),
        ]

    def test_empty_corpus(self):
        assert window_filter([], (13, 14), {"T"}) == []

    def test_retains_in_window(self):
        corpus = self.corpus()
        kept = window_filter(corpus, (13, 14), {"T", "W", "Th"})
        assert kept == [corpus[0]]

    def test_boundary_is_half_open(self):
        corpus = self.corpus()
        assert window_filter([corpus[1]], (13, 14), {"T"}) == []

    def test_idempotent(self):
        corpus = self.corpus()
        once = window_filter(corpus, (13, 14), {"T", "Sa"})
        twice = window_filter(once, (13, 14), {"T", "Sa"})
        assert once == twice
        assert len(once) == 2

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            window_filter([], (13, 14), {"XX"})

    @pytest.mark.parametrize("hours", [(14, 13), (13, 13), (-1, 2), (23, 25)])
    def test_rejects_bad_hours(self, hours):
        with pytest.raises(ValueError):
            window_filter([], hours, {"T"})

    @pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan, 24.0, -24.0])
    def test_rejects_bad_utc_offset(self, offset):
        with pytest.raises(ValueError, match="UTC offset"):
            Window((13, 14), frozenset({"T"}), offset)

    def test_offset_moves_the_local_clock(self):
        # 13:30 at -8 h is 14:30 at -7 h and 12:30 at -9 h.
        trip = self.corpus()[0]
        assert Window((13, 14), frozenset({"T"})).contains(trip)
        assert Window((14, 15), frozenset({"T"}), -7.0).contains(trip)
        assert not Window((13, 14), frozenset({"T"}), -7.0).contains(trip)
        assert Window((12, 13), frozenset({"T"}), -9.0).contains(trip)
