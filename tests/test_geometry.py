import json
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmobility import formats, metrics, network, synth
from dpmobility.aggregate import AggregatedMobilityNetwork, aggregate
from dpmobility.errors import DisplacementRangeError
from dpmobility.geometry import (
    GeoPoint,
    PlanarPoint,
    displace,
    displace_batch,
    fold_sum,
    haversine_distance,
    point_to_segment,
    project,
    project_batch,
    validate_geopoint,
)

import reference
from conftest import make_network

ONE_DEGREE_M = 2 * math.pi * 6_371_000.0 / 360.0


class TestHaversine:
    def test_identity(self):
        assert haversine_distance(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0

    def test_one_degree_longitude_at_equator(self):
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(0, 1))
        assert d == pytest.approx(ONE_DEGREE_M, abs=0.01)

    def test_one_degree_latitude(self):
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(1, 0))
        assert d == pytest.approx(ONE_DEGREE_M, abs=0.01)

    @given(
        st.floats(-85, 85), st.floats(-179, 179),
        st.floats(-85, 85), st.floats(-179, 179),
    )
    def test_symmetric_nonnegative(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        assert haversine_distance(a, b) >= 0.0
        assert haversine_distance(a, b) == pytest.approx(haversine_distance(b, a))


class TestDisplace:
    def test_zero_displacement_is_identity(self):
        p = GeoPoint(37.8, -122.3)
        assert displace(p, 0.0, 1.234) == p

    def test_one_degree_east(self):
        # Uses the uncapped batch path: the exact one-degree arc exceeds the
        # 100 km guard on the checked entry point.
        lat, lon = displace_batch(GeoPoint(0, 0), ONE_DEGREE_M, 0.0)
        assert float(lat) == pytest.approx(0.0, abs=1e-4)
        assert float(lon) == pytest.approx(1.0, abs=1e-4)

    def test_one_degree_north(self):
        lat, lon = displace_batch(GeoPoint(0, 0), ONE_DEGREE_M, math.pi / 2)
        assert float(lat) == pytest.approx(1.0, abs=1e-4)
        assert float(lon) == pytest.approx(0.0, abs=1e-4)

    def test_range_guard(self):
        with pytest.raises(DisplacementRangeError):
            displace(GeoPoint(0, 0), 100_001.0, 0.0)
        with pytest.raises(ValueError):
            displace(GeoPoint(0, 0), -1.0, 0.0)

    @given(
        st.floats(-80, 80),
        st.floats(1.0, 10_000.0),
        st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=300)
    def test_round_trip_distance_within_contract(self, lat, r, theta):
        p = GeoPoint(lat, 12.3)
        q = displace(p, r, theta)
        assert haversine_distance(p, q) == pytest.approx(r, rel=1e-3)

    def test_scalar_matches_batch(self):
        p = GeoPoint(55.0, 10.0)
        rs = np.array([5.0, 500.0, 5000.0])
        thetas = np.array([0.3, 2.0, 4.0])
        lats, lons = displace_batch(p, rs, thetas)
        for r, t, la, lo in zip(rs, thetas, lats, lons):
            q = displace(p, float(r), float(t))
            assert q.lat == pytest.approx(la, abs=1e-12)
            assert q.lon == pytest.approx(lo, abs=1e-12)


class TestProjection:
    @given(st.floats(-0.45, 0.45), st.floats(-0.55, 0.55))
    @settings(max_examples=300)
    def test_round_trip_within_contract(self, dlat, dlon):
        anchor = GeoPoint(37.8, -122.3)
        p = GeoPoint(anchor.lat + dlat, anchor.lon + dlon)
        q = reference.unproject(project(p, anchor))
        assert abs(q.lat - p.lat) < 1e-6
        assert abs(q.lon - p.lon) < 1e-6

    def test_batch_matches_scalar(self):
        anchor = GeoPoint(37.8, -122.3)
        lats = np.array([37.8, 37.9, 37.75])
        lons = np.array([-122.3, -122.2, -122.41])
        xs, ys = project_batch(lats, lons, anchor)
        for lat, lon, x, y in zip(lats, lons, xs, ys):
            pp = project(GeoPoint(lat, lon), anchor)
            assert pp.x == pytest.approx(x, abs=1e-9)
            assert pp.y == pytest.approx(y, abs=1e-9)


class TestPointToSegment:
    def anchor(self):
        return GeoPoint(0, 0)

    def pp(self, x, y):
        return PlanarPoint(x, y, self.anchor())

    def test_point_on_segment(self):
        d, proj = point_to_segment(self.pp(0.5, 0), self.pp(-1, 0), self.pp(1, 0))
        assert d == 0.0
        assert (proj.x, proj.y) == (0.5, 0.0)

    def test_perpendicular_foot(self):
        d, proj = point_to_segment(self.pp(0, 1), self.pp(-1, 0), self.pp(1, 0))
        assert d == pytest.approx(1.0)
        assert (proj.x, proj.y) == (0.0, 0.0)

    def test_degenerate_segment(self):
        d, proj = point_to_segment(self.pp(3, 4), self.pp(0, 0), self.pp(0, 0))
        assert d == pytest.approx(5.0)
        assert (proj.x, proj.y) == (0.0, 0.0)

    def test_clamps_to_endpoints(self):
        d, proj = point_to_segment(self.pp(5, 1), self.pp(-1, 0), self.pp(1, 0))
        assert d == pytest.approx(math.hypot(4, 1))
        assert (proj.x, proj.y) == (1.0, 0.0)


class TestValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_geopoint(GeoPoint(91.0, 0.0))
        with pytest.raises(ValueError):
            validate_geopoint(GeoPoint(0.0, 181.0))
        with pytest.raises(ValueError):
            validate_geopoint(GeoPoint(float("nan"), 0.0))

    def test_accepts_bounds(self):
        assert validate_geopoint(GeoPoint(-90.0, 180.0)) == GeoPoint(-90.0, 180.0)


class TestFoldSum:
    """Float sums in the modules whose outputs are recorded are left folds,
    so Python 3.12's compensated builtin ``sum`` changes none of them."""

    MODULES = (formats, metrics, network, synth)

    @staticmethod
    def pipeline(tmp_path):
        net = synth.generate_city(synth.SynthCityConfig(rows=5, cols=5, spacing_m=100.0, seed=3))
        gps, truth = synth.generate_trips(net, synth.SynthTripConfig(
            n_trips=30, n_devices=10, days=(date(2026, 1, 6),), seed=5))
        # A network file without lengths makes the reader sum the chords.
        path = tmp_path / "net.geojson"
        formats.save_network(net, path)
        doc = json.loads(path.read_text())
        for feature in doc["features"]:
            del feature["properties"]["length_m"]
        path.write_text(json.dumps(doc))
        loaded = formats.load_network(path)
        return (net._anchor, net.links, gps, truth, loaded.links,
                metrics.network_length(aggregate(truth), loaded))

    def test_left_fold(self):
        assert fold_sum((1.0, 1e16, 1.0)) == 1e16
        assert fold_sum(iter([0.1] * 10)) == 0.9999999999999999
        assert fold_sum(()) == 0.0

    def test_outputs_do_not_depend_on_builtin_sum(self, tmp_path, monkeypatch):
        floats_summed = []

        def compensated_sum(values, start=0):
            """Builtin ``sum`` as Python 3.12 adds floats (Neumaier)."""
            values = list(values)
            if all(isinstance(v, int) for v in values):
                return sum(values, start)
            floats_summed.append(values)
            total, c = float(start), 0.0
            for x in values:
                t = total + x
                c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            return total + c if c and math.isfinite(c) else total

        assert compensated_sum((1.0, 1e16, 1.0)) == 1e16 + 2.0
        floats_summed.clear()
        before = self.pipeline(tmp_path / "before")
        for module in self.MODULES:
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        assert self.pipeline(tmp_path / "after") == before

        nodes = {"a": (0.0, 0.0), "b": (0.5, 0.0), "c": (1.0, 0.0), "d": (1.5, 0.0)}
        net = make_network(nodes, [("x", "a", "b", {"length_m": 1.0}),
                                   ("y", "b", "c", {"length_m": 1e16}),
                                   ("z", "c", "d", {"length_m": 1.0})])
        agg = AggregatedMobilityNetwork(counts={"x": 1, "y": 1, "z": 1})
        assert metrics.network_length(agg, net) == 1e16 / metrics.METERS_PER_MILE
        assert floats_summed == []
