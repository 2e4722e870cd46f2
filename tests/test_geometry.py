import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmobility.errors import DisplacementRangeError
from dpmobility.geometry import (
    GeoPoint,
    PlanarPoint,
    displace,
    displace_batch,
    haversine_distance,
    point_to_segment,
    project,
    project_batch,
    validate_geopoint,
)

import reference

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
