import math
from datetime import date

import pytest

from dpmobility.aggregate import compute_link_counts
from dpmobility.matching import match_trajectory
from dpmobility.privatize import detect_repeated_od
from dpmobility.synth import (
    ARTERIAL_CLASS,
    STREET_CLASS,
    SynthCityConfig,
    SynthTripConfig,
    generate_city,
    generate_trips,
)
from dpmobility.trajectories import local_day_hour

DAY = date(2026, 1, 6)
TWO_DAYS = (date(2026, 1, 6), date(2026, 1, 7))


class TestGenerateCity:
    def test_two_by_two(self):
        net = generate_city(SynthCityConfig(rows=2, cols=2, spacing_m=100.0))
        assert len(net.nodes) == 4
        assert len(net.links) == 8
        assert all(link.length_m == 100.0 for link in net.links.values())

    def test_ten_by_ten_link_count(self):
        net = generate_city(SynthCityConfig(rows=10, cols=10))
        # 2 * rows * (cols - 1) + 2 * cols * (rows - 1) directed links
        assert len(net.links) == 360

    def test_deterministic(self):
        cfg = SynthCityConfig(rows=5, cols=7, spacing_m=80.0, seed=3)
        a, b = generate_city(cfg), generate_city(cfg)
        assert a.nodes == b.nodes
        assert a.links == b.links

    def test_arterial_pattern(self):
        net = generate_city(SynthCityConfig(rows=6, cols=6, arterial_every=5))
        # row 0 and row 5 are arterials, so horizontal links there carry class 2
        assert net.links["n000_000>n000_001"].functional_class == ARTERIAL_CLASS
        assert net.links["n005_000>n005_001"].functional_class == ARTERIAL_CLASS
        assert net.links["n001_000>n001_001"].functional_class == STREET_CLASS
        # vertical links along column 0 are arterial, column 1 not
        assert net.links["n000_000>n001_000"].functional_class == ARTERIAL_CLASS
        assert net.links["n000_001>n001_001"].functional_class == STREET_CLASS

    def test_no_arterials_when_disabled(self):
        net = generate_city(SynthCityConfig(rows=4, cols=4, arterial_every=0))
        assert {link.functional_class for link in net.links.values()} == {STREET_CLASS}

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthCityConfig(rows=1, cols=5)

    @pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_spacing(self, spacing):
        with pytest.raises(ValueError, match="spacing"):
            SynthCityConfig(rows=3, cols=3, spacing_m=spacing)


class TestGenerateTrips:
    @pytest.mark.parametrize("hours", [(14, 13), (20, 25)])
    def test_rejects_bad_hour_window(self, hours):
        with pytest.raises(ValueError):
            SynthTripConfig(n_trips=1, n_devices=1, days=TWO_DAYS, hour_window=hours)

    @pytest.mark.parametrize("field, value, message", [
        ("jitter_sigma_m", -1.0, "jitter"),
        ("jitter_sigma_m", math.nan, "jitter"),
        ("jitter_sigma_m", math.inf, "jitter"),
        ("gps_interval_s", 0.0, "interval"),
        ("gps_interval_s", math.nan, "interval"),
        ("gps_interval_s", math.inf, "interval"),
        ("od_popularity_alpha", math.nan, "alpha"),
        ("od_popularity_alpha", math.inf, "alpha"),
        ("od_popularity_alpha", -math.inf, "alpha"),
    ])
    def test_rejects_non_finite_or_out_of_range(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SynthTripConfig(n_trips=1, n_devices=1, days=TWO_DAYS, **{field: value})

    def test_unroutable_popularity_is_a_value_error(self):
        # Every endpoint weight but the first node's underflows to zero, so
        # each draw names the same node twice.
        net = generate_city(SynthCityConfig(rows=3, cols=3))
        cfg = SynthTripConfig(n_trips=1, n_devices=1, days=TWO_DAYS, od_popularity_alpha=1e4)
        with pytest.raises(ValueError, match="no routable endpoint pair"):
            generate_trips(net, cfg)

    def test_deterministic(self, city20):
        cfg = SynthTripConfig(n_trips=30, n_devices=15, days=TWO_DAYS, seed=31)
        a_gps, a_truth = generate_trips(city20, cfg)
        b_gps, b_truth = generate_trips(city20, cfg)
        assert a_gps == b_gps
        assert a_truth == b_truth

    def test_counts_and_days(self, city20):
        cfg = SynthTripConfig(n_trips=25, n_devices=10, days=TWO_DAYS, seed=32)
        gps, truth = generate_trips(city20, cfg)
        assert len(gps) == len(truth) == 50
        origins = [local_day_hour(g.samples[0].t) for g in gps]
        assert {day for day, _ in origins} == set(TWO_DAYS)
        assert all(hour == 13 for _, hour in origins)

    def test_ground_truth_connected(self, city20):
        cfg = SynthTripConfig(n_trips=20, n_devices=10, days=(DAY,), seed=33)
        _, truth = generate_trips(city20, cfg)
        assert all(t.is_connected(city20) for t in truth)

    def test_zero_jitter_matches_exactly(self, city20):
        cfg = SynthTripConfig(n_trips=15, n_devices=15, days=(DAY,),
                              jitter_sigma_m=0.0, seed=34)
        gps, truth = generate_trips(city20, cfg)
        for g, t in zip(gps, truth):
            assert match_trajectory(g, city20).links == t.links

    def test_repeat_fraction_flags_all(self, city20):
        cfg = SynthTripConfig(n_trips=10, n_devices=10, days=TWO_DAYS,
                              repeat_fraction=1.0, seed=35)
        _, truth = generate_trips(city20, cfg)
        assert detect_repeated_od(truth) == set(range(len(truth)))

    def test_single_count_od_tail_exists(self, city20):
        cfg = SynthTripConfig(n_trips=500, n_devices=250, days=(DAY,), seed=36)
        _, truth = generate_trips(city20, cfg)
        counts = compute_link_counts(truth)
        singles = {
            l for t in truth for l in (t.links[0], t.links[-1]) if counts[l] == 1
        }
        assert len(singles) > 0

    def test_origin_timestamps_inside_window(self, city20):
        cfg = SynthTripConfig(n_trips=40, n_devices=10, days=(DAY,),
                              hour_window=(13, 14), seed=37)
        gps, _ = generate_trips(city20, cfg)
        for g in gps:
            day, hour = local_day_hour(g.samples[0].t)
            assert day == DAY
            assert hour == 13

    def test_device_streams_resplit_cleanly(self, city20):
        from dpmobility.trajectories import split_trips

        cfg = SynthTripConfig(n_trips=60, n_devices=12, days=(DAY,), seed=38)
        gps, _ = generate_trips(city20, cfg)
        per_device: dict[str, list] = {}
        for g in gps:
            per_device.setdefault(g.device, []).extend(g.samples)
        rebuilt = []
        for device in per_device:
            stream = sorted(per_device[device], key=lambda s: s.t)
            rebuilt.extend(split_trips(stream))
        key = lambda t: (t.device, t.samples[0].t)
        assert sorted(rebuilt, key=key) == sorted(gps, key=key)
