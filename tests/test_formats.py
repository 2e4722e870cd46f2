import json
from datetime import date

import pytest

from dpmobility import formats
from dpmobility.aggregate import Window, aggregate
from dpmobility.errors import InputFormatError
from dpmobility.privatize import PrivacyConfig, privatize_aggregate
from dpmobility.synth import SynthCityConfig, SynthTripConfig, generate_city, generate_trips

DAYS = (date(2026, 1, 6), date(2026, 1, 7))


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    net = generate_city(SynthCityConfig(rows=6, cols=6, spacing_m=100.0, arterial_every=5))
    cfg = SynthTripConfig(n_trips=40, n_devices=16, days=DAYS, repeat_fraction=0.1, seed=41)
    gps, truth = generate_trips(net, cfg)
    return net, gps, truth, tmp_path_factory.mktemp("formats")


class TestNetworkFiles:
    def test_geojson_round_trip(self, setup):
        net, _, _, tmp = setup
        path = tmp / "net.geojson"
        formats.save_network_geojson(net, path)
        loaded = formats.load_network_geojson(path)
        assert loaded.nodes == net.nodes
        assert loaded.links == net.links

    def test_csv_round_trip(self, setup):
        net, _, _, tmp = setup
        path = tmp / "net.csv"
        formats.save_network_csv(net, path)
        loaded = formats.load_network_csv(path)
        assert loaded.nodes == net.nodes
        assert loaded.links == net.links

    def test_dispatch_by_extension(self, setup):
        net, _, _, tmp = setup
        formats.save_network_geojson(net, tmp / "n.geojson")
        formats.save_network_csv(net, tmp / "n.csv")
        assert formats.load_network(tmp / "n.geojson").links == net.links
        assert formats.load_network(tmp / "n.csv").links == net.links
        with pytest.raises(InputFormatError):
            formats.load_network(tmp / "n.xml")

    def test_length_computed_when_absent(self, setup, tmp_path):
        net, _, _, _ = setup
        path = tmp_path / "nolen.geojson"
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "LineString",
                                 "coordinates": [[-122.3, 37.8], [-122.3, 37.801]]},
                    "properties": {"id": "L", "from": "a", "to": "b",
                                   "fc": 3, "speed_mps": 12.0},
                }
            ],
        }
        path.write_text(json.dumps(doc))
        loaded = formats.load_network_geojson(path)
        assert loaded.links["L"].length_m == pytest.approx(111.19, abs=0.1)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.geojson"
        path.write_text('{"type": "FeatureCollection",\n  "features": [}\n')
        with pytest.raises(InputFormatError) as err:
            formats.load_network_geojson(path)
        assert err.value.line == 2

    def test_missing_property_rejected(self, tmp_path):
        path = tmp_path / "noprops.geojson"
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "LineString",
                                 "coordinates": [[-122.3, 37.8], [-122.3, 37.801]]},
                    "properties": {"id": "L"},
                }
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError):
            formats.load_network_geojson(path)


class TestTripFiles:
    def test_round_trip(self, setup):
        _, gps, _, tmp = setup
        path = tmp / "trips.csv"
        formats.save_trips_csv(gps, path)
        loaded = formats.load_trips_csv(path)
        key = lambda t: (t.device, t.samples[0].t)
        assert sorted(loaded, key=key) == sorted(gps, key=key)

    def test_reserialization_is_byte_identical(self, setup):
        _, gps, _, tmp = setup
        p1, p2 = tmp / "t1.csv", tmp / "t2.csv"
        formats.save_trips_csv(sorted(gps, key=lambda t: (t.device, t.samples[0].t)), p1)
        formats.save_trips_csv(formats.load_trips_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_timestamp_round_trip(self):
        for t in (1_767_000_000.0, 1_767_000_000.125):
            assert formats.parse_timestamp(formats.format_timestamp(t)) == t

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "device_id,timestamp,lat,lon\n"
            "d1,2026-01-06T21:30:00Z,37.8,-122.3\n"
            "d1,not-a-time,37.8,-122.3\n"
        )
        with pytest.raises(InputFormatError) as err:
            formats.load_trips_csv(path)
        assert err.value.line == 3

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("device_id,timestamp,lat\n")
        with pytest.raises(InputFormatError):
            formats.load_trips_csv(path)


class TestAggregationAndReportFiles:
    def test_aggregation_round_trip(self, setup):
        net, _, truth, tmp = setup
        agg = aggregate(truth, window=Window((13, 14), frozenset({"T", "W"})))
        path = tmp / "agg.csv"
        formats.save_aggregation_csv(agg, net, path)
        counts, source = formats.load_aggregation_csv(path)
        assert counts == agg.counts
        assert source == "raw"

    def test_overlay_round_trip(self, setup):
        net, _, truth, tmp = setup
        agg = aggregate(truth, source="dp-ani")
        path = tmp / "overlay.geojson"
        formats.save_overlay_geojson(agg, net, path)
        counts, source = formats.load_overlay_geojson(path)
        assert counts == agg.counts
        assert source == "dp-ani"

    def test_report_round_trip(self, setup):
        net, gps, _, tmp = setup
        _, report = privatize_aggregate(gps, net, PrivacyConfig(global_seed=4), 0.5)
        path = tmp / "report.csv"
        formats.save_report_csv(report, path)
        loaded = formats.load_report_csv(path)
        assert loaded.trips_in == report.trips_in
        assert loaded.trips_out == report.trips_out
        assert loaded.excluded == report.excluded
        assert loaded.endpoints_perturbed == report.endpoints_perturbed
        assert (loaded.endpoints_unchanged_single_count
                == report.endpoints_unchanged_single_count)
        assert loaded.decisions == report.decisions

    def test_link_corpus_round_trip(self, setup):
        _, _, truth, tmp = setup
        path = tmp / "truth.csv"
        formats.save_link_corpus_csv(truth, path)
        loaded = formats.load_link_corpus_csv(path)
        assert [t.links for t in loaded] == [t.links for t in truth]
        assert [t.day for t in loaded] == [t.day for t in truth]


class TestManifest:
    def test_write_and_read(self, setup, tmp_path):
        net, _, _, _ = setup
        out = tmp_path / "net.geojson"
        formats.save_network_geojson(net, out)
        manifest_path = tmp_path / "manifest.json"
        formats.write_manifest(
            manifest_path, "test", {"seed": 1}, [out], [out], "0.1.0"
        )
        doc = formats.read_manifest(manifest_path)
        assert doc["command"] == "test"
        assert doc["config"] == {"seed": 1}
        assert doc["inputs"]["net.geojson"] == formats.sha256_file(out)
        assert doc["artifact_version"] == "0.1.0"

    def test_manifest_reproducible(self, setup, tmp_path):
        net, _, _, _ = setup
        out = tmp_path / "net.geojson"
        formats.save_network_geojson(net, out)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        formats.write_manifest(p1, "x", {"a": 2}, [out], [out], "0.1.0")
        formats.write_manifest(p2, "x", {"a": 2}, [out], [out], "0.1.0")
        assert p1.read_bytes() == p2.read_bytes()
