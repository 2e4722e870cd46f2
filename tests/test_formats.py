import json
import math
from datetime import date

import pytest

from dpmobility import formats
from dpmobility.aggregate import Window, aggregate
from dpmobility.errors import InputFormatError
from dpmobility.geometry import GeoPoint
from dpmobility.privatize import PrivacyConfig, privatize_aggregate
from dpmobility.synth import SynthCityConfig, SynthTripConfig, generate_city, generate_trips

from conftest import BASE, ZIGZAGS, polyline_network

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
        # save_network writes what load_network reads, and only that.
        for name in ("n.csv", "n.geojson", "n.json"):
            formats.save_network(net, tmp / "saved" / name)
            assert formats.load_network(tmp / "saved" / name).links == net.links
        with pytest.raises(InputFormatError, match="unsupported network format '.txt'"):
            formats.save_network(net, tmp / "txt" / "n.txt")
        assert not (tmp / "txt").exists()

    def test_polyline_links_refused_by_csv(self, tmp_path):
        # A CSV row holds a link's two ends only, so a polyline would load
        # back straight; GeoJSON keeps every vertex.
        net = polyline_network(BASE, ZIGZAGS)
        with pytest.raises(ValueError, match="link 'L0' has 7 vertices"):
            formats.save_network(net, tmp_path / "csv" / "x.csv")
        assert not (tmp_path / "csv").exists()
        formats.save_network(net, tmp_path / "geojson" / "x.geojson")
        loaded = formats.load_network(tmp_path / "geojson" / "x.geojson")
        assert loaded.links == net.links
        assert loaded.nodes == net.nodes

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

    @pytest.mark.parametrize("coordinates, ok", [
        ([[-122.3, 37.8, 12.5], [-122.3, 37.801, 13.0, 0.0]], True),
        ([[-122.3, 37.8], [-122.3, 37.801, -4.0]], True),
        ([[-122.3, 37.8], [-122.3]], False),
        ([[-122.3, 37.8], []], False),
    ], ids=["altitudes", "one-altitude", "one-number", "no-number"])
    def test_position_numbers_after_the_second_ignored(self, tmp_path, coordinates, ok):
        # RFC 7946 allows an altitude, or more, after longitude and latitude.
        path = tmp_path / "alt.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [{
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": coordinates},
            "properties": {"id": "L", "from": "a", "to": "b", "fc": 3, "speed_mps": 12.0},
        }]}))
        if not ok:
            with pytest.raises(InputFormatError) as err:
                formats.load_network_geojson(path)
            assert err.value.path == f"{path} (feature 0)"
            return
        link = formats.load_network_geojson(path).links["L"]
        assert link.geometry == tuple(GeoPoint(lat, lon) for lon, lat, *_ in coordinates)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.geojson"
        path.write_text('{"type": "FeatureCollection",\n  "features": [}\n')
        with pytest.raises(InputFormatError) as err:
            formats.load_network_geojson(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("features", ["null", "3"], ids=["features-null", "features-number"])
    def test_features_not_a_list_rejected(self, tmp_path, features):
        path = tmp_path / "bad.geojson"
        path.write_text('{"type": "FeatureCollection", "features": %s}' % features)
        with pytest.raises(InputFormatError, match="features") as err:
            formats.load_network_geojson(path)
        assert (err.value.path, err.value.line) == (str(path), None)

    @pytest.mark.parametrize("row", [
        "L2,a,c,37.8,-122.3,37.801",
        "L2,a,c,37.8,-122.3,37.801,-122.3,x,10.0,",
        "L2,a,c,37.8,-122.3,37.801,-122.3,3,0,",
        "L2,a,c,37.8,-122.3,37.801,-122.3,3,inf,",
        "L2,a,c,37.8,-122.3,37.801,-122.3,3,10.0,inf",
    ], ids=["short-row", "bad-fc", "zero-speed", "inf-speed", "inf-length"])
    def test_bad_csv_row_reports_line(self, tmp_path, row):
        path = tmp_path / "net.csv"
        path.write_text(
            ",".join(formats.NETWORK_CSV_COLUMNS) + "\n"
            "L1,a,b,37.8,-122.3,37.801,-122.3,3,10.0,\n" + row + "\n"
        )
        with pytest.raises(InputFormatError) as err:
            formats.load_network_csv(path)
        assert (err.value.path, err.value.line) == (str(path), 3)

    @pytest.mark.parametrize("suffix", [".csv", ".geojson"])
    def test_duplicate_link_id_rejected(self, setup, tmp_path, suffix):
        net, _, _, _ = setup
        path = tmp_path / f"dup{suffix}"
        if suffix == ".csv":
            formats.save_network_csv(net, path)
            text = path.read_text()
            path.write_text(text + text.splitlines()[1] + "\n")
        else:
            formats.save_network_geojson(net, path)
            doc = json.loads(path.read_text())
            doc["features"].append(doc["features"][0])
            path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match="duplicate link id"):
            formats.load_network(path)

    @pytest.mark.parametrize("suffix", [".csv", ".geojson"])
    def test_node_at_two_positions_rejected(self, tmp_path, suffix):
        # Link b starts at n2, 1.1 km north of where link a ends at n2.
        path = tmp_path / f"moved{suffix}"
        ends = {"a": ("n1", (37.80, -122.30), "n2", (37.80, -122.299)),
                "b": ("n2", (37.81, -122.299), "n1", (37.80, -122.30))}
        if suffix == ".csv":
            path.write_text(",".join(formats.NETWORK_CSV_COLUMNS) + "\n" + "".join(
                f"{lid},{u},{v},{p[0]},{p[1]},{q[0]},{q[1]},3,10.0,\n"
                for lid, (u, p, v, q) in ends.items()
            ))
        else:
            path.write_text(json.dumps({"type": "FeatureCollection", "features": [
                {"type": "Feature",
                 "geometry": {"type": "LineString", "coordinates": [[p[1], p[0]], [q[1], q[0]]]},
                 "properties": {"id": lid, "from": u, "to": v, "fc": 3, "speed_mps": 10.0}}
                for lid, (u, p, v, q) in ends.items()
            ]}))
        with pytest.raises(InputFormatError, match="link 'b' places node 'n2'") as err:
            formats.load_network(path)
        assert (err.value.path, err.value.line) == (str(path), None)

    @pytest.mark.parametrize("props", [
        {"fc": 3.7}, {"fc": 9}, {"fc": True}, {"speed_mps": math.inf}, {"length_m": math.inf},
    ], ids=["fractional-fc", "fc-9", "fc-true", "inf-speed", "inf-length"])
    def test_bad_feature_value_reports_feature(self, tmp_path, props):
        path = tmp_path / "bad.geojson"
        features = [
            {
                "type": "Feature",
                "geometry": {"type": "LineString",
                             "coordinates": [[-122.3, 37.8], [-122.3, 37.801]]},
                "properties": {"id": lid, "from": "a", "to": "b", "fc": 3,
                               "speed_mps": 12.0, **extra},
            }
            for lid, extra in (("L1", {}), ("L2", props))
        ]
        text = json.dumps({"type": "FeatureCollection", "features": features})
        assert ("Infinity" in text) == (math.inf in props.values())
        path.write_text(text)
        with pytest.raises(InputFormatError) as err:
            formats.load_network_geojson(path)
        assert err.value.path == f"{path} (feature 1)"

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

    @pytest.mark.parametrize("row", [
        "d1,not-a-time,37.8,-122.3",
        "d1,2026-01-06T21:40:00Z,37.8",
        "d1,2026-01-06T21:40:00,37.8,-122.3",
        "d1,2026-01-06T21:40:00Z,37.8,-122.3,99,oops",
        "d1,2026-01-06T21:40:00Z,37.8," + "1" * 200_000,
    ], ids=["bad-timestamp", "short-row", "naive-timestamp", "long-row", "huge-field"])
    def test_bad_row_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            "device_id,timestamp,lat,lon\n"
            "d1,2026-01-06T21:30:00Z,37.8,-122.3\n" + row + "\n"
        )
        with pytest.raises(InputFormatError) as err:
            formats.load_trips_csv(path)
        assert err.value.line == 3

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("device_id,timestamp,lat\n")
        with pytest.raises(InputFormatError):
            formats.load_trips_csv(path)


NOT_UTF8 = {
    "trips-row": ("trips.csv", formats.load_trips_csv,
                  b"device_id,timestamp,lat,lon\nd1,2026-01-06T21:40:00Z,37.8,-122.3\xff\n"),
    # past the first decoded chunk, where a row was already being read
    "trips-row-500": ("trips.csv", formats.load_trips_csv,
                      b"device_id,timestamp,lat,lon\n"
                      + b"d1,2026-01-06T21:40:00Z,37.8,-122.3\n" * 498
                      + b"d1,2026-01-06T21:40:00Z,37.8,-122.3\xff\n"
                      + b"d1,2026-01-06T21:40:00Z,37.8,-122.3\n" * 500),
    "report-preamble": ("report.csv", formats.load_report_csv, b"# trips_in=\xff\n"),
    "network-csv": ("net.csv", formats.load_network, b"\xffid,from_node\n"),
    "geojson": ("net.geojson", formats.load_network,
                b'\xff{"type": "FeatureCollection", "features": []}'),
}


@pytest.mark.parametrize("name, load, data", NOT_UTF8.values(), ids=list(NOT_UTF8))
def test_not_utf8_reports_the_path(tmp_path, name, load, data):
    # Text is decoded in chunks, so no line is claimed.
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(InputFormatError, match="not UTF-8 text: byte 0xff") as err:
        load(path)
    assert (err.value.path, err.value.line) == (str(path), None)


class TestAggregationAndReportFiles:
    def test_aggregation_round_trip(self, setup):
        net, _, truth, tmp = setup
        agg = aggregate(truth, window=Window((13, 14), frozenset({"T", "W"})))
        path = tmp / "agg.csv"
        formats.save_aggregation_csv(agg, net, path)
        counts, source = formats.load_aggregation_csv(path)
        assert counts == agg.counts
        assert source == "raw"

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

    def test_bad_report_preamble_reports_line(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("# trips_in=3\n# trips_out=x\n" + ",".join(formats.REPORT_COLUMNS) + "\n")
        with pytest.raises(InputFormatError) as err:
            formats.load_report_csv(path)
        assert err.value.line == 2

    def test_link_corpus_round_trip(self, setup):
        _, _, truth, tmp = setup
        path = tmp / "truth.csv"
        formats.save_link_corpus_csv(truth, path)
        loaded = formats.load_link_corpus_csv(path)
        assert [t.links for t in loaded] == [t.links for t in truth]
        assert loaded == truth


class TestManifest:
    def test_write_and_read(self, setup, tmp_path):
        net, _, _, _ = setup
        out = tmp_path / "net.geojson"
        formats.save_network_geojson(net, out)
        manifest_path = tmp_path / "manifest.json"
        formats.write_manifest(
            manifest_path, "test", {"seed": 1}, [out], [out], "0.1.0"
        )
        doc = json.loads(manifest_path.read_text())
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
