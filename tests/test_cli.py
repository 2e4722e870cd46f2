import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dpmobility import formats
from dpmobility.cli import _load_inputs, _privacy_config, build_parser, main
from dpmobility.matching import MatchConfig
from dpmobility.metrics import COMPARE_COLUMNS, compare
from dpmobility.privatize import PrivacyConfig
from dpmobility.trajectories import DEFAULT_TRIP_GAP_S, DEFAULT_UTC_OFFSET_H, Window

from conftest import child_env


def run_cli(args, **env_overrides):
    env = child_env(**env_overrides)
    return subprocess.run(
        [sys.executable, "-m", "dpmobility.cli", *args],
        capture_output=True, text=True, env=env,
    )


def one_link_geojson(coordinates, **props) -> str:
    return json.dumps({"type": "FeatureCollection", "features": [{
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": coordinates},
        "properties": {"id": "L1", "from": "a", "to": "b", "fc": 3, "speed_mps": 10.0, **props},
    }]})


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    net = tmp / "net.geojson"
    trips = tmp / "trips.csv"
    truth = tmp / "truth.csv"
    assert main(["synth", "network", "--rows", "10", "--cols", "10",
                 "--out", str(net)]) == 0
    assert main([
        "synth", "trips", "--network", str(net), "--n-trips", "120",
        "--n-devices", "60", "--dates", "2026-01-06,2026-01-07",
        "--repeat-fraction", "0.05", "--seed", "42",
        "--out", str(trips), "--truth", str(truth),
    ]) == 0
    return tmp, net, trips, truth


class TestSynthCommands:
    def test_outputs_parse_back(self, inputs):
        _, net, trips, truth = inputs
        loaded_net = formats.load_network(net)
        assert len(loaded_net.nodes) == 100
        assert len(formats.load_trips_csv(trips)) == 240
        assert len(formats.load_link_corpus_csv(truth)) == 240

    def test_network_takes_no_seed(self, tmp_path):
        # generate_city draws nothing at random, so a seed would change nothing.
        with pytest.raises(SystemExit) as exit_:
            main(["synth", "network", "--seed", "1", "--out", str(tmp_path / "n.geojson")])
        assert exit_.value.code == 2

    def test_trips_infinite_utc_offset_exit_2(self, inputs, tmp_path):
        _, net, _, _ = inputs
        out = tmp_path / "t.csv"
        assert main(["synth", "trips", "--network", str(net), "--dates", "2026-01-06",
                     "--utc-offset", "inf", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("options", [
        ["--jitter", "nan"], ["--jitter", "inf"], ["--interval", "nan"], ["--interval", "inf"],
        ["--od-alpha", "nan"], ["--od-alpha", "inf"], ["--od-alpha", "1e4"],
    ], ids=["jitter-nan", "jitter-inf", "interval-nan", "interval-inf", "alpha-nan",
            "alpha-inf", "alpha-unroutable"])
    def test_trips_bad_shape_exit_2(self, inputs, tmp_path, capsys, options):
        _, net, _, _ = inputs
        out = tmp_path / "t.csv"
        assert main(["synth", "trips", "--network", str(net), "--dates", "2026-01-06",
                     *options, "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spacing", ["nan", "inf"])
    def test_network_non_finite_spacing_exit_2(self, tmp_path, capsys, spacing):
        out = tmp_path / "n.geojson"
        assert main(["synth", "network", "--spacing", spacing, "--out", str(out)]) == 2
        assert "spacing must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_network_output_by_extension(self, tmp_path, capsys):
        # The writer takes exactly the extensions that load_network reads.
        argv = ["synth", "network", "--rows", "4", "--cols", "3", "--out"]
        for name in ("net.csv", "net.geojson", "net.json", "NET.GeoJSON"):
            assert main([*argv, str(tmp_path / name)]) == 0
            assert len(formats.load_network(tmp_path / name).nodes) == 12
        out = tmp_path / "sub" / "net.txt"
        assert main([*argv, str(out)]) == 2
        assert "unsupported network format '.txt'" in capsys.readouterr().err
        assert not out.parent.exists()


class TestPrivatizeCommand:
    def test_end_to_end(self, inputs, tmp_path):
        _, net, trips, _ = inputs
        out = tmp_path / "priv"
        code = main([
            "privatize", "--network", str(net), "--trips", str(trips),
            "--epsilon", "0.1", "--seed", "7", "--days", "T,W",
            "--out", str(out),
        ])
        assert code == 0
        counts, source = formats.load_aggregation_csv(out / "privatized_aggregation.csv")
        assert counts and source == "dp-ani"
        overlay = json.loads((out / "privatized_overlay.geojson").read_text())
        props = [feature["properties"] for feature in overlay["features"]]
        assert {p["id"]: p["count"] for p in props} == counts
        assert all(p["source"] == "dp-ani" for p in props)
        report = formats.load_report_csv(out / "privatization_report.csv")
        assert report.trips_in == 240
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            "privatized_aggregation.csv", "privatized_overlay.geojson",
            "privatization_report.csv",
        }

    def test_older_file_layouts_release_the_same(self, inputs, tmp_path):
        # The earlier layouts also carry trip speed and heading and link
        # lanes.  Nothing reads those, so the files load and release the same.
        _, net, trips, _ = inputs
        header, *rows = trips.read_text().splitlines()
        old_trips = tmp_path / "old_trips.csv"
        old_trips.write_text(
            "".join(f"{line}\n" for line in [header + ",speed_mps,heading_deg"]
                    + [row + ",11.0," for row in rows])
        )
        doc = json.loads(net.read_text())
        for feature in doc["features"]:
            feature["properties"]["lanes"] = 2
        old_geojson = tmp_path / "old_net.geojson"
        old_geojson.write_text(json.dumps(doc))
        new_csv, old_csv = tmp_path / "net.csv", tmp_path / "old_net.csv"
        formats.save_network_csv(formats.load_network(net), new_csv)
        lines = [line.split(",") for line in new_csv.read_text().splitlines()]
        old_csv.write_text("".join(
            ",".join(fields[:-1] + [lanes, fields[-1]]) + "\n"
            for fields, lanes in zip(lines, ["lanes"] + ["2"] * len(lines))
        ))

        assert formats.load_trips_csv(old_trips) == formats.load_trips_csv(trips)
        for old, new in ((old_geojson, net), (old_csv, new_csv)):
            loaded, expected = formats.load_network(old), formats.load_network(new)
            assert (loaded.nodes, loaded.links) == (expected.nodes, expected.links)
        for label, network, trip_file in (("new", net, trips), ("old-geojson", old_geojson,
                                          old_trips), ("old-csv", old_csv, old_trips)):
            assert main([
                "privatize", "--network", str(network), "--trips", str(trip_file),
                "--epsilon", "1", "--seed", "3", "--days", "T,W", "--out", str(tmp_path / label),
            ]) == 0
        for label in ("old-geojson", "old-csv"):
            for name in ("privatized_aggregation.csv", "privatization_report.csv"):
                assert (tmp_path / label / name).read_bytes() == \
                    (tmp_path / "new" / name).read_bytes()

    def test_empty_window_exit_3(self, inputs, tmp_path):
        _, net, trips, _ = inputs
        code = main([
            "privatize", "--network", str(net), "--trips", str(trips),
            "--epsilon", "0.1", "--days", "Sa", "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert not (tmp_path / "x").exists()

    def test_missing_epsilon_usage_error(self, inputs, tmp_path):
        _, net, trips, _ = inputs
        r = run_cli(["privatize", "--network", str(net), "--trips", str(trips),
                     "--out", str(tmp_path / "x")])
        assert r.returncode == 2

    @pytest.mark.parametrize("kind, name, text, where", [
        ("trips", "bad.csv", "device_id,timestamp,lat,lon\nd1,garbage,37.8,-122.3\n", ":2"),
        ("trips", "bad.csv", "device_id,timestamp,lat,lon\nd1,2026-01-06T21:40:00Z,37.80\n",
         ":2"),
        ("trips", "bad.csv", "device_id,timestamp,lat,lon\nd1,2026-01-06T21:40:00,37.8,-122.3\n",
         ":2"),
        ("trips", "bad.csv",
         "device_id,timestamp,lat,lon\nd1,2026-01-06T21:40:00Z,37.8,-122.3,99,oops\n", ":2"),
        ("network", "bad.csv",
         ",".join(formats.NETWORK_CSV_COLUMNS) + "\nL1,a,b,37.8,-122.3\n", ":2"),
        ("network", "bad.geojson",
         one_link_geojson([[-122.3, None], [-122.3, 37.8]]), " (feature 0)"),
        ("network", "bad.geojson",
         one_link_geojson([[-122.3, 37.8], [-122.3, 37.801]], fc=3.7), " (feature 0)"),
        ("network", "bad.geojson",
         one_link_geojson([[-122.3, 37.8], [-122.3, 37.801]], fc=9), " (feature 0)"),
        ("network", "bad.csv",
         ",".join(formats.NETWORK_CSV_COLUMNS) + "\nL1,a,b,37.8,-122.3,37.801,-122.3,3,0,\n",
         ":2"),
        ("network", "bad.geojson", '{"type": "FeatureCollection", "features": []}', ""),
        ("network", "bad.geojson", '{"type": "FeatureCollection", "features": null}', ""),
        ("network", "bad.geojson", '{"type": "FeatureCollection", "features": 3}', ""),
        ("trips", "bad.csv",
         "device_id,timestamp,lat,lon\nd1,2026-01-06T21:40:00Z,37.8," + "1" * 200_000 + "\n",
         ":2"),
        ("trips", "bad.csv",
         b"device_id,timestamp,lat,lon\nd1,2026-01-06T21:40:00Z,37.8,-122.3\xff\n", ""),
        ("network", "bad.geojson",
         b"\xff" + one_link_geojson([[-122.3, 37.8], [-122.3, 37.801]]).encode(), ""),
    ], ids=["bad-timestamp", "short-trip-row", "naive-timestamp", "long-trip-row",
            "short-network-row", "null-coordinate", "fractional-fc", "fc-9", "zero-speed",
            "empty-network", "features-null", "features-number", "huge-field",
            "trips-not-utf8", "geojson-not-utf8"])
    def test_malformed_trips_exit_2(self, inputs, tmp_path, capsys, kind, name, text, where):
        _, net, trips, _ = inputs
        bad = tmp_path / name
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        files = {"network": net, "trips": trips, kind: bad}
        code = main([
            "privatize", "--network", str(files["network"]), "--trips", str(files["trips"]),
            "--epsilon", "1", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert f"{bad}{where}: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("option", [
        ("--gap", "nan"),
        ("--gap", "-5"),
        ("--gap", "0"),
        ("--max-buffer", "nan"),
        ("--initial-buffer", "nan"),
        ("--initial-buffer", "0"),
        ("--buffer-step", "nan"),
        ("--h1", "-1"),
        ("--epsilon", "0"),
        ("--epsilon", "-1"),
        ("--epsilon", "nan"),
        ("--epsilon", "inf"),
        ("--hour-window", "14-13"),
        ("--days", "T,XX"),
        ("--utc-offset", "inf"),
        ("--utc-offset", "nan"),
        ("--utc-offset", "24"),
    ])
    def test_malformed_option_exit_2(self, inputs, tmp_path, option):
        _, net, trips, _ = inputs
        out = tmp_path / "x"
        code = main([
            "privatize", "--network", str(net), "--trips", str(trips),
            "--epsilon", "1", *option, "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_out_of_window_rows_are_counted_not_released(self, inputs, tmp_path):
        # The Tuesday window of a Tuesday/Wednesday file releases what a
        # Tuesday-only file releases, and the report accounts for every trip.
        _, net, trips, _ = inputs
        corpus = formats.load_trips_csv(trips)
        tuesdays = Window((13, 14), frozenset({"T"}))
        inside = [g for g in corpus if tuesdays.contains(g)]
        assert 0 < len(inside) < len(corpus)
        tuesday_trips = tmp_path / "tuesday_trips.csv"
        formats.save_trips_csv(inside, tuesday_trips)
        for label, trip_file in (("all", trips), ("tuesday", tuesday_trips)):
            assert main([
                "privatize", "--network", str(net), "--trips", str(trip_file),
                "--epsilon", "1", "--seed", "5", "--days", "T", "--out", str(tmp_path / label),
            ]) == 0
        name = "privatized_aggregation.csv"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "tuesday" / name).read_bytes()
        report = formats.load_report_csv(tmp_path / "all" / "privatization_report.csv")
        assert report.trips_in == len(corpus)
        assert report.excluded["out_of_window"] == len(corpus) - len(inside)
        assert report.trips_in == report.trips_out + report.trips_excluded


class TestCompareCommand:
    def test_sweep_row_count(self, inputs, tmp_path):
        _, net, trips, _ = inputs
        out = tmp_path / "cmp"
        code = main([
            "compare", "--network", str(net), "--trips", str(trips),
            "--epsilons", "0.05,1,15", "--seed", "7", "--days", "T,W",
            "--out", str(out),
        ])
        assert code == 0
        rows = formats.load_compare_csv(out / "compare.csv")
        assert len(rows) == 4 + 3
        assert list(rows[0]) == list(COMPARE_COLUMNS)

    def test_unknown_model_exit_2(self, inputs, tmp_path):
        _, net, trips, _ = inputs
        out = tmp_path / "x"
        for option in (("--models", "raw,nonsense"), ("--models", ","), ("--epsilons", ""),
                       ("--models", "raw,raw"), ("--epsilons", "1,1")):
            code = main([
                "compare", "--network", str(net), "--trips", str(trips),
                *option, "--out", str(out),
            ])
            assert code == 2, option
            assert not out.exists()

    def test_nonpositive_epsilon_exit_2(self, inputs, tmp_path):
        _, net, trips, _ = inputs
        code = main([
            "compare", "--network", str(net), "--trips", str(trips),
            "--epsilons", "0", "--days", "T,W", "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_byte_identical_across_reruns(self, inputs, tmp_path):
        _, net, trips, _ = inputs
        outs = []
        for run in ("1", "2"):
            out = tmp_path / f"cmp{run}"
            r = run_cli([
                "compare", "--network", str(net), "--trips", str(trips),
                "--epsilons", "0.05,15", "--seed", "3", "--days", "T,W",
                "--out", str(out),
            ], PYTHONHASHSEED=run)
            assert r.returncode == 0, r.stderr
            outs.append(out)
        assert (outs[0] / "compare.csv").read_bytes() == (outs[1] / "compare.csv").read_bytes()
        assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()


class TestEmptyWindow:
    """``--days Sa`` selects no trip of the Tuesday/Wednesday corpus; bad
    input is still reported as bad input, not as an empty release."""

    def run(self, inputs, out, command, *options):
        _, net, trips, _ = inputs
        return main([command, "--network", str(net), "--trips", str(trips),
                     "--days", "Sa", *options, "--out", str(out)])

    @pytest.mark.parametrize("command, options", [
        ("privatize", ("--epsilon", "nan")),
        ("privatize", ("--epsilon", "0")),
        ("compare", ("--epsilons", "0")),
        ("compare", ("--models", "raw,bogus")),
    ])
    def test_bad_input_exit_2(self, inputs, tmp_path, command, options):
        out = tmp_path / "x"
        assert self.run(inputs, out, command, *options) == 2
        assert not out.exists()

    def test_valid_compare_exit_3(self, inputs, tmp_path):
        out = tmp_path / "x"
        assert self.run(inputs, out, "compare") == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["aggregate", "metrics"])
    def test_no_matched_trip_exit_3(self, inputs, tmp_path, command):
        _, net, trips, _ = inputs
        out = [] if command == "metrics" else ["--out", str(tmp_path / "x")]
        assert main([command, "--network", str(net), "--trips", str(trips),
                     "--days", "Sa", *out]) == 3
        assert not (tmp_path / "x").exists()


class TestOneWindowPass:
    """Each command tests every trip of the file against the window once."""

    @pytest.mark.parametrize("command, options", [
        ("privatize", ["--epsilon", "1"]),
        ("compare", ["--epsilons", "1"]),
        ("aggregate", []),
        ("metrics", []),
    ], ids=["privatize", "compare", "aggregate", "metrics"])
    def test_one_contains_call_per_trip(self, inputs, tmp_path, monkeypatch, command, options):
        _, net, trips, _ = inputs
        calls = []
        real = Window.contains

        def counting(self, trip):
            calls.append(trip)
            return real(self, trip)

        monkeypatch.setattr(Window, "contains", counting)
        out = [] if command == "metrics" else ["--out", str(tmp_path / "x")]
        assert main([command, "--network", str(net), "--trips", str(trips),
                     "--days", "T,W", *options, *out]) == 0
        assert len(calls) == len(formats.load_trips_csv(trips))

    @pytest.mark.parametrize("command", ["privatize", "compare", "aggregate", "metrics"])
    def test_bad_utc_offset_rejected_before_reading(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.csv"
        out = [] if command == "metrics" else ["--out", str(tmp_path / "x")]
        epsilon = ["--epsilon", "1"] if command == "privatize" else []
        assert main([command, "--network", str(missing), "--trips", str(missing),
                     "--utc-offset", "inf", *epsilon, *out]) == 2
        assert "UTC offset" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestAggregateAndMetrics:
    def test_aggregate_outputs(self, inputs, tmp_path):
        _, net, trips, _ = inputs
        out = tmp_path / "agg"
        assert main([
            "aggregate", "--network", str(net), "--trips", str(trips),
            "--days", "T,W", "--out", str(out),
        ]) == 0
        counts, source = formats.load_aggregation_csv(out / "aggregation.csv")
        assert counts and source == "raw"

    def test_infinite_snap_radius_exit_2(self, inputs, tmp_path, capsys):
        _, net, trips, _ = inputs
        out = tmp_path / "agg"
        assert main([
            "aggregate", "--network", str(net), "--trips", str(trips),
            "--snap-radius", "inf", "--out", str(out),
        ]) == 2
        assert "snap radius" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_prints_values(self, inputs):
        _, net, trips, _ = inputs
        r = run_cli(["metrics", "--network", str(net), "--trips", str(trips),
                     "--days", "T,W"])
        assert r.returncode == 0
        keys = {line.split("=")[0] for line in r.stdout.splitlines() if "=" in line}
        assert {"trips", "network_length_mi", "vmt_mi", "vht_h", "vhd_h"} <= keys

    def test_metrics_prints_compare_raw_row(self, inputs, capsys):
        _, net_path, trips_path, _ = inputs
        argv = ["metrics", "--network", str(net_path), "--trips", str(trips_path),
                "--days", "T,W"]
        assert main(argv) == 0
        printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        net, corpus, window, match_cfg = _load_inputs(build_parser().parse_args(argv))
        raw_row, = compare(corpus, net, PrivacyConfig(), models=("raw",),
                           match_cfg=match_cfg, window=window)
        utility_columns = ("network_length_mi", "vmt_mi", "vht_h", "vhd_h")
        assert {name: printed[name] for name in utility_columns} == {
            name: repr(raw_row[name]) for name in utility_columns
        }


class TestOptionDefaults:
    """Every default of a run setting is the library's own."""

    @pytest.mark.parametrize("command, required", [
        ("privatize", ["--epsilon", "1"]),
        ("compare", []),
    ])
    def test_defaults_come_from_the_library(self, inputs, tmp_path, command, required):
        _, net, trips, _ = inputs
        args = build_parser().parse_args([
            command, "--network", str(net), "--trips", str(trips), *required,
            "--out", str(tmp_path / "x"),
        ])
        assert _privacy_config(args) == PrivacyConfig()
        assert (args.gap, args.utc_offset) == (DEFAULT_TRIP_GAP_S, DEFAULT_UTC_OFFSET_H)
        *_, match_cfg = _load_inputs(args)
        assert match_cfg == MatchConfig()

    @pytest.mark.parametrize("command", [
        ["privatize"], ["compare"], ["aggregate"], ["metrics"], ["synth"],
        ["synth", "network"], ["synth", "trips"], ["verify-dp"],
    ], ids=" ".join)
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([*command, "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert "usage:" in out
        assert "--keep-repeated" not in out  # the repeated-OD rule has no switch


class TestVerifyDp:
    def test_zero_distance_reports_small_ratio(self):
        r = run_cli(["verify-dp", "--epsilon", "1", "--radius", "100",
                     "--distance", "0", "--samples", "100000", "--cell", "20",
                     "--slack", "0.6"])
        assert r.returncode == 0
        ratio = float(r.stdout.splitlines()[0].split("=")[1])
        assert ratio < 0.6

    def test_within_bound_at_r_distance(self):
        r = run_cli(["verify-dp", "--epsilon", "1", "--radius", "100",
                     "--distance", "100", "--samples", "200000", "--cell", "20",
                     "--slack", "0.45"])
        assert r.returncode == 0, r.stdout + r.stderr

    def test_bad_numerics_exit_2(self):
        r = run_cli(["verify-dp", "--epsilon", "-1", "--radius", "100",
                     "--distance", "0"])
        assert r.returncode == 2

    @pytest.mark.parametrize("options", [
        ("--distance", "1000", "--samples", "200"),
        ("--cell", "nan"),
        ("--cell", "inf"),
        ("--distance", "-100"),
        ("--distance", "nan"),
        ("--distance", "inf"),
        ("--slack", "-0.1"),
        ("--slack", "nan"),
    ], ids=" ".join)
    def test_nothing_compared_or_bad_option_exit_2(self, options, capsys):
        argv = ["verify-dp", "--epsilon", "1", "--radius", "100", "--distance", "100",
                "--samples", "2000", "--cell", "20", *options]
        assert main(argv) == 2
        assert "within bound" not in capsys.readouterr().out


# Runs in a child interpreter where the test extras cannot be imported.
WITHOUT_TEST_EXTRAS = """
import importlib, pkgutil, sys
for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None
import dpmobility
for module in pkgutil.iter_modules(dpmobility.__path__):
    importlib.import_module("dpmobility." + module.name)
from dpmobility.cli import main
for argv in (
    "synth network --rows 6 --cols 6 --out net.geojson",
    "synth trips --network net.geojson --n-trips 40 --n-devices 20 --dates 2026-01-06"
    " --seed 1 --out trips.csv",
    "privatize --network net.geojson --trips trips.csv --epsilon 1 --days T --out out",
):
    code = main(argv.split())
    if code:
        sys.exit(f"exit {code}: {argv}")
"""


class TestDependencies:
    def test_numpy_is_the_only_runtime_dependency(self, tmp_path):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        listed = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
        assert re.findall(r'"([A-Za-z0-9_.-]+)', listed) == ["numpy"]
        proc = subprocess.run([sys.executable, "-c", WITHOUT_TEST_EXTRAS], cwd=tmp_path,
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "privatized_aggregation.csv").is_file()
