import json
import subprocess
import sys

import pytest

from dpmobility import formats
from dpmobility.cli import _load_windowed_corpus, _privacy_config, build_parser, main
from dpmobility.matching import MatchConfig
from dpmobility.metrics import COMPARE_COLUMNS
from dpmobility.privatize import PrivacyConfig
from dpmobility.trajectories import DEFAULT_TRIP_GAP_S, DEFAULT_UTC_OFFSET_H

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

    def test_csv_network_output(self, inputs, tmp_path):
        out = tmp_path / "net.csv"
        assert main(["synth", "network", "--rows", "4", "--cols", "3",
                     "--out", str(out)]) == 0
        assert len(formats.load_network(out).nodes) == 12


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
        manifest = formats.read_manifest(out / "manifest.json")
        assert set(manifest["outputs"]) == {
            "privatized_aggregation.csv", "privatized_overlay.geojson",
            "privatization_report.csv",
        }

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
         one_link_geojson([[-122.3, 37.8], [-122.3, 37.801]], lanes=0), " (feature 0)"),
    ], ids=["bad-timestamp", "short-trip-row", "naive-timestamp", "long-trip-row",
            "short-network-row", "null-coordinate", "fractional-fc", "zero-lanes"])
    def test_malformed_trips_exit_2(self, inputs, tmp_path, capsys, kind, name, text, where):
        _, net, trips, _ = inputs
        bad = tmp_path / name
        bad.write_text(text)
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
        for option in (("--models", "raw,nonsense"), ("--models", ","), ("--epsilons", "")):
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

    def test_metrics_prints_values(self, inputs):
        _, net, trips, _ = inputs
        r = run_cli(["metrics", "--network", str(net), "--trips", str(trips),
                     "--days", "T,W"])
        assert r.returncode == 0
        keys = {line.split("=")[0] for line in r.stdout.splitlines() if "=" in line}
        assert {"trips", "network_length_mi", "vmt_mi", "vht_h", "vhd_h"} <= keys


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
        *_, match_cfg = _load_windowed_corpus(args)
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
