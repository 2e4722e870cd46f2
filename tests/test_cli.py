import subprocess
import sys

import pytest

from dpmobility import formats
from dpmobility.cli import main
from dpmobility.metrics import COMPARE_COLUMNS

from conftest import child_env


def run_cli(args, **env_overrides):
    env = child_env(**env_overrides)
    return subprocess.run(
        [sys.executable, "-m", "dpmobility.cli", *args],
        capture_output=True, text=True, env=env,
    )


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
        overlay_counts, _ = formats.load_overlay_geojson(out / "privatized_overlay.geojson")
        assert overlay_counts == counts
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

    def test_missing_epsilon_usage_error(self, inputs, tmp_path):
        _, net, trips, _ = inputs
        r = run_cli(["privatize", "--network", str(net), "--trips", str(trips),
                     "--out", str(tmp_path / "x")])
        assert r.returncode == 2

    def test_malformed_trips_exit_2(self, inputs, tmp_path):
        _, net, _, _ = inputs
        bad = tmp_path / "bad.csv"
        bad.write_text("device_id,timestamp,lat,lon\nd1,garbage,37.8,-122.3\n")
        code = main([
            "privatize", "--network", str(net), "--trips", str(bad),
            "--epsilon", "1", "--out", str(tmp_path / "x"),
        ])
        assert code == 2


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
        code = main([
            "compare", "--network", str(net), "--trips", str(trips),
            "--models", "raw,nonsense", "--out", str(out),
        ])
        assert code == 2
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
