from collections import Counter
from dataclasses import replace
from datetime import date

import pytest

import dpmobility.metrics as metrics_module
import dpmobility.privatize as privatize_module
from dpmobility.aggregate import AggregatedMobilityNetwork, Window, aggregate, compute_link_counts
from dpmobility.errors import WindowMismatchError
from dpmobility.metrics import (
    COMPARE_COLUMNS,
    compare,
    intersection_density,
    network_length,
    unchanged_single_count_od,
    utility,
)
from dpmobility.privatize import (
    PrivacyConfig,
    detect_repeated_od,
    match_corpus,
    od_remove,
    od_successive_remove,
    plan_endpoints,
    privatize_trajectories,
    trip_remove,
)
from dpmobility.trajectories import window_filter
from dpmobility.network import RoadNetwork
from dpmobility.synth import SynthCityConfig, SynthTripConfig, generate_city, generate_trips
from dpmobility.trajectories import LinkTrajectory

from conftest import grid3x3, make_network

MILE = 1609.344


def lt(links, device="d"):
    return LinkTrajectory(device=device, links=tuple(links))


def line_network(lengths: dict[str, float], speed: float = 10.0):
    """Chain of distinct links with prescribed lengths."""
    nodes = {}
    edges = []
    x = 0.0
    names = list(lengths)
    nodes["n0"] = (0.0, 0.0)
    for i, lid in enumerate(names):
        x += lengths[lid]
        nodes[f"n{i+1}"] = (x, 0.0)
        edges.append((lid, f"n{i}", f"n{i+1}", {"speed_mps": speed,
                                                "length_m": lengths[lid]}))
    return make_network(nodes, edges)


def utility_of(corpus, net):
    return utility(corpus, aggregate(corpus), net)


class TestAggregate:
    def test_empty(self):
        agg = aggregate([])
        assert agg.counts == {}

    def test_two_identical_trips(self):
        agg = aggregate([lt(["a", "b"]), lt(["a", "b"])])
        assert agg.counts == {"a": 2, "b": 2}

    def test_window_only_labels(self):
        # Callers window GPS trips before matching; aggregate counts every
        # trip it is given and records the window.
        window = Window((13, 14), frozenset({"T"}))
        trips = [
            lt(["a"]),
            lt(["b"]),
            lt(["c"]),
        ]
        agg = aggregate(trips, window=window)
        assert agg.counts == {"a": 1, "b": 1, "c": 1}
        assert agg.window == window

    def test_counts_match_oracle(self, city20):
        cfg = SynthTripConfig(n_trips=40, n_devices=20, days=(date(2026, 1, 6),), seed=21)
        _, truth = generate_trips(city20, cfg)
        oracle = Counter(l for t in truth for l in t.links)
        assert aggregate(truth).counts == dict(oracle)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            AggregatedMobilityNetwork(counts={"a": 0})


class TestLengthMetrics:
    def test_network_length_empty(self):
        net = line_network({"a": 1000.0})
        assert network_length(aggregate([]), net) == 0.0

    def test_network_length_one_mile_link(self):
        net = line_network({"a": MILE})
        assert network_length(aggregate([lt(["a"]), lt(["a"])]), net) == pytest.approx(1.0)

    def test_network_length_counts_each_link_once(self, city20):
        cfg = SynthTripConfig(n_trips=25, n_devices=10, days=(date(2026, 1, 6),), seed=22)
        _, truth = generate_trips(city20, cfg)
        agg = aggregate(truth)
        expected = sum(city20.links[lid].length_m for lid in agg.counts) / MILE
        assert network_length(agg, city20) == pytest.approx(expected)

    def test_vmt_examples(self):
        net = line_network({"a": 2000.0})
        assert utility_of([], net)["vmt_mi"] == 0.0
        trips = [lt(["a"]), lt(["a"]), lt(["a"])]
        assert utility_of(trips, net)["vmt_mi"] == pytest.approx(6000.0 / MILE, abs=1e-6)

    def test_vmt_counts_multiplicity(self, city20):
        cfg = SynthTripConfig(n_trips=25, n_devices=10, days=(date(2026, 1, 6),), seed=23)
        _, truth = generate_trips(city20, cfg)
        expected = sum(city20.links[l].length_m for t in truth for l in t.links) / MILE
        assert utility_of(truth, city20)["vmt_mi"] == pytest.approx(expected)


class TestTimeMetrics:
    def test_vht_free_flow(self):
        net = line_network({"a": 1000.0}, speed=10.0)
        assert utility_of([lt(["a"])], net)["vht_h"] == pytest.approx(100.0 / 3600.0)
        assert utility_of([], net)["vht_h"] == 0.0

    def test_vhd_zero_without_observations(self):
        net = line_network({"a": 1000.0}, speed=10.0)
        assert utility_of([lt(["a"])], net)["vhd_h"] == 0.0


class TestUtility:
    def test_columns_in_order(self):
        net = line_network({"a": 1000.0})
        assert list(utility_of([lt(["a"])], net)) == [
            "network_length_mi", "vmt_mi", "vht_h", "vhd_h",
        ]

    def test_one_pass_equals_separate_folds(self):
        # Non-integer lengths and speeds, so any change in the order or the
        # grouping of the float additions would show.
        city = generate_city(SynthCityConfig(rows=8, cols=8, spacing_m=87.3))
        net = RoadNetwork(city.nodes, {
            lid: replace(link, speed_mps=link.speed_mps + 0.37 * (i % 5))
            for i, (lid, link) in enumerate(city.links.items())
        })
        cfg = SynthTripConfig(n_trips=40, n_devices=20, days=(date(2026, 1, 6),), seed=27)
        _, truth = generate_trips(net, cfg)
        for corpus in (truth, truth[::3], []):
            got = utility(corpus, aggregate(corpus), net)
            vmt = sum(net.links[lid].length_m for t in corpus for lid in t.links) / MILE
            seconds = 0.0
            for t in corpus:
                seconds += sum(net.links[lid].length_m / net.links[lid].speed_mps
                               for lid in t.links)
            assert got["vmt_mi"] == vmt
            assert got["vht_h"] == seconds / 3600.0
            assert got["network_length_mi"] == network_length(aggregate(corpus), net)


class TestIntersectionDensity:
    def test_empty_aggregation(self):
        net = grid3x3()
        density, hist = intersection_density(aggregate([]), net)
        assert set(density.values()) == {0}
        assert hist == {0: 1.0}

    def test_full_grid(self):
        net = grid3x3()
        trips = [lt([lid]) for lid in net.links]
        density, hist = intersection_density(aggregate(trips), net)
        # 3x3 grid: corners touch 4 directed links, edges 6, the centre 8
        assert density["n000_000"] == 4
        assert density["n001_000"] == 6
        assert density["n001_001"] == 8
        assert sum(hist.values()) == pytest.approx(1.0)
        assert hist == {4: 4 / 9, 6: 4 / 9, 8: 1 / 9}

    def test_partial_matches_oracle(self, city20):
        cfg = SynthTripConfig(n_trips=30, n_devices=15, days=(date(2026, 1, 6),), seed=24)
        _, truth = generate_trips(city20, cfg)
        agg = aggregate(truth)
        density, _ = intersection_density(agg, city20)
        oracle = {nid: 0 for nid in city20.nodes}
        for lid in agg.counts:
            oracle[city20.links[lid].from_node] += 1
            oracle[city20.links[lid].to_node] += 1
        assert density == oracle


class TestUnchangedSingleCountOd:
    def test_identity_run_gives_ratio_zero(self):
        trips = {0: lt(["a", "b"]), 1: lt(["c", "d"])}
        agg = aggregate(list(trips.values()))
        ods = {i: (t.links[0], t.links[-1]) for i, t in trips.items()}
        unchanged, ratio = unchanged_single_count_od(agg, ods, agg, trips)
        assert unchanged == 4
        assert ratio == 0.0

    def test_every_endpoint_moved_gives_ratio_one(self):
        raw = {0: lt(["a", "b"]), 1: lt(["c", "d"])}
        moved = {0: lt(["x", "y"]), 1: lt(["z", "w"])}
        raw_agg = aggregate(list(raw.values()))
        priv_agg = aggregate(list(moved.values()), source="dp-ani")
        ods = {i: (t.links[0], t.links[-1]) for i, t in raw.items()}
        unchanged, ratio = unchanged_single_count_od(raw_agg, ods, priv_agg, moved)
        assert unchanged == 0
        assert ratio == 1.0

    def test_window_mismatch(self):
        trips = {0: lt(["a"])}
        ods = {0: ("a", "a")}
        raw_agg = aggregate(list(trips.values()), window=Window((13, 14), frozenset({"T"})))
        priv_agg = aggregate(list(trips.values()), window=Window((12, 13), frozenset({"T"})))
        with pytest.raises(WindowMismatchError):
            unchanged_single_count_od(raw_agg, ods, priv_agg, trips)

    def test_cross_check_against_privatization_report(self, city20):
        cfg = SynthTripConfig(n_trips=80, n_devices=40, days=(date(2026, 1, 6),), seed=25)
        corpus, _ = generate_trips(city20, cfg)
        matched, _ = match_corpus(corpus, city20)
        raw_trips = {i: t for i, t in enumerate(matched) if t is not None}
        raw_agg = aggregate(list(raw_trips.values()))
        ods = {i: (t.links[0], t.links[-1]) for i, t in raw_trips.items()}
        singles = {l for od in ods.values() for l in od if raw_agg.counts[l] == 1}
        # Each of these draws releases a one-link trip on a single-count link
        # in place: two counted decisions, one unchanged link.
        for epsilon, seed in ((2.0, 6), (2.0, 0), (15.0, 0)):
            plan = plan_endpoints(corpus, city20, PrivacyConfig(global_seed=seed))
            out, report = privatize_trajectories(plan, city20, epsilon)
            priv_agg = aggregate(list(out.values()), source="dp-ani")
            unchanged, ratio = unchanged_single_count_od(raw_agg, ods, priv_agg, out)
            # The report counts decisions; the metric counts their distinct links.
            counted = [
                d for d in report.decisions
                if d.perturbed and raw_agg.counts.get(d.original_link) == 1
                and d.new_link == d.original_link
                and priv_agg.counts.get(d.original_link) == 1
            ]
            assert len(counted) == report.endpoints_unchanged_single_count
            assert unchanged == len({d.original_link for d in counted})
            assert unchanged < report.endpoints_unchanged_single_count
            assert 0 <= unchanged <= len(singles)
            assert ratio == pytest.approx(1 - unchanged / len(singles))


@pytest.fixture(scope="module")
def small_setup(city20):
    cfg = SynthTripConfig(n_trips=90, n_devices=45,
                          days=(date(2026, 1, 6), date(2026, 1, 7)),
                          repeat_fraction=0.05, seed=26)
    corpus, _ = generate_trips(city20, cfg)
    return city20, corpus


class TestCompare:
    def test_raw_only_single_row(self, small_setup):
        net, corpus = small_setup
        rows = compare(corpus, net, PrivacyConfig(), models=("raw",))
        assert len(rows) == 1
        assert rows[0]["model"] == "raw"
        assert rows[0]["privatized_ratio"] == 0.0

    def test_row_count_full_sweep(self, small_setup):
        net, corpus = small_setup
        rows = compare(corpus, net, PrivacyConfig(global_seed=1),
                       epsilons=(0.05, 1.0, 15.0))
        # raw + 3 baselines once, dp-ani per epsilon
        assert len(rows) == 4 + 3
        assert set(COMPARE_COLUMNS) == set(rows[0])

    def test_baseline_rows_constant_across_epsilons(self, small_setup):
        net, corpus = small_setup
        cfg = PrivacyConfig(global_seed=2)
        baselines = ("trip-remove", "od-remove", "od-successive")
        rows_a = compare(corpus, net, cfg, epsilons=(0.05,), models=baselines)
        rows_b = compare(corpus, net, cfg, epsilons=(15.0,), models=baselines)
        assert rows_a == rows_b

    def test_dp_ani_rows_distinct_and_deterministic(self, small_setup):
        net, corpus = small_setup
        cfg = PrivacyConfig(global_seed=3)
        rows1 = compare(corpus, net, cfg, epsilons=(0.05, 15.0), models=("dp-ani",))
        rows2 = compare(corpus, net, cfg, epsilons=(0.05, 15.0), models=("dp-ani",))
        assert rows1 == rows2
        assert rows1[0]["unchanged_slc_od"] != rows1[1]["unchanged_slc_od"]

    def test_unknown_model_rejected(self, small_setup, match_calls):
        net, corpus = small_setup
        for models in (("bogus",), ()):
            with pytest.raises(ValueError):
                compare(corpus, net, PrivacyConfig(), models=models)
        assert match_calls == []

    def test_removal_only_shrinks(self, small_setup):
        from dpmobility.privatize import match_corpus, trip_remove

        net, corpus = small_setup
        matched, _ = match_corpus(corpus, net)
        raw_trips = [t for t in matched if t is not None]
        raw_agg = aggregate(raw_trips)
        reduced = [t for t in trip_remove(raw_trips) if t is not None]
        reduced_agg = aggregate(reduced, source="trip-remove")
        assert network_length(reduced_agg, net) <= network_length(raw_agg, net)
        assert utility_of(reduced, net)["vmt_mi"] <= utility_of(raw_trips, net)["vmt_mi"]

    def test_plan_reused_across_epsilons(self, small_setup, monkeypatch):
        net, corpus = small_setup
        # A 100 m cap leaves some fired ends without a buffer, so the sweep
        # also carries sparse-network exclusions.
        cfg = PrivacyConfig(global_seed=4, max_buffer_m=100.0)
        epsilons = (0.05, 1.0, 15.0)
        matched, _ = match_corpus(corpus, net)

        radius_calls = []
        real_select_radius = privatize_module.select_radius

        def counting_select_radius(*args, **kwargs):
            radius_calls.append(args[1])
            return real_select_radius(*args, **kwargs)

        real_privatize = metrics_module.privatize_trajectories
        draws, references = [], []

        def recording(*args, **kwargs):
            result = real_privatize(*args, **kwargs)
            draws.append(result)
            return result

        def fresh_plan(plan, net, epsilon):
            result = real_privatize(plan_endpoints(corpus, net, cfg), net, epsilon)
            references.append(result)
            return result

        monkeypatch.setattr(privatize_module, "select_radius", counting_select_radius)
        monkeypatch.setattr(metrics_module, "privatize_trajectories", recording)
        rows = compare(corpus, net, cfg, epsilons=epsilons, models=("dp-ani",))
        monkeypatch.undo()
        monkeypatch.setattr(metrics_module, "privatize_trajectories", fresh_plan)
        reference_rows = compare(corpus, net, cfg, epsilons=epsilons, models=("dp-ani",))

        assert rows == reference_rows
        assert draws == references
        assert any(report.excluded.get("sparse_network") for _, report in draws)
        assert all(report.endpoints_perturbed for _, report in draws)

        counts = compute_link_counts(t for t in matched if t is not None)
        repeated = detect_repeated_od(matched)
        fired = sum(
            (counts[link] == 1 or i in repeated)
            for i, t in enumerate(matched) if t is not None
            for link in (t.links[0], t.links[-1])
        )
        assert len(radius_calls) == fired

    def test_trips_excluded_is_corpus_minus_released(self, small_setup, monkeypatch):
        net, corpus = small_setup
        window = Window((13, 14), frozenset({"T"}))
        # A 100 m cap also excludes sparse-network trips in the plan.
        cfg = PrivacyConfig(global_seed=4, max_buffer_m=100.0)
        real_privatize = metrics_module.privatize_trajectories
        reports = []

        def recording(*args, **kwargs):
            out, report = real_privatize(*args, **kwargs)
            reports.append(report)
            return out, report

        monkeypatch.setattr(metrics_module, "privatize_trajectories", recording)
        rows = compare(corpus, net, cfg, epsilons=(0.05, 1.0, 15.0), window=window)

        dp_rows = [row for row in rows if row["model"] == "dp-ani"]
        assert [row["trips_excluded"] for row in dp_rows] == [r.trips_excluded for r in reports]
        assert all(r.excluded.get("out_of_window") for r in reports)
        assert any(r.excluded.get("sparse_network") for r in reports)

        matched, _ = match_corpus(corpus, net)
        raw = [t for g, t in zip(corpus, matched) if t is not None and window.contains(g)]
        released = {"raw": len(raw)}
        for model, remove in (("trip-remove", trip_remove), ("od-remove", od_remove),
                              ("od-successive", od_successive_remove)):
            released[model] = sum(t is not None for t in remove(raw))
        other_rows = [row for row in rows if row["model"] != "dp-ani"]
        assert [row["model"] for row in other_rows] == list(released)
        for row in other_rows:
            assert row["trips_excluded"] == len(corpus) - released[row["model"]]

    def test_models_without_noise_size_no_buffers(self, small_setup, monkeypatch):
        net, corpus = small_setup

        def fail(*args, **kwargs):
            raise AssertionError("select_radius called without a dp-ani model")

        monkeypatch.setattr(privatize_module, "select_radius", fail)
        rows = compare(corpus, net, PrivacyConfig(), epsilons=(),
                       models=("raw", "trip-remove", "od-remove", "od-successive"))
        assert len(rows) == 4

    def test_nonpositive_epsilon_rejected(self, small_setup, match_calls):
        net, corpus = small_setup
        with pytest.raises(ValueError):
            compare(corpus, net, PrivacyConfig(), epsilons=(0.0,))
        for epsilon in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                compare(corpus, net, PrivacyConfig(), epsilons=(1.0, epsilon))
        with pytest.raises(ValueError):
            compare(corpus, net, PrivacyConfig(), epsilons=())
        assert match_calls == []

    def test_window_trips_matched_once(self, small_setup, match_calls):
        net, corpus = small_setup
        window = Window((13, 14), frozenset({"T"}))
        in_window = window_filter(corpus, window.hours, window.days)
        assert 0 < len(in_window) < len(corpus)
        compare(corpus, net, PrivacyConfig(global_seed=5), epsilons=(0.05, 15.0), window=window)
        assert [id(g) for g in match_calls] == [id(g) for g in in_window]

    def test_window_applies_before_every_model(self, small_setup):
        # small_setup spans a Tuesday and a Wednesday; release Tuesdays only.
        net, corpus = small_setup
        window = Window((13, 14), frozenset({"T"}))
        cfg = PrivacyConfig(global_seed=5)
        in_window = window_filter(corpus, window.hours, window.days, -8.0)
        assert 0 < len(in_window) < len(corpus)
        rows = compare(corpus, net, cfg, epsilons=(1.0,), window=window)
        prefiltered = compare(in_window, net, cfg, epsilons=(1.0,), window=window)
        left_out = len(corpus) - len(in_window)
        for row, expected in zip(rows, prefiltered, strict=True):
            assert row["trips_excluded"] == expected["trips_excluded"] + left_out
            assert {**row, "trips_excluded": None} == {**expected, "trips_excluded": None}
