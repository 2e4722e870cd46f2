from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpmobility.privatize as privatize_module
from dpmobility.adaptive import BufferResult
from dpmobility.aggregate import Window, compute_link_counts
from dpmobility.metrics import DEFAULT_EPSILONS
from dpmobility.noise import NoiseParams, SeedRule, perturb
from dpmobility.privatize import (
    DESTINATION,
    ORIGIN,
    PrivacyConfig,
    detect_repeated_od,
    match_corpus,
    match_window,
    od_remove,
    od_successive_remove,
    plan_endpoints,
    privatize_aggregate,
    privatize_trajectories,
    trip_remove,
)
from dpmobility.synth import SynthCityConfig, SynthTripConfig, generate_city, generate_trips
from dpmobility.geometry import MAX_DISPLACEMENT_M, GeoPoint
from dpmobility.trajectories import GpsSample, GpsTrajectory, LinkTrajectory, window_filter

import reference
from conftest import local_epoch, make_network, trip_along_route, trip_through_nodes

DAYS = ("2026-01-06", "2026-01-07", "2026-01-08", "2026-01-13", "2026-01-14", "2026-01-15")


def lt(links, device="d"):
    return LinkTrajectory(device=device, links=tuple(links))


def draw(corpus, net, cfg, epsilon):
    """One release of ``corpus`` at ``epsilon``, from a fresh plan."""
    plan = plan_endpoints(corpus, net, cfg)
    return privatize_trajectories(plan, net, epsilon)


class TestLinkCounts:
    def test_empty(self):
        assert compute_link_counts([]) == {}

    def test_two_identical_single_link_trips(self):
        assert compute_link_counts([lt(["L"]), lt(["L"])]) == {"L": 2}

    def test_per_occurrence_within_one_trip(self):
        assert compute_link_counts([lt(["L", "M", "L"])]) == {"L": 2, "M": 1}

    def test_matches_nested_loop_oracle(self, city20):
        cfg = SynthTripConfig(n_trips=30, n_devices=20, days=(date(2026, 1, 6),), seed=4)
        _, truth = generate_trips(city20, cfg)
        assert compute_link_counts(truth) == reference.link_counts(truth)


class TestDetectRepeated:
    def test_all_distinct(self):
        corpus = [lt(["a"], device="d1"), lt(["b"], device="d1"), lt(["a"], device="d2")]
        assert detect_repeated_od(corpus) == set()

    def test_same_device_same_od_two_days(self):
        corpus = [
            lt(["a", "b"], device="d1"),
            lt(["a", "b"], device="d1"),
        ]
        assert detect_repeated_od(corpus) == {0, 1}

    def test_different_devices_not_flagged(self):
        corpus = [
            lt(["a", "b"], device="d1"),
            lt(["a", "b"], device="d2"),
        ]
        assert detect_repeated_od(corpus) == set()

    def test_matches_nested_loop_oracle(self, city20):
        cfg = SynthTripConfig(n_trips=50, n_devices=12, days=(date(2026, 1, 6), date(2026, 1, 7)),
                              repeat_fraction=0.25, seed=6)
        _, truth = generate_trips(city20, cfg)
        assert detect_repeated_od(truth) == reference.repeated_od(truth)

    def test_none_entries_skipped(self):
        corpus = [lt(["a"], device="d1"), None, lt(["a"], device="d1")]
        assert detect_repeated_od(corpus) == {0, 2}


class TestPrivatizePipeline:
    def test_no_trigger_passthrough(self, city20):
        # Two devices share both endpoint links, so every link count is >= 2
        # and no endpoint pair repeats within one device.
        t1 = trip_along_route(city20, "n011_011", "n011_014", DAYS[0], device="da")
        t2 = trip_along_route(city20, "n011_011", "n011_014", DAYS[0], device="db", hh=13, mm=50)
        cfg = PrivacyConfig(global_seed=1)
        agg, report = privatize_aggregate([t1, t2], city20, cfg, 0.05)
        matched, _ = match_corpus([t1, t2], city20)
        assert report.endpoints_perturbed == 0
        assert agg.counts == compute_link_counts(matched)
        assert report.trips_in == report.trips_out == 2

    def test_draw_rejects_nonpositive_epsilon(self, city20):
        # Nothing fires in this corpus, so only the draw itself can reject.
        t1 = trip_along_route(city20, "n011_011", "n011_014", DAYS[0], device="da")
        t2 = trip_along_route(city20, "n011_011", "n011_014", DAYS[0], device="db", hh=13, mm=50)
        plan = plan_endpoints([t1, t2], city20, PrivacyConfig())
        assert plan.fired == {}
        for epsilon in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                privatize_trajectories(plan, city20, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_epsilon_rejected_before_matching(self, city20, match_calls, epsilon):
        trip = trip_along_route(city20, "n011_011", "n011_014", DAYS[0])
        with pytest.raises(ValueError):
            privatize_aggregate([trip], city20, PrivacyConfig(), epsilon)
        assert match_calls == []

    def test_unique_origin_moves_across_seeds(self, city20):
        trip = trip_along_route(city20, "n011_011", "n011_014", DAYS[0])
        matched, _ = match_corpus([trip], city20)
        original = matched[0].links[0]
        moved = 0
        for seed in range(100):
            out, _ = draw([trip], city20, PrivacyConfig(global_seed=seed), 0.05)
            if out and out[0].links[0] != original:
                moved += 1
        assert moved >= 90

    def test_trigger_correctness_against_reports(self, city20):
        cfg_trips = SynthTripConfig(n_trips=120, n_devices=60, days=(date(2026, 1, 6),),
                                    repeat_fraction=0.05, seed=11)
        corpus, _ = generate_trips(city20, cfg_trips)
        matched, _ = match_corpus(corpus, city20)
        counts = compute_link_counts(t for t in matched if t is not None)
        repeated = detect_repeated_od(matched)
        _, report = draw(corpus, city20, PrivacyConfig(global_seed=5), 1.0)
        for dec in report.decisions:
            trip = matched[dec.trip]
            should_fire = counts[dec.original_link] == 1 or dec.trip in repeated
            assert dec.perturbed == should_fire
            if dec.perturbed:
                assert dec.matched_link is not None
                assert dec.radius_m is not None
            else:
                assert dec.new_link == dec.original_link

    def test_functional_class_preserved(self, city20):
        cfg_trips = SynthTripConfig(n_trips=120, n_devices=60, days=(date(2026, 1, 6),),
                                    repeat_fraction=0.1, seed=12)
        corpus, _ = generate_trips(city20, cfg_trips)
        _, report = draw(corpus, city20, PrivacyConfig(global_seed=3), 0.1)
        perturbed = [d for d in report.decisions if d.perturbed]
        assert perturbed
        for dec in perturbed:
            assert (city20.links[dec.matched_link].functional_class
                    == city20.links[dec.original_link].functional_class)

    def test_deterministic_output(self, city20):
        cfg_trips = SynthTripConfig(n_trips=60, n_devices=30, days=(date(2026, 1, 6),), seed=13)
        corpus, _ = generate_trips(city20, cfg_trips)
        cfg = PrivacyConfig(global_seed=21)
        agg1, rep1 = privatize_aggregate(corpus, city20, cfg, 0.5)
        agg2, rep2 = privatize_aggregate(corpus, city20, cfg, 0.5)
        assert agg1.counts == agg2.counts
        assert rep1.decisions == rep2.decisions

    def test_repeated_trips_identical_noise(self, city20):
        trips = [
            trip_along_route(city20, "n011_011", "n011_014", day, device="commuter")
            for day in DAYS
        ]
        out, report = draw(trips, city20, PrivacyConfig(global_seed=1), 0.5)
        assert report.endpoints_perturbed == 2 * len(trips)
        ods = {(t.links[0], t.links[-1]) for t in out.values()}
        assert len(ods) == 1

    def test_report_accounting(self, city20):
        cfg_trips = SynthTripConfig(n_trips=80, n_devices=40, days=(date(2026, 1, 6),), seed=14)
        corpus, _ = generate_trips(city20, cfg_trips)
        _, report = draw(corpus, city20, PrivacyConfig(global_seed=9), 0.05)
        assert report.trips_out + report.trips_excluded == report.trips_in

    def test_single_count_postcondition(self, city20):
        # Every origin/destination link still unique in the privatized output
        # must be accounted for in the unchanged counter.
        cfg_trips = SynthTripConfig(n_trips=100, n_devices=50, days=(date(2026, 1, 6),), seed=15)
        corpus, _ = generate_trips(city20, cfg_trips)
        matched, _ = match_corpus(corpus, city20)
        counts = compute_link_counts(t for t in matched if t is not None)
        out, report = draw(corpus, city20, PrivacyConfig(global_seed=2), 5.0)
        new_counts = compute_link_counts(out.values())
        survivors = 0
        for dec in report.decisions:
            if (dec.perturbed and counts.get(dec.original_link) == 1
                    and dec.new_link == dec.original_link
                    and new_counts.get(dec.original_link) == 1):
                survivors += 1
        assert report.endpoints_unchanged_single_count == survivors


class TestDrawExclusions:
    """A trip the draw cannot release leaves no trace: it has no decisions
    and none of its links is counted."""

    def release(self, corpus, net, cfg, epsilon):
        plan = plan_endpoints(corpus, net, cfg)
        out, report = privatize_trajectories(plan, net, epsilon)
        agg, whole = privatize_aggregate(corpus, net, cfg, epsilon)
        assert whole == report
        assert report.trips_in == report.trips_out + sum(report.excluded.values())
        assert {d.trip for d in report.decisions} == set(out)
        counts = reference.link_counts(out.values())
        assert agg.counts == counts
        # Decisions follow plan order, origin before destination, and an
        # excluded trip has none.
        assert list(out) == [i for i in plan.trips if i in out]
        assert [(d.trip, d.end) for d in report.decisions] == [
            (i, end) for i in out for end in (ORIGIN, DESTINATION)
        ]
        assert report.endpoints_unchanged_single_count == sum(
            d.perturbed and plan.counts.get(d.original_link) == 1
            and d.new_link == d.original_link and counts.get(d.original_link) == 1
            for d in report.decisions
        )
        return plan, out, report

    def test_noise_out_of_range(self):
        # At epsilon 1e-4 a typical end moves 2e4 * R: past 100 km for R above 5 m.
        net = generate_city(SynthCityConfig(rows=8, cols=8))
        corpus, _ = generate_trips(net, SynthTripConfig(n_trips=60, n_devices=30,
                                                        days=(date(2026, 1, 6),), seed=3))
        epsilon = 1e-4
        plan, out, report = self.release(corpus, net, PrivacyConfig(), epsilon)
        dropped = set(plan.trips) - set(out)
        assert len(dropped) == report.excluded["noise_out_of_range"] == 14
        assert report.excluded == {"noise_out_of_range": 14}
        for i in plan.trips:
            moves = [f.unit_radius / epsilon * f.buffer.radius_m
                     for (j, _), f in plan.fired.items() if j == i]
            assert (max(moves, default=0.0) > MAX_DISPLACEMENT_M) == (i in dropped)

    def test_unmatchable_rebuild(self):
        # One-way a -> b -> c -> d, and a one-way spur a -> e into a dead
        # end.  The first trip's origin link is traversed once; a noisy
        # origin that snaps to e cannot be routed back into b.
        net = make_network(
            {"a": (0, 0), "b": (100, 0), "c": (200, 0), "d": (300, 0), "e": (-30, 0)},
            [("f0", "a", "b"), ("f1", "b", "c"), ("f2", "c", "d"), ("spur", "a", "e")],
        )
        corpus = [trip_through_nodes(net, ["a", "b", "c", "d"], DAYS[0], device="d1"),
                  trip_through_nodes(net, ["b", "c", "d"], DAYS[0], device="d2", hh=14)]
        outcomes = []
        for seed in range(20):
            cfg = PrivacyConfig(h1=1, h2=1, global_seed=seed)
            plan, out, report = self.release(corpus, net, cfg, 1.0)
            assert set(plan.fired) == {(0, ORIGIN)}
            fired = plan.fired[0, ORIGIN]
            assert fired.buffer.buffer_set_fc == {"f0", "spur"}
            new_origin = reference.snap_noisy(net, fired.noisy_point(1.0), {"f0", "spur"})[1]
            assert (new_origin == "e") == (report.excluded == {"unmatchable_rebuild": 1})
            # Re-routed from a, the trip keeps f0, which nothing else traverses.
            assert report.endpoints_unchanged_single_count == (new_origin == "a")
            outcomes.append(new_origin)
        assert set(outcomes) == {"a", "e"}


class TestDrawTouchesOnlyFiredTrips:
    def test_work_scales_with_fired_ends(self, city20, monkeypatch):
        cfg_trips = SynthTripConfig(n_trips=120, n_devices=60, days=(date(2026, 1, 6),),
                                    repeat_fraction=0.05, seed=11)
        corpus, _ = generate_trips(city20, cfg_trips)
        plan = plan_endpoints(corpus, city20, PrivacyConfig(global_seed=5))
        fired_trips = {i for i, _ in plan.fired}
        assert fired_trips and len(fired_trips) < len(plan.trips)

        calls = {"match_noisy_endpoint": 0, "rebuild_trajectory": 0}
        for name in calls:
            real = getattr(privatize_module, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(privatize_module, name, counting)
        out, report = privatize_trajectories(plan, city20, 1.0)
        monkeypatch.undo()

        assert report.excluded == plan.excluded
        assert calls == {"match_noisy_endpoint": len(plan.fired),
                         "rebuild_trajectory": len(fired_trips)}
        for i, trip in plan.trips.items():
            if i not in fired_trips:
                assert out[i] is trip

        def unfired(report):
            return [d for d in report.decisions if d.trip not in fired_trips]

        _, other = privatize_trajectories(plan, city20, 0.05)
        assert unfired(report) == unfired(other)
        assert unfired(report) == [d for i in plan.passed for d in plan.passed[i]]


class TestPrivacyConfig:
    @pytest.mark.parametrize("kwargs", [
        {"h1": -1},
        {"h1": 2, "h2": 3},
        {"h1": 0, "h2": -1},
        {"initial_buffer_m": 0.0},
        {"initial_buffer_m": float("nan")},
        {"initial_buffer_m": float("inf")},
        {"buffer_step_m": -10.0},
        {"buffer_step_m": 0.0},
        {"buffer_step_m": float("nan")},
        {"buffer_step_m": float("inf")},
        {"max_buffer_m": 0.0},
        {"max_buffer_m": float("nan")},
        {"max_buffer_m": float("inf")},
    ])
    def test_rejects_bad_thresholds_and_buffers(self, kwargs):
        with pytest.raises(ValueError):
            PrivacyConfig(**kwargs)

    def test_accepts_boundary_values(self):
        PrivacyConfig(h1=3, h2=3)
        PrivacyConfig(h1=0, h2=0, initial_buffer_m=1e-3, buffer_step_m=1e-3,
                      max_buffer_m=1e-3)


class TestPlannedNoise:
    def test_draw_equals_perturb_bit_for_bit(self, city20):
        # The plan draws each fired end's uniforms once; every epsilon of
        # the sweep must land exactly where a fresh perturb from the end's
        # seeded generator lands.
        cfg_trips = SynthTripConfig(n_trips=120, n_devices=60, days=(date(2026, 1, 6),),
                                    repeat_fraction=0.1, seed=12)
        corpus, _ = generate_trips(city20, cfg_trips)
        plan = plan_endpoints(corpus, city20, PrivacyConfig(global_seed=29))
        assert len(plan.fired) >= 20
        for (i, end), fired in plan.fired.items():
            link = plan.trips[i].links[0 if end == ORIGIN else -1]
            assert isinstance(fired.buffer, BufferResult)
            assert isinstance(fired.theta, float) and isinstance(fired.unit_radius, float)
            for epsilon in DEFAULT_EPSILONS:
                expected = perturb(
                    fired.point,
                    NoiseParams(epsilon, fired.buffer.radius_m),
                    SeedRule(29).generator(link, end),
                )
                got = fired.noisy_point(epsilon)
                assert [x.hex() for x in got] == [x.hex() for x in expected]

    def test_sparse_ends_carry_no_noise(self, city20):
        # A 60 m cap leaves every required end without a buffer, so each
        # trip with such an end leaves the plan and no noise is drawn.
        cfg_trips = SynthTripConfig(n_trips=80, n_devices=40, days=(date(2026, 1, 6),), seed=16)
        corpus, _ = generate_trips(city20, cfg_trips)
        full = plan_endpoints(corpus, city20, PrivacyConfig())
        plan = plan_endpoints(corpus, city20, PrivacyConfig(max_buffer_m=60.0))
        assert full.fired and plan.fired == {}
        assert set(plan.trips) == set(full.trips) - {i for i, _ in full.fired}
        assert plan.excluded == {"sparse_network": len(full.trips) - len(plan.trips)}

    def test_sparse_trips_leave_the_plan(self, city20):
        # At a 90 m cap some required ends get a buffer and some do not.
        cfg_trips = SynthTripConfig(n_trips=80, n_devices=40, days=(date(2026, 1, 6),), seed=16)
        corpus, _ = generate_trips(city20, cfg_trips)
        full = plan_endpoints(corpus, city20, PrivacyConfig())
        plan = plan_endpoints(corpus, city20, PrivacyConfig(max_buffer_m=90.0))
        sparse = plan.excluded["sparse_network"]
        assert sparse and plan.fired
        assert set(plan.trips) < set(full.trips)
        assert len(full.trips) - len(plan.trips) == sparse
        assert {i for i, _ in plan.fired} <= set(plan.trips)
        assert plan.counts == full.counts
        assert set(plan.fired) == {k for k in full.fired if k[0] in plan.trips}
        for epsilon in (0.05, 1.0, 15.0):
            _, report = privatize_trajectories(plan, city20, epsilon)
            assert report.excluded["sparse_network"] == sparse


def two_day_corpus(net):
    """Trips on a Monday and a Tuesday; the tests release Tuesdays only."""
    cfg_trips = SynthTripConfig(n_trips=300, n_devices=150,
                                days=(date(2026, 1, 5), date(2026, 1, 6)), seed=42)
    corpus, _ = generate_trips(net, cfg_trips)
    return corpus, Window((13, 14), frozenset({"T"}))


class TestWindowBeforeCounting:
    def test_rule_holds_for_the_released_window(self, city20):
        # A link traversed once on Tuesday and again on Monday has an
        # in-window count of 1, so its Tuesday endpoint must be perturbed.
        corpus, window = two_day_corpus(city20)
        matched, _ = match_corpus(corpus, city20)
        in_window = [t if window.contains(g) else None for g, t in zip(corpus, matched)]
        counts = compute_link_counts(t for t in in_window if t is not None)
        repeated = detect_repeated_od(in_window)
        cfg = PrivacyConfig()
        agg, report = privatize_aggregate(corpus, city20, cfg, 1.0, window=window)

        required = {
            (i, end)
            for i, t in enumerate(in_window) if t is not None
            for end, link in ((ORIGIN, t.links[0]), (DESTINATION, t.links[-1]))
            if counts[link] == 1 or i in repeated
        }
        released = {(d.trip, d.end) for d in report.decisions}
        perturbed = {(d.trip, d.end) for d in report.decisions if d.perturbed}
        assert required & released
        assert perturbed == required & released
        assert {trip for trip, _ in released} <= {i for i, t in enumerate(in_window) if t}
        assert report.excluded["out_of_window"] == (
            len(corpus) - len(window_filter(corpus, window.hours, window.days))
        )
        assert report.trips_out + report.trips_excluded == report.trips_in

        # Filtering the corpus to the window first releases the same result.
        kept = [i for i, t in enumerate(in_window) if t is not None]
        agg_kept, report_kept = privatize_aggregate(
            [corpus[i] for i in kept], city20, cfg, 1.0, window=window
        )
        assert agg_kept.counts == agg.counts
        assert [replace(d, trip=kept[d.trip]) for d in report_kept.decisions] == report.decisions


class TestWindowBeforeMatching:
    def test_plan_matches_only_trips_in_the_window(self, city20, match_calls):
        corpus, window = two_day_corpus(city20)
        in_window = window_filter(corpus, window.hours, window.days)
        assert 0 < len(in_window) < len(corpus)
        plan = plan_endpoints(corpus, city20, PrivacyConfig(), window=window)
        assert [id(g) for g in match_calls] == [id(g) for g in in_window]
        assert plan.excluded["out_of_window"] == len(corpus) - len(in_window)
        assert all(window.contains(corpus[i]) for i in plan.trips)

    def test_window_with_no_trip_matches_nothing(self, city20, match_calls):
        corpus, _ = two_day_corpus(city20)
        saturday = Window((13, 14), frozenset({"Sa"}))
        assert match_window(corpus, city20, window=saturday) == \
            ({}, {"out_of_window": len(corpus)})
        assert match_window([], city20, window=saturday) == ({}, {})
        assert match_calls == []

    def test_unmatchable_trip_outside_the_window_is_out_of_window(self, city20):
        # Monday, far from every node: outside a Tuesday window and unmatchable.
        t0 = local_epoch("2026-01-05")
        far = GeoPoint(0.0, 0.0)
        stray = GpsTrajectory("stray", (GpsSample("stray", t0, far),
                                        GpsSample("stray", t0 + 30.0, far)))
        inside = trip_along_route(city20, "n011_011", "n011_014", "2026-01-06")
        tuesdays = Window((13, 14), frozenset({"T"}))
        cfg = PrivacyConfig()
        assert plan_endpoints([stray, inside], city20, cfg).excluded == {"unmatchable": 1}
        plan = plan_endpoints([stray, inside], city20, cfg, window=tuesdays)
        assert plan.excluded == {"out_of_window": 1}
        assert list(plan.trips) == [1]


class TestBaselines:
    def corpus_all_shared(self):
        return [lt(["a", "b"], device="d1"), lt(["a", "b"], device="d2")]

    def test_trip_remove_identity_when_counts_high(self):
        corpus = self.corpus_all_shared()
        assert trip_remove(corpus) == corpus

    def test_trip_remove_drops_unique_origins(self):
        corpus = [lt(["a", "x"], device="d1"), lt(["b", "x"], device="d2")]
        assert trip_remove(corpus) == [None, None]

    def test_od_remove_identity_when_counts_high(self):
        corpus = self.corpus_all_shared()
        assert od_remove(corpus) == corpus

    def test_od_remove_clips_unique_ends(self):
        corpus = [lt(["a", "m", "b"]), lt(["c", "m", "d"])]
        got = od_remove(corpus)
        assert [t.links for t in got] == [("m",), ("m",)]

    def test_od_remove_drops_single_unique_trip(self):
        assert od_remove([lt(["only"])]) == [None]

    def test_od_successive_strips_runs(self):
        corpus = [
            lt(["u1", "u2", "u3", "m", "v1"]),
            lt(["x", "m", "y"]),
        ]
        got = od_successive_remove(corpus)
        assert got[0].links == ("m",)
        assert got[1].links == ("m",)

    def test_od_successive_drops_fully_unique(self):
        assert od_successive_remove([lt(["p", "q", "r"])]) == [None]

    def test_baselines_match_brute_force(self, city20):
        cfg_trips = SynthTripConfig(n_trips=60, n_devices=30, days=(date(2026, 1, 6),), seed=16)
        _, truth = generate_trips(city20, cfg_trips)
        assert_baselines_match_brute_force(truth)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5),
                    min_size=1, max_size=6))
    def test_baselines_match_brute_force_on_generated_corpora(self, trips):
        assert_baselines_match_brute_force([lt(links) for links in trips])


def assert_baselines_match_brute_force(corpus):
    assert trip_remove(corpus) == reference.trip_remove(corpus)
    assert od_remove(corpus) == reference.od_remove(corpus)
    assert od_successive_remove(corpus) == reference.od_successive(corpus)
