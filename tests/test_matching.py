from datetime import date

import pytest

from dpmobility.errors import NoCandidateError, UnmatchableError
from dpmobility.matching import MatchConfig, match_noisy_endpoint, match_trajectory, rebuild_trajectory
from dpmobility.synth import SynthTripConfig, generate_trips
from dpmobility.trajectories import GpsSample, GpsTrajectory, LinkTrajectory

from conftest import BASE, local_epoch, make_network, offset_point, trip_through_nodes


def path_network():
    # a -> b -> c -> d in a straight line, both directions
    nodes = {"a": (0, 0), "b": (100, 0), "c": (200, 0), "d": (300, 0)}
    edges = []
    for i, (u, v) in enumerate((("a", "b"), ("b", "c"), ("c", "d"))):
        edges.append((f"f{i}", u, v))
        edges.append((f"r{i}", v, u))
    return make_network(nodes, edges)


class TestMatchTrajectory:
    def test_samples_on_nodes(self):
        net = path_network()
        trip = trip_through_nodes(net, ["a", "b", "c"], "2026-01-06")
        lt = match_trajectory(trip, net)
        assert lt.links == ("f0", "f1")
        assert lt.day == date(2026, 1, 6)
        assert lt.hour == 13
        assert lt.is_connected(net)

    def test_skipped_interior_node_filled_by_shortest_path(self):
        net = path_network()
        trip = trip_through_nodes(net, ["a", "c"], "2026-01-06")
        lt = match_trajectory(trip, net)
        assert lt.links == ("f0", "f1")

    def test_off_network_samples_are_skipped(self):
        net = path_network()
        t0 = local_epoch("2026-01-06")
        pts = [net.nodes["a"], offset_point(BASE, 150.0, 500.0), net.nodes["c"]]
        trip = GpsTrajectory(
            device="d",
            samples=tuple(
                GpsSample(device="d", t=t0 + 10 * i, point=p) for i, p in enumerate(pts)
            ),
        )
        lt = match_trajectory(trip, net)
        assert lt.links == ("f0", "f1")

    def test_too_many_consecutive_misses(self):
        net = path_network()
        t0 = local_epoch("2026-01-06")
        off = offset_point(BASE, 150.0, 500.0)
        pts = [net.nodes["a"]] + [off] * 4 + [net.nodes["c"]]
        trip = GpsTrajectory(
            device="d",
            samples=tuple(
                GpsSample(device="d", t=t0 + 10 * i, point=p) for i, p in enumerate(pts)
            ),
        )
        with pytest.raises(UnmatchableError):
            match_trajectory(trip, net, MatchConfig(max_node_skip=3))

    def test_snap_radius_must_be_positive(self):
        for radius in (0.0, -5.0, float("nan")):
            with pytest.raises(ValueError):
                MatchConfig(snap_radius_m=radius)

    def test_single_node_trip_unmatchable(self):
        net = path_network()
        trip = trip_through_nodes(net, ["a", "a", "a"], "2026-01-06")
        with pytest.raises(UnmatchableError):
            match_trajectory(trip, net)

    def test_no_path_unmatchable(self):
        nodes = {"a": (0, 0), "b": (100, 0)}
        net = make_network(nodes, [("e1", "a", "b")])
        trip = trip_through_nodes(net, ["b", "a"], "2026-01-06")
        with pytest.raises(UnmatchableError):
            match_trajectory(trip, net)

    def test_deterministic(self, city20):
        cfg = SynthTripConfig(n_trips=20, n_devices=10, days=(date(2026, 1, 6),), seed=3)
        corpus, _ = generate_trips(city20, cfg)
        a = [match_trajectory(g, city20) for g in corpus]
        b = [match_trajectory(g, city20) for g in corpus]
        assert a == b

    def test_recovers_ground_truth_with_jitter(self, city20):
        cfg = SynthTripConfig(
            n_trips=60, n_devices=40, days=(date(2026, 1, 6),),
            gps_interval_s=10.0, jitter_sigma_m=5.0, seed=8,
        )
        corpus, truth = generate_trips(city20, cfg)
        total = hits = 0
        for g, t in zip(corpus, truth):
            lt = match_trajectory(g, city20)
            assert lt.is_connected(city20)
            hits += len(set(lt.links) & set(t.links))
            total += len(t.links)
        assert hits / total >= 0.95

    def test_exact_recovery_without_jitter(self, city20):
        cfg = SynthTripConfig(
            n_trips=40, n_devices=40, days=(date(2026, 1, 6),),
            jitter_sigma_m=0.0, seed=9,
        )
        corpus, truth = generate_trips(city20, cfg)
        for g, t in zip(corpus, truth):
            assert match_trajectory(g, city20).links == t.links


class TestMatchNoisyEndpoint:
    def test_single_candidate(self):
        net = path_network()
        z = offset_point(BASE, 250.0, 40.0)
        lid, node = match_noisy_endpoint(z, {"f0"}, net)
        assert lid == "f0"
        assert node == "b"  # nearer endpoint of f0 to z

    def test_picks_nearer_candidate(self):
        net = path_network()
        z = offset_point(BASE, 30.0, 10.0)
        lid, node = match_noisy_endpoint(z, {"f0", "f2"}, net)
        assert lid == "f0"
        assert node == "a"

    def test_equidistant_tie_break(self):
        nodes = {"a": (0, 0), "b": (100, 0)}
        net = make_network(nodes, [("m2", "a", "b"), ("m1", "a", "b")])
        z = offset_point(BASE, 50.0, 20.0)
        lid, _ = match_noisy_endpoint(z, {"m1", "m2"}, net)
        assert lid == "m1"

    def test_empty_candidates(self):
        with pytest.raises(NoCandidateError):
            match_noisy_endpoint(BASE, set(), path_network())


class TestRebuildTrajectory:
    def make_lt(self, links):
        return LinkTrajectory(device="d", day=date(2026, 1, 6), hour=13, links=tuple(links))

    def test_unchanged_returns_original(self):
        net = path_network()
        original = self.make_lt(["f0", "f1"])
        assert rebuild_trajectory(original, net) is original

    def test_origin_one_node_upstream_prefixes_one_link(self):
        net = path_network()
        original = self.make_lt(["f1", "f2"])  # b -> d
        rebuilt = rebuild_trajectory(original, net, new_origin="a")
        assert rebuilt.links == ("f0", "f1", "f2")

    def test_new_destination_extends(self):
        net = path_network()
        original = self.make_lt(["f0", "f1"])  # a -> c
        rebuilt = rebuild_trajectory(original, net, new_destination="d")
        assert rebuilt.links == ("f0", "f1", "f2")

    def test_prefix_matches_shortest_path_oracle(self, city20):
        route = city20.shortest_path("n005_005", "n005_009")
        original = self.make_lt(route)
        new_origin = "n007_004"
        rebuilt = rebuild_trajectory(original, city20, new_origin=new_origin)
        head_anchor = city20.links[route[0]].to_node
        expected = city20.shortest_path(new_origin, head_anchor) + list(route[1:])
        assert list(rebuilt.links) == expected
        assert rebuilt.is_connected(city20)

    def test_both_ends_single_link_trip(self):
        net = path_network()
        original = self.make_lt(["f1"])  # b -> c
        rebuilt = rebuild_trajectory(original, net, new_origin="a", new_destination="d")
        assert rebuilt.links == ("f0", "f1", "f2")

    def test_empty_rebuild_rejected(self):
        net = path_network()
        original = self.make_lt(["f1"])
        with pytest.raises(UnmatchableError):
            rebuild_trajectory(original, net, new_origin="c")  # c == head anchor

    def test_connectivity_always_holds(self, city20):
        route = city20.shortest_path("n003_002", "n010_010")
        original = self.make_lt(route)
        for new_o in ("n002_002", "n004_001", "n003_003"):
            for new_d in (None, "n011_011", "n009_009"):
                rebuilt = rebuild_trajectory(original, city20, new_o, new_d)
                assert rebuilt.is_connected(city20)
