from datetime import date

import pytest

from dpmobility.errors import NoCandidateError, UnmatchableError
from dpmobility.matching import MatchConfig, match_noisy_endpoint, match_trajectory, rebuild_trajectory
from dpmobility.privatize import match_corpus
from dpmobility.synth import SynthTripConfig, generate_trips
from dpmobility.trajectories import GpsSample, GpsTrajectory, LinkTrajectory

import reference
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
        assert lt.device == trip.device
        assert reference.is_connected(net, lt.links)

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
        # An infinite radius would measure every sample against every node.
        for radius in (0.0, -5.0, float("nan"), float("inf")):
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
            assert reference.is_connected(city20, lt.links)
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


def trip_through_points(points, device: str) -> GpsTrajectory:
    t0 = local_epoch("2026-01-06")
    return GpsTrajectory(
        device=device,
        samples=tuple(GpsSample(device=device, t=t0 + 10 * i, point=p)
                      for i, p in enumerate(points)),
    )


class TestMatchCorpus:
    """One snapping pass over the whole corpus matches each trip exactly as
    the reference matcher does alone, failures included."""

    def test_mixed_corpus_equals_per_trip_matching(self):
        # path_network plus a one-way link e -> f away from it.
        nodes = {"a": (0, 0), "b": (100, 0), "c": (200, 0), "d": (300, 0),
                 "e": (0, 400), "f": (100, 400)}
        edges = [("g0", "e", "f")]
        for i, (u, v) in enumerate((("a", "b"), ("b", "c"), ("c", "d"))):
            edges += [(f"f{i}", u, v), (f"r{i}", v, u)]
        net = make_network(nodes, edges)
        at = net.nodes
        off = offset_point(BASE, 150.0, 200.0)
        corpus = [
            trip_through_points([at["a"], at["b"], at["c"]], "good-1"),
            trip_through_points([at["a"]] + [off] * 4 + [at["c"]], "off-network-run"),
            trip_through_points([at["d"], off, at["b"]], "good-2"),
            trip_through_points([at["b"]] * 3, "single-node"),
            trip_through_points([at["f"], at["e"]], "no-path"),
            trip_through_points([at["a"], off, off], "one-snap"),
            trip_through_points([at["e"], at["f"], off, off, off], "good-3"),
        ]
        matched, unmatchable = match_corpus(corpus, net)
        assert matched == [reference.match(net, g) for g in corpus]
        assert [m is not None for m in matched] == [True, False, True, False, False, False, True]
        assert unmatchable == 4
        assert matched[2].links == ("r2", "r1")

    def test_generated_corpus_equals_per_trip_matching(self, city20):
        cfg = SynthTripConfig(n_trips=80, n_devices=40, days=(date(2026, 1, 6),),
                              gps_interval_s=5.0, jitter_sigma_m=20.0, seed=14)
        corpus, _ = generate_trips(city20, cfg)
        # A snap radius under the jitter leaves about half the trips unmatchable.
        cfg = MatchConfig(snap_radius_m=30.0)
        matched, unmatchable = match_corpus(corpus, city20, cfg)
        expected = [reference.match(city20, g, cfg) for g in corpus]
        assert matched == expected
        assert unmatchable == expected.count(None)
        assert 0 < unmatchable < len(corpus)

    def test_empty_corpus(self, city20):
        assert match_corpus([], city20) == ([], 0)


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
        return LinkTrajectory(device="d", links=tuple(links))

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
        assert reference.is_connected(city20, rebuilt.links)

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
                assert reference.is_connected(city20, rebuilt.links)
                assert rebuilt.links == reference.rebuild(city20, original.links, new_o, new_d)
