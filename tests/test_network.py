import functools
import itertools
import math
from datetime import date

import numpy as np
import pytest

import dpmobility.network as network_module
from dpmobility.adaptive import DEFAULT_MAX_BUFFER_M, select_radius
from dpmobility.errors import NetworkError, NoCandidateError, NoPathError
from dpmobility.geometry import GeoPoint, haversine_distance
from dpmobility.network import Link, RadiusScan, RoadNetwork
from dpmobility.privatize import match_corpus
from dpmobility.synth import SynthCityConfig, SynthTripConfig, generate_city, generate_trips

from conftest import BASE, grid3x3, make_network, offset_point


def brute_force_within(net: RoadNetwork, center: GeoPoint, radius: float) -> set[str]:
    return {lid for lid in net.links if net.distance_to_link(center, lid) <= radius}


def random_network(rng: np.random.Generator, n_nodes: int, base: GeoPoint,
                   span_m: float = 2000.0) -> RoadNetwork:
    nodes_m = {
        f"n{i}": (float(rng.uniform(0, span_m)), float(rng.uniform(0, span_m)))
        for i in range(n_nodes)
    }
    edges = []
    k = 0
    for a, b in itertools.combinations(sorted(nodes_m), 2):
        if rng.random() < 0.4:
            edges.append((f"e{k:03d}", a, b, {"fc": int(rng.integers(1, 6))}))
            k += 1
            if rng.random() < 0.7:
                edges.append((f"e{k:03d}", b, a, {"fc": int(rng.integers(1, 6))}))
                k += 1
    if not edges:
        names = sorted(nodes_m)
        edges.append(("e000", names[0], names[1]))
    return make_network(nodes_m, edges, base)


def brute_force_nearest_node(net: RoadNetwork, p: GeoPoint, within: float) -> str | None:
    best = min((haversine_distance(p, q), nid) for nid, q in net.nodes.items())
    return best[1] if best[0] <= within else None


class TestValidation:
    def test_unknown_endpoint(self):
        p = GeoPoint(0, 0)
        link = Link("L", "a", "missing", (p, GeoPoint(0, 0.001)), 111.0, 4, 10.0)
        with pytest.raises(NetworkError):
            RoadNetwork({"a": p}, {"L": link})

    def test_length_shorter_than_geometry(self):
        a, b = GeoPoint(0, 0), GeoPoint(0, 0.01)  # ~1112 m apart
        link = Link("L", "a", "b", (a, b), 500.0, 4, 10.0)
        with pytest.raises(NetworkError):
            RoadNetwork({"a": a, "b": b}, {"L": link})

    def test_bad_functional_class(self):
        a, b = GeoPoint(0, 0), GeoPoint(0, 0.001)
        link = Link("L", "a", "b", (a, b), 120.0, 6, 10.0)
        with pytest.raises(NetworkError):
            RoadNetwork({"a": a, "b": b}, {"L": link})

    def test_adjacency_consistent(self):
        net = grid3x3()
        for nid, out in net.adjacency.items():
            for lid in out:
                assert net.links[lid].from_node == nid
        assert sum(len(v) for v in net.adjacency.values()) == len(net.links)


class TestLinksWithin:
    def test_radius_zero_off_links(self):
        net = grid3x3()
        p = offset_point(BASE, 37.0, 41.0)  # mid-block, off every link
        assert net.links_within(p, 0.0) == set()

    def test_center_node_radius_60(self):
        net = grid3x3()
        center = net.nodes["n001_001"]
        got = net.links_within(center, 60.0)
        assert got == brute_force_within(net, center, 60.0)
        assert len(got) == 8  # the incident directed links only

    def test_network_diameter_returns_everything(self):
        net = grid3x3()
        assert net.links_within(net.nodes["n001_001"], 10_000.0) == set(net.links)

    def test_negative_radius_rejected(self):
        for radius in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                grid3x3().links_within(BASE, radius)

    def test_index_matches_brute_force_on_random_networks(self):
        for seed, lat in ((1, 0.0), (2, 37.8), (3, 60.0)):
            rng = np.random.default_rng(seed)
            net = random_network(rng, 14, GeoPoint(lat, 11.0))
            for _ in range(150):
                center = offset_point(
                    GeoPoint(lat, 11.0),
                    float(rng.uniform(-200, 2200)),
                    float(rng.uniform(-200, 2200)),
                )
                radius = float(rng.uniform(0, 1500))
                assert net.links_within(center, radius) == \
                    brute_force_within(net, center, radius)


class TestNearestLink:
    def test_tie_breaks_by_link_id(self):
        # Two links sharing one geometry produce bit-identical distances,
        # so the id decides.
        nodes = {"a": (0, 0), "b": (100, 0)}
        net = make_network(nodes, [("m2", "a", "b"), ("m1", "a", "b")])
        p = offset_point(BASE, 50.0, 30.0)
        assert net.nearest_link(p, {"m2", "m1"}) == "m1"

    def test_candidate_restriction(self):
        net = grid3x3()
        mid = offset_point(BASE, 50.0, 0.0)
        far = "n002_001>n002_002"
        assert net.nearest_link(mid, {far}) == far

    def test_empty_candidates(self):
        with pytest.raises(NoCandidateError):
            grid3x3().nearest_link(BASE, set())


class TestNearestNode:
    def test_within_radius(self):
        net = grid3x3()
        p = offset_point(BASE, 10.0, 5.0)
        assert net.nearest_node(p, within=20.0) == "n000_000"
        assert net.nearest_node(p, within=5.0) is None

    @pytest.mark.parametrize("lat", [0.0, 37.8, 60.0, 75.0, -60.0])
    def test_matches_brute_force(self, lat):
        rng = np.random.default_rng(int(abs(lat) * 10) + (lat < 0))
        base = GeoPoint(lat, 11.0)
        nodes = {
            f"n{i:02d}": offset_point(base, float(rng.uniform(0, 2000)),
                                      float(rng.uniform(0, 2000)))
            for i in range(40)
        }
        # An exact tie on the bisector: a point between two nodes placed at
        # dyadic longitude offsets, so both differences are exact and
        # haversine returns bit-identical distances.
        mid = offset_point(base, 700.0, 900.0)
        mid = GeoPoint(mid.lat, 11.0 + 2.0 ** -9)
        d_lon = 2.0 ** -12
        nodes["t1"] = GeoPoint(mid.lat, mid.lon + d_lon)
        nodes["t0"] = GeoPoint(mid.lat, mid.lon - d_lon)
        nodes["dup"] = nodes["n07"]  # a second node on the same spot
        net = RoadNetwork(nodes, {})
        tie = haversine_distance(mid, nodes["t0"])
        assert tie == haversine_distance(mid, nodes["t1"])

        queries = [(mid, tie), (mid, tie * (1 - 1e-12)), (mid, 2000.0)]
        for nid in ("n03", "n07", "t1"):
            queries += [(nodes[nid], 0.0), (nodes[nid], 50.0)]
        for _ in range(300):
            p = offset_point(base, float(rng.uniform(-300, 2300)),
                             float(rng.uniform(-300, 2300)))
            within = float(rng.uniform(0, 2000))
            queries.append((p, within))
            # exactly ``within`` away from some node
            queries.append((p, haversine_distance(p, nodes[f"n{rng.integers(40):02d}"])))
        mismatches = [
            (p, within) for p, within in queries
            if net.nearest_node(p, within) != brute_force_nearest_node(net, p, within)
        ]
        assert mismatches == []
        assert net.nearest_node(mid, tie) == "t0"
        assert net.nearest_node(nodes["n07"], 0.0) == "dup"

    def test_across_the_antimeridian(self):
        # Haversine wraps at +/-180 degrees; the index frame does not, so
        # the whole grid is searched there.
        nodes = {"east": GeoPoint(0.0, 179.99), "west": GeoPoint(0.0, -179.999)}
        net = RoadNetwork(nodes, {})
        p = GeoPoint(0.0, 179.9995)
        assert brute_force_nearest_node(net, p, 2000.0) == "west"
        assert net.nearest_node(p, within=2000.0) == "west"


class TestRadiusQueriesAtHighLatitude:
    """links_within and RadiusScan against brute force where
    the index frame's scale and the query frame's differ most."""

    @pytest.mark.parametrize("lat", [75.0, -75.0])
    def test_matches_brute_force(self, lat):
        rng = np.random.default_rng(75 + (lat < 0))
        base = GeoPoint(lat, 11.0)
        net = random_network(rng, 16, base, span_m=6000.0)
        for _ in range(40):
            center = offset_point(base, float(rng.uniform(-1000, 7000)),
                                  float(rng.uniform(-1000, 7000)))
            radius = float(rng.uniform(0, DEFAULT_MAX_BUFFER_M))
            assert net.links_within(center, radius) == brute_force_within(net, center, radius)
            scan = RadiusScan(net, center)
            for r in sorted(rng.uniform(0, DEFAULT_MAX_BUFFER_M, 6)):
                assert scan.within(float(r)) == brute_force_within(net, center, float(r))

    @pytest.mark.parametrize("lat, far_north_m", [(75.0, -500_000.0), (75.0, 500_000.0),
                                                   (-75.0, 500_000.0)])
    def test_box_edges_far_from_the_anchor(self, lat, far_north_m):
        # Nodes and short tangent links exactly on circles around the
        # centre, plus as many nodes far north or south, which move the
        # network anchor, and with it the index frame's east-west scale,
        # halfway there.  Each query's radius reaches exactly one node or
        # link on a circle; the circles' radii differ by less than a cell,
        # so the box edge falls at several places within a cell.
        nodes_m, edges = {}, []
        for j in range(6):
            d = 3000.0 + 17.0 * j
            for k in range(36):
                theta = math.radians(10.0 * k)
                cx, cy = d * math.cos(theta), d * math.sin(theta)
                tx, ty = -5.0 * math.sin(theta), 5.0 * math.cos(theta)
                name = f"{j}_{k:02d}"
                nodes_m["c" + name] = (cx, cy)
                nodes_m["a" + name] = (cx + tx, cy + ty)
                nodes_m["b" + name] = (cx - tx, cy - ty)
                edges.append(("t" + name, "a" + name, "b" + name))
        nodes_m.update({f"far{k:03d}": (0.0, far_north_m) for k in range(len(nodes_m))})
        center = GeoPoint(lat, 11.0)
        net = make_network(nodes_m, edges, center)
        for name in (lid[1:] for lid in net.links):
            within = haversine_distance(center, net.nodes["c" + name])
            assert net.nearest_node(center, within) == \
                brute_force_nearest_node(net, center, within)
            radius = net.distance_to_link(center, "t" + name)
            expected = brute_force_within(net, center, radius)
            assert net.links_within(center, radius) == expected
            assert RadiusScan(net, center).within(radius) == expected

    def test_full_grid_near_the_pole(self):
        base = GeoPoint(89.9, 11.0)
        net = random_network(np.random.default_rng(90), 12, base, span_m=2000.0)
        center = offset_point(base, 1000.0, 9000.0)  # about 2 km from the pole
        radius = DEFAULT_MAX_BUFFER_M
        assert net._cells_in_range(center, radius) == (net._cells_min, net._cells_max)
        assert net.links_within(center, radius) == brute_force_within(net, center, radius)
        assert RadiusScan(net, center).within(radius) == brute_force_within(net, center, radius)


class TestIndexBoxWidth:
    """Exact-distance evaluations per query on city20.  The results do not
    depend on the box, so only these counts show a box that grew wider.
    The bounds are the counts measured for the frame-scale box with 50 %
    headroom; the earlier fixed 200 m pad measured about 32 and 180."""

    def test_haversine_calls_per_snap(self, city20, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(b)
            return haversine_distance(a, b)

        monkeypatch.setattr(network_module, "haversine_distance", counting)
        rng = np.random.default_rng(20)
        origin = city20.nodes["n000_000"]
        n = 1000
        for _ in range(n):
            p = offset_point(origin, float(rng.uniform(0, 1900)), float(rng.uniform(0, 1900)))
            city20.nearest_node(p, within=50.0)
        assert len(calls) / n <= 6.0  # measured 4.0

    def test_distance_calls_per_select_radius(self, city20, monkeypatch):
        calls = []
        real = RoadNetwork.distance_to_link

        def counting(self, p, lid):
            calls.append(lid)
            return real(self, p, lid)

        monkeypatch.setattr(RoadNetwork, "distance_to_link", counting)
        rng = np.random.default_rng(21)
        origin = city20.nodes["n000_000"]
        n = 0
        for _ in range(100):
            p = offset_point(origin, float(rng.uniform(0, 1900)), float(rng.uniform(0, 1900)))
            for fc in (2, 4):
                select_radius(city20, p, fc)
                n += 1
        assert len(calls) / n <= 60.0  # measured 41


def enumerate_simple_paths(net: RoadNetwork, src: str, dst: str) -> list[list[str]]:
    """All simple directed link paths src -> dst, for the oracle."""
    paths = []

    def walk(node, seen, acc):
        if node == dst:
            paths.append(list(acc))
            return
        for lid in net.adjacency[node]:
            head = net.links[lid].to_node
            if head not in seen:
                seen.add(head)
                acc.append(lid)
                walk(head, seen, acc)
                acc.pop()
                seen.remove(head)

    walk(src, {src}, [])
    return paths


class TestShortestPath:
    def test_same_node(self):
        net = grid3x3()
        assert net.shortest_path("n001_001", "n001_001") == []

    def test_two_node_network(self):
        net = make_network({"a": (0, 0), "b": (100, 0)}, [("e1", "a", "b")])
        assert net.shortest_path("a", "b") == ["e1"]

    def test_grid_corner_to_corner_manhattan(self):
        net = grid3x3()
        path = net.shortest_path("n000_000", "n002_002")
        assert net.path_length_m(path) == pytest.approx(400.0)
        assert len(path) == 4

    def test_no_path(self):
        net = make_network({"a": (0, 0), "b": (100, 0)}, [("e1", "a", "b")])
        with pytest.raises(NoPathError):
            net.shortest_path("b", "a")

    def test_unknown_node(self):
        with pytest.raises(NetworkError):
            grid3x3().shortest_path("nope", "n000_000")

    def test_matches_exhaustive_enumeration(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            net = random_network(rng, 7, GeoPoint(37.8, 11.0), span_m=1000.0)
            nodes = sorted(net.nodes)
            for src, dst in itertools.permutations(nodes, 2):
                all_paths = enumerate_simple_paths(net, src, dst)
                if not all_paths:
                    with pytest.raises(NoPathError):
                        net.shortest_path(src, dst)
                    continue
                got = net.shortest_path(src, dst)
                got_len = net.path_length_m(got)
                best = min(net.path_length_m(p) for p in all_paths)
                assert got_len == pytest.approx(best, rel=1e-12)

    def test_deterministic_lexicographic_tie_break(self):
        # Two equal-length routes a->d; the lexicographically smaller link
        # sequence must win.
        nodes = {"a": (0, 0), "b": (100, 0), "c": (0, 100), "d": (100, 100)}
        net = make_network(
            nodes,
            [
                ("e1", "a", "b", {"length_m": 100.0}),
                ("e2", "b", "d", {"length_m": 100.0}),
                ("e3", "a", "c", {"length_m": 100.0}),
                ("e4", "c", "d", {"length_m": 100.0}),
            ],
        )
        assert net.shortest_path("a", "d") == ["e1", "e2"]

    def test_subpath_consistency_on_grid(self, city20):
        # A recovered sub-leg of a chosen route equals that route's slice.
        route = city20.shortest_path("n002_003", "n014_011")
        nodes = ["n002_003"] + [city20.links[lid].to_node for lid in route]
        i, j = 3, 9
        sub = city20.shortest_path(nodes[i], nodes[j])
        assert sub == route[i:j]

    def test_matches_lexicographic_oracle_with_ties(self):
        # Integer lengths on a coarse lattice make equal-length routes
        # common, so the tie-break is exercised, not just the length.
        ties = 0
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            net = integer_length_network(rng, 7)
            for src, dst in itertools.permutations(sorted(net.nodes), 2):
                all_paths = enumerate_simple_paths(net, src, dst)
                if not all_paths:
                    with pytest.raises(NoPathError):
                        net.shortest_path(src, dst)
                    continue
                keyed = sorted((fold_length(net, p), tuple(p)) for p in all_paths)
                ties += len(keyed) > 1 and keyed[0][0] == keyed[1][0]
                assert net.shortest_path(src, dst) == list(keyed[0][1])
        assert ties >= 30  # measured 42 of the pairs with a path

    def test_repeated_calls_return_equal_independent_lists(self, city20):
        first = city20.shortest_path("n002_003", "n014_011")
        first.append("not-a-link")
        second = city20.shortest_path("n002_003", "n014_011")
        third = city20.shortest_path("n002_003", "n014_011")
        assert second == third == first[:-1]
        assert second is not third
        assert city20.shortest_path("n005_005", "n005_005") == []

    def test_no_path_repeats(self):
        net = make_network({"a": (0, 0), "b": (100, 0)}, [("e1", "a", "b")])
        for _ in range(3):
            with pytest.raises(NoPathError):
                net.shortest_path("b", "a")
            assert net.shortest_path("a", "b") == ["e1"]
        with pytest.raises(NetworkError):
            net.shortest_path("a", "nope")


def integer_length_network(rng: np.random.Generator, n_nodes: int) -> RoadNetwork:
    """Random digraph on a 100 m lattice whose links have whole-100 m lengths."""
    cells = rng.choice(16, size=n_nodes, replace=False)
    nodes_m = {f"n{i}": (100.0 * (c % 4), 100.0 * (c // 4)) for i, c in enumerate(cells)}
    points = {nid: offset_point(BASE, x, y) for nid, (x, y) in nodes_m.items()}
    edges = []
    for a, b in itertools.permutations(sorted(nodes_m), 2):
        if rng.random() < 0.45:
            chord = haversine_distance(points[a], points[b])
            length = 100.0 * (math.ceil(chord / 100.0) + int(rng.integers(0, 2)))
            edges.append((f"e{len(edges):03d}", a, b, {"length_m": length}))
    return make_network(nodes_m, edges)


def fold_length(net: RoadNetwork, path: list[str]) -> float:
    """Path length summed in path order from 0.0, as the search adds it."""
    return functools.reduce(lambda acc, lid: acc + net.links[lid].length_m, path, 0.0)


class TestRouteMemo:
    def test_matching_twice_searches_each_pair_once(self, city20, monkeypatch):
        corpus, _ = generate_trips(
            city20, SynthTripConfig(n_trips=150, n_devices=40, days=(date(2026, 1, 6),), seed=8)
        )
        # A fresh network, so no earlier test has filled its memo.
        net = generate_city(SynthCityConfig(rows=20, cols=20, spacing_m=100.0,
                                            arterial_every=5, seed=42))
        asked: list[tuple[str, str]] = []
        searched: list[tuple[str, str]] = []
        real_shortest_path = RoadNetwork.shortest_path
        real_search = RoadNetwork._search

        def counting_shortest_path(self, a, b):
            asked.append((a, b))
            return real_shortest_path(self, a, b)

        def counting_search(self, a, b):
            searched.append((a, b))
            return real_search(self, a, b)

        monkeypatch.setattr(RoadNetwork, "shortest_path", counting_shortest_path)
        monkeypatch.setattr(RoadNetwork, "_search", counting_search)
        first, _ = match_corpus(corpus, net)
        after_first = len(searched)
        second, _ = match_corpus(corpus, net)

        assert second == first
        assert len(searched) == after_first
        assert sorted(searched) == sorted({(a, b) for a, b in asked if a != b})
        assert len(asked) >= 2 * len(searched)
