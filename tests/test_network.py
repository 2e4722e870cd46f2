import itertools
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpmobility.network as network_module
from dpmobility.adaptive import DEFAULT_MAX_BUFFER_M, select_radius
from dpmobility.errors import NetworkError, NoCandidateError, NoPathError
from dpmobility.geometry import GeoPoint, PlanarPoint, haversine_distance, point_to_segment, project
from dpmobility.network import Link, RoadNetwork
from dpmobility.privatize import match_corpus
from dpmobility.synth import SynthCityConfig, SynthTripConfig, generate_city, generate_trips

import reference
from conftest import (BASE, grid3x3, integer_length_network, make_network, offset_point,
                      random_network)


def with_tie_and_dup(nodes: dict[str, GeoPoint], base: GeoPoint,
                     dup_of: str) -> tuple[GeoPoint, float]:
    """Add an exact tie and a shared spot to ``nodes``: ``t0`` and ``t1``
    at bit-identical distances from a midpoint, and ``dup`` on the spot of
    ``dup_of``.  Returns the midpoint and the tied distance.

    The midpoint and both nodes share a latitude and sit at dyadic
    longitude offsets, so both differences are exact and haversine returns
    the same distance for each.
    """
    mid = offset_point(base, 700.0, 900.0)
    mid = GeoPoint(mid.lat, base.lon + 2.0 ** -9)
    d_lon = 2.0 ** -12
    nodes["t1"] = GeoPoint(mid.lat, mid.lon + d_lon)
    nodes["t0"] = GeoPoint(mid.lat, mid.lon - d_lon)
    nodes["dup"] = nodes[dup_of]
    tie = haversine_distance(mid, nodes["t0"])
    assert tie == haversine_distance(mid, nodes["t1"])
    return mid, tie


class TestValidation:
    def test_unknown_endpoint(self):
        p = GeoPoint(0, 0)
        link = Link("L", "a", "missing", (p, GeoPoint(0, 0.001)), 112.0, 4, 10.0)
        with pytest.raises(NetworkError):
            RoadNetwork({"a": p}, {"L": link})

    def test_length_shorter_than_geometry(self):
        a, b = GeoPoint(0, 0), GeoPoint(0, 0.01)  # ~1112 m apart
        with pytest.raises(NetworkError):
            Link("L", "a", "b", (a, b), 500.0, 4, 10.0)

    def test_bad_functional_class(self):
        a, b = GeoPoint(0, 0), GeoPoint(0, 0.001)
        with pytest.raises(NetworkError):
            Link("L", "a", "b", (a, b), 120.0, 6, 10.0)

    def test_link_key_must_match_link_id(self):
        a, b = GeoPoint(0, 0), GeoPoint(0, 0.001)
        link = Link("L", "a", "b", (a, b), 112.0, 4, 10.0)
        with pytest.raises(NetworkError, match="link key 'M' does not match link id 'L'"):
            RoadNetwork({"a": a, "b": b}, {"M": link})

    def test_adjacency_consistent(self):
        net = grid3x3()
        for nid, out in net._out.items():
            assert [lid for lid, _, _ in out] == sorted(lid for lid, _, _ in out)
            for lid, head, length in out:
                link = net.links[lid]
                assert (link.from_node, link.to_node, link.length_m) == (nid, head, length)
        assert sum(len(v) for v in net._out.values()) == len(net.links)


class TestLinksWithin:
    def test_radius_zero_off_links(self):
        net = grid3x3()
        p = offset_point(BASE, 37.0, 41.0)  # mid-block, off every link
        assert net.links_within(p, 0.0) == set()

    def test_center_node_radius_60(self):
        net = grid3x3()
        center = net.nodes["n001_001"]
        got = net.links_within(center, 60.0)
        assert got == reference.within(net, center, 60.0)
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
                    reference.within(net, center, radius)


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


def polyline_network(base: GeoPoint, polylines) -> RoadNetwork:
    """One link ``L<k>`` per polyline of (east, north) offsets in meters."""
    nodes, links = {}, {}
    for k, offsets in enumerate(polylines):
        geometry = tuple(offset_point(base, east, north) for east, north in offsets)
        nodes[f"a{k}"], nodes[f"b{k}"] = geometry[0], geometry[-1]
        chords = sum(haversine_distance(a, b) for a, b in zip(geometry, geometry[1:]))
        links[f"L{k}"] = Link(f"L{k}", f"a{k}", f"b{k}", geometry, chords + 1.0, 4, 10.0)
    return RoadNetwork(nodes, links)


# Polyline vertices on a 25 m lattice, so that repeated vertices (zero-length
# segments) and collinear runs come up often.
VERTEX = st.tuples(st.integers(-4, 4).map(lambda i: 25.0 * i),
                   st.integers(-4, 4).map(lambda i: 25.0 * i))


class TestLinkDistances:
    """The distance kernel against the reference's scalar recipe, to the bit."""

    @given(
        lat=st.floats(-75.0, 75.0),
        lon=st.floats(-170.0, 170.0),
        polylines=st.lists(st.lists(VERTEX, min_size=2, max_size=6), min_size=1, max_size=3),
        where=st.sampled_from(["vertex", "segment", "off"]),
        pick=st.integers(0, 2 ** 16),
        along=st.floats(0.0, 1.0),
        off=st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
    )
    @settings(max_examples=300, deadline=None)
    @example(lat=60.0, lon=11.0, polylines=[[(0.0, 0.0), (0.0, 0.0)]], where="off", pick=0,
             along=0.0, off=(30.0, 40.0))
    @example(lat=0.0, lon=0.0, polylines=[[(0.0, 0.0), (0.0, 0.0)]], where="off", pick=0,
             along=0.0, off=(0.0, 2.2250738585e-313))
    @example(lat=-75.0, lon=11.0, polylines=[[(0.0, 0.0), (50.0, 0.0), (50.0, 0.0),
                                              (50.0, 75.0)], [(25.0, 25.0), (25.0, 25.0)]],
             where="segment", pick=2, along=0.5, off=(0.0, 0.0))
    def test_equals_the_scalar_reference(self, lat, lon, polylines, where, pick, along, off):
        base = GeoPoint(lat, lon)
        net = polyline_network(base, polylines)
        geometry = net.links[f"L{pick % len(polylines)}"].geometry
        if where == "vertex":
            p = geometry[pick % len(geometry)]
        elif where == "segment":
            j = pick % (len(geometry) - 1)
            a, b = geometry[j], geometry[j + 1]
            p = GeoPoint(a.lat + along * (b.lat - a.lat), a.lon + along * (b.lon - a.lon))
        else:
            p = offset_point(base, *off)

        expected = [reference.distance_to_link(net, p, lid) for lid in net._link_ids]
        # Zero-length segments must not divide: none of numpy's warnings
        # (underflow is not one of them) may fire.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = net.link_distances(p, np.arange(len(net.links))[::-1])[::-1].tolist()
            assert got == expected
            assert net.links_within(p, max(expected)) == set(net.links)
            assert net.nearest_link(p, net.links) == min(zip(expected, net._link_ids))[1]

    def test_math_hypot_where_numpy_rounds_apart(self):
        # The closest-point offset of this pair is one where np.hypot and
        # math.hypot round to neighbouring floats (1.729097211465399 and
        # ...3993 with glibc); the kernel must give math.hypot's.
        a = GeoPoint(37.799665129195446, -122.29955385356392)
        b = GeoPoint(37.80036124110256, -122.3005427808315)
        p = GeoPoint(37.8, -122.3)
        length = haversine_distance(a, b) + 1.0
        net = RoadNetwork({"a": a, "b": b}, {"L": Link("L", "a", "b", (a, b), length, 4, 10.0)})
        _, c = point_to_segment(PlanarPoint(0.0, 0.0, p), project(a, p), project(b, p))
        dx, dy = 0.0 - c.x, 0.0 - c.y
        assert net.link_distances(p, np.array([0]))[0] == math.hypot(dx, dy)
        assert math.hypot(dx, dy) == reference.distance_to_link(net, p, "L")


# Two polylines that double back across the same few cells, so their
# segments' boxes overlap, and a straight link through them.
ZIGZAGS = (
    ((0.0, 0.0), (180.0, 40.0), (20.0, 80.0), (190.0, 120.0), (10.0, 160.0),
     (170.0, 30.0), (30.0, 190.0)),
    ((150.0, -60.0), (260.0, 10.0), (140.0, 20.0), (250.0, 90.0), (120.0, 110.0)),
    ((-80.0, 90.0), (320.0, 95.0)),
)


def brute_force_tables(net: RoadNetwork) -> tuple[list, list]:
    """The node and link tables as ``(cell key, position)`` pairs, each
    node registered in its cell and each link in every cell of each
    segment's box, found one point at a time."""
    def cell(p: GeoPoint) -> tuple[int, int]:
        q = project(p, net._anchor)
        return math.floor(q.x / network_module.GRID_CELL_M), \
            math.floor(q.y / network_module.GRID_CELL_M)

    nodes = {(cell(net.nodes[nid]), k) for k, nid in enumerate(net._node_ids)}
    links = set()
    for k, lid in enumerate(net._link_ids):
        cells = [cell(g) for g in net.links[lid].geometry]
        for (ax, ay), (bx, by) in zip(cells, cells[1:]):
            links.update(((ix, iy), k) for ix in range(min(ax, bx), max(ax, bx) + 1)
                         for iy in range(min(ay, by), max(ay, by) + 1))
    x0 = min(ix for (ix, _), _ in nodes | links)
    y0 = min(iy for (_, iy), _ in nodes | links)
    rows = max(iy for (_, iy), _ in nodes | links) - y0 + 1
    return tuple(sorted(((ix - x0) * rows + iy - y0, k) for (ix, iy), k in pairs)
                 for pairs in (nodes, links))


class TestCellTables:
    @pytest.mark.parametrize("build", [
        lambda city20: city20,
        lambda city20: random_network(np.random.default_rng(5), 14, GeoPoint(37.8, 11.0)),
        lambda city20: random_network(np.random.default_rng(6), 14, GeoPoint(-60.0, 179.9)),
        lambda city20: polyline_network(BASE, ZIGZAGS),
    ], ids=["city20", "random", "random-south-east", "zigzags"])
    def test_tables_hold_the_brute_force_registration(self, city20, build):
        net = build(city20)
        nodes, links = brute_force_tables(net)
        assert list(zip(net._node_keys.tolist(), net._node_items.tolist())) == nodes
        assert list(zip(net._link_keys, net._link_items)) == links

    def test_zigzag_links_measured_once_per_query(self, measured_links):
        net = polyline_network(BASE, ZIGZAGS)
        for east, north in itertools.product(range(-150, 400, 50), range(-150, 300, 50)):
            center = offset_point(BASE, float(east), float(north))
            for radius in (0.0, 20.0, 60.0, 150.0, 400.0):
                measured_links.clear()
                assert net.links_within(center, radius) == \
                    reference.within(net, center, radius)
                (measured,) = measured_links
                assert len(measured) == len(set(measured))


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
        mid, tie = with_tie_and_dup(nodes, base, "n07")
        net = RoadNetwork(nodes, {})

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
            if net.nearest_node(p, within) != reference.nearest_node(net, p, within)
        ]
        assert mismatches == []
        assert net.nearest_node(mid, tie) == "t0"
        assert net.nearest_node(nodes["n07"], 0.0) == "dup"

    def test_across_the_antimeridian(self):
        # Haversine wraps at +/-180 degrees; the index frame does not, so
        # every node is measured there.
        nodes = {"east": GeoPoint(0.0, 179.99), "west": GeoPoint(0.0, -179.999)}
        net = RoadNetwork(nodes, {})
        p = GeoPoint(0.0, 179.9995)
        assert reference.nearest_node(net, p, 2000.0) == "west"
        assert net.nearest_node(p, within=2000.0) == "west"
        assert net.nearest_nodes([p, nodes["east"], GeoPoint(0.0, 179.0)], 2000.0) == \
            ["west", "east", None]


# Where the batch is checked: the index frame's scale differs most from a
# query's at high latitude; boxes reaching the pole, or the antimeridian
# (queries east of 180 degrees wrap to the west), have no bound and take
# the whole grid.
SNAP_PLACES = {
    "equator": GeoPoint(0.0, 11.0),
    "mid-latitude": BASE,
    "north-75": GeoPoint(75.0, 11.0),
    "south-75": GeoPoint(-75.0, 11.0),
    "near-pole": GeoPoint(89.975, 11.0),
    "antimeridian": GeoPoint(0.0, 179.982),
}


def wrap_lon(p: GeoPoint) -> GeoPoint:
    return GeoPoint(p.lat, (p.lon + 180.0) % 360.0 - 180.0)


class TestNearestNodes:
    """The batch, and each point alone, against brute force."""

    @given(
        place=st.sampled_from(sorted(SNAP_PLACES)),
        seed=st.integers(0, 2 ** 16),
        picks=st.lists(
            st.tuples(st.sampled_from(["free", "node", "mid"]),
                      st.floats(-300.0, 2300.0), st.floats(-300.0, 2300.0),
                      st.integers(0, 2 ** 16)),
            max_size=25,
        ),
        within_kind=st.sampled_from(["free", "zero", "tie", "exact"]),
        free_within=st.floats(0.0, 2000.0),
        exact_pick=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=80, deadline=None)
    @example(place="near-pole", seed=0, within_kind="free", free_within=2000.0, exact_pick=0,
             picks=[("free", 1000.0, 2300.0, 0), ("free", 0.0, 1900.0, 0), ("node", 0, 0, 3)])
    @example(place="antimeridian", seed=1, within_kind="free", free_within=400.0, exact_pick=0,
             picks=[("free", 2300.0, 500.0, 0), ("free", 1990.0, 500.0, 0), ("node", 0, 0, 5)])
    def test_matches_brute_force(self, place, seed, picks, within_kind, free_within,
                                 exact_pick):
        base = SNAP_PLACES[place]
        rough = random_network(np.random.default_rng(seed), 12, base)
        nodes = dict(rough.nodes)
        mid, tie = with_tie_and_dup(nodes, base, min(nodes))
        net = RoadNetwork(nodes, rough.links)
        ids = sorted(nodes)
        points = [mid]
        for kind, east, north, k in picks:
            if kind == "node":
                points.append(nodes[ids[k % len(ids)]])
            elif kind == "mid":
                points.append(mid)
            else:
                points.append(wrap_lon(offset_point(base, east, north)))
        within = {
            "free": free_within,
            "zero": 0.0,
            "tie": tie,
            # exactly the distance from one query to one node
            "exact": haversine_distance(points[exact_pick % len(points)],
                                        nodes[ids[exact_pick % len(ids)]]),
        }[within_kind]

        expected = [reference.nearest_node(net, p, within) for p in points]
        assert net.nearest_nodes(points, within) == expected
        assert [net.nearest_node(p, within) for p in points] == expected

    @pytest.mark.parametrize("lat", [0.0, 60.0, 75.0, -75.0])
    def test_one_node_exactly_within_in_every_direction(self, lat):
        # The only node lies exactly ``within`` away, at each of 36
        # bearings, so a box narrower than the bound in any direction
        # loses it.  The far node moves the network anchor, and with it the
        # index frame's east-west scale, away from the query's latitude.
        center = GeoPoint(lat, 11.0)
        far = offset_point(center, 0.0, 300_000.0 if lat < 60.0 else -300_000.0)
        for k in range(36):
            theta = math.radians(10.0 * k)
            node = offset_point(center, 500.0 * math.cos(theta), 500.0 * math.sin(theta))
            net = RoadNetwork({"far": far, "node": node}, {})
            within = haversine_distance(center, node)
            assert net.nearest_nodes([center], within) == ["node"]
            assert net.nearest_nodes([center], math.nextafter(within, 0.0)) == [None]

    def test_ties_and_a_shared_spot(self):
        nodes = {"a": offset_point(BASE, 0.0, 0.0), "b": offset_point(BASE, 300.0, 0.0)}
        mid, tie = with_tie_and_dup(nodes, BASE, "a")
        net = RoadNetwork(nodes, {})
        assert net.nearest_nodes([mid, nodes["a"]], tie) == ["t0", "a"]
        assert net.nearest_nodes([mid], tie * (1 - 1e-12)) == [None]
        assert net.nearest_nodes([nodes["a"]], 0.0) == ["a"]  # "dup" sorts after "a"

    def test_box_without_a_bound_near_the_pole(self):
        base = GeoPoint(89.9, 11.0)
        net = random_network(np.random.default_rng(90), 12, base, span_m=2000.0)
        center = offset_point(base, 1000.0, 9000.0)  # about 2 km from the pole
        radius = DEFAULT_MAX_BUFFER_M
        assert net._half_width(center, radius) == math.inf
        points = [center, base] + list(net.nodes.values())
        assert net.nearest_nodes(points, radius) == \
            [reference.nearest_node(net, p, radius) for p in points]

    def test_nothing_snaps(self, city20):
        far = [offset_point(city20.nodes["n000_000"], -5000.0 - 10.0 * k, 300.0)
               for k in range(50)]
        assert city20.nearest_nodes(far, 50.0) == [None] * 50
        between = [offset_point(city20.nodes["n000_000"], 50.0 + 100.0 * k, 50.0)
                   for k in range(19)]  # block centres, about 70 m from every node
        assert city20.nearest_nodes(between, 50.0) == [None] * 19

    def test_empty_batch(self, city20):
        assert city20.nearest_nodes([], 50.0) == []


class TestRadiusQueriesAtHighLatitude:
    """links_within against brute force where the index frame's scale and
    the query frame's differ most."""

    @pytest.mark.parametrize("lat", [75.0, -75.0])
    def test_matches_brute_force(self, lat):
        rng = np.random.default_rng(75 + (lat < 0))
        base = GeoPoint(lat, 11.0)
        net = random_network(rng, 16, base, span_m=6000.0)
        for _ in range(40):
            center = offset_point(base, float(rng.uniform(-1000, 7000)),
                                  float(rng.uniform(-1000, 7000)))
            radius = float(rng.uniform(0, DEFAULT_MAX_BUFFER_M))
            assert net.links_within(center, radius) == reference.within(net, center, radius)
            for r in sorted(rng.uniform(0, DEFAULT_MAX_BUFFER_M, 6)):
                assert net.links_within(center, float(r)) == \
                    reference.within(net, center, float(r))

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
                reference.nearest_node(net, center, within)
            radius = reference.distance_to_link(net, center, "t" + name)
            assert net.links_within(center, radius) == reference.within(net, center, radius)

    def test_full_grid_near_the_pole(self):
        base = GeoPoint(89.9, 11.0)
        net = random_network(np.random.default_rng(90), 12, base, span_m=2000.0)
        center = offset_point(base, 1000.0, 9000.0)  # about 2 km from the pole
        radius = DEFAULT_MAX_BUFFER_M
        assert sorted(net._links_near(center, radius).tolist()) == list(range(len(net.links)))
        assert net.links_within(center, radius) == reference.within(net, center, radius)


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
        assert len(calls) / n <= 1.5  # measured 1.0

    def test_haversine_calls_per_batched_snap(self, city20, monkeypatch):
        # The batch measures only the nodes inside each point's box, not
        # every node of the cells the box touches.
        calls = []

        def counting(a, b):
            calls.append(b)
            return haversine_distance(a, b)

        monkeypatch.setattr(network_module, "haversine_distance", counting)
        rng = np.random.default_rng(20)
        origin = city20.nodes["n000_000"]
        n = 1000
        points = [offset_point(origin, float(rng.uniform(0, 1900)), float(rng.uniform(0, 1900)))
                  for _ in range(n)]
        city20.nearest_nodes(points, within=50.0)
        assert len(calls) / n <= 1.5  # measured 1.0

    @staticmethod
    def select_radius_cases(city20):
        rng = np.random.default_rng(21)
        origin = city20.nodes["n000_000"]
        for _ in range(100):
            p = offset_point(origin, float(rng.uniform(0, 1900)), float(rng.uniform(0, 1900)))
            for fc in (2, 4):
                yield p, fc

    def test_links_measured_per_final_buffer(self, city20, measured_links):
        # The box of a query at each select_radius call's final buffer.
        cases = list(self.select_radius_cases(city20))
        buffers = [2.0 * select_radius(city20, p, fc).radius_m for p, fc in cases]
        measured_links.clear()
        for (p, _), z in zip(cases, buffers):
            city20.links_within(p, z)
        assert sum(map(len, measured_links)) / len(cases) <= 60.0  # measured 41

    def test_links_measured_per_select_radius(self, city20, measured_links):
        # The first reach and its doublings, each link measured once.
        cases = list(self.select_radius_cases(city20))
        for p, fc in cases:
            select_radius(city20, p, fc)
        assert sum(map(len, measured_links)) / len(cases) <= 99.0  # measured 65.7


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
        assert reference.path_length(net, path) == pytest.approx(400.0)
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
                all_paths = reference.simple_paths(net, src, dst)
                if not all_paths:
                    with pytest.raises(NoPathError):
                        net.shortest_path(src, dst)
                    continue
                got = net.shortest_path(src, dst)
                got_len = reference.path_length(net, got)
                best = min(reference.path_length(net, p) for p in all_paths)
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
        # common, so the tie-break is exercised, not just the length.  The
        # reference Dijkstra is held to the same exhaustive oracle.
        ties = 0
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            net = integer_length_network(rng, 7)
            for src, dst in itertools.permutations(sorted(net.nodes), 2):
                all_paths = reference.simple_paths(net, src, dst)
                if not all_paths:
                    with pytest.raises(NoPathError):
                        net.shortest_path(src, dst)
                    assert reference.shortest_path(net, src, dst) is None
                    continue
                keyed = sorted((reference.path_length(net, p), tuple(p)) for p in all_paths)
                ties += len(keyed) > 1 and keyed[0][0] == keyed[1][0]
                assert net.shortest_path(src, dst) == list(keyed[0][1])
                assert reference.shortest_path(net, src, dst) == list(keyed[0][1])
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
