import numpy as np
import pytest

from dpmobility.adaptive import select_radius
from dpmobility.errors import SparseNetworkError

import reference
from conftest import BASE, grid3x3, make_network, offset_point, random_network


THRESHOLDS = ((0, 0), (8, 3), (12, 6), (20, 8), (30, 2))


def assert_matches_reference(net, point, fc, h1, h2, **buffers):
    expected = reference.final_buffer(net, point, fc, h1, h2, **buffers)
    if expected is None:
        with pytest.raises(SparseNetworkError):
            select_radius(net, point, fc, h1, h2, **buffers)
    else:
        assert select_radius(net, point, fc, h1, h2, **buffers) == expected
    return expected


class TestMeasureOnceOracle:
    """select_radius measures only the links its index offers, once each;
    every probe must still see exactly what the reference's full scan sees."""

    def test_city20(self, city20):
        for node, east, north in (
            ("n010_010", 0.0, 0.0),
            ("n010_010", 37.0, 12.0),
            ("n000_000", -15.0, 4.0),
            ("n005_012", 51.0, -49.0),
            ("n019_019", 3.0, 3.0),
        ):
            point = offset_point(city20.nodes[node], east, north)
            for fc in (2, 4):
                for h1, h2 in THRESHOLDS:
                    assert assert_matches_reference(city20, point, fc, h1, h2)

    def test_random_networks(self):
        rng = np.random.default_rng(17)
        # More links than these small nets hold: the buffer must give up.
        thresholds = THRESHOLDS + ((60, 10),)
        outcomes = []
        for k in range(4):
            net = random_network(rng, 12, BASE)
            for j in range(6):
                point = offset_point(BASE, float(rng.uniform(-200, 2200)),
                                     float(rng.uniform(-200, 2200)))
                fc = int(rng.integers(1, 6))
                h1, h2 = thresholds[(k + j) % len(thresholds)]
                for initial, step in ((20.0, 10.0), (15.0, 25.0)):
                    outcomes.append(assert_matches_reference(
                        net, point, fc, h1, h2,
                        initial_buffer_m=initial, step_m=step, max_buffer_m=1500.0,
                    ))
        assert any(o is None for o in outcomes)
        assert any(o is not None and o.iterations > 5 for o in outcomes)

    def test_sparse_class(self, city20):
        point = city20.nodes["n010_011"]
        assert assert_matches_reference(city20, point, 2, 200, 200, max_buffer_m=400.0) is None


class TestSelectRadius:
    def test_zero_thresholds_stop_at_initial_buffer(self):
        net = grid3x3()
        point = net.nodes["n001_001"]
        result = select_radius(net, point, fc=4, h1=0, h2=0)
        assert result.radius_m == 10.0
        assert result.iterations == 1
        assert result.buffer_set_fc
        assert result == reference.final_buffer(net, point, 4, 0, 0)

    def test_dense_grid_growth(self):
        net = grid3x3()
        point = net.nodes["n001_001"]  # 8 incident directed links at distance 0
        result = select_radius(net, point, fc=4, h1=4, h2=4)
        assert result.radius_m == 10.0
        assert len(result.buffer_set_fc) == 8

    def test_growth_matches_oracle_at_varied_points(self, city20):
        for node, h1, h2 in (
            ("n010_010", 8, 3),
            ("n000_000", 8, 3),
            ("n005_010", 12, 6),
            ("n019_019", 20, 8),
        ):
            point = city20.nodes[node]
            fc = 4
            assert select_radius(city20, point, fc, h1, h2) == \
                reference.final_buffer(city20, point, fc, h1, h2)

    def test_interior_node_default_thresholds(self, city20):
        # 8 incident links tie at the 8-link threshold, so the buffer grows
        # until the neighbours' links enter at 100 m.
        result = select_radius(city20, city20.nodes["n010_011"], fc=4)
        assert result.radius_m == 50.0

    def test_sparse_network_error(self):
        net = make_network(
            {"a": (0, 0), "b": (100, 0)},
            [("e1", "a", "b"), ("e2", "b", "a")],
        )
        with pytest.raises(SparseNetworkError):
            select_radius(net, net.nodes["a"], fc=4, h1=2, h2=1, max_buffer_m=500.0)

    def test_wrong_class_is_sparse(self):
        net = grid3x3()
        with pytest.raises(SparseNetworkError):
            select_radius(net, net.nodes["n001_001"], fc=1, h1=0, h2=0, max_buffer_m=400.0)

    def test_monotone_buffer_sets(self, city20):
        point = offset_point(BASE, 430.0, 310.0)
        previous = set()
        for z in (20.0, 50.0, 120.0, 400.0):
            current = city20.links_within(point, z)
            assert previous <= current
            previous = current

    def test_deterministic(self, city20):
        point = city20.nodes["n007_003"]
        a = select_radius(city20, point, fc=4)
        b = select_radius(city20, point, fc=4)
        assert a == b

    def test_sparse_suburb_needs_kilometre_buffer(self):
        # A lone crossroads far from anything else: thresholds above the
        # local link supply push the buffer past a kilometre.
        nodes = {"o": (0, 0), "e": (100, 0), "w": (-100, 0), "n": (0, 100), "s": (0, -100),
                 "far": (2400, 0), "far2": (2500, 0)}
        edges = []
        for i, (a, b) in enumerate((("o", "e"), ("o", "w"), ("o", "n"), ("o", "s"),
                                    ("far", "far2"))):
            edges.append((f"e{i}a", a, b))
            edges.append((f"e{i}b", b, a))
        net = make_network(nodes, edges)
        result = select_radius(net, net.nodes["o"], fc=4, h1=8, h2=8)
        assert result.radius_m > 500.0

    def test_threshold_validation(self):
        net = grid3x3()
        with pytest.raises(ValueError):
            select_radius(net, net.nodes["n001_001"], fc=4, h1=1, h2=2)

    @pytest.mark.parametrize("name", ["initial_buffer_m", "step_m", "max_buffer_m"])
    @pytest.mark.parametrize("size", [float("nan"), float("inf"), 0.0])
    def test_buffer_size_validation(self, name, size):
        # No class-1 link exists, so an unchecked infinite cap would grow forever.
        net = grid3x3()
        with pytest.raises(ValueError):
            select_radius(net, net.nodes["n001_001"], fc=1, **{name: size})
