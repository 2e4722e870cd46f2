"""Whole releases and compare sweeps against ``tests/reference.py``.

Each case builds a small random city: a grid with links removed, so that
some streets are one-way or gone, with random link ids, plus nodes on the
spot of another node.  It generates a corpus over a Monday and one or two
more days, adds trips that circle a block, and releases the
Tuesday-to-Thursday window.  ``privatize_aggregate`` and ``compare``
must equal the reference exactly: counts, every decision, every exclusion
and every metric, to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import reference
from dpmobility.matching import MatchConfig
from dpmobility.metrics import DEFAULT_MODELS, compare
from dpmobility.network import RoadNetwork
from dpmobility.privatize import PrivacyConfig, privatize_aggregate
from dpmobility.synth import SynthCityConfig, SynthTripConfig, generate_city, generate_trips
from dpmobility.trajectories import GpsSample, GpsTrajectory, Window

from conftest import local_epoch

MONDAY = date(2026, 1, 5)
LATER_DAYS = (date(2026, 1, 6), date(2026, 1, 7), date(2026, 1, 9))  # T, W, F
WINDOW_DAYS = frozenset({"T", "W", "Th"})
HOURS = ((12, 14), (13, 14), (13, 15))

EXCLUSION_CAUSES = {"out_of_window", "unmatchable", "sparse_network", "noise_out_of_range",
                    "unmatchable_rebuild"}


@dataclass(frozen=True)
class Case:
    rows: int
    cols: int
    spacing_m: float
    arterial_every: int
    removed: float  # share of links removed
    twins: int  # nodes added on the spot of another node
    loops: int  # trips that circle a block, so they traverse links twice
    city_seed: int
    later_days: int
    n_trips: int
    n_devices: int
    trip_hours: int
    window_hours: int
    repeat_fraction: float
    jitter_m: float
    gps_interval_s: float
    trip_seed: int
    snap_radius_m: float
    max_node_skip: int
    h2: int
    h1_over_h2: int
    initial_buffer_m: float
    step_m: float
    max_buffer_m: float
    global_seed: int
    epsilons: tuple[float, ...]


def build(case: Case):
    city = generate_city(SynthCityConfig(case.rows, case.cols, case.spacing_m, case.arterial_every))
    rng = np.random.default_rng(case.city_seed)
    kept = [link for _, link in sorted(city.links.items()) if rng.random() >= case.removed]
    # Random link ids, so that id order says nothing about where a link lies.
    labels = rng.permutation(len(kept))
    links = {f"L{k:03d}": replace(link, id=f"L{k:03d}") for k, link in zip(labels, kept)}
    nodes = dict(city.nodes)
    ids = sorted(nodes)
    for k in range(case.twins):
        nid = ids[int(rng.integers(len(ids)))]
        # A twin's id sorts before or after its node's, so either may win the tie.
        nodes[("m" + nid[1:]) if k % 2 else (nid + "t")] = nodes[nid]
    net = RoadNetwork(nodes, links)
    try:
        corpus, _ = generate_trips(net, SynthTripConfig(
            n_trips=case.n_trips, n_devices=case.n_devices,
            days=(MONDAY,) + LATER_DAYS[:case.later_days],
            hour_window=HOURS[case.trip_hours], gps_interval_s=case.gps_interval_s,
            jitter_sigma_m=case.jitter_m, repeat_fraction=case.repeat_fraction,
            seed=case.trip_seed,
        ))
    except ValueError:  # too few links left to route a trip
        reject()
    for k in range(case.loops):
        r, c = int(rng.integers(case.rows - 1)), int(rng.integers(case.cols - 1))
        block = [(r, c), (r, c + 1), (r + 1, c + 1), (r + 1, c), (r, c), (r, c + 1)]
        t0 = local_epoch(LATER_DAYS[0].isoformat(), HOURS[case.trip_hours][0], 30)
        corpus.append(GpsTrajectory(f"loop{k}", tuple(
            GpsSample(f"loop{k}", t0 + 10.0 * j, nodes[f"n{a:03d}_{b:03d}"])
            for j, (a, b) in enumerate(block)
        )))
    window = Window(HOURS[case.window_hours], WINDOW_DAYS)
    cfg = PrivacyConfig(case.h1_over_h2 + case.h2, case.h2, case.initial_buffer_m, case.step_m,
                        case.max_buffer_m, case.global_seed)
    return net, corpus, window, cfg, MatchConfig(case.snap_radius_m, case.max_node_skip)


def check(case: Case) -> tuple[set[str], set[str]]:
    """Assert that the release and the sweep equal the reference; return
    the exclusion causes and fire reasons the release met."""
    net, corpus, window, cfg, match_cfg = build(case)
    expected = reference.release(corpus, net, cfg, case.epsilons[0], match_cfg, window)
    agg, report = privatize_aggregate(corpus, net, cfg, case.epsilons[0], match_cfg, window)
    assert agg.counts == expected.counts
    assert report.decisions == expected.decisions
    assert report.excluded == expected.excluded
    assert (report.trips_in, report.trips_out, report.endpoints_perturbed,
            report.endpoints_unchanged_single_count) == \
        (expected.trips_in, expected.trips_out, expected.endpoints_perturbed,
         expected.endpoints_unchanged_single_count)

    rows = compare(corpus, net, cfg, case.epsilons, DEFAULT_MODELS, match_cfg, window)
    assert rows == reference.compare_rows(corpus, net, cfg, case.epsilons, DEFAULT_MODELS,
                                          match_cfg, window)
    return set(expected.excluded), expected.fire_reasons


epsilon = st.floats(-4.0, 1.3).map(lambda e: 10.0 ** e)

cases = st.builds(
    Case,
    rows=st.integers(3, 8),
    cols=st.integers(3, 8),
    spacing_m=st.floats(40.0, 160.0),
    arterial_every=st.integers(0, 4),
    removed=st.sampled_from([0.0, 0.05, 0.15, 0.3]),
    twins=st.integers(0, 2),
    loops=st.integers(0, 2),
    city_seed=st.integers(0, 2 ** 16),
    later_days=st.integers(1, 2),
    n_trips=st.integers(2, 16),
    n_devices=st.integers(1, 12),
    trip_hours=st.integers(0, 2),
    window_hours=st.integers(0, 2),
    repeat_fraction=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    jitter_m=st.floats(0.0, 30.0),
    gps_interval_s=st.sampled_from([5.0, 10.0, 30.0]),
    trip_seed=st.integers(0, 2 ** 16),
    snap_radius_m=st.floats(5.0, 80.0),
    max_node_skip=st.integers(0, 3),
    h2=st.integers(0, 4),
    h1_over_h2=st.integers(0, 8),
    initial_buffer_m=st.floats(5.0, 60.0),
    step_m=st.floats(5.0, 40.0),
    max_buffer_m=st.sampled_from([40.0, 120.0, 400.0, 5000.0]),
    global_seed=st.integers(0, 2 ** 16),
    epsilons=st.lists(epsilon, min_size=2, max_size=3).map(tuple),
)

# Fixed cases that between them meet every exclusion cause and both fire
# reasons; ``test_fixed_cases_meet_every_cause`` checks that they do.
FIXED = [
    Case(rows=6, cols=8, spacing_m=120.0, arterial_every=2, removed=0.3, twins=0, loops=1,
         city_seed=588, later_days=2, n_trips=20, n_devices=7, trip_hours=1, window_hours=2,
         repeat_fraction=0.5, jitter_m=5.0, gps_interval_s=10.0, trip_seed=773,
         snap_radius_m=30.0, max_node_skip=2, h2=1, h1_over_h2=0, initial_buffer_m=20.0,
         step_m=20.0, max_buffer_m=60.0, global_seed=5, epsilons=(1e-4, 2.0)),
    Case(rows=8, cols=5, spacing_m=120.0, arterial_every=2, removed=0.3, twins=2, loops=1,
         city_seed=879, later_days=2, n_trips=19, n_devices=11, trip_hours=2, window_hours=2,
         repeat_fraction=0.2, jitter_m=0.0, gps_interval_s=10.0, trip_seed=642,
         snap_radius_m=20.0, max_node_skip=1, h2=3, h1_over_h2=3, initial_buffer_m=20.0,
         step_m=10.0, max_buffer_m=120.0, global_seed=18, epsilons=(0.1, 2.0)),
]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(cases)
def test_release_and_sweep_equal_the_reference(case):
    check(case)


def test_fixed_cases_meet_every_cause():
    causes, reasons = set(), set()
    for case in FIXED:
        c, r = check(case)
        causes |= c
        reasons |= r
    assert causes == EXCLUSION_CAUSES
    assert reasons == {reference.COUNT_1, reference.REPEATED_OD}
