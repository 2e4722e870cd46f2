"""Origin/destination privatization of a trajectory corpus.

A trip endpoint is perturbed when its link is traversed exactly once in the
window's raw aggregation, or when the trip repeats a (device, origin link,
destination link) combination inside the window.  Perturbation draws planar
Laplace noise with a density-adaptive radius, snaps the noisy point onto a
same-class candidate link near the original endpoint, and re-routes only
the affected trip end.  Each draw is seeded from the endpoint's link id, so
results are independent of processing order and identical across runs.

Every run has two stages.  The plan (:func:`plan_endpoints`) holds
everything that does not depend on epsilon: the matched trips inside the
window, their link counts and repeated-OD flags, which ends fire, and each
fired end's buffer radius, candidate set and noise uniforms (the angle and
the radius at epsilon 1).  The plan takes the whole corpus, and the window
(with its own UTC offset) applies here, once per trip, before matching and
counting, so the rule above holds for exactly the population that is
released; trips outside it are never matched and are excluded as
``out_of_window``.  The report therefore accounts for every trip of the
corpus, and a decision's ``trip`` is the trip's position in it.  A trip
with a fired end whose buffer reaches its cap before the density
thresholds pass cannot be released at any epsilon, so the plan excludes
it as ``sparse_network``.  The draw
(:func:`privatize_trajectories`) takes nothing but a plan, the network and
one epsilon; it scales each planned radius by 1/epsilon, snaps and
re-routes, so an epsilon sweep builds one plan and draws from it once per
epsilon.

What the noise guarantees: each fired end's noisy point is planar Laplace
at eps/R per metre around the true point, which for a fixed R is
(eps/R)-geo-indistinguishable.  But R and the candidate set come from
:func:`select_radius` around the true point, and the noisy point is then
snapped onto that set, so the snapped release has no end-to-end bound yet.
Measured on two true points 30 m apart on one link, the worst |log ratio|
of the snapped nodes' frequencies was 0.94 at epsilon 0.1, against an
(eps/R)*d of 0.075.

Three removal-style reference anonymizers operate on the same frozen
counts: dropping whole trips with unique endpoints, clipping unique
endpoint links, and clipping runs of unique links inward from both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from .adaptive import (
    DEFAULT_BUFFER_STEP_M,
    DEFAULT_H1,
    DEFAULT_H2,
    DEFAULT_INITIAL_BUFFER_M,
    DEFAULT_MAX_BUFFER_M,
    BufferResult,
    select_radius,
    validate_buffer,
)
from .aggregate import AggregatedMobilityNetwork, aggregate, compute_link_counts
from .errors import DisplacementRangeError, SparseNetworkError, UnmatchableError
from .matching import MatchConfig, match_noisy_endpoint, match_snapped, rebuild_trajectory
# ``match_trajectory`` is not called here; it stays importable under this
# module's name because bench/tracing.py wraps ``privatize.match_trajectory``.
from .matching import match_trajectory  # noqa: F401
from .geometry import GeoPoint, displace
from .network import LinkId, RoadNetwork
# ``perturb`` is not called here; it stays importable under this module's
# name because bench/tracing.py wraps ``privatize.perturb``.
from .noise import perturb  # noqa: F401
from .noise import SeedRule, laplace_uniforms, scale_radius, unit_radius, validate_epsilon
from .trajectories import GpsTrajectory, LinkTrajectory, Window

ORIGIN = "origin"
DESTINATION = "destination"

SOURCE_DP_ANI = "dp-ani"
SOURCE_TRIP_REMOVE = "trip-remove"
SOURCE_OD_REMOVE = "od-remove"
SOURCE_OD_SUCCESSIVE = "od-successive"


@dataclass(frozen=True)
class PrivacyConfig:
    """The epsilon-independent knobs of one privatization run."""

    h1: int = DEFAULT_H1
    h2: int = DEFAULT_H2
    initial_buffer_m: float = DEFAULT_INITIAL_BUFFER_M
    buffer_step_m: float = DEFAULT_BUFFER_STEP_M
    max_buffer_m: float = DEFAULT_MAX_BUFFER_M
    global_seed: int = 0

    def __post_init__(self):
        validate_buffer(
            self.h1, self.h2, self.initial_buffer_m, self.buffer_step_m, self.max_buffer_m
        )


@dataclass(frozen=True)
class EndpointDecision:
    """Outcome for one endpoint of one surviving trip.

    ``matched_link`` is the candidate the noisy point snapped to (same
    functional class as the original link); ``new_link`` is the endpoint
    link of the rebuilt trip, which is what the released aggregation
    actually contains.  Both equal ``original_link`` for unperturbed ends.
    """

    trip: int
    end: str  # ORIGIN or DESTINATION
    original_link: LinkId
    perturbed: bool
    matched_link: LinkId | None
    new_link: LinkId
    radius_m: float | None


@dataclass
class PrivatizationReport:
    """Accounting of one draw.

    ``endpoints_unchanged_single_count`` counts perturbed endpoint
    decisions whose link had a count of one before the draw, is still the
    trip's end link after it, and still has a count of one.  It counts
    decisions, not links: a one-link trip on a single-count link adds two
    here but one to :func:`metrics.unchanged_single_count_od`, which
    counts distinct links.  It is kept because the summary preamble of
    ``privatization_report.csv`` records it.
    """

    trips_in: int
    trips_out: int
    excluded: dict[str, int] = field(default_factory=dict)
    endpoints_perturbed: int = 0
    endpoints_unchanged_single_count: int = 0
    decisions: list[EndpointDecision] = field(default_factory=list)

    @property
    def trips_excluded(self) -> int:
        return sum(self.excluded.values())


def detect_repeated_od(corpus: Sequence[LinkTrajectory | None]) -> set[int]:
    """Indices of trips repeating a (device, origin link, destination link)
    combination anywhere in the corpus.  ``None`` entries are skipped."""
    groups: dict[tuple[str, LinkId, LinkId], list[int]] = {}
    for i, trip in enumerate(corpus):
        if trip is None:
            continue
        groups.setdefault((trip.device, trip.links[0], trip.links[-1]), []).append(i)
    flagged: set[int] = set()
    for members in groups.values():
        if len(members) > 1:
            flagged.update(members)
    return flagged


def match_corpus(
    gps_corpus: Sequence[GpsTrajectory],
    net: RoadNetwork,
    match_cfg: MatchConfig = MatchConfig(),
    utc_offset_hours: float | None = None,
) -> tuple[list[LinkTrajectory | None], int]:
    """Match every trip in input order, keeping input positions;
    unmatchable trips become None.

    Every sample of the corpus snaps in one
    :meth:`RoadNetwork.nearest_nodes` call; each trip's links are then built
    from its slice of the result by :func:`match_snapped`, so a trip matches
    exactly as :func:`match_trajectory` matches it alone.

    Returns (aligned list, number of unmatchable trips).
    ``utc_offset_hours`` is ignored: a matched trip carries no time.  It is
    kept only because bench/checks.py passes it positionally.
    """
    nodes = net.nearest_nodes(
        [s.point for g in gps_corpus for s in g.samples], match_cfg.snap_radius_m
    )
    matched: list[LinkTrajectory | None] = []
    end = 0
    for g in gps_corpus:
        start, end = end, end + len(g.samples)
        try:
            matched.append(match_snapped(g.device, nodes[start:end], net, match_cfg))
        except UnmatchableError:
            matched.append(None)
    return matched, matched.count(None)


def match_window(
    gps_corpus: Sequence[GpsTrajectory],
    net: RoadNetwork,
    match_cfg: MatchConfig = MatchConfig(),
    window: Window | None = None,
) -> tuple[dict[int, LinkTrajectory], dict[str, int]]:
    """Match the trips of ``gps_corpus`` inside ``window``.

    Returns the matched trips keyed by corpus position, plus how many trips
    were left out for each cause (``out_of_window``, ``unmatchable``).
    Each trip is tested against the window once; trips outside it are never
    matched.
    """
    kept = [i for i, g in enumerate(gps_corpus) if window is None or window.contains(g)]
    found, _ = match_corpus([gps_corpus[i] for i in kept], net, match_cfg)
    trips = {i: t for i, t in zip(kept, found) if t is not None}
    excluded = {"out_of_window": len(gps_corpus) - len(kept), "unmatchable": len(kept) - len(trips)}
    return trips, {cause: n for cause, n in excluded.items() if n}


@dataclass(frozen=True)
class FiredEnd:
    """One endpoint the rule requires to be perturbed, of a trip the plan
    keeps.

    ``buffer`` is the outcome of :func:`select_radius` around ``point``;
    ``theta`` and ``unit_radius`` are the end's noise: the angle and the
    epsilon-1 radius (see :func:`noise.unit_radius`) drawn from its seeded
    generator.  None of them depends on epsilon.
    """

    point: GeoPoint
    buffer: BufferResult
    theta: float
    unit_radius: float

    def noisy_point(self, epsilon: float) -> GeoPoint:
        """The perturbed point at ``epsilon``: the same value as
        ``noise.perturb`` gives from this end's seeded generator."""
        r = float(scale_radius(self.unit_radius, epsilon)) * self.buffer.radius_m
        return displace(self.point, r, self.theta)


@dataclass(frozen=True)
class EndpointPlan:
    """The epsilon-independent part of one privatization run.

    ``counts`` is computed over the matched trips inside the window.
    ``trips`` maps corpus positions to those of them the draw re-routes:
    a trip with a fired end for which :func:`select_radius` raised
    :class:`SparseNetworkError` is left out and counted as
    ``sparse_network``.  ``fired`` holds every end of ``trips`` that the
    rule perturbs, keyed by (trip position, ORIGIN or DESTINATION).
    ``excluded`` counts the trips dropped before any draw.
    """

    trips_in: int
    trips: dict[int, LinkTrajectory]
    excluded: dict[str, int]
    counts: dict[LinkId, int]
    fired: dict[tuple[int, str], FiredEnd]


def plan_endpoints(
    gps_corpus: Sequence[GpsTrajectory],
    net: RoadNetwork,
    cfg: PrivacyConfig,
    match_cfg: MatchConfig = MatchConfig(),
    window: Window | None = None,
) -> EndpointPlan:
    """Window, match and count the corpus, and size the buffer and draw
    the noise uniforms of every fired end.

    See :func:`match_window` for ``window``.
    """
    trips, excluded = match_window(gps_corpus, net, match_cfg, window)
    return _plan(gps_corpus, net, cfg, trips, excluded)


def _plan(
    gps_corpus: Sequence[GpsTrajectory],
    net: RoadNetwork,
    cfg: PrivacyConfig,
    trips: dict[int, LinkTrajectory],
    excluded: dict[str, int],
) -> EndpointPlan:
    """The plan over ``trips``, keyed by their position in ``gps_corpus``."""
    counts = compute_link_counts(trips.values())
    repeated = detect_repeated_od([trips.get(i) for i in range(len(gps_corpus))])

    ends: list[tuple[tuple[int, str], LinkId, GeoPoint, BufferResult]] = []
    sparse: set[int] = set()
    for i, trip in trips.items():
        g = gps_corpus[i]
        for end, link, point in (
            (ORIGIN, trip.links[0], g.origin),
            (DESTINATION, trip.links[-1], g.destination),
        ):
            if counts[link] != 1 and i not in repeated:
                continue
            try:
                buffer = select_radius(
                    net, point, net.links[link].functional_class, cfg.h1, cfg.h2,
                    cfg.initial_buffer_m, cfg.buffer_step_m, cfg.max_buffer_m,
                )
            except SparseNetworkError:
                sparse.add(i)
                continue
            ends.append(((i, end), link, point, buffer))
    if sparse:
        ends = [e for e in ends if e[0][0] not in sparse]
        trips = {i: t for i, t in trips.items() if i not in sparse}
        excluded = {**excluded, "sparse_network": len(sparse)}

    # Each end's noise depends only on (global seed, link, end), so it is
    # drawn here once, and the Lambert W of all ends is one array call.
    seeds = SeedRule(cfg.global_seed)
    uniforms = [laplace_uniforms(seeds.generator(link, key[1])) for key, link, _, _ in ends]
    units = unit_radius([p for _, p in uniforms]).tolist()
    fired = {
        key: FiredEnd(point, buffer, theta, unit)
        for (key, _, point, buffer), (theta, _), unit in zip(ends, uniforms, units)
    }

    return EndpointPlan(
        trips_in=len(gps_corpus),
        trips=trips,
        excluded=excluded,
        counts=counts,
        fired=fired,
    )


def privatize_trajectories(
    plan: EndpointPlan, net: RoadNetwork, epsilon: float
) -> tuple[dict[int, LinkTrajectory], PrivatizationReport]:
    """Draw one release from ``plan`` at privacy level ``epsilon``.

    Perturbs, snaps and re-routes every fired end with the noise the plan
    drew for it.  Returns the surviving privatized trips keyed by their
    position in the planned corpus plus the decision report.
    """
    validate_epsilon(epsilon)

    excluded = dict(plan.excluded)

    def exclude(cause: str) -> None:
        excluded[cause] = excluded.get(cause, 0) + 1

    out: dict[int, LinkTrajectory] = {}
    decisions: list[EndpointDecision] = []
    endpoints_perturbed = 0

    for i, trip in plan.trips.items():
        ends = [(end, plan.fired.get((i, end))) for end in (ORIGIN, DESTINATION)]
        try:
            snaps = [
                match_noisy_endpoint(fired.noisy_point(epsilon), fired.buffer.buffer_set_fc, net)
                if fired else None
                for _, fired in ends
            ]
            rebuilt = rebuild_trajectory(
                trip, net, *(snap[1] if snap else None for snap in snaps)
            )
        except UnmatchableError:
            exclude("unmatchable_rebuild")
            continue
        except DisplacementRangeError:
            exclude("noise_out_of_range")
            continue

        out[i] = rebuilt
        for (end, fired), snap, original, new in zip(
            ends, snaps, (trip.links[0], trip.links[-1]), (rebuilt.links[0], rebuilt.links[-1])
        ):
            endpoints_perturbed += fired is not None
            decisions.append(
                EndpointDecision(
                    i,
                    end,
                    original,
                    fired is not None,
                    snap[0] if snap else None,
                    new,
                    fired.buffer.radius_m if fired else None,
                )
            )

    new_counts = compute_link_counts(out.values())
    unchanged = sum(
        1
        for dec in decisions
        if dec.perturbed
        and plan.counts.get(dec.original_link) == 1
        and dec.new_link == dec.original_link
        and new_counts.get(dec.original_link) == 1
    )

    report = PrivatizationReport(
        trips_in=plan.trips_in,
        trips_out=len(out),
        excluded=excluded,
        endpoints_perturbed=endpoints_perturbed,
        endpoints_unchanged_single_count=unchanged,
        decisions=decisions,
    )
    return out, report


def privatize_aggregate(
    gps_corpus: Sequence[GpsTrajectory],
    net: RoadNetwork,
    cfg: PrivacyConfig,
    epsilon: float,
    match_cfg: MatchConfig = MatchConfig(),
    window: Window | None = None,
) -> tuple[AggregatedMobilityNetwork, PrivatizationReport]:
    """Privatize the trips of a corpus inside ``window`` at ``epsilon`` and
    aggregate them.  A bad ``epsilon`` is rejected before any matching."""
    validate_epsilon(epsilon)
    plan = plan_endpoints(gps_corpus, net, cfg, match_cfg, window)
    out, report = privatize_trajectories(plan, net, epsilon)
    agg = aggregate(list(out.values()), window=window, source=SOURCE_DP_ANI)
    return agg, report


# -- removal-style reference anonymizers --------------------------------


def trip_remove(corpus: Sequence[LinkTrajectory]) -> list[LinkTrajectory | None]:
    """Drop every trip whose origin or destination link is traversed once."""
    counts = compute_link_counts(corpus)
    return [
        None if counts[t.links[0]] == 1 or counts[t.links[-1]] == 1 else t for t in corpus
    ]


def _clip_ends(corpus: Sequence[LinkTrajectory], per_end: float) -> list[LinkTrajectory | None]:
    """Clip up to ``per_end`` links traversed once inward from each trip
    end, the origin end first; drop trips that lose all their links."""
    counts = compute_link_counts(corpus)
    out: list[LinkTrajectory | None] = []
    for t in corpus:
        links = list(t.links)
        for end in (0, -1):
            clipped = 0
            while links and clipped < per_end and counts[links[end]] == 1:
                links.pop(end)
                clipped += 1
        out.append(replace(t, links=tuple(links)) if links else None)
    return out


def od_remove(corpus: Sequence[LinkTrajectory]) -> list[LinkTrajectory | None]:
    """Clip unique endpoint links; drop trips that lose all their links."""
    return _clip_ends(corpus, 1)


def od_successive_remove(corpus: Sequence[LinkTrajectory]) -> list[LinkTrajectory | None]:
    """Clip runs of unique links inward from both trip ends."""
    return _clip_ends(corpus, math.inf)


_BASELINES = {
    SOURCE_TRIP_REMOVE: trip_remove,
    SOURCE_OD_REMOVE: od_remove,
    SOURCE_OD_SUCCESSIVE: od_successive_remove,
}

