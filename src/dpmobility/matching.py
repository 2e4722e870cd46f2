"""Link matching: GPS trips onto the network, and noisy endpoints back on.

This is a deliberately simple nearest-node matcher: every sample snaps to
the closest node within a snap radius, consecutive snapped nodes are joined
by shortest paths, and consecutive duplicate links collapse.  Probabilistic
(HMM) matching is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoCandidateError, NoPathError, UnmatchableError
from .geometry import GeoPoint, haversine_distance
from .network import LinkId, NodeId, RoadNetwork
from .trajectories import (
    DEFAULT_UTC_OFFSET_H,
    GpsTrajectory,
    LinkTrajectory,
    local_day_hour,
)


@dataclass(frozen=True)
class MatchConfig:
    """Matcher tuning knobs.

    ``max_node_skip`` caps how many consecutive samples may fail to snap
    (no node within ``snap_radius_m``) before the trip is declared a GPS
    outage and rejected.
    """

    snap_radius_m: float = 50.0
    max_node_skip: int = 3

    def __post_init__(self):
        if not (self.snap_radius_m > 0.0):
            raise ValueError(f"snap radius must be positive: {self.snap_radius_m}")
        if self.max_node_skip < 0:
            raise ValueError("max_node_skip must be >= 0")


def match_trajectory(
    g: GpsTrajectory,
    net: RoadNetwork,
    cfg: MatchConfig = MatchConfig(),
    utc_offset_hours: float = DEFAULT_UTC_OFFSET_H,
) -> LinkTrajectory:
    """Convert a GPS trip into a connected link sequence.

    Raises :class:`UnmatchableError` when fewer than two samples snap, when
    too many consecutive samples miss, or when some leg has no path.
    """
    node_seq: list[NodeId] = []
    snapped = 0
    misses = 0
    for s in g.samples:
        node = net.nearest_node(s.point, within=cfg.snap_radius_m)
        if node is None:
            misses += 1
            if misses > cfg.max_node_skip:
                raise UnmatchableError(
                    f"device {g.device}: {misses} consecutive samples off-network"
                )
            continue
        misses = 0
        snapped += 1
        if not node_seq or node_seq[-1] != node:
            node_seq.append(node)
    if snapped < 2:
        raise UnmatchableError(f"device {g.device}: fewer than 2 snappable samples")
    if len(node_seq) < 2:
        raise UnmatchableError(f"device {g.device}: trip collapses onto a single node")

    links: list[LinkId] = []
    for a, b in zip(node_seq, node_seq[1:]):
        try:
            leg = net.shortest_path(a, b)
        except NoPathError as e:
            raise UnmatchableError(f"device {g.device}: no path {a} -> {b}") from e
        for lid in leg:
            if not links or links[-1] != lid:
                links.append(lid)
    if not links:
        raise UnmatchableError(f"device {g.device}: empty link sequence")

    day, hour = local_day_hour(g.samples[0].t, utc_offset_hours)
    return LinkTrajectory(device=g.device, day=day, hour=hour, links=tuple(links))


def match_noisy_endpoint(
    z: GeoPoint, candidates: set[LinkId] | frozenset[LinkId], net: RoadNetwork
) -> tuple[LinkId, NodeId]:
    """Snap a perturbed endpoint onto the candidate set.

    Returns the candidate link closest to ``z`` and its endpoint node
    nearer to ``z`` (ties on node distance break by node id); that node
    becomes the new trip terminus.
    """
    if not candidates:
        raise NoCandidateError("empty buffer candidate set")
    lid = net.nearest_link(z, set(candidates))
    link = net.links[lid]
    node = min(
        (haversine_distance(z, net.nodes[link.from_node]), link.from_node),
        (haversine_distance(z, net.nodes[link.to_node]), link.to_node),
    )[1]
    return lid, node


def rebuild_trajectory(
    original: LinkTrajectory,
    net: RoadNetwork,
    new_origin: NodeId | None = None,
    new_destination: NodeId | None = None,
) -> LinkTrajectory:
    """Re-route the perturbed ends of a trip, keeping its interior links.

    ``None`` means the corresponding end is unchanged; with both ends
    unchanged the original is returned verbatim.  Raises
    :class:`UnmatchableError` when a connecting path does not exist or the
    result would be empty.
    """
    if new_origin is None and new_destination is None:
        return original
    links = original.links
    head_anchor = net.links[links[0]].to_node
    tail_anchor = net.links[links[-1]].from_node
    try:
        if len(links) == 1:
            if new_origin is not None and new_destination is not None:
                rebuilt = net.shortest_path(new_origin, new_destination)
            elif new_origin is not None:
                rebuilt = net.shortest_path(new_origin, head_anchor)
            else:
                rebuilt = net.shortest_path(tail_anchor, new_destination)
        else:
            prefix = (
                net.shortest_path(new_origin, head_anchor)
                if new_origin is not None
                else [links[0]]
            )
            suffix = (
                net.shortest_path(tail_anchor, new_destination)
                if new_destination is not None
                else [links[-1]]
            )
            rebuilt = prefix + list(links[1:-1]) + suffix
    except NoPathError as e:
        raise UnmatchableError(f"cannot reconnect perturbed trip ends: {e}") from e
    if not rebuilt:
        raise UnmatchableError("perturbed trip collapsed to an empty link sequence")
    return LinkTrajectory(
        device=original.device,
        day=original.day,
        hour=original.hour,
        links=tuple(rebuilt),
    )
