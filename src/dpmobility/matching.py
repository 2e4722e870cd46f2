"""Link matching: GPS trips onto the network, and noisy endpoints back on.

This is a deliberately simple nearest-node matcher: every sample snaps to
the closest node within a snap radius, consecutive snapped nodes are joined
by shortest paths, and consecutive duplicate links collapse.  Probabilistic
(HMM) matching is out of scope.

Snapping and path building are separate steps.  Samples snap through
:meth:`RoadNetwork.nearest_nodes`, whose array passes pay off over many
points, so ``privatize.match_corpus`` snaps a whole corpus in one call and
hands every leg of it to :meth:`RoadNetwork.route`, which searches once
per from-node; :func:`match_snapped` then builds one trip's links from its
slice of the snapped nodes.  :func:`match_trajectory` is both steps for
one trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Collection, Sequence

from .errors import NoPathError, UnmatchableError
from .geometry import GeoPoint, haversine_distance
from .network import LinkId, NodeId, RoadNetwork
from .trajectories import GpsTrajectory, LinkTrajectory


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
        if not (0.0 < self.snap_radius_m < math.inf):
            raise ValueError(f"snap radius must be finite and positive: {self.snap_radius_m}")
        if self.max_node_skip < 0:
            raise ValueError("max_node_skip must be >= 0")


def match_trajectory(
    g: GpsTrajectory,
    net: RoadNetwork,
    cfg: MatchConfig = MatchConfig(),
) -> LinkTrajectory:
    """Convert a GPS trip into a connected link sequence: snap its samples,
    then :func:`match_snapped`."""
    nodes = net.nearest_nodes([s.point for s in g.samples], cfg.snap_radius_m)
    return match_snapped(g.device, nodes, net, cfg)


def match_snapped(
    device: str,
    nodes: Sequence[NodeId | None],
    net: RoadNetwork,
    cfg: MatchConfig = MatchConfig(),
) -> LinkTrajectory:
    """Connected link sequence of one trip from its samples' snapped nodes,
    in sample order (``None`` where no node lies within the snap radius).

    Raises :class:`UnmatchableError` when too many consecutive samples miss,
    when fewer than two samples snap or all snap onto one node, or when
    some leg has no path.
    """
    node_seq: list[NodeId] = []
    snapped = 0
    misses = 0
    for node in nodes:
        if node is None:
            misses += 1
            if misses > cfg.max_node_skip:
                raise UnmatchableError(
                    f"device {device}: {misses} consecutive samples off-network"
                )
            continue
        misses = 0
        snapped += 1
        if not node_seq or node_seq[-1] != node:
            node_seq.append(node)
    if snapped < 2:
        raise UnmatchableError(f"device {device}: fewer than 2 snappable samples")
    if len(node_seq) < 2:
        raise UnmatchableError(f"device {device}: trip collapses onto a single node")

    links: list[LinkId] = []
    for a, b in zip(node_seq, node_seq[1:]):
        try:
            leg = net.shortest_path(a, b)
        except NoPathError as e:
            raise UnmatchableError(f"device {device}: no path {a} -> {b}") from e
        for lid in leg:
            if not links or links[-1] != lid:
                links.append(lid)
    return LinkTrajectory(device=device, links=tuple(links))


def match_noisy_endpoint(
    z: GeoPoint, candidates: Collection[LinkId], net: RoadNetwork
) -> tuple[LinkId, NodeId]:
    """Snap a perturbed endpoint onto the candidate set.

    Returns the candidate link closest to ``z`` and its endpoint node
    nearer to ``z`` (ties on node distance break by node id); that node
    becomes the new trip terminus.  Raises :class:`NoCandidateError` on an
    empty candidate set.
    """
    lid = net.nearest_link(z, candidates)
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
    unchanged the original is returned verbatim.  A one-link trip is one
    route from its new origin (else the link's tail) to its new destination
    (else the link's head).  Raises :class:`UnmatchableError` when a
    connecting path does not exist or the result would be empty.
    """
    if new_origin is None and new_destination is None:
        return original
    links = original.links
    head_anchor = net.links[links[0]].to_node
    tail_anchor = net.links[links[-1]].from_node
    try:
        if len(links) == 1:
            rebuilt = net.shortest_path(
                tail_anchor if new_origin is None else new_origin,
                head_anchor if new_destination is None else new_destination,
            )
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
    return replace(original, links=tuple(rebuilt))
