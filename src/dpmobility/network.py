"""Directed road network: link attributes, spatial queries, shortest paths.

The network is immutable after construction.  Radius queries run against a
uniform grid index over nodes and link geometries (cell size 100 m) laid
out in one equirectangular frame around the network's mean point.  A query
reads the smallest box of cells that provably holds everything within its
radius, by great-circle distance for nodes and by planar distance in the
query point's own frame for links (see ``RoadNetwork._cells_in_range``),
and re-filters that candidate set with the exact distance.  The index
therefore only affects speed, never results.  For the same reason each
node pair's shortest path is searched once per network and then served
from a memo.

Snapping (``RoadNetwork.nearest_nodes``, which the matcher calls once per
corpus; ``nearest_node`` is its one-point call) reads the node grid as
arrays: node coordinates in the index frame, and node positions sorted by
cell.  Only the nodes inside a point's box reach the exact great-circle
distance and the ``(distance, id)`` tie-break; a point whose box has no
bound is measured against every node.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .errors import NetworkError, NoCandidateError, NoPathError
from .geometry import (
    EARTH_RADIUS_M,
    GeoPoint,
    PlanarPoint,
    haversine_distance,
    point_to_segment,
    project,
    project_batch,
    validate_geopoint,
)

NodeId = str
LinkId = str

GRID_CELL_M = 100.0

# Points per array pass of ``RoadNetwork.nearest_nodes``.  Large enough that
# numpy's per-call cost vanishes per point, small enough that the pass's
# temporaries stay far below the size of the corpus being snapped.
SNAP_BATCH = 1024

# Slack added to both half-extents of a query box.  It absorbs the rounding
# of index coordinates and of the exact distances, which stays far below a
# micrometre for coordinates on Earth; the bound itself is not approximate.
BOX_MARGIN_M = 0.01

# Road-capacity category: arterials low, local/rural streets high.
MIN_FUNCTIONAL_CLASS = 1
MAX_FUNCTIONAL_CLASS = 5


@dataclass(frozen=True)
class Link:
    """One directed road segment between two nodes.

    A link checks itself: at least two valid geometry points, a finite
    positive length no shorter than 0.999 times the geometry's chord sum, a
    functional class in [1, 5] and a finite positive speed; anything else
    raises :class:`NetworkError`.
    """

    id: LinkId
    from_node: NodeId
    to_node: NodeId
    geometry: tuple[GeoPoint, ...]
    length_m: float
    functional_class: int
    speed_mps: float

    def __post_init__(self):
        if len(self.geometry) < 2:
            raise NetworkError(f"link {self.id!r}: geometry needs at least 2 points")
        for p in self.geometry:
            try:
                validate_geopoint(p)
            except ValueError as e:
                raise NetworkError(f"link {self.id!r}: {e}") from e
        if not (0.0 < self.length_m < math.inf):
            raise NetworkError(f"link {self.id!r}: length must be finite and positive: "
                               f"{self.length_m}")
        chords = sum(haversine_distance(a, b) for a, b in zip(self.geometry, self.geometry[1:]))
        if self.length_m < 0.999 * chords:
            raise NetworkError(
                f"link {self.id!r}: length {self.length_m:.2f} m inconsistent with "
                f"geometry chord sum {chords:.2f} m"
            )
        if not (MIN_FUNCTIONAL_CLASS <= self.functional_class <= MAX_FUNCTIONAL_CLASS):
            raise NetworkError(
                f"link {self.id!r}: functional class {self.functional_class} outside "
                f"[{MIN_FUNCTIONAL_CLASS}, {MAX_FUNCTIONAL_CLASS}]"
            )
        if not (0.0 < self.speed_mps < math.inf):
            raise NetworkError(f"link {self.id!r}: speed must be finite and positive: "
                               f"{self.speed_mps}")


class RoadNetwork:
    """Weighted digraph of links plus a grid index for radius queries."""

    def __init__(self, nodes: dict[NodeId, GeoPoint], links: dict[LinkId, Link]):
        self.nodes: dict[NodeId, GeoPoint] = dict(nodes)
        self.links: dict[LinkId, Link] = dict(links)
        self._validate()

        # Each node's out-links as (link id, head node, length), by link id.
        self._out: dict[NodeId, list[tuple[LinkId, NodeId, float]]] = {n: [] for n in self.nodes}
        for lid in sorted(self.links):
            link = self.links[lid]
            self._out[link.from_node].append((lid, link.to_node, link.length_m))

        # Search outcomes by (from node, to node): the link path, or None
        # when there is none.  The network never changes, so each pair is
        # searched once per instance.
        self._paths: dict[tuple[NodeId, NodeId], tuple[LinkId, ...] | None] = {}

        lats = [p.lat for p in self.nodes.values()]
        lons = [p.lon for p in self.nodes.values()]
        self._anchor = GeoPoint(sum(lats) / len(lats), sum(lons) / len(lons))
        self._build_index()

    # -- construction ---------------------------------------------------

    def _validate(self) -> None:
        if not self.nodes:
            raise NetworkError("network has no nodes")
        for nid, p in self.nodes.items():
            try:
                validate_geopoint(p)
            except ValueError as e:
                raise NetworkError(f"node {nid!r}: {e}") from e
        for lid, link in self.links.items():
            if link.id != lid:
                raise NetworkError(f"link key {lid!r} does not match link id {link.id!r}")
            if link.from_node not in self.nodes:
                raise NetworkError(f"link {lid!r}: unknown from-node {link.from_node!r}")
            if link.to_node not in self.nodes:
                raise NetworkError(f"link {lid!r}: unknown to-node {link.to_node!r}")

    def _index_xy(self, p: GeoPoint) -> tuple[float, float]:
        pp = project(p, self._anchor)
        return pp.x, pp.y

    def _build_index(self) -> None:
        self._grid: dict[tuple[int, int], list[LinkId]] = {}
        cells_min = [math.inf, math.inf]
        cells_max = [-math.inf, -math.inf]

        def cell(x: float, y: float) -> tuple[int, int]:
            return (math.floor(x / GRID_CELL_M), math.floor(y / GRID_CELL_M))

        for lid in sorted(self.links):
            pts = [self._index_xy(p) for p in self.links[lid].geometry]
            seen: set[tuple[int, int]] = set()
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                ca = cell(min(x0, x1), min(y0, y1))
                cb = cell(max(x0, x1), max(y0, y1))
                for ix in range(ca[0], cb[0] + 1):
                    for iy in range(ca[1], cb[1] + 1):
                        seen.add((ix, iy))
            for c in seen:
                self._grid.setdefault(c, []).append(lid)
                cells_min[0] = min(cells_min[0], c[0])
                cells_min[1] = min(cells_min[1], c[1])
                cells_max[0] = max(cells_max[0], c[0])
                cells_max[1] = max(cells_max[1], c[1])

        self._node_ids: list[NodeId] = sorted(self.nodes)
        node_xy: list[tuple[float, float]] = []
        node_cells: list[tuple[int, int]] = []
        for nid in self._node_ids:
            xy = self._index_xy(self.nodes[nid])
            c = cell(*xy)
            node_xy.append(xy)
            node_cells.append(c)
            cells_min[0] = min(cells_min[0], c[0])
            cells_min[1] = min(cells_min[1], c[1])
            cells_max[0] = max(cells_max[0], c[0])
            cells_max[1] = max(cells_max[1], c[1])

        self._cells_min = (int(cells_min[0]), int(cells_min[1]))
        self._cells_max = (int(cells_max[0]), int(cells_max[1]))

        # The node grid as arrays for nearest_nodes: index-frame coordinates
        # by position in ``_node_ids``, and those positions sorted by cell
        # key (column-major within the grid box, see ``_cell_key``), so the
        # nodes of one column's cells between two rows form one run.
        self._node_x, self._node_y = np.array(node_xy, dtype=float).T
        keys = self._cell_key(*np.array(node_cells, dtype=np.int64).T)
        self._node_order = np.argsort(keys, kind="stable")
        self._node_keys = keys[self._node_order]

    def _cell_key(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Column-major position of cells inside the grid box."""
        rows = self._cells_max[1] - self._cells_min[1] + 1
        return (ix - self._cells_min[0]) * rows + (iy - self._cells_min[1])

    # -- spatial queries ------------------------------------------------

    def _cells_in_range(
        self, center: GeoPoint, radius: float
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """Cell box holding every node and link within ``radius`` of ``center``.

        The index frame is the projection around the network anchor
        (latitude phi0), so index metres are ``R*dphi`` north and
        ``R*dlam*cos(phi0)`` east.  Let a point lie within ``radius`` of the
        centre (latitude phic) by either distance the callers filter with:

        * North-south: haversine is at least ``R*|dphi|``, and the centre's
          planar frame keeps ``R*dphi`` exactly, so the half-height is
          ``radius``.
        * East-west, haversine (``nearest_nodes``): ``hav(d/R) >=
          cos(phic)*cos(phin)*hav(dlam)``, and ``|phin| <= |phic| + d/R``,
          so with ``m = cos(|phic| + radius/R)``,
          ``|dlam| <= 2*asin(radius/(2*R*m))``.  This is the planar bound
          ``radius/(R*m)`` times the ``(dlam/2)/sin(dlam/2)`` factor.
        * East-west, planar (``RadiusScan``): the
          centre's frame measures ``R*dlam*cos(phic)`` east, so the closest
          point of a link has ``|dlam| <= radius/(R*cos(phic))``, which
          the haversine bound above contains.  Both frames are affine maps
          of (lat, lon) per axis, so a segment stays a segment and that
          closest point lies in the index cells registered for it.

        The half-width (:meth:`_half_width`) is ``R*cos(phi0)`` times the
        haversine ``|dlam|`` bound; both half-extents get ``BOX_MARGIN_M``
        for rounding.  Where the bound cannot be kept (the disc reaches a
        pole, or the longitude range reaches the antimeridian, across which
        haversine wraps and the index frame does not) the box is the whole
        grid.
        """
        half_w = self._half_width(center, radius)
        if half_w == math.inf:
            return self._cells_min, self._cells_max
        half_h = radius + BOX_MARGIN_M
        x, y = self._index_xy(center)
        ix0 = max(math.floor((x - half_w) / GRID_CELL_M), self._cells_min[0])
        iy0 = max(math.floor((y - half_h) / GRID_CELL_M), self._cells_min[1])
        ix1 = min(math.floor((x + half_w) / GRID_CELL_M), self._cells_max[0])
        iy1 = min(math.floor((y + half_h) / GRID_CELL_M), self._cells_max[1])
        return (ix0, iy0), (ix1, iy1)

    def _half_width(self, center: GeoPoint, radius: float) -> float:
        """East-west half-extent of the query box around ``center``, in index
        metres, margin included; ``math.inf`` where no bound can be kept.
        See :meth:`_cells_in_range` for the bound."""
        lat_reach = abs(math.radians(center.lat)) + radius / EARTH_RADIUS_M
        s = math.inf
        if lat_reach < 0.5 * math.pi:
            s = radius / (2.0 * EARTH_RADIUS_M * math.cos(lat_reach))
        dlam = 2.0 * math.asin(s) if s < 1.0 else math.inf
        if not abs(math.radians(center.lon)) + dlam < math.pi:
            return math.inf
        return EARTH_RADIUS_M * math.cos(math.radians(self._anchor.lat)) * dlam + BOX_MARGIN_M

    def _links_in_cells(
        self, box: tuple[tuple[int, int], tuple[int, int]]
    ) -> set[LinkId]:
        (ix0, iy0), (ix1, iy1) = box
        out: set[LinkId] = set()
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                bucket = self._grid.get((ix, iy))
                if bucket:
                    out.update(bucket)
        return out

    def distance_to_link(self, p: GeoPoint, link_id: LinkId) -> float:
        """Minimal distance from ``p`` to the link's polyline, in meters."""
        origin = PlanarPoint(0.0, 0.0, p)
        geom = self.links[link_id].geometry
        pts = [project(g, p) for g in geom]
        best = math.inf
        for a, b in zip(pts, pts[1:]):
            d, _ = point_to_segment(origin, a, b)
            if d < best:
                best = d
        return best

    def links_within(self, center: GeoPoint, radius: float) -> set[LinkId]:
        """Exactly the links whose geometry comes within ``radius`` of ``center``."""
        return RadiusScan(self, center).within(radius)

    def nearest_link(self, p: GeoPoint, candidates: Collection[LinkId]) -> LinkId:
        """Closest of ``candidates`` to ``p``; ties broken by smallest link id.

        Raises :class:`NoCandidateError` on an empty candidate set.
        """
        if not candidates:
            raise NoCandidateError("empty candidate set")
        return min(candidates, key=lambda lid: (self.distance_to_link(p, lid), lid))

    def nearest_node(self, p: GeoPoint, within: float) -> NodeId | None:
        """Closest node to ``p``; ``None`` if none lies within ``within`` meters."""
        return self.nearest_nodes([p], within)[0]

    def nearest_nodes(self, points: Sequence[GeoPoint], within: float) -> list[NodeId | None]:
        """The closest node to each point, in array passes of up to
        ``SNAP_BATCH`` points; ``None`` where none lies within ``within``
        meters.

        Each point's box has the half-extents :meth:`_cells_in_range` gives
        it, and only the nodes inside the box get the exact distance, the
        ``within`` test and the ``(distance, id)`` tie-break.  A point whose
        box has no bound (pole, antimeridian) gets the same three against
        every node.
        """
        found: list[NodeId | None] = []
        for start in range(0, len(points), SNAP_BATCH):
            found += self._snap_batch(points[start:start + SNAP_BATCH], within)
        return found

    def _snap_batch(self, points: Sequence[GeoPoint], within: float) -> list[NodeId | None]:
        half_w = np.array([self._half_width(p, within) for p in points], dtype=float)
        bounded = half_w < math.inf
        rows = np.flatnonzero(bounded)
        coords = np.fromiter(itertools.chain.from_iterable(points), float, 2 * len(points))
        lat, lon = coords.reshape(-1, 2)[rows].T
        x, y = project_batch(lat, lon, self._anchor)
        half_w = half_w[rows]
        half_h = within + BOX_MARGIN_M

        def cell_span(centre: np.ndarray, half, axis: int) -> tuple[np.ndarray, np.ndarray]:
            first = np.maximum(np.floor((centre - half) / GRID_CELL_M), self._cells_min[axis])
            last = np.minimum(np.floor((centre + half) / GRID_CELL_M), self._cells_max[axis])
            return first.astype(np.int64), last.astype(np.int64)

        (ix0, ix1), (iy0, iy1) = cell_span(x, half_w, 0), cell_span(y, half_h, 1)
        # One run of node positions per (row, box column): the column's
        # cells from iy0 to iy1 have consecutive keys.
        columns = np.where(iy1 >= iy0, np.maximum(ix1 - ix0 + 1, 0), 0)
        col_row, ix = _ranges(ix0, columns)
        lo = np.searchsorted(self._node_keys, self._cell_key(ix, iy0[col_row]), "left")
        hi = np.searchsorted(self._node_keys, self._cell_key(ix, iy1[col_row]), "right")
        run, at = _ranges(lo, hi - lo)
        row, node = col_row[run], self._node_order[at]
        inside = (np.abs(self._node_x[node] - x[row]) <= half_w[row]) & \
            (np.abs(self._node_y[node] - y[row]) <= half_h)

        # Unbounded points pair with every node: their box would span the
        # whole grid, which can be far wider than the network has nodes.
        unbounded = np.flatnonzero(~bounded)
        pairs = itertools.chain(
            zip(rows[row[inside]].tolist(), node[inside].tolist()),
            itertools.product(unbounded.tolist(), range(len(self._node_ids))),
        )
        best: list[tuple[float, NodeId] | None] = [None] * len(points)
        for i, k in pairs:
            nid = self._node_ids[k]
            d = haversine_distance(points[i], self.nodes[nid])
            if d <= within and (best[i] is None or (d, nid) < best[i]):
                best[i] = (d, nid)
        return [b[1] if b else None for b in best]

    # -- routing ----------------------------------------------------------

    def shortest_path(self, from_node: NodeId, to_node: NodeId) -> list[LinkId]:
        """Minimal-length directed link path from ``from_node`` to ``to_node``.

        Deterministic: among equal-length paths the lexicographically
        smallest link sequence wins.  Returns ``[]`` when the endpoints
        coincide; raises :class:`NoPathError` when unreachable.  Each node
        pair is searched once per network; every call returns a new list.
        """
        if from_node not in self.nodes:
            raise NetworkError(f"unknown node {from_node!r}")
        if to_node not in self.nodes:
            raise NetworkError(f"unknown node {to_node!r}")
        if from_node == to_node:
            return []
        key = (from_node, to_node)
        if key in self._paths:
            path = self._paths[key]
        else:
            path = self._paths[key] = self._search(from_node, to_node)
        if path is None:
            raise NoPathError(from_node, to_node)
        return list(path)

    def _search(self, from_node: NodeId, to_node: NodeId) -> tuple[LinkId, ...] | None:
        """Dijkstra over ``(length, link path)``; ``None`` when unreachable."""
        heap: list[tuple[float, tuple[LinkId, ...], NodeId]] = [(0.0, (), from_node)]
        settled: set[NodeId] = set()
        while heap:
            dist, path, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            if node == to_node:
                return path
            for lid, head, length in self._out[node]:
                if head not in settled:
                    heapq.heappush(heap, (dist + length, path + (lid,), head))
        return None


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``range(starts[i], starts[i] + counts[i])`` for every
    ``i`` in turn, and the ``i`` each value comes from."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) + (starts - first)[owner]


class RadiusScan:
    """Radius queries of growing size around one fixed centre.

    Each link offered by the grid index is measured with
    :meth:`RoadNetwork.distance_to_link` once, the first time a query's
    cells reach it; later queries only compare the stored distances with
    their radius.  A growing buffer therefore costs one exact distance per
    nearby link instead of one per link and probe.  Each query returns the
    same set as a fresh query of its radius: the distances are the exact
    ones, and the cells of a radius already offer every link within it.
    """

    def __init__(self, net: RoadNetwork, center: GeoPoint):
        self._net = net
        self._center = center
        self._box: tuple[tuple[int, int], tuple[int, int]] | None = None
        self._distances: dict[LinkId, float] = {}

    def within(self, radius: float) -> set[LinkId]:
        """Links whose geometry comes within ``radius`` of the centre."""
        if not (radius >= 0.0):
            raise ValueError(f"radius must be non-negative: {radius}")
        box = self._net._cells_in_range(self._center, radius)
        if box != self._box:
            self._box = box
            distances = self._distances
            for lid in self._net._links_in_cells(box):
                if lid not in distances:
                    distances[lid] = self._net.distance_to_link(self._center, lid)
        return {lid for lid, d in self._distances.items() if d <= radius}
