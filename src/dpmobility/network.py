"""Directed road network: link attributes, spatial queries, shortest paths.

The network is immutable after construction.  Radius queries run against a
uniform grid index (cell size 100 m) in one equirectangular frame around
the network's mean point: per kind, a table sorted by column-major cell key
holds each node in its cell and each link in every cell its segments' boxes
touch (``RoadNetwork._cell_table``).  A query reads, one run per column, the
smallest box of cells that provably holds everything within its radius, by
great-circle distance for nodes and by planar distance in the query point's
own frame for links (see ``RoadNetwork._half_width``), and re-filters that
candidate set with the exact distance.  The index therefore only affects
speed, never results.  For the same reason each node pair's shortest path
is searched once per network and then served from a memo.

Snapping (``RoadNetwork.nearest_nodes``, which the matcher calls once per
corpus; ``nearest_node`` is its one-point call) reads the node table as
arrays.  Only the nodes inside a point's box reach the exact great-circle
distance and the ``(distance, id)`` tie-break; a point whose box has no
bound is measured against every node.

Every point-to-link distance (``links_within``, ``nearest_link`` and
``adaptive.select_radius``) comes from one array kernel,
``RoadNetwork.link_distances``, over per-segment vertex arrays built with
the index.  It computes the scalar recipe in its own float order, so it
gives the same float by construction: vertices projected into the query
point's own frame, ``point_to_segment`` on each segment, ``math.hypot``
once per segment, the minimum over the link's segments.  The links a
radius query measures are those ``RoadNetwork._links_near`` reads from the
link table, which holds each link by its position in the sorted link ids.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .errors import NetworkError, NoCandidateError, NoPathError
from .geometry import (
    EARTH_RADIUS_M,
    GeoPoint,
    haversine_distance,
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

    def _build_index(self) -> None:
        # Every link vertex, links in sorted id order, then every node, in
        # one projection into the index frame.
        self._link_ids: list[LinkId] = sorted(self.links)
        self._link_pos = {lid: k for k, lid in enumerate(self._link_ids)}
        self._node_ids: list[NodeId] = sorted(self.nodes)
        geoms = [self.links[lid].geometry for lid in self._link_ids]
        vertices = sum(map(len, geoms))
        points = itertools.chain(itertools.chain.from_iterable(geoms),
                                 (self.nodes[nid] for nid in self._node_ids))
        n = vertices + len(self._node_ids)
        lat, lon = np.fromiter(itertools.chain.from_iterable(points), float, 2 * n) \
            .reshape(-1, 2).T
        x, y = project_batch(lat, lon, self._anchor)

        # The segments of link k are ``_link_seg0[k]`` onwards, ``_link_nseg[k]``
        # of them.  ``_seg_lonlat[c, e, s]`` holds coordinate c (longitude,
        # latitude) of segment s's start (e = 0) and end (e = 1) vertex.
        nvert = np.fromiter(map(len, geoms), np.int64, len(geoms))
        self._link_nseg = nvert - 1
        self._link_seg0 = np.cumsum(self._link_nseg) - self._link_nseg
        seg_link, start = _ranges(np.cumsum(nvert) - nvert, self._link_nseg)
        ends = np.stack([start, start + 1])
        self._seg_lonlat = np.stack([lon[ends], lat[ends]])
        self._link_fc = np.fromiter(
            (self.links[lid].functional_class for lid in self._link_ids), np.int64,
            len(self._link_ids))

        sx, sy = x[ends], y[ends]
        ix0, iy0 = (np.floor(v.min(axis=0) / GRID_CELL_M).astype(np.int64) for v in (sx, sy))
        ix1, iy1 = (np.floor(v.max(axis=0) / GRID_CELL_M).astype(np.int64) for v in (sx, sy))
        self._node_x, self._node_y = x[vertices:].copy(), y[vertices:].copy()
        node_ix, node_iy = (np.floor(v / GRID_CELL_M).astype(np.int64)
                            for v in (self._node_x, self._node_y))
        self._cells_min = (int(ix0.min(initial=node_ix.min())),
                           int(iy0.min(initial=node_iy.min())))
        self._cells_max = (int(ix1.max(initial=node_ix.max())),
                           int(iy1.max(initial=node_iy.max())))

        # Nodes as arrays for nearest_nodes, links as lists for _links_near.
        self._node_keys, self._node_items = self._cell_table(
            np.arange(len(self._node_ids)), node_ix, node_iy, node_ix, node_iy)
        self._link_keys, self._link_items = (
            v.tolist() for v in self._cell_table(seg_link, ix0, iy0, ix1, iy1))

    def _cell_table(self, items: np.ndarray, ix0: np.ndarray, iy0: np.ndarray,
                    ix1: np.ndarray, iy1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell keys (:meth:`_cell_key`) and items, sorted by key, then item:
        ``items[i]`` in each cell from ``(ix0[i], iy0[i])`` to ``(ix1[i],
        iy1[i])``, and an item in overlapping boxes once per cell."""
        rows = iy1 - iy0 + 1
        box, cell = _ranges(np.zeros_like(rows), (ix1 - ix0 + 1) * rows)
        keys = self._cell_key(ix0[box] + cell // rows[box], iy0[box] + cell % rows[box])
        span = int(items.max(initial=0)) + 1
        # Not np.unique (imports numpy.ma) or np.sort (maps in larger kernels).
        pairs = keys * span + items[box]
        pairs = pairs[np.argsort(pairs, kind="stable")]
        return np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], span)

    def _cell_key(self, ix, iy):
        """Column-major position of a cell, or of arrays of cells, in the grid box."""
        rows = self._cells_max[1] - self._cells_min[1] + 1
        return (ix - self._cells_min[0]) * rows + (iy - self._cells_min[1])

    # -- spatial queries ------------------------------------------------

    def _half_width(self, center: GeoPoint, radius: float) -> float:
        """East-west half-extent, in index metres and margin included, of
        the query box around ``center`` that holds every node and link
        within ``radius``; ``math.inf`` where no bound can be kept.

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
        * East-west, planar (:meth:`link_distances`, for ``links_within``
          and ``select_radius``): the centre's frame measures
          ``R*dlam*cos(phic)`` east, so the closest point of a link has
          ``|dlam| <= radius/(R*cos(phic))``, which the haversine bound
          above contains.  Both frames are affine maps
          of (lat, lon) per axis, so a segment stays a segment and that
          closest point lies in the index cells registered for it.

        The half-width is ``R*cos(phi0)`` times the haversine ``|dlam|``
        bound; both half-extents get ``BOX_MARGIN_M`` for rounding.  Where
        the bound cannot be kept (the disc reaches a pole, or the longitude
        range reaches the antimeridian, across which haversine wraps and
        the index frame does not) the query reads every node or link.
        """
        lat_reach = abs(math.radians(center.lat)) + radius / EARTH_RADIUS_M
        s = math.inf
        if lat_reach < 0.5 * math.pi:
            s = radius / (2.0 * EARTH_RADIUS_M * math.cos(lat_reach))
        dlam = 2.0 * math.asin(s) if s < 1.0 else math.inf
        if not abs(math.radians(center.lon)) + dlam < math.pi:
            return math.inf
        return EARTH_RADIUS_M * math.cos(math.radians(self._anchor.lat)) * dlam + BOX_MARGIN_M

    def _links_near(self, center: GeoPoint, radius: float) -> np.ndarray:
        """Positions in ``_link_ids`` of the links registered in the cells of
        ``center``'s query box (:meth:`_half_width`), each once: every link
        within ``radius`` of ``center``, and others.  A box without a bound
        gives every link."""
        half_w = self._half_width(center, radius)
        if half_w == math.inf:
            return np.arange(len(self._link_ids))
        half_h = radius + BOX_MARGIN_M
        x, y, _ = project(center, self._anchor)
        ix0 = max(math.floor((x - half_w) / GRID_CELL_M), self._cells_min[0])
        iy0 = max(math.floor((y - half_h) / GRID_CELL_M), self._cells_min[1])
        ix1 = min(math.floor((x + half_w) / GRID_CELL_M), self._cells_max[0])
        iy1 = min(math.floor((y + half_h) / GRID_CELL_M), self._cells_max[1])
        # One run of the link table per box column, as in _snap_batch.
        keys, items, out = self._link_keys, self._link_items, set()
        first = self._cell_key(ix0, iy0)
        rows = self._cell_key(ix0 + 1, iy0) - first
        for key in range(first, self._cell_key(ix1, iy0) + 1, rows):
            lo = bisect_left(keys, key)
            out.update(items[lo:bisect_right(keys, key + iy1 - iy0, lo)])
        return np.fromiter(out, np.int64, len(out))

    def link_distances(self, p: GeoPoint, links: np.ndarray) -> np.ndarray:
        """Minimal distance from ``p`` to each link's polyline, in meters;
        ``links`` are positions in the sorted link ids.

        Each distance is the float the scalar recipe gives: every vertex
        projected into ``p``'s own frame (:func:`geometry.project`'s float
        order), each segment's closest-point offset as in
        :func:`geometry.point_to_segment`, its length by ``math.hypot`` (which
        ``np.hypot`` can miss by one ulp), and the link's minimum over its
        segments.
        """
        nseg = self._link_nseg[links]
        _, seg = _ranges(self._link_seg0[links], nseg)
        xy = self._seg_lonlat[:, :, seg] - np.array([p.lon, p.lat])[:, None, None]
        xy = EARTH_RADIUS_M * np.radians(xy)
        xy[0] *= math.cos(math.radians(p.lat))
        # Segment a-b against the origin: w = 0 - a, t = w.v / v.v clamped.
        a = xy[:, 0]
        v = xy[:, 1] - a
        vv = v * v
        vv = vv[0] + vv[1]
        wv = (0.0 - a) * v
        # A zero-length segment keeps t = 0, without the division.
        t = np.divide(wv[0] + wv[1], vv, out=np.zeros_like(vv), where=vv > 0.0)
        t = np.minimum(1.0, np.maximum(0.0, t))
        e = 0.0 - (a + t * v)
        h = np.fromiter(map(math.hypot, e[0].tolist(), e[1].tolist()), float, len(seg))
        return np.minimum.reduceat(h, np.cumsum(nseg) - nseg)

    def links_within(self, center: GeoPoint, radius: float) -> set[LinkId]:
        """Exactly the links whose geometry comes within ``radius`` of ``center``."""
        if not (radius >= 0.0):
            raise ValueError(f"radius must be non-negative: {radius}")
        links = self._links_near(center, radius)
        inside = links[self.link_distances(center, links) <= radius]
        return {self._link_ids[k] for k in inside.tolist()}

    def nearest_link(self, p: GeoPoint, candidates: Collection[LinkId]) -> LinkId:
        """Closest of ``candidates`` to ``p``; ties broken by smallest link id.

        Raises :class:`NoCandidateError` on an empty candidate set.
        """
        if not candidates:
            raise NoCandidateError("empty candidate set")
        ids = list(candidates)
        links = np.fromiter(map(self._link_pos.__getitem__, ids), np.int64, len(ids))
        return min(zip(self.link_distances(p, links).tolist(), ids))[1]

    def nearest_node(self, p: GeoPoint, within: float) -> NodeId | None:
        """Closest node to ``p``; ``None`` if none lies within ``within`` meters."""
        return self.nearest_nodes([p], within)[0]

    def nearest_nodes(self, points: Sequence[GeoPoint], within: float) -> list[NodeId | None]:
        """The closest node to each point, in array passes of up to
        ``SNAP_BATCH`` points; ``None`` where none lies within ``within``
        meters.

        Each point's box has the half-extents :meth:`_half_width` gives
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
        row, node = col_row[run], self._node_items[at]
        inside = (np.abs(self._node_x[node] - x[row]) <= half_w[row]) & \
            (np.abs(self._node_y[node] - y[row]) <= half_h)

        # Unbounded points pair with every node: their box would span the
        # whole grid, which can be far wider than the network has nodes.
        unbounded = np.flatnonzero(~bounded)
        pairs = itertools.chain(
            zip(rows[row[inside]].tolist(), node[inside].tolist()),
            ((i, k) for i in unbounded.tolist() for k in range(len(self._node_ids))),
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
