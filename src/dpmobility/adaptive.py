"""Density-adaptive selection of the noise radius and candidate link set.

The buffer disc around a point grows in fixed steps until it holds more
than ``h1`` links overall and more than ``h2`` links of the requested
functional class; the noise radius is then half the final buffer, and the
class-filtered buffer content becomes the candidate set for re-matching.
Each call measures the links near the point once each, in one array pass
per reach (see ``FIRST_REACH_M``).  The buffer it returns is the first
probe at or beyond both the (h1+1)-th nearest link and the (h2+1)-th
nearest link of the class, which is where the growth would stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SparseNetworkError
from .geometry import GeoPoint
from .network import LinkId, RoadNetwork

DEFAULT_H1 = 8
DEFAULT_H2 = 3
DEFAULT_INITIAL_BUFFER_M = 20.0
DEFAULT_BUFFER_STEP_M = 10.0
DEFAULT_MAX_BUFFER_M = 5000.0

# Distance out to which select_radius first measures links; it doubles when
# the buffer lies beyond it.  On the seed-1 benchmark networks no fired end
# needs a second pass at 120 m (376 ends on release-commute, 76 on
# sweep-dense, 117 on release-hirate), and the box hands 35 links per end to
# the kernel on release-commute.  At 100 m 12 % of those ends need a second
# pass; at 160 m the box holds 79 links.
FIRST_REACH_M = 120.0


def validate_buffer(
    h1: int, h2: int, initial_buffer_m: float, buffer_step_m: float, max_buffer_m: float
) -> None:
    """Reject settings :func:`select_radius` cannot run with: ``h1 >= h2 >= 0``
    and finite, positive buffer sizes (an infinite cap never stops growing)."""
    if not (h1 >= h2 >= 0):
        raise ValueError(f"thresholds must satisfy h1 >= h2 >= 0, got {h1}, {h2}")
    for name, value in zip(("initial_buffer_m", "buffer_step_m", "max_buffer_m"),
                           (initial_buffer_m, buffer_step_m, max_buffer_m)):
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be finite and positive: {value}")


@dataclass(frozen=True)
class BufferResult:
    """Outcome of the buffer growth around one point."""

    radius_m: float  # noise radius: half the final buffer
    buffer_set_fc: frozenset[LinkId]
    iterations: int


def select_radius(
    net: RoadNetwork,
    point: GeoPoint,
    fc: int,
    h1: int = DEFAULT_H1,
    h2: int = DEFAULT_H2,
    initial_buffer_m: float = DEFAULT_INITIAL_BUFFER_M,
    step_m: float = DEFAULT_BUFFER_STEP_M,
    max_buffer_m: float = DEFAULT_MAX_BUFFER_M,
) -> BufferResult:
    """Grow the buffer around ``point`` until both density thresholds pass.

    Returns the smallest probed buffer Z with strictly more than ``h1``
    links and strictly more than ``h2`` links of class ``fc``, together
    with the class-filtered link set at that Z and the radius Z/2.  Raises
    :class:`SparseNetworkError` if Z would exceed ``max_buffer_m`` first.
    Settings that :func:`validate_buffer` rejects raise ValueError.
    Deterministic; no randomness involved.
    """
    validate_buffer(h1, h2, initial_buffer_m, step_m, max_buffer_m)

    # Every link within ``reach`` is measured, so a threshold at or below
    # it is exact, and one above it means the true one lies above it too.
    # The reach never passes the cap, so neither does an exact threshold.
    reach = min(FIRST_REACH_M, max_buffer_m)
    links = net._links_near(point, reach)
    distances = net.link_distances(point, links)
    while True:
        same_class = net._link_fc[links] == fc
        threshold = max(_kth_smallest(distances, h1), _kth_smallest(distances[same_class], h2))
        if threshold <= reach:
            # The probes as the buffer grows: the same float additions.
            z, iterations = initial_buffer_m, 1
            while z < threshold:
                z += step_m
                iterations += 1
            if z > max_buffer_m:
                break
            if z <= reach:
                inside = links[same_class & (distances <= z)]
                return BufferResult(
                    radius_m=z / 2.0,
                    buffer_set_fc=frozenset(net._link_ids[k] for k in inside.tolist()),
                    iterations=iterations,
                )
        elif reach >= max_buffer_m:
            break
        reach = min(2.0 * reach, max_buffer_m)
        more = net._links_near(point, reach)
        more = more[~np.isin(more, links)]
        links = np.concatenate([links, more])
        distances = np.concatenate([distances, net.link_distances(point, more)])
    raise SparseNetworkError(
        f"buffer exceeded {max_buffer_m:.0f} m at {point} before reaching "
        f"thresholds h1={h1}, h2={h2} (class {fc})"
    )


def _kth_smallest(values: np.ndarray, k: int) -> float:
    """The (k+1)-th smallest of ``values``; infinity when there are fewer."""
    return float(np.partition(values, k)[k]) if len(values) > k else math.inf
