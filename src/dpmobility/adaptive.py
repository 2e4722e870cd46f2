"""Density-adaptive selection of the noise radius and candidate link set.

The buffer disc around a point grows in fixed steps until it holds more
than ``h1`` links overall and more than ``h2`` links of the requested
functional class; the noise radius is then half the final buffer, and the
class-filtered buffer content becomes the candidate set for re-matching.
Each link near the point is measured once per call; the probes only
compare those distances with the growing buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SparseNetworkError
from .geometry import GeoPoint
from .network import LinkId, RadiusScan, RoadNetwork

DEFAULT_H1 = 8
DEFAULT_H2 = 3
DEFAULT_INITIAL_BUFFER_M = 20.0
DEFAULT_BUFFER_STEP_M = 10.0
DEFAULT_MAX_BUFFER_M = 5000.0


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
    final_buffer_m: float
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

    scan = RadiusScan(net, point)
    z = initial_buffer_m
    iterations = 0
    while z <= max_buffer_m:
        iterations += 1
        all_links = scan.within(z)
        fc_links = {lid for lid in all_links if net.links[lid].functional_class == fc}
        if len(all_links) > h1 and len(fc_links) > h2:
            return BufferResult(
                radius_m=z / 2.0,
                buffer_set_fc=frozenset(fc_links),
                final_buffer_m=z,
                iterations=iterations,
            )
        z += step_m
    raise SparseNetworkError(
        f"buffer exceeded {max_buffer_m:.0f} m at {point} before reaching "
        f"thresholds h1={h1}, h2={h2} (class {fc})"
    )
