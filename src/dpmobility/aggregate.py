"""Link-count aggregation of trajectory corpora over temporal windows."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .network import LinkId
from .trajectories import LinkTrajectory, Window

SOURCE_RAW = "raw"


@dataclass(frozen=True)
class AggregatedMobilityNetwork:
    """Map from link id to visit count for one temporal window."""

    counts: dict[LinkId, int]
    source: str = SOURCE_RAW
    window: Window | None = None

    def __post_init__(self):
        for lid, c in self.counts.items():
            if c < 1:
                raise ValueError(f"count for link {lid!r} must be >= 1, got {c}")


def compute_link_counts(corpus: Iterable[LinkTrajectory]) -> dict[LinkId, int]:
    """Per-occurrence link tally: every traversal counts, including repeats
    of a link inside a single trip."""
    counts: Counter[LinkId] = Counter()
    for trip in corpus:
        counts.update(trip.links)
    return dict(counts)


def aggregate(
    corpus: Sequence[LinkTrajectory],
    window: Window | None = None,
    source: str = SOURCE_RAW,
) -> AggregatedMobilityNetwork:
    """Aggregate a corpus into link counts; ``window`` only labels the result."""
    return AggregatedMobilityNetwork(
        counts=compute_link_counts(corpus), source=source, window=window
    )
