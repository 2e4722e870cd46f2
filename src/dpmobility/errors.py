"""Exception types shared across the pipeline."""


class DpMobilityError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(DpMobilityError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, path: str, line: int | None, message: str):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {message}")


class NetworkError(DpMobilityError, ValueError):
    """A link or the road network violates a structural invariant."""


class NoCandidateError(DpMobilityError):
    """A nearest-link query was given an empty candidate set."""


class NoPathError(DpMobilityError):
    """No directed path exists between the requested nodes."""

    def __init__(self, from_node: str, to_node: str):
        self.from_node = from_node
        self.to_node = to_node
        super().__init__(f"no path from {from_node!r} to {to_node!r}")


class SparseNetworkError(DpMobilityError):
    """Buffer growth hit its cap before the density thresholds were met."""


class UnmatchableError(DpMobilityError):
    """A trajectory cannot be matched (or re-matched) onto the network."""


class WindowMismatchError(DpMobilityError):
    """Two aggregations cover different temporal windows."""


class DisplacementRangeError(DpMobilityError, ValueError):
    """Requested displacement exceeds the local-frame validity range."""
