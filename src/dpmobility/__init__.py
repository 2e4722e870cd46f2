"""Privacy-preserving aggregated mobility networks from GPS trajectories.

The pipeline ingests per-device GPS streams, matches trips onto a road
network, perturbs privacy-sensitive trip endpoints with density-adaptive
planar Laplace noise, re-matches them, and releases link-level visit
counts together with utility metrics and removal-style reference models.
"""

from .adaptive import BufferResult, select_radius
from .aggregate import AggregatedMobilityNetwork, Window, aggregate, compute_link_counts
from .errors import (
    DisplacementRangeError,
    DpMobilityError,
    InputFormatError,
    NetworkError,
    NoCandidateError,
    NoPathError,
    SparseNetworkError,
    UnmatchableError,
    WindowMismatchError,
)
from .geometry import GeoPoint, PlanarPoint, displace, haversine_distance, point_to_segment
from .matching import MatchConfig, match_noisy_endpoint, match_trajectory, rebuild_trajectory
from .metrics import (
    compare,
    intersection_density,
    network_length,
    unchanged_single_count_od,
    utility,
)
from .network import Link, LinkId, NodeId, RoadNetwork
from .noise import (
    NoiseParams,
    SeedRule,
    inverse_cdf_radius,
    lambert_w_minus1,
    perturb,
    sample_planar_laplace,
    verify_geo_indistinguishability,
)
from .privatize import (
    EndpointDecision,
    EndpointPlan,
    PrivacyConfig,
    PrivatizationReport,
    detect_repeated_od,
    od_remove,
    od_successive_remove,
    plan_endpoints,
    privatize_aggregate,
    privatize_trajectories,
    trip_remove,
)
from .synth import SynthCityConfig, SynthTripConfig, generate_city, generate_trips
from .trajectories import (
    GpsSample,
    GpsTrajectory,
    LinkTrajectory,
    split_trips,
    window_filter,
)

__version__ = "0.1.0"
