"""Planar Laplace noise: sampling, seeding, and an empirical privacy check.

The radial inverse CDF is

    C_inv(p) = -(1/eps) * (W_-1((p - 1)/e) + 1)

where W_-1 is the lower real branch of the Lambert W function.  Radii from
C_inv are scaled by a geometry radius R, so the effective per-meter privacy
parameter of the mechanism is eps/R.  Only the factor 1/eps depends on
epsilon: :func:`unit_radius` computes the rest once per uniform p, and
:func:`scale_radius` applies 1/eps (and the clamp at 0).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeoPoint, displace, displace_batch, haversine_distance, project_batch

INV_E = math.exp(-1.0)

_HALLEY_MAX_ITER = 24
_RESIDUAL_RTOL = 1e-14
# Inputs this far below -1/e are treated as the branch point itself; the
# slack only absorbs rounding in callers that compute (p - 1)/e.
_DOMAIN_SLACK = 4e-16


def validate_epsilon(epsilon: float) -> None:
    """Raise ValueError unless ``epsilon`` is finite and positive."""
    if not (0.0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and positive: {epsilon}")


@dataclass(frozen=True)
class NoiseParams:
    """Privacy parameter and geometric scaling radius of one draw."""

    epsilon: float
    radius_m: float

    def __post_init__(self):
        validate_epsilon(self.epsilon)
        if not (self.radius_m > 0.0 and math.isfinite(self.radius_m)):
            raise ValueError(f"radius must be positive: {self.radius_m}")


@dataclass(frozen=True)
class SeedRule:
    """Stable per-draw seed derivation from a global seed.

    The derived seed depends only on (global_seed, link id, endpoint tag),
    so a trip endpoint on a given link receives bit-identical noise in
    every run and in every repetition of the same trip.
    """

    global_seed: int

    def derive(self, link_id: str, tag: str) -> int:
        payload = f"{self.global_seed}\x1f{link_id}\x1f{tag}".encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def generator(self, link_id: str, tag: str) -> np.random.Generator:
        return np.random.default_rng(self.derive(link_id, tag))


def lambert_w_minus1(x):
    """Lower branch W_-1 of the Lambert W function on [-1/e, 0).

    Accepts a scalar or array; the result w satisfies w * exp(w) == x to a
    relative residual of ~1e-14 and w <= -1.  Raises ValueError outside the
    domain.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).copy()
    if np.any(~np.isfinite(arr)) or np.any(arr >= 0.0) or np.any(arr < -INV_E - _DOMAIN_SLACK):
        raise ValueError("lambert_w_minus1 requires x in [-1/e, 0)")

    w = np.empty_like(arr)
    # d = x + 1/e is computed exactly for x near -1/e (the operands are
    # close in magnitude), which keeps the branch-point series accurate.
    d = arr + INV_E
    near = d <= 0.25 / math.e
    if np.any(near):
        t = np.maximum(d[near] * math.e, 0.0)
        s = np.sqrt(2.0 * t)
        w[near] = -1.0 - s - s * s / 3.0 - 11.0 / 72.0 * s ** 3
    far = ~near
    if np.any(far):
        lx = np.log(-arr[far])
        w[far] = lx - np.log(-lx)

    x_arr = arr
    for _ in range(_HALLEY_MAX_ITER):
        ew = np.exp(w)
        f = w * ew - x_arr
        done = np.abs(f) <= _RESIDUAL_RTOL * np.abs(x_arr)
        if np.all(done):
            break
        wp1 = w + 1.0
        safe = np.abs(wp1) > 1e-300
        denom = np.where(safe, ew * wp1 - (w + 2.0) * f / (2.0 * np.where(safe, wp1, 1.0)), 1.0)
        step = np.where(done | ~safe, 0.0, f / denom)
        w_new = w - step
        # Stay on the lower branch; bisect toward -1 if a step overshoots.
        w = np.where(w_new > -1.0, 0.5 * (w - 1.0), w_new)

    w = np.minimum(w, -1.0)
    return float(w[0]) if scalar else w


def radial_cdf(epsilon: float, r):
    """CDF of the planar Laplace radial marginal: 1 - (1 + eps*r)*exp(-eps*r)."""
    er = epsilon * np.asarray(r, dtype=float)
    return 1.0 - (1.0 + er) * np.exp(-er)


def unit_radius(p):
    """Inverse radial CDF at epsilon 1: ``-(W_-1((p - 1)/e) + 1)``.

    The radius at any other epsilon is :func:`scale_radius` of this one, so
    a uniform ``p`` can be turned into radii for many epsilons with one
    Lambert-W evaluation.  Accepts a scalar or array.
    """
    parr = np.asarray(p, dtype=float)
    scalar = parr.ndim == 0
    parr = np.atleast_1d(parr)
    if np.any(parr < 0.0) or np.any(parr >= 1.0):
        raise ValueError("p must lie in [0, 1)")
    w = np.atleast_1d(lambert_w_minus1((parr - 1.0) * INV_E))
    unit = -(w + 1.0)
    return float(unit[0]) if scalar else unit


def scale_radius(unit, epsilon: float):
    """Radius at ``epsilon`` from a :func:`unit_radius` value: ``max(unit/eps, 0)``."""
    return np.maximum(unit / epsilon, 0.0)


def inverse_cdf_radius(epsilon: float, p):
    """Inverse radial CDF; monotone in ``p`` over [0, 1)."""
    validate_epsilon(epsilon)
    gamma = scale_radius(unit_radius(p), epsilon)
    return float(gamma) if gamma.ndim == 0 else gamma


def laplace_uniforms(rng: np.random.Generator, size: int | None = None):
    """The uniforms ``(theta, p)`` of planar Laplace draws, theta first.

    theta is uniform on [0, 2*pi) and p on [0, 1); with ``size`` given,
    arrays of that length are returned.
    """
    theta = rng.uniform(0.0, 2.0 * math.pi, size=size)
    p = rng.uniform(0.0, 1.0, size=size)
    return theta, p


def sample_planar_laplace(params: NoiseParams, rng: np.random.Generator, size: int | None = None):
    """Draw (r, theta) in meters/radians; deterministic for a seeded ``rng``.

    theta is uniform on [0, 2*pi); the radius is the inverse radial CDF of
    a uniform p in [0, 1), scaled by ``params.radius_m``.  With ``size``
    given, arrays of that length are returned.
    """
    theta, p = laplace_uniforms(rng, size)
    r = inverse_cdf_radius(params.epsilon, p) * params.radius_m
    return r, theta


def perturb(point: GeoPoint, params: NoiseParams, rng: np.random.Generator) -> GeoPoint:
    """Planar-Laplace-perturbed copy of ``point``."""
    r, theta = sample_planar_laplace(params, rng)
    return displace(point, float(r), float(theta))


def perturb_batch(
    point: GeoPoint, params: NoiseParams, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` independent perturbations of ``point``; returns (lat, lon) arrays."""
    r, theta = sample_planar_laplace(params, rng, size=n)
    return displace_batch(point, r, theta)


# Fewer samples per cloud leave a cell's log-ratio dominated by sampling noise.
MIN_CELL_COUNT = 50


def verify_geo_indistinguishability(
    x0: GeoPoint,
    x1: GeoPoint,
    params: NoiseParams,
    n_samples: int,
    cell_m: float,
    seed: int = 0,
) -> float:
    """Monte-Carlo bound check on the mechanism's output distributions.

    Perturbs ``x0`` and ``x1`` ``n_samples`` times each, histograms both
    output clouds on a shared planar grid of ``cell_m`` cells, and returns
    the maximum |log(count0/count1)| over cells holding at least
    ``MIN_CELL_COUNT`` samples from both clouds.  For an
    (eps/R)-geo-indistinguishable mechanism this is bounded by
    (eps/R) * d(x0, x1) up to sampling noise.  A cell size that is not
    finite and positive, or no such cell at all (nothing was compared),
    raises ValueError.

    Results are statistically meaningful from roughly 1e5 samples up.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (0.0 < cell_m < math.inf):
        raise ValueError(f"cell size must be finite and positive: {cell_m}")
    d01 = haversine_distance(x0, x1)
    if d01 > 10.0 * params.radius_m:
        raise ValueError(
            f"points are {d01:.0f} m apart; expected at most 10*R = {10 * params.radius_m:.0f} m"
        )
    rng = np.random.default_rng(seed)
    anchor = GeoPoint(0.5 * (x0.lat + x1.lat), 0.5 * (x0.lon + x1.lon))

    def cell_counts(p: GeoPoint) -> dict[int, int]:
        lat, lon = perturb_batch(p, params, rng, n_samples)
        xs, ys = project_batch(lat, lon, anchor)
        ix = np.floor(xs / cell_m).astype(np.int64)
        iy = np.floor(ys / cell_m).astype(np.int64)
        keys, counts = np.unique(ix << 32 | (iy & 0xFFFFFFFF), return_counts=True)
        return dict(zip(keys.tolist(), counts.tolist()))

    counts0 = cell_counts(x0)
    counts1 = cell_counts(x1)
    ratios = []
    for key, c0 in counts0.items():
        c1 = counts1.get(key, 0)
        if c0 >= MIN_CELL_COUNT and c1 >= MIN_CELL_COUNT:
            ratios.append(abs(math.log(c0 / c1)))
    if not ratios:
        raise ValueError(
            f"no {cell_m} m cell holds {MIN_CELL_COUNT} samples from both points; "
            "nothing was compared"
        )
    return max(ratios)
