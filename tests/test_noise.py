import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmobility import noise
from dpmobility.adaptive import BufferResult
from dpmobility.geometry import GeoPoint, displace, displace_batch, haversine_distance
from dpmobility.noise import (
    INV_E,
    NoiseParams,
    SeedRule,
    lambert_w_minus1,
    laplace_uniforms,
    perturb,
    scale_radius,
    unit_radius,
    validate_epsilon,
    verify_geo_indistinguishability,
)
from dpmobility.privatize import FiredEnd

import reference


def newton_lambert_w(x: float) -> float:
    """Independent oracle: bisection + Newton on w*exp(w) = x, lower branch."""
    lo, hi = -745.0, -1.0  # f is monotone increasing on [-inf, -1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            hi = mid
        else:
            lo = mid
    w = 0.5 * (lo + hi)
    for _ in range(50):
        f = w * math.exp(w) - x
        df = math.exp(w) * (1.0 + w)
        if df == 0.0:
            break
        step = f / df
        w -= step
        if abs(step) < 1e-15 * abs(w):
            break
    return w


class TestLambertW:
    def test_branch_point(self):
        assert lambert_w_minus1(-INV_E) == -1.0

    def test_minus_two_over_e_squared(self):
        x = -2.0 * math.exp(-2.0)
        assert lambert_w_minus1(x) == pytest.approx(-2.0, abs=1e-12)

    def test_known_value(self):
        assert lambert_w_minus1(-0.1) == pytest.approx(-3.577152063957297, abs=1e-9)

    def test_against_newton_oracle(self):
        for x in (-0.35, -0.3, -0.25, -0.2, -0.1, -0.05, -1e-3, -1e-6, -1e-9):
            assert lambert_w_minus1(x) == pytest.approx(newton_lambert_w(x), rel=1e-10)

    def test_residual_over_domain(self):
        xs = -np.geomspace(1e-12, INV_E - 1e-12, 2000)
        w = lambert_w_minus1(xs)
        residual = np.abs(w * np.exp(w) - xs)
        assert np.all(residual <= 1e-12 * np.abs(xs))
        assert np.all(w <= -1.0)

    def test_domain_errors(self):
        for bad in (0.0, 0.5, -1.0, -INV_E - 1e-12, float("nan")):
            with pytest.raises(ValueError):
                lambert_w_minus1(bad)


def radius(epsilon: float, p):
    """The radius a draw takes from the uniform ``p`` at ``epsilon``."""
    return scale_radius(unit_radius(p), epsilon)


def cloud(params: NoiseParams, rng: np.random.Generator, n: int | None):
    """``n`` draws (one scalar draw for ``None``) as the release makes them:
    radii in metres and angles."""
    theta, p = laplace_uniforms(rng, n)
    return radius(params.epsilon, p) * params.radius_m, theta


class TestInverseCdf:
    def test_p_zero(self):
        assert radius(1.0, 0.0) == 0.0

    def test_unit_radius_point(self):
        # (1 + r) * exp(-r) == 2/e at r == 1
        p = 1.0 - 2.0 / math.e
        assert unit_radius(p) == pytest.approx(1.0, abs=1e-9)

    def test_scales_inversely_with_epsilon(self):
        p = 1.0 - 2.0 / math.e
        assert radius(2.0, p) == pytest.approx(0.5, abs=1e-9)

    def test_round_trip_grid(self):
        ps = np.arange(0.01, 1.0, 0.01)
        for eps in (0.05, 0.5, 1.0, 15.0):
            gammas = radius(eps, ps)
            assert np.abs(reference.radial_cdf(eps, gammas) - ps).max() < 1e-9

    @given(st.floats(0.0, 0.999), st.floats(0.0, 0.999))
    @settings(max_examples=200)
    def test_strictly_monotone(self, p1, p2):
        # separations below the float resolution of (p - 1) cannot register
        if abs(p2 - p1) <= 1e-12:
            return
        lo, hi = sorted((p1, p2))
        assert unit_radius(lo) < unit_radius(hi)

    def test_unit_radius_array_matches_scalars(self):
        # A plan evaluates all fired ends in one array call and a verifier
        # cloud scales an array; each element must be bit-identical to the
        # one-element calls perturb makes.
        ps = np.concatenate([
            np.random.default_rng(31).uniform(0.0, 1.0, 5000),
            [0.0, 1e-300, 1e-12, 0.5, 1.0 - 2.0 / math.e, np.nextafter(1.0, 0.0)],
        ])
        units = unit_radius(ps)
        for eps in (0.05, 1.0, 15.0):
            radii = scale_radius(units, eps).tolist()
            for p, unit, r in zip(ps.tolist(), units.tolist(), radii):
                assert unit == unit_radius(p)
                assert float(scale_radius(unit, eps)) == r

    def test_domain(self):
        with pytest.raises(ValueError):
            unit_radius(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            unit_radius(1.0)
        with pytest.raises(ValueError):
            unit_radius(-0.1)
        for epsilon in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                validate_epsilon(epsilon)


class TestSampler:
    def test_deterministic_for_fixed_seed(self):
        a = laplace_uniforms(np.random.default_rng(77))
        b = laplace_uniforms(np.random.default_rng(77))
        assert a == b
        assert unit_radius(a[1]) == unit_radius(b[1])

    def test_radius_scaling(self):
        r1, t1 = cloud(NoiseParams(1.0, 1.0), np.random.default_rng(3), None)
        r2, t2 = cloud(NoiseParams(1.0, 50.0), np.random.default_rng(3), None)
        assert t1 == t2
        assert r2 == pytest.approx(50.0 * r1)

    def test_mean_and_theta_range(self):
        r, theta = cloud(NoiseParams(1.0, 1.0), np.random.default_rng(5), 200_000)
        assert r.mean() == pytest.approx(2.0, abs=0.02)
        assert theta.min() >= 0.0 and theta.max() < 2.0 * math.pi

    def test_params_validation(self):
        for epsilon in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NoiseParams(epsilon, 1.0)
        with pytest.raises(ValueError):
            NoiseParams(1.0, -5.0)


class TestSeedRule:
    def test_stable_across_instances(self):
        a = SeedRule(42).derive("L1", "origin")
        b = SeedRule(42).derive("L1", "origin")
        assert a == b

    def test_frozen_digest(self):
        # Pinned value guards the derivation against accidental change;
        # stored noise only replays across versions if this stays fixed.
        assert SeedRule(42).derive("L1", "origin") == 13181813859743665732

    def test_distinct_inputs_distinct_seeds(self):
        rule = SeedRule(42)
        seeds = {
            rule.derive("L1", "origin"),
            rule.derive("L1", "destination"),
            rule.derive("L2", "origin"),
            SeedRule(43).derive("L1", "origin"),
        }
        assert len(seeds) == 4

    def test_generator_reproducible(self):
        rule = SeedRule(7)
        a = laplace_uniforms(rule.generator("link-9", "origin"))
        b = laplace_uniforms(rule.generator("link-9", "origin"))
        assert a == b


class TestPerturb:
    def test_reproducible_point(self):
        p = GeoPoint(37.8, -122.3)
        params = NoiseParams(1.0, 100.0)
        z1 = perturb(p, params, np.random.default_rng(11))
        z2 = perturb(p, params, np.random.default_rng(11))
        assert z1 == z2

    def test_empirical_mean_is_centered(self):
        p = GeoPoint(37.8, -122.3)
        lat, lon = displace_batch(p, *cloud(NoiseParams(1.0, 50.0), np.random.default_rng(13),
                                            100_000))
        # isotropy: mean displacement ~ 0 within 3 standard errors
        se_m = (2.0 * 50.0) / math.sqrt(len(lat))  # std(r)/sqrt(n) upper bound per axis
        mean_point = GeoPoint(float(lat.mean()), float(lon.mean()))
        assert haversine_distance(p, mean_point) < 3.0 * se_m * 2.0

    def test_median_displacement(self):
        p = GeoPoint(37.8, -122.3)
        lat, lon = displace_batch(p, *cloud(NoiseParams(1.0, 100.0), np.random.default_rng(17),
                                            120_000))
        dists = np.array([
            haversine_distance(p, GeoPoint(float(a), float(b)))
            for a, b in zip(lat[:20_000], lon[:20_000])
        ])
        # C(gamma) = 0.5 at gamma ~= 1.67835
        assert np.median(dists) == pytest.approx(167.83, rel=0.02)

    def test_shell_counts_decay(self):
        r, _ = cloud(NoiseParams(1.0, 100.0), np.random.default_rng(19), 200_000)
        shells = np.floor(r / 100.0).astype(int)
        counts = np.bincount(shells)
        peak = counts.argmax()
        tail = counts[peak:]
        assert np.all(np.diff(tail) <= 0.02 * counts.max())  # non-increasing up to noise


class TestVerifier:
    def test_identical_points_noise_floor(self):
        # Cells at the >=50-count filter boundary carry ~sqrt(2/50) ~ 0.2 of
        # Poisson noise per cell, so the max over thousands of cells lands
        # around 0.4-0.6 even for identical inputs.
        x0 = GeoPoint(37.8, -122.3)
        ratio = verify_geo_indistinguishability(
            x0, x0, NoiseParams(1.0, 100.0), 200_000, 20.0, seed=1
        )
        assert ratio < 0.6

    def test_monotone_in_epsilon(self):
        x0 = GeoPoint(37.8, -122.3)
        x1 = displace(x0, 100.0, 0.0)
        ratios = [
            verify_geo_indistinguishability(
                x0, x1, NoiseParams(eps, 100.0), 200_000, 20.0, seed=2
            )
            for eps in (0.5, 1.0, 2.0)
        ]
        bounds = [eps * 100.0 / 100.0 for eps in (0.5, 1.0, 2.0)]
        for ratio, bound in zip(ratios, bounds):
            assert ratio <= bound + 0.45  # wider slack at this sample size

    def test_first_cloud_point_is_a_release_draw(self, monkeypatch):
        # The checker draws as a release does: the first point of x0's cloud
        # is the noisy point of a fired end at x0 given the same uniforms.
        clouds = []

        def recording(origin, r, theta):
            clouds.append(displace_batch(origin, r, theta))
            return clouds[-1]

        monkeypatch.setattr(noise, "displace_batch", recording)
        x0 = GeoPoint(37.8, -122.3)
        epsilon, radius_m, n = 0.7, 80.0, 20_000
        verify_geo_indistinguishability(
            x0, displace(x0, 50.0, 1.0), NoiseParams(epsilon, radius_m), n, 20.0, seed=5
        )
        theta, p = laplace_uniforms(np.random.default_rng(5), n)
        fired = FiredEnd(x0, BufferResult(radius_m, frozenset(), 1), float(theta[0]),
                         unit_radius(float(p[0])))
        lat, lon = clouds[0]
        got = GeoPoint(float(lat[0]), float(lon[0]))
        assert [x.hex() for x in got] == [x.hex() for x in fired.noisy_point(epsilon)]

    def test_validates_separation(self):
        x0 = GeoPoint(37.8, -122.3)
        x1 = displace(x0, 2000.0, 0.0)
        with pytest.raises(ValueError):
            verify_geo_indistinguishability(x0, x1, NoiseParams(1.0, 100.0), 1000, 20.0)

    @pytest.mark.parametrize("cell_m", [0.0, -20.0, math.nan, math.inf])
    def test_validates_cell_size(self, cell_m):
        x0 = GeoPoint(37.8, -122.3)
        with pytest.raises(ValueError, match="cell size"):
            verify_geo_indistinguishability(x0, x0, NoiseParams(1.0, 100.0), 2000, cell_m)

    def test_nothing_compared_is_an_error(self):
        # 200 draws per point leave no 20 m cell with 50 samples from both.
        x0 = GeoPoint(37.8, -122.3)
        x1 = displace(x0, 1000.0, 0.0)
        with pytest.raises(ValueError, match="nothing was compared"):
            verify_geo_indistinguishability(x0, x1, NoiseParams(1.0, 100.0), 200, 20.0)
