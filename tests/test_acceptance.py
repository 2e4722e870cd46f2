"""Acceptance gate: every release criterion with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The experiment corpus is the default synthetic city:
20x20 grid at 100 m spacing, 600 trips/day over 6 weekdays, window 13-14h,
seed 42.
"""

import itertools
import math
import time
from datetime import date

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist
from scipy.stats import spearmanr

from dpmobility import formats
from dpmobility.aggregate import compute_link_counts
from dpmobility.cli import main as cli_main
from dpmobility.errors import NoPathError
from dpmobility.geometry import GeoPoint, displace
from dpmobility.matching import match_trajectory
from dpmobility.metrics import DEFAULT_EPSILONS, compare
from dpmobility.noise import (
    INV_E,
    NoiseParams,
    lambert_w_minus1,
    laplace_uniforms,
    unit_radius,
    verify_geo_indistinguishability,
)
from dpmobility.privatize import PrivacyConfig, plan_endpoints, privatize_trajectories
from dpmobility.synth import SynthCityConfig, SynthTripConfig, generate_city, generate_trips
from dpmobility.trajectories import local_day_hour

import reference
from conftest import child_env, offset_point, random_network, trip_along_route

DAYS = tuple(
    date.fromisoformat(d)
    for d in ("2026-01-06", "2026-01-07", "2026-01-08",
              "2026-01-13", "2026-01-14", "2026-01-15")
)
EPSILONS = DEFAULT_EPSILONS


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def city():
    return generate_city(SynthCityConfig(rows=20, cols=20, spacing_m=100.0,
                                         arterial_every=5, seed=42))


@pytest.fixture(scope="module")
def corpus(city):
    cfg = SynthTripConfig(
        n_trips=600, n_devices=400, days=DAYS, hour_window=(13, 14),
        repeat_fraction=0.02, seed=42,
    )
    return generate_trips(city, cfg)


@pytest.fixture(scope="module")
def sweeps(city, corpus):
    """Model sweep per aggregation level; the 6-day run is timed."""
    gps, _ = corpus
    cfg = PrivacyConfig(global_seed=42)
    out = {}
    for n_days in (1, 3, 6):
        keep = set(DAYS[:n_days])
        level = [g for g in gps if local_day_hour(g.samples[0].t)[0] in keep]
        started = time.perf_counter()
        rows = compare(level, city, cfg, epsilons=EPSILONS)
        out[n_days] = {"rows": rows, "elapsed": time.perf_counter() - started,
                       "trips": len(level)}
    return out


def dp_ani_rows(rows):
    return [r for r in rows if r["model"] == "dp-ani"]


def raw_row(rows):
    return next(r for r in rows if r["model"] == "raw")


class TestAcceptance:
    def test_01_sampler_correctness(self):
        started = time.perf_counter()
        rng = np.random.default_rng(12345)
        theta, p = laplace_uniforms(rng, 10**6)
        r = unit_radius(p)  # the radius at epsilon 1 and R = 1 m
        mean_r = float(r.mean())
        rs = np.sort(r)
        n = len(rs)
        cdf = reference.radial_cdf(1.0, rs)
        ecdf_hi = np.arange(1, n + 1) / n
        ks = float(max(np.abs(ecdf_hi - cdf).max(), np.abs(ecdf_hi - 1.0 / n - cdf).max()))
        counts, _ = np.histogram(theta, bins=36, range=(0.0, 2.0 * math.pi))
        expected = n / 36.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        p_value = float(1.0 - chi2_dist.cdf(chi2, 35))
        elapsed = time.perf_counter() - started
        ok = (ks < 0.005 and abs(mean_r - 2.0) <= 0.01
              and p_value > 0.01 and elapsed < 10.0)
        report(1, ok, f"KS={ks:.5f} mean={mean_r:.4f} theta_p={p_value:.3f} "
                      f"runtime={elapsed:.1f}s")
        assert ks < 0.005
        assert mean_r == pytest.approx(2.0, abs=0.01)
        assert p_value > 0.01
        assert elapsed < 10.0

    def test_02_lambert_w_precision(self):
        xs = -np.geomspace(1e-12, INV_E - 1e-12, 10**4)
        w = lambert_w_minus1(xs)
        residual = np.abs(w * np.exp(w) - xs)
        worst = float((residual / np.abs(xs)).max())
        branch = abs(lambert_w_minus1(-INV_E) + 1.0)
        ok = worst <= 1e-12 and branch <= 1e-8
        report(2, ok, f"max_rel_residual={worst:.2e} |w(-1/e)+1|={branch:.1e}")
        assert worst <= 1e-12
        assert branch <= 1e-8

    def test_03_geo_indistinguishability(self):
        x0 = GeoPoint(37.80, -122.30)
        x1 = displace(x0, 100.0, 0.0)
        ratio = verify_geo_indistinguishability(
            x0, x1, NoiseParams(1.0, 100.0), 10**6, 20.0, seed=0
        )
        bound = 1.0 / 100.0 * 100.0
        ok = ratio <= bound + 0.3
        report(3, ok, f"max_log_ratio={ratio:.4f} bound={bound:.1f}+0.3")
        assert ratio <= bound + 0.3

    def test_04_unchanged_links_rise_with_epsilon(self, sweeps):
        details = []
        ok = True
        for n_days in (1, 3, 6):
            unchanged = [r["unchanged_slc_od"] for r in dp_ani_rows(sweeps[n_days]["rows"])]
            rho = float(spearmanr(EPSILONS, unchanged).statistic)
            details.append(f"{n_days}d rho={rho:.3f} counts={unchanged}")
            ok = ok and rho >= 0.9
        report(4, ok, "; ".join(details))
        for n_days in (1, 3, 6):
            unchanged = [r["unchanged_slc_od"] for r in dp_ani_rows(sweeps[n_days]["rows"])]
            assert float(spearmanr(EPSILONS, unchanged).statistic) >= 0.9

    def test_05_privatized_ratio(self, sweeps):
        rows = dp_ani_rows(sweeps[6]["rows"])
        by_eps = {r["epsilon"]: r["privatized_ratio"] for r in rows}
        lo, hi = by_eps[15.0], by_eps[0.05]
        ok = hi >= 0.85 and hi >= lo + 0.2
        report(5, ok, f"ratio@0.05={hi:.3f} ratio@15={lo:.3f}")
        assert hi >= 0.85
        assert hi >= lo + 0.2

    def test_06_network_length(self, sweeps, city, corpus):
        rows = sweeps[6]["rows"]
        raw_len = raw_row(rows)["network_length_mi"]
        dp_devs = {
            r["epsilon"]: abs(r["network_length_mi"] / raw_len - 1.0)
            for r in dp_ani_rows(rows)
        }
        trip_remove_dev = abs(
            next(r for r in rows if r["model"] == "trip-remove")["network_length_mi"]
            / raw_len - 1.0
        )
        within = max(dp_devs.values()) <= 0.06
        dominated = all(trip_remove_dev > dev for dev in dp_devs.values())

        # epsilon-independent models must emit identical rows whatever the
        # requested epsilon list
        gps, _ = corpus
        cfg = PrivacyConfig(global_seed=42)
        baselines = ("trip-remove", "od-remove", "od-successive")
        rows_a = compare(gps, city, cfg, epsilons=(0.05,), models=baselines)
        rows_b = compare(gps, city, cfg, epsilons=(15.0,), models=baselines)
        constant = rows_a == rows_b

        ok = within and dominated and constant
        report(6, ok, f"max_dp_dev={max(dp_devs.values()):.4f} (<=0.06) "
                      f"trip_remove_dev={trip_remove_dev:.4f} baselines_constant={constant}")
        assert within
        assert dominated
        assert constant

    def test_07_vmt(self, sweeps):
        rows = sweeps[6]["rows"]
        raw_vmt = raw_row(rows)["vmt_mi"]
        devs = [abs(r["vmt_mi"] / raw_vmt - 1.0) for r in dp_ani_rows(rows)]
        ok = max(devs) <= 0.04
        report(7, ok, f"max_vmt_dev={max(devs):.4f} (<=0.04)")
        assert max(devs) <= 0.04

    def test_08_repeated_trip_determinism(self, city):
        # One device repeats one interior endpoint pair on all six days.
        # Zero GPS jitter isolates the noise determinism being tested.
        trips = [
            trip_along_route(city, "n011_011", "n011_014", day.isoformat(),
                             device="commuter")
            for day in DAYS
        ]

        def perturbed_ods(seed):
            plan = plan_endpoints(trips, city, PrivacyConfig(global_seed=seed))
            out, rep = privatize_trajectories(plan, city, 0.5)
            assert rep.endpoints_perturbed == 2 * len(trips)
            return {(t.links[0], t.links[-1]) for t in out.values()}

        base = perturbed_ods(0)
        identical_per_day = len(base) == 1
        alternatives = [perturbed_ods(seed) for seed in (1, 2, 3)]
        stable = all(perturbed_ods(0) == base for _ in range(2))
        changed = any(alt != base for alt in alternatives)
        ok = identical_per_day and stable and changed
        report(8, ok, f"od_links={base} seed_variants_differ={changed}")
        assert identical_per_day
        assert stable
        assert changed

    def test_09_pipeline_determinism(self, tmp_path):
        net_path = tmp_path / "net.geojson"
        trips_path = tmp_path / "trips.csv"
        assert cli_main(["synth", "network", "--rows", "12", "--cols", "12",
                         "--out", str(net_path)]) == 0
        assert cli_main([
            "synth", "trips", "--network", str(net_path), "--n-trips", "150",
            "--n-devices", "80", "--dates", "2026-01-06,2026-01-07",
            "--repeat-fraction", "0.05", "--seed", "42", "--out", str(trips_path),
        ]) == 0
        import subprocess
        import sys

        # Two fresh interpreters with different string-hash seeds, writing
        # into different directories, must produce the same bytes.
        digests = []
        for run in ("1", "2"):
            out = tmp_path / f"run{run}"
            env = child_env(PYTHONHASHSEED=run)
            proc = subprocess.run(
                [sys.executable, "-m", "dpmobility.cli", "compare",
                 "--network", str(net_path), "--trips", str(trips_path),
                 "--seed", "7", "--days", "T,W", "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append((
                formats.sha256_file(out / "compare.csv"),
                formats.sha256_file(out / "manifest.json"),
            ))
        ok = digests[0] == digests[1]
        report(9, ok, f"two reruns byte-identical={ok}")
        assert ok

    def test_10_oracle_equivalences(self, city, corpus):
        rng = np.random.default_rng(1001)

        # spatial index vs brute force, 1000 queries with zero mismatches
        mismatches = 0
        nets = [city] + [
            random_network(np.random.default_rng(s), 12, GeoPoint(lat, 11.0))
            for s, lat in ((1, 0.0), (2, 37.8), (3, 60.0))
        ]
        for q in range(1000):
            net = nets[q % len(nets)]
            some_node = next(iter(net.nodes.values()))
            center = offset_point(some_node, float(rng.uniform(-300, 2300)),
                                  float(rng.uniform(-300, 2300)))
            radius = float(rng.uniform(0.0, 1200.0))
            if net.links_within(center, radius) != reference.within(net, center, radius):
                mismatches += 1

        # shortest paths vs exhaustive enumeration on small graphs
        sp_ok = True
        for seed in range(4):
            net = random_network(np.random.default_rng(2000 + seed), 7,
                                 GeoPoint(37.8, 11.0), span_m=1000.0)
            for src, dst in itertools.permutations(sorted(net.nodes), 2):
                paths = reference.simple_paths(net, src, dst)
                if not paths:
                    try:
                        net.shortest_path(src, dst)
                        sp_ok = False
                    except NoPathError:
                        pass
                    continue
                got = reference.path_length(net, net.shortest_path(src, dst))
                best = min(reference.path_length(net, p) for p in paths)
                if not math.isclose(got, best, rel_tol=1e-12):
                    sp_ok = False

        # link tally vs nested-loop oracle
        _, truth = corpus
        sample = truth[:400]
        tally_ok = compute_link_counts(sample) == reference.link_counts(sample)

        # matcher recovery
        cfg5 = SynthTripConfig(n_trips=120, n_devices=80, days=DAYS[:1],
                               gps_interval_s=10.0, jitter_sigma_m=5.0, seed=55)
        gps5, truth5 = generate_trips(city, cfg5)
        hits = total = 0
        for g, t in zip(gps5, truth5):
            lt = match_trajectory(g, city)
            hits += len(set(lt.links) & set(t.links))
            total += len(t.links)
        recovery5 = hits / total
        cfg0 = SynthTripConfig(n_trips=60, n_devices=60, days=DAYS[:1],
                               jitter_sigma_m=0.0, seed=56)
        gps0, truth0 = generate_trips(city, cfg0)
        exact0 = all(
            match_trajectory(g, city).links == t.links for g, t in zip(gps0, truth0)
        )

        ok = (mismatches == 0 and sp_ok and tally_ok and recovery5 >= 0.95 and exact0)
        report(10, ok, f"index_mismatches={mismatches} sp_oracle={sp_ok} "
                       f"tally={tally_ok} recovery@5m={recovery5:.3f} exact@0m={exact0}")
        assert mismatches == 0
        assert sp_ok
        assert tally_ok
        assert recovery5 >= 0.95
        assert exact0

    def test_11_desk_scale_runtime(self, sweeps):
        elapsed = sweeps[6]["elapsed"]
        ok = elapsed < 300.0
        report(11, ok, f"full 8-epsilon sweep on {sweeps[6]['trips']} trips "
                       f"took {elapsed:.1f}s (< 300s)")
        assert elapsed < 300.0
