"""Command-line surface and end-to-end pipeline wiring.

Exit codes: 0 success, 1 failed verification, 2 bad inputs or usage,
3 empty aggregation window.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import date
from pathlib import Path

from . import __version__
from .aggregate import aggregate
from .errors import DpMobilityError, InputFormatError
from .geometry import GeoPoint, displace
from .matching import MatchConfig
from .metrics import (
    COMPARE_COLUMNS,
    DEFAULT_EPSILONS,
    DEFAULT_MODELS,
    compare,
    intersection_density,
    network_length,
    vht,
    vhd,
    vmt,
)
from .noise import NoiseParams, verify_geo_indistinguishability
from .privatize import PrivacyConfig, match_window, privatize_aggregate
from .synth import SynthCityConfig, SynthTripConfig, generate_city, generate_trips
from .trajectories import DEFAULT_TRIP_GAP_S, DEFAULT_UTC_OFFSET_H, Window
# ``window_filter`` is not called here; it stays importable under this
# module's name because bench/tracing.py wraps ``cli.window_filter``.
from .trajectories import window_filter  # noqa: F401
from . import formats

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_EMPTY_WINDOW = 3

VERIFY_REFERENCE_POINT = GeoPoint(37.80, -122.30)


def _parse_hour_window(text: str) -> tuple[int, int]:
    try:
        h0, h1 = text.split("-")
        return int(h0), int(h1)
    except ValueError as e:
        raise DpMobilityError(f"bad hour window {text!r}; expected H0-H1") from e


def _parse_days(text: str) -> frozenset[str]:
    days = frozenset(part.strip() for part in text.split(",") if part.strip())
    if not days:
        raise DpMobilityError("empty day set")
    return days


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as e:
        raise DpMobilityError(f"bad number list {text!r}") from e


def _parse_dates(text: str) -> tuple[date, ...]:
    try:
        return tuple(date.fromisoformat(part.strip()) for part in text.split(","))
    except ValueError as e:
        raise DpMobilityError(f"bad date list {text!r}; expected YYYY-MM-DD[,...]") from e


# Option defaults are the library's own; a dataclass field's default is a class attribute.
def _add_window_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hour-window", default="13-14", help="half-open local hour range, e.g. 13-14")
    p.add_argument("--days", default="T,W,Th", help="weekday labels, e.g. T,W,Th")
    p.add_argument("--utc-offset", type=float, default=DEFAULT_UTC_OFFSET_H,
                   help="hours added to UTC for local day/hour binning")


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", required=True, help="road network (.geojson or .csv)")
    p.add_argument("--trips", required=True, help="GPS sample CSV")
    p.add_argument("--gap", type=float, default=DEFAULT_TRIP_GAP_S, help="trip split gap, seconds")
    p.add_argument("--snap-radius", type=float, default=MatchConfig.snap_radius_m,
                   help="matcher snap radius, meters")
    p.add_argument("--max-node-skip", type=int, default=MatchConfig.max_node_skip,
                   help="tolerated consecutive unsnappable samples")


def _add_privacy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--h1", type=int, default=PrivacyConfig.h1, help="buffer link-count threshold")
    p.add_argument("--h2", type=int, default=PrivacyConfig.h2,
                   help="buffer same-class link-count threshold")
    p.add_argument("--initial-buffer", type=float, default=PrivacyConfig.initial_buffer_m,
                   help="initial buffer, meters")
    p.add_argument("--buffer-step", type=float, default=PrivacyConfig.buffer_step_m,
                   help="buffer growth step, meters")
    p.add_argument("--max-buffer", type=float, default=PrivacyConfig.max_buffer_m,
                   help="buffer cap, meters")
    p.add_argument("--seed", type=int, default=PrivacyConfig.global_seed, help="global noise seed")


def _load_inputs(args):
    """(network, every trip in the file, window, matcher settings).  The
    window is checked before any file is read."""
    window = Window(_parse_hour_window(args.hour_window), _parse_days(args.days), args.utc_offset)
    match_cfg = MatchConfig(args.snap_radius, args.max_node_skip)
    net = formats.load_network(args.network)
    trips = formats.load_trips_csv(args.trips, gap_s=args.gap)
    return net, trips, window, match_cfg


def _privacy_config(args) -> PrivacyConfig:
    return PrivacyConfig(
        args.h1, args.h2, args.initial_buffer, args.buffer_step, args.max_buffer, args.seed
    )


def _config_echo(args) -> dict:
    # The output directory is where results land, not part of what they
    # contain; leaving it out lets reruns into any directory produce
    # byte-identical manifests.
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}


def _write_outputs(args, files: dict) -> Path:
    """Call ``save(*data, out / name)`` for each ``name: (save, *data)`` of
    ``files``, then write the manifest over them; returns ``out``, the
    ``--out`` directory."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (save, *data) in files.items():
        save(*data, out / name)
    formats.write_manifest(
        out / "manifest.json", args.command, _config_echo(args),
        [args.network, args.trips], [out / name for name in files], __version__,
    )
    return out


def cmd_privatize(args) -> int:
    net, corpus, window, match_cfg = _load_inputs(args)
    agg, report = privatize_aggregate(
        corpus, net, _privacy_config(args), args.epsilon, match_cfg, window
    )
    if not agg.counts:
        print("privatization left no trips in the window", file=sys.stderr)
        return EXIT_EMPTY_WINDOW
    out = _write_outputs(args, {
        "privatized_aggregation.csv": (formats.save_aggregation_csv, agg, net),
        "privatized_overlay.geojson": (formats.save_overlay_geojson, agg, net),
        "privatization_report.csv": (formats.save_report_csv, report),
    })
    print(
        f"privatized {report.trips_out}/{report.trips_in} trips "
        f"({report.endpoints_perturbed} endpoints perturbed, "
        f"{report.trips_excluded} trips excluded) -> {out}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    net, corpus, window, match_cfg = _load_inputs(args)
    models = tuple(part.strip() for part in args.models.split(",") if part.strip())
    rows = compare(
        corpus, net, _privacy_config(args),
        epsilons=_parse_floats(args.epsilons),
        models=models,
        match_cfg=match_cfg,
        window=window,
    )
    if all(row["trips_excluded"] == len(corpus) for row in rows):
        print("no model released a trip of the requested window", file=sys.stderr)
        return EXIT_EMPTY_WINDOW
    out = _write_outputs(args, {"compare.csv": (formats.save_compare_csv, rows, COMPARE_COLUMNS)})
    print(f"wrote {len(rows)} rows -> {out / 'compare.csv'}")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    net, corpus, window, match_cfg = _load_inputs(args)
    trips, _ = match_window(corpus, net, match_cfg, window)
    if not trips:
        print("no matchable trips in the requested window", file=sys.stderr)
        return EXIT_EMPTY_WINDOW
    agg = aggregate(list(trips.values()), window=window)
    out = _write_outputs(args, {
        "aggregation.csv": (formats.save_aggregation_csv, agg, net),
        "overlay.geojson": (formats.save_overlay_geojson, agg, net),
    })
    print(f"aggregated {len(trips)} trips over {len(agg.counts)} links -> {out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    net, corpus, window, match_cfg = _load_inputs(args)
    matched, excluded = match_window(corpus, net, match_cfg, window)
    if not matched:
        print("no matchable trips in the requested window", file=sys.stderr)
        return EXIT_EMPTY_WINDOW
    trips = list(matched.values())
    agg = aggregate(trips, window=window)
    _, histogram = intersection_density(agg, net)
    print(f"trips={len(trips)}")
    print(f"trips_unmatchable={excluded.get('unmatchable', 0)}")
    print(f"active_links={len(agg.counts)}")
    print(f"network_length_mi={network_length(agg, net)!r}")
    print(f"vmt_mi={vmt(trips, net)!r}")
    print(f"vht_h={vht(trips, net)!r}")
    print(f"vhd_h={vhd(trips, net)!r}")
    print("intersection_density_histogram=" +
          ",".join(f"{value}:{share:.4f}" for value, share in histogram.items()))
    return EXIT_OK


def cmd_synth_network(args) -> int:
    cfg = SynthCityConfig(
        rows=args.rows, cols=args.cols, spacing_m=args.spacing,
        arterial_every=args.arterial_every,
    )
    net = generate_city(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.suffix.lower() == ".csv":
        formats.save_network_csv(net, out)
    else:
        formats.save_network_geojson(net, out)
    print(f"wrote {len(net.nodes)} nodes / {len(net.links)} links -> {out}")
    return EXIT_OK


def cmd_synth_trips(args) -> int:
    cfg = SynthTripConfig(
        n_trips=args.n_trips,
        n_devices=args.n_devices,
        days=_parse_dates(args.dates),
        hour_window=_parse_hour_window(args.hour_window),
        od_popularity_alpha=args.od_alpha,
        gps_interval_s=args.interval,
        jitter_sigma_m=args.jitter,
        repeat_fraction=args.repeat_fraction,
        seed=args.seed,
        utc_offset_hours=args.utc_offset,
    )
    net = formats.load_network(args.network)
    corpus, truth = generate_trips(net, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    formats.save_trips_csv(corpus, out)
    written = [out]
    if args.truth:
        formats.save_link_corpus_csv(truth, args.truth)
        written.append(Path(args.truth))
    print(f"wrote {len(corpus)} trips -> {', '.join(str(p) for p in written)}")
    return EXIT_OK


def cmd_verify_dp(args) -> int:
    for name, value in (("--distance", args.distance), ("--slack", args.slack)):
        if not (0.0 <= value < math.inf):
            raise ValueError(f"{name} must be finite and non-negative: {value}")
    params = NoiseParams(args.epsilon, args.radius)
    x0 = VERIFY_REFERENCE_POINT
    x1 = displace(x0, args.distance, 0.0) if args.distance > 0 else x0
    ratio = verify_geo_indistinguishability(
        x0, x1, params, args.samples, args.cell, seed=args.seed
    )
    bound = args.epsilon / args.radius * args.distance
    print(f"max_log_ratio={ratio!r}")
    print(f"bound={bound!r} slack={args.slack!r}")
    if ratio <= bound + args.slack:
        print("within bound")
        return EXIT_OK
    print("EXCEEDS bound", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmobility",
        description="Privacy-preserving aggregated mobility networks from GPS trajectories",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("privatize", help="perturb unique trip endpoints and aggregate")
    _add_corpus_args(p)
    _add_window_args(p)
    _add_privacy_args(p)
    p.add_argument("--epsilon", type=float, required=True, help="privacy parameter")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_privatize)

    p = sub.add_parser("compare", help="sweep models and epsilons, emit a metrics table")
    _add_corpus_args(p)
    _add_window_args(p)
    _add_privacy_args(p)
    p.add_argument("--models", default=",".join(DEFAULT_MODELS))
    p.add_argument("--epsilons", default=",".join(str(e) for e in DEFAULT_EPSILONS))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("aggregate", help="aggregate raw matched trips over a window")
    _add_corpus_args(p)
    _add_window_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("metrics", help="print utility metrics of the raw corpus")
    _add_corpus_args(p)
    _add_window_args(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("synth", help="synthetic inputs")
    synth_sub = p.add_subparsers(dest="synth_command", required=True)

    q = synth_sub.add_parser("network", help="generate a grid city network")
    q.add_argument("--rows", type=int, default=20)
    q.add_argument("--cols", type=int, default=20)
    q.add_argument("--spacing", type=float, default=SynthCityConfig.spacing_m,
                   help="node spacing, meters")
    q.add_argument("--arterial-every", type=int, default=SynthCityConfig.arterial_every)
    q.add_argument("--out", required=True, help=".geojson or .csv path")
    q.set_defaults(func=cmd_synth_network)

    q = synth_sub.add_parser("trips", help="generate a GPS trip corpus")
    q.add_argument("--network", required=True)
    q.add_argument("--n-trips", type=int, default=600, help="trips per day")
    q.add_argument("--n-devices", type=int, default=400)
    q.add_argument("--dates", required=True, help="comma-separated YYYY-MM-DD dates")
    q.add_argument("--hour-window", default="{}-{}".format(*SynthTripConfig.hour_window))
    q.add_argument("--od-alpha", type=float, default=SynthTripConfig.od_popularity_alpha,
                   help="endpoint popularity exponent")
    q.add_argument("--interval", type=float, default=SynthTripConfig.gps_interval_s,
                   help="GPS sampling interval, seconds")
    q.add_argument("--jitter", type=float, default=SynthTripConfig.jitter_sigma_m,
                   help="GPS noise sigma, meters")
    q.add_argument("--repeat-fraction", type=float, default=SynthTripConfig.repeat_fraction)
    q.add_argument("--seed", type=int, default=SynthTripConfig.seed)
    q.add_argument("--utc-offset", type=float, default=SynthTripConfig.utc_offset_hours)
    q.add_argument("--out", required=True, help="trips CSV path")
    q.add_argument("--truth", default=None, help="optional ground-truth link CSV path")
    q.set_defaults(func=cmd_synth_trips)

    p = sub.add_parser("verify-dp", help="empirical geo-indistinguishability check")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--radius", type=float, required=True, help="noise scaling radius, meters")
    p.add_argument("--distance", type=float, required=True,
                   help="separation of the two test points, meters")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--cell", type=float, default=20.0, help="histogram cell size, meters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slack", type=float, default=0.3, help="allowed statistical slack")
    p.set_defaults(func=cmd_verify_dp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (DpMobilityError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
