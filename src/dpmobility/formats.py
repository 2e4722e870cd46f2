"""File formats: network GeoJSON/CSV, trip CSV, aggregation and report
serialization, and run manifests.

All writers emit UTF-8 with LF line endings, '.' decimal separators, and a
fixed column order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .aggregate import AggregatedMobilityNetwork
from .errors import InputFormatError, NetworkError
from .geometry import GeoPoint, haversine_distance
from .network import Link, LinkId, NodeId, RoadNetwork
from .privatize import EndpointDecision, PrivatizationReport
from .trajectories import (
    DEFAULT_TRIP_GAP_S,
    GpsSample,
    GpsTrajectory,
    LinkTrajectory,
    split_trips,
    validate_trip_gap,
)

TRIP_COLUMNS = ("device_id", "timestamp", "lat", "lon")
AGGREGATION_COLUMNS = ("link_id", "count", "length_m", "fc")
REPORT_COLUMNS = ("trip", "end", "original_link", "perturbed", "matched_link", "new_link", "radius_m")
NETWORK_CSV_COLUMNS = (
    "id", "from_node", "to_node", "from_lat", "from_lon", "to_lat", "to_lon",
    "fc", "speed_mps", "length_m",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence],
               preamble: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in preamble:
            f.write(f"# {line}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _read_csv(path: str | Path, required: Sequence[str], parse: Callable[[dict], Any]
              ) -> tuple[list[str], list]:
    """The text of the leading '#' lines, and ``parse(row)`` for each
    non-blank row as a dict keyed by the header.  A missing column, a row
    shorter or longer than the header, a ``csv.Error`` (a field over the
    size limit), or a ``ValueError`` from ``parse`` raises
    :class:`InputFormatError` with the file line; text that is not UTF-8
    raises it with the path alone."""
    preamble: list[str] = []
    rows = []
    with open(path, encoding="utf-8", newline="") as f:
        try:
            line = f.readline()
            while line.startswith("#"):
                preamble.append(line[1:].strip())
                line = f.readline()
            reader = csv.reader(chain([line], f))
            header = next(reader)
            missing = set(required) - set(header)
            if missing:
                raise ValueError(f"missing columns: {sorted(missing)}")
            for fields in filter(None, reader):
                if len(fields) != len(header):
                    raise ValueError(f"{len(fields)} fields, the header has {len(header)}")
                rows.append(parse(dict(zip(header, fields))))
        except UnicodeDecodeError as e:
            raise InputFormatError(str(path), None, _not_utf8(e)) from e
        except (ValueError, csv.Error) as e:
            raise InputFormatError(str(path), len(preamble) + reader.line_num, str(e)) from e
    return preamble, rows


def _not_utf8(e: UnicodeDecodeError) -> str:
    # Text is decoded in chunks, so neither the line being read nor the
    # error's position says where the byte lies in the file.
    return f"not UTF-8 text: byte {e.object[e.start]:#04x}: {e.reason}"


def _preamble(path: str | Path, lines: Sequence[str], convert: Callable[[str], Any] = str
              ) -> dict:
    """``key=value`` preamble lines (line i of the file is ``lines[i - 1]``)
    as a dict, each value passed through ``convert``."""
    fields = {}
    for lineno, line in enumerate(lines, 1):
        key, _, value = line.partition("=")
        try:
            fields[key] = convert(value)
        except ValueError as e:
            raise InputFormatError(str(path), lineno, str(e)) from e
    return fields


# -- timestamps ----------------------------------------------------------


def format_timestamp(t: float) -> str:
    dt = datetime.fromtimestamp(t, timezone.utc)
    text = dt.isoformat(timespec="microseconds" if dt.microsecond else "seconds")
    return text.replace("+00:00", "Z")


def parse_timestamp(text: str) -> float:
    """Epoch seconds from ISO 8601 text; without ``Z`` or ``±hh:mm`` the
    instant would depend on the reader's time zone, so that is a ValueError."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} has no UTC offset")
    return dt.timestamp()


# -- road networks ---------------------------------------------------------


def _whole(value) -> int:
    """``value`` as an int; a boolean or a fractional float is a ValueError,
    not converted."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _link_from_properties(props: dict, geometry: tuple[GeoPoint, ...]) -> Link:
    length = props.get("length_m")
    if length in (None, ""):
        length = sum(haversine_distance(a, b) for a, b in zip(geometry, geometry[1:]))
    return Link(
        id=str(props["id"]),
        from_node=str(props["from"]),
        to_node=str(props["to"]),
        geometry=geometry,
        length_m=float(length),
        functional_class=_whole(props["fc"]),
        speed_mps=float(props["speed_mps"]),
    )


def _network(path: str | Path, links: Sequence[Link]) -> RoadNetwork:
    """Network of ``links``; each node sits at the link ends naming it,
    which must all lie at exactly one position."""
    nodes: dict[NodeId, GeoPoint] = {}
    by_id: dict[LinkId, Link] = {}
    for link in links:
        if link.id in by_id:
            raise InputFormatError(str(path), None, f"duplicate link id {link.id!r}")
        by_id[link.id] = link
        for node, point in ((link.from_node, link.geometry[0]), (link.to_node, link.geometry[-1])):
            if nodes.setdefault(node, point) != point:
                raise InputFormatError(
                    str(path), None, f"link {link.id!r} places node {node!r} at "
                    f"{tuple(point)}, another link at {tuple(nodes[node])}"
                )
    try:
        return RoadNetwork(nodes, by_id)
    except NetworkError as e:  # a file with no links has no nodes
        raise InputFormatError(str(path), None, str(e)) from e


def load_network_geojson(path: str | Path) -> RoadNetwork:
    """Network from a FeatureCollection of LineString links.

    Required feature properties: id, from, to, fc, speed_mps; optional:
    length_m (computed from the geometry when absent).  Other properties,
    and any number after a position's longitude and latitude (such as an
    altitude), are ignored.  Node positions come from the first/last geometry
    vertices; two links that place one node at different positions are
    rejected.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise InputFormatError(str(path), e.lineno, e.msg) from e
    except UnicodeDecodeError as e:
        raise InputFormatError(str(path), None, _not_utf8(e)) from e
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise InputFormatError(str(path), None, "expected a FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise InputFormatError(str(path), None, "expected \"features\" to be a list")
    links = []
    for i, feature in enumerate(features):
        try:
            geom = feature.get("geometry") or {}
            coords = geom.get("coordinates") or []
            if geom.get("type") != "LineString" or len(coords) < 2:
                raise ValueError("expected a LineString of at least 2 positions")
            pts = tuple(GeoPoint(float(lat), float(lon)) for lon, lat, *_ in coords)
            links.append(_link_from_properties(feature.get("properties") or {}, pts))
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise InputFormatError(f"{path} (feature {i})", None, f"bad feature: {e}") from e
    return _network(path, links)


def _save_links_geojson(links: Iterable[tuple[Link, dict]], path: str | Path) -> None:
    """One LineString feature per ``(link, properties)``: the link's
    geometry, and its id, class and length added to ``properties``."""
    features = [
        {
            "type": "Feature",
            "geometry": {
                "type": "LineString",
                "coordinates": [[p.lon, p.lat] for p in link.geometry],
            },
            "properties": {
                "id": link.id,
                "fc": link.functional_class,
                "length_m": link.length_m,
                **properties,
            },
        }
        for link, properties in links
    ]
    _dump_json({"type": "FeatureCollection", "features": features}, path)


def save_network_geojson(net: RoadNetwork, path: str | Path) -> None:
    links = (net.links[lid] for lid in sorted(net.links))
    _save_links_geojson(
        ((link, {"from": link.from_node, "to": link.to_node, "speed_mps": link.speed_mps})
         for link in links),
        path,
    )


def _csv_link(row: dict) -> Link:
    a = GeoPoint(float(row["from_lat"]), float(row["from_lon"]))
    b = GeoPoint(float(row["to_lat"]), float(row["to_lon"]))
    return _link_from_properties({**row, "from": row["from_node"], "to": row["to_node"]}, (a, b))


def load_network_csv(path: str | Path) -> RoadNetwork:
    """Network from a straight-line edge list (see NETWORK_CSV_COLUMNS)."""
    required = [c for c in NETWORK_CSV_COLUMNS if c != "length_m"]
    return _network(path, _read_csv(path, required, _csv_link)[1])


def save_network_csv(net: RoadNetwork, path: str | Path) -> None:
    rows = []
    for lid in sorted(net.links):
        link = net.links[lid]
        a, b = link.geometry[0], link.geometry[-1]
        rows.append(
            (link.id, link.from_node, link.to_node, a.lat, a.lon, b.lat, b.lon,
             link.functional_class, link.speed_mps, link.length_m)
        )
    _write_csv(path, NETWORK_CSV_COLUMNS, rows)


# Network file formats by extension: (loader, writer).
_NETWORK_FORMATS = {
    ".geojson": (load_network_geojson, save_network_geojson),
    ".json": (load_network_geojson, save_network_geojson),
    ".csv": (load_network_csv, save_network_csv),
}


def _network_format(path: str | Path):
    suffix = Path(path).suffix.lower()
    if suffix not in _NETWORK_FORMATS:
        raise InputFormatError(str(path), None, f"unsupported network format {suffix!r}")
    return _NETWORK_FORMATS[suffix]


def load_network(path: str | Path) -> RoadNetwork:
    """Dispatch on file extension: .geojson/.json or .csv."""
    return _network_format(path)[0](path)


def save_network(net: RoadNetwork, path: str | Path) -> None:
    """Write ``net`` in the format :func:`load_network` reads from
    ``path``'s extension, creating its directory; an unsupported extension
    raises before anything is created."""
    save = _network_format(path)[1]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    save(net, path)


# -- trips -----------------------------------------------------------------


def save_trips_csv(corpus: Sequence[GpsTrajectory], path: str | Path) -> None:
    rows = [
        (s.device, format_timestamp(s.t), s.point.lat, s.point.lon)
        for traj in corpus
        for s in traj.samples
    ]
    _write_csv(path, TRIP_COLUMNS, rows)


def _sample(row: dict) -> GpsSample:
    return GpsSample(
        device=row["device_id"],
        t=parse_timestamp(row["timestamp"]),
        point=GeoPoint(float(row["lat"]), float(row["lon"])),
    )


def load_trips_csv(path: str | Path, gap_s: float = DEFAULT_TRIP_GAP_S) -> list[GpsTrajectory]:
    """Read samples, group per device, sort by time, split into trips.

    Rows need not be globally sorted.  Trips are ordered by device id and
    start time.  ``gap_s`` is checked before the file is read.
    """
    validate_trip_gap(gap_s)
    per_device: dict[str, list[GpsSample]] = {}
    for sample in _read_csv(path, TRIP_COLUMNS, _sample)[1]:
        per_device.setdefault(sample.device, []).append(sample)
    corpus: list[GpsTrajectory] = []
    for device in sorted(per_device):
        stream = sorted(per_device[device], key=lambda s: s.t)
        corpus.extend(split_trips(stream, gap_s))
    return corpus


# -- aggregations and reports ----------------------------------------------


def save_aggregation_csv(agg: AggregatedMobilityNetwork, net: RoadNetwork,
                         path: str | Path) -> None:
    rows = [
        (lid, agg.counts[lid], net.links[lid].length_m, net.links[lid].functional_class)
        for lid in sorted(agg.counts)
    ]
    preamble = [f"source={agg.source}"]
    if agg.window is not None:
        preamble.append(f"window={agg.window.label()}")
    _write_csv(path, AGGREGATION_COLUMNS, rows, preamble)


def load_aggregation_csv(path: str | Path) -> tuple[dict[LinkId, int], str]:
    preamble, rows = _read_csv(
        path, AGGREGATION_COLUMNS, lambda row: (row["link_id"], int(row["count"]))
    )
    return dict(rows), _preamble(path, preamble).get("source", "raw")


def save_overlay_geojson(agg: AggregatedMobilityNetwork, net: RoadNetwork,
                         path: str | Path) -> None:
    """Active links with their counts, for map rendering."""
    _save_links_geojson(
        ((net.links[lid], {"count": agg.counts[lid], "source": agg.source})
         for lid in sorted(agg.counts)),
        path,
    )


def save_report_csv(report: PrivatizationReport, path: str | Path) -> None:
    preamble = [
        f"trips_in={report.trips_in}",
        f"trips_out={report.trips_out}",
        f"endpoints_perturbed={report.endpoints_perturbed}",
        f"endpoints_unchanged_single_count={report.endpoints_unchanged_single_count}",
    ]
    for cause in sorted(report.excluded):
        preamble.append(f"excluded.{cause}={report.excluded[cause]}")
    rows = [
        (d.trip, d.end, d.original_link, d.perturbed, d.matched_link, d.new_link, d.radius_m)
        for d in report.decisions
    ]
    _write_csv(path, REPORT_COLUMNS, rows, preamble)


def _decision(row: dict) -> EndpointDecision:
    return EndpointDecision(
        trip=int(row["trip"]),
        end=row["end"],
        original_link=row["original_link"],
        perturbed=row["perturbed"] == "true",
        matched_link=row["matched_link"] or None,
        new_link=row["new_link"],
        radius_m=float(row["radius_m"]) if row["radius_m"] else None,
    )


def load_report_csv(path: str | Path) -> PrivatizationReport:
    preamble, decisions = _read_csv(path, REPORT_COLUMNS, _decision)
    meta = _preamble(path, preamble, int)
    return PrivatizationReport(
        trips_in=meta.get("trips_in", 0),
        trips_out=meta.get("trips_out", 0),
        excluded={
            key[len("excluded."):]: n for key, n in meta.items() if key.startswith("excluded.")
        },
        endpoints_perturbed=meta.get("endpoints_perturbed", 0),
        endpoints_unchanged_single_count=meta.get("endpoints_unchanged_single_count", 0),
        decisions=decisions,
    )


# -- ground-truth link corpora ----------------------------------------------

TRUTH_COLUMNS = ("trip", "device", "links")


def save_link_corpus_csv(corpus: Sequence[LinkTrajectory], path: str | Path) -> None:
    rows = [(i, t.device, "|".join(t.links)) for i, t in enumerate(corpus)]
    _write_csv(path, TRUTH_COLUMNS, rows)


def _link_trajectory(row: dict) -> LinkTrajectory:
    return LinkTrajectory(device=row["device"], links=tuple(row["links"].split("|")))


def load_link_corpus_csv(path: str | Path) -> list[LinkTrajectory]:
    return _read_csv(path, TRUTH_COLUMNS, _link_trajectory)[1]


# -- compare tables ----------------------------------------------------------


def save_compare_csv(rows: Sequence[dict], columns: Sequence[str], path: str | Path) -> None:
    _write_csv(path, columns, [[row[c] for c in columns] for row in rows])


def load_compare_csv(path: str | Path) -> list[dict[str, str]]:
    return _read_csv(path, ("model",), dict)[1]


# -- manifests ----------------------------------------------------------------


def _dump_json(obj, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    path: str | Path,
    command: str,
    config: dict,
    inputs: Sequence[str | Path],
    outputs: Sequence[str | Path],
    version: str,
) -> None:
    """Record everything needed to reproduce a run byte-for-byte."""
    manifest = {
        "artifact_version": version,
        "command": command,
        "config": config,
        "inputs": {Path(p).name: sha256_file(p) for p in inputs},
        "outputs": {Path(p).name: sha256_file(p) for p in outputs},
    }
    _dump_json(manifest, path)
