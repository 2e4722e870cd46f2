"""Named benchmark workloads: synthetic city and GPS corpus shapes plus the
CLI invocation each one times.

Every workload window is 13:00-14:00 local on T/W/Th and every trip is
generated inside it, so all generated trips are in the window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date

# Three consecutive Tuesday/Wednesday/Thursday dates.
DATES = (date(2026, 1, 6), date(2026, 1, 7), date(2026, 1, 8))
HOUR_WINDOW = (13, 14)
DAYS = "T,W,Th"
UTC_OFFSET_H = -8.0
GAP_S = 300.0
SNAP_RADIUS_M = 50.0
MAX_NODE_SKIP = 3
SPACING_M = 100.0
ARTERIAL_EVERY = 5
EPSILON_LADDER = (0.05, 0.1, 1.0, 1.5, 2.0, 5.0, 10.0, 15.0)
COMPARE_MODELS = ("raw", "dp-ani", "trip-remove", "od-remove", "od-successive")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "privatize" or "compare"
    rows: int
    cols: int
    trips_per_day: int
    n_devices: int
    repeat_fraction: float
    gps_interval_s: float = 30.0
    od_alpha: float = 1.0  # Zipf exponent of origin/destination popularity
    epsilons: tuple[float, ...] = (1.0,)

    def cli_argv(self, network: str, trips: str, out: str, seed: int) -> list[str]:
        """Arguments for ``dpmobility.cli.main``; every knob the output
        checks depend on is spelled out rather than left to CLI defaults."""
        argv = [
            self.command,
            "--network", network,
            "--trips", trips,
            "--gap", str(GAP_S),
            "--snap-radius", str(SNAP_RADIUS_M),
            "--max-node-skip", str(MAX_NODE_SKIP),
            "--hour-window", f"{HOUR_WINDOW[0]}-{HOUR_WINDOW[1]}",
            "--days", DAYS,
            "--utc-offset", str(UTC_OFFSET_H),
            "--seed", str(seed),
            "--out", out,
        ]
        if self.command == "compare":
            argv += [
                "--models", ",".join(COMPARE_MODELS),
                "--epsilons", ",".join(str(e) for e in self.epsilons),
            ]
        else:
            argv += ["--epsilon", str(self.epsilons[0])]
        return argv

    def smoke(self) -> "Workload":
        """The same workload at a tiny shape, for testing the benchmark."""
        return replace(self, rows=6, cols=6, trips_per_day=20, n_devices=16)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-dense",
            command="compare",
            rows=10,
            cols=10,
            trips_per_day=600,
            n_devices=600,
            repeat_fraction=0.02,
            od_alpha=0.5,
            epsilons=EPSILON_LADDER,
        ),
        Workload(
            name="release-commute",
            command="privatize",
            rows=20,
            cols=20,
            trips_per_day=300,
            n_devices=100,
            repeat_fraction=0.5,
        ),
        Workload(
            name="release-hirate",
            command="privatize",
            rows=24,
            cols=24,
            trips_per_day=500,
            n_devices=400,
            repeat_fraction=0.02,
            gps_interval_s=5.0,
        ),
    )
}
