"""Cross-PR perf-trend gate over the ``BENCH_*.json`` snapshots.

Each perf PR records a ``BENCH_<n>.json`` snapshot with ``baseline`` and
``optimized`` rate tables (see ``benchmarks/hotpath.py``).  This gate
loads every snapshot at the repo root in ``<n>`` order and fails when a
meter's ``optimized`` rate regresses more than the tolerance versus the
**latest prior snapshot that recorded the same meter** -- i.e. the perf
trajectory may wobble (snapshots are wall-clock and host-dependent) but
must not silently fall off a cliff between PRs.

Two meter shapes share the snapshots: ``*_per_sec`` rates (higher is
better; a regression is a drop below ``prior * (1 - tolerance)``) and
``*_sec`` durations such as ``widegrid_trial_sec`` (lower is better; a
regression is a rise above ``prior * (1 + tolerance)``).

Meters that first appear in a snapshot have no prior to compare against
and are reported as new.  Snapshots that carry an ``obs_overhead`` table
(``hotpath.py --obs-overhead``) are additionally held to the telemetry
budget: a meter whose telemetry-on overhead exceeds 10% fails the gate.
Exit status: 0 = trend holds, 1 = regression.

Since the results warehouse landed, this script is a thin client of
``repro.warehouse``: ``main`` ingests the snapshots into an in-memory
warehouse and gates on ``trend_failures`` / ``obs_overhead_failures``
-- the exact queries ``python -m repro.warehouse trend --gate`` runs
against a durable warehouse -- so CI's pass/fail semantics and this
module's ``check_trend``/``check_obs_overhead`` API are unchanged.

Run it the way CI does::

    python benchmarks/bench_trend.py
    python benchmarks/bench_trend.py --tolerance 0.2 --root .
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    # CI invokes this script bare (no PYTHONPATH=src); the warehouse
    # package the gate queries lives under src/.
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.warehouse import (  # noqa: E402 - after the path fix above
    bench_snapshots,
    ingest_snapshots,
    obs_overhead_failures,
    open_warehouse,
    trend_failures,
)
from repro.warehouse.query import (  # noqa: E402
    DEFAULT_TOLERANCE,
    OBS_OVERHEAD_BUDGET_PCT,
    is_duration_meter,
)

_SNAPSHOT_RE = re.compile(r"^BENCH_(\d+)\.json$")


def load_snapshots(root: Path) -> list[tuple[int, dict]]:
    """All ``BENCH_<n>.json`` files under ``root``, ordered by ``<n>``."""
    snapshots = []
    for path in root.iterdir():
        match = _SNAPSHOT_RE.match(path.name)
        if match:
            snapshots.append((int(match.group(1)),
                              json.loads(path.read_text())))
    return sorted(snapshots, key=lambda pair: pair[0])


def check_trend(snapshots: list[tuple[int, dict]],
                tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Regression messages (empty = the trend holds); delegates to the
    warehouse trend query (same rule, same messages)."""
    return trend_failures(snapshots, tolerance=tolerance)


def check_obs_overhead(snapshots: list[tuple[int, dict]],
                       budget_pct: float = OBS_OVERHEAD_BUDGET_PCT,
                       ) -> list[str]:
    """Telemetry-budget violations in the latest ``obs_overhead`` table."""
    return obs_overhead_failures(snapshots, budget_pct=budget_pct)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="directory holding BENCH_*.json "
                             "(default: repo root above this file)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression per meter "
                             "(default 0.20)")
    args = parser.parse_args(argv)
    root = Path(args.root) if args.root else _REPO_ROOT
    loaded = load_snapshots(root)
    if not loaded:
        print(f"bench-trend: no BENCH_*.json snapshots under {root}")
        return 1
    # The gate IS a warehouse query: ingest the snapshot files into a
    # private in-memory warehouse and run the trend checks against it.
    with open_warehouse(":memory:") as wh:
        ingest_snapshots(wh, loaded)
        snapshots = bench_snapshots(wh)
        names = ", ".join(f"BENCH_{n}" for n, _ in snapshots)
        print(f"bench-trend: {len(snapshots)} snapshot(s): {names}")
        failures = trend_failures(snapshots, tolerance=args.tolerance)
        failures += obs_overhead_failures(snapshots)
    seen: set[str] = set()
    for number, snapshot in snapshots:
        for meter, rate in sorted(snapshot.get("optimized", {}).items()):
            tag = "" if meter in seen else "  [new]"
            unit = " s " if is_duration_meter(meter) else "/s"
            print(f"  BENCH_{number} {meter:<28} {rate:>14,.1f}{unit}{tag}")
            seen.add(meter)
        for meter, row in sorted((snapshot.get("obs_overhead")
                                  or {}).items()):
            print(f"  BENCH_{number} obs:{meter:<27} "
                  f"{row.get('overhead_pct', 0.0):>6.2f}% overhead")
    if failures:
        print("bench-trend: REGRESSION")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"bench-trend: ok (tolerance {args.tolerance * 100.0:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
