"""Output checks: exact digests for recorded inputs, invariants always.

Every run's simulated statistics are digested.  When the run's input is
in the recorded table (``expected.json``, which covers every input the
default seed generates) the digest must match.  Every run, recorded or
not, must also satisfy the workload's invariants.  A run that fails
either check counts as failed; nothing is dropped.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Fault kinds that take the active controller out of the loop; a
# scenario that schedules one must fail over.
PRIMARY_FAULTS = ("NodeCrash", "BatteryDrain", "OutputWedge")


def digest(stats: dict[str, Any]) -> str:
    """Digest of simulated statistics (canonical JSON, exact floats)."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expects_failover(scenario: dict[str, Any]) -> bool:
    """A scenario whose schedule disables the active controller (or that
    is tagged as a failover scenario) must fail over at least once."""
    if "failover" in scenario.get("tags", ()):
        return True
    return any(item.get("kind") in PRIMARY_FAULTS
               for item in scenario.get("schedule", ()))


def timeline_problems(stats: dict[str, Any], controllers,
                      must_fail_over: bool) -> list[str]:
    """Invariants shared by HIL runs and wide-grid trials."""
    problems = []
    if must_fail_over and stats["failovers_executed"] < 1:
        problems.append("scheduled fault executed no failover")
    detected = stats["detection_time_sec"]
    failed_over = stats["failover_time_sec"]
    if failed_over is not None and (detected is None
                                    or detected > failed_over):
        problems.append(f"detection {detected} after failover {failed_over}")
    if stats["active_controller_final"] not in controllers:
        problems.append("final active controller "
                        f"{stats['active_controller_final']!r} is not one "
                        f"of {sorted(controllers)}")
    return problems


def delivery_problems(sent: int, delivered: int, listeners: int,
                      what: str) -> list[str]:
    """``delivered`` counts receptions, so one sent frame can be
    delivered to at most ``listeners`` nodes."""
    if delivered > sent * listeners:
        return [f"{what}: {delivered} delivered > {sent} sent "
                f"x {listeners} listeners"]
    return []


def hil_problems(scenario: dict[str, Any], stats: dict[str, Any],
                 must_fail_over: bool | None = None) -> list[str]:
    """Invariants of one HIL run (``RunMetrics.to_dict()``)."""
    from repro.experiments.hil import CTRL_A, CTRL_B, CTRL_C, NODE_IDS

    if must_fail_over is None:
        must_fail_over = expects_failover(scenario)
    return (timeline_problems(stats, {CTRL_A, CTRL_B, CTRL_C},
                              must_fail_over)
            + delivery_problems(stats["frames_sent"],
                                stats["frames_delivered"],
                                len(NODE_IDS) - 1, "frames"))


def widegrid_problems(result: dict[str, Any]) -> list[str]:
    """Invariants of one wide-grid failover trial with a primary crash."""
    roles = result["roles"]
    return (timeline_problems(result, {roles["ctrl_a"], roles["ctrl_b"]},
                              must_fail_over=True)
            + delivery_problems(result["frames_sent"],
                                result["frames_delivered"],
                                result["n_nodes"] - 1, "frames")
            + delivery_problems(result["reports_sent"],
                                result["reports_delivered"], 1, "reports"))


class OutputChecker:
    """Checks one workload's runs against the recorded table.

    ``check(key, stats, problems)`` returns the list of reasons the run
    is wrong (empty when it is right).  ``strict`` means every key must
    be in the table: true for the default seed, whose inputs the table
    was recorded from.
    """

    def __init__(self, table: dict[str, str], strict: bool) -> None:
        self.table = table
        self.strict = strict
        self.digest_checked = 0

    def check(self, key: str, stats: dict[str, Any],
              problems: list[str]) -> list[str]:
        problems = list(problems)
        want = self.table.get(key)
        if want is not None:
            self.digest_checked += 1
            got = digest(stats)
            if got != want:
                problems.append(f"digest {got} != recorded {want}")
        elif self.strict:
            problems.append("no recorded digest for a default-seed input")
        return problems
