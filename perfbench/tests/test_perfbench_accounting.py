"""failed_ratio accounting: a raising run, a run over its limit and a
digest mismatch each count as failed, and the loop carries on."""

import time

import pytest

from perfbench import run
from perfbench.check import OutputChecker, digest
from perfbench.workloads import Unit

GOOD = {"frames_sent": 3, "frames_delivered": 6, "collisions": 0}


class FakeWorkload:
    """Unit i behaves as ``plan[i % len(plan)]`` says."""

    name = "fake"
    round = 1

    def __init__(self, plan, in_process=True):
        self.plan = plan
        self.in_process = in_process
        self.recovered = 0

    def unit(self, index):
        return Unit(index, [f"k{index}"], [self.plan[index % len(self.plan)]],
                    [10.0])

    def execute(self, unit):
        action = unit.inputs[0]
        if action == "raise":
            raise ValueError("broken run")
        if action == "hang":
            time.sleep(5)
        if action == "wrong":
            return [dict(GOOD, frames_sent=4)]
        return [dict(GOOD)]

    def verify(self, unit, raw):
        return [(stats, []) for stats in raw]

    def recover(self):
        self.recovered += 1


@pytest.fixture
def fast_limits(monkeypatch):
    monkeypatch.setattr(run, "PROCESS_START", time.perf_counter())
    monkeypatch.setattr(run, "FIRST_LIMIT_S", 0.3)
    monkeypatch.setattr(run, "LIMIT_FLOOR_S", 0.3)


# Recorded digests for unit keys k0..k99 (every unit's correct output).
TABLE = {f"k{i}": digest(GOOD) for i in range(100)}


@pytest.mark.parametrize("in_process", [True, False])
def test_raise_timeout_and_mismatch_each_count_as_failed(fast_limits,
                                                         in_process):
    workload = FakeWorkload(["ok", "raise", "ok", "hang", "wrong", "ok"],
                            in_process)
    tally = run.measure(workload, OutputChecker(TABLE, strict=True),
                        seconds=1.0)
    assert tally.attempted >= 6
    plan_failures = {1, 3, 4}
    expected_failed = sum(1 for i in range(tally.attempted)
                          if i % 6 in plan_failures)
    assert tally.failed == expected_failed
    assert workload.recovered == sum(1 for i in range(tally.attempted)
                                     if i % 6 in (1, 3))
    assert any("raised" in p for p in tally.problems)
    assert any("limit" in p for p in tally.problems)
    assert any("digest" in p for p in tally.problems)
    # failed runs earn no simulated seconds; their host time still counts
    assert tally.sim_seconds == 10.0 * (tally.attempted - tally.failed)
    assert tally.busy_seconds >= 0.3


def test_unrecorded_input_fails_only_for_the_default_seed():
    stats = dict(GOOD)
    assert OutputChecker({}, strict=True).check("k", stats, [])
    assert not OutputChecker({}, strict=False).check("k", stats, [])
