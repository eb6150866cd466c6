"""The output checker: recorded digests and invariants."""

import copy

import pytest

from perfbench import check
from perfbench.workloads import HilFaults, WideGrid1000


@pytest.fixture(scope="module")
def primary_crash_run(tmp_path_factory):
    """The default seed's first primary-crash run, executed for real."""
    workload = HilFaults(check.load_expected()["seed"],
                         tmp_path_factory.mktemp("work"))
    index = next(i for i in range(7)
                 if workload.unit(i).keys[0].startswith("primary-crash@"))
    unit = workload.unit(index)
    [(stats, problems)] = workload.verify(unit, workload.execute(unit))
    return unit, stats, problems


def checker():
    expected = check.load_expected()
    return check.OutputChecker(expected["runs"]["hil_faults"], strict=True)


def test_recorded_run_passes(primary_crash_run):
    unit, stats, problems = primary_crash_run
    assert problems == []
    assert checker().check(unit.keys[0], stats, problems) == []


@pytest.mark.parametrize("field,value", [
    ("frames_sent", 1), ("control_cost", 1e-12), ("final_level_pct", -1.0)])
def test_perturbed_record_is_rejected(primary_crash_run, field, value):
    unit, stats, _ = primary_crash_run
    perturbed = copy.deepcopy(stats)
    perturbed[field] += value
    problems = checker().check(unit.keys[0], perturbed, [])
    assert problems and "digest" in problems[0]


def test_hil_invariants(primary_crash_run):
    unit, stats, _ = primary_crash_run
    scenario = unit.inputs[0].to_dict()
    assert check.expects_failover(scenario)
    assert check.hil_problems(scenario, dict(stats, failovers_executed=0))
    late = dict(stats, detection_time_sec=stats["failover_time_sec"] + 1)
    assert check.hil_problems(scenario, late)
    assert check.hil_problems(scenario, dict(stats, active_controller_final=""))
    assert check.hil_problems(
        scenario, dict(stats, frames_delivered=5 * stats["frames_sent"] + 1))
    # a fault-free run owes no failover
    assert not check.hil_problems({"tags": [], "schedule": []},
                                  dict(stats, failovers_executed=0))


def test_widegrid_invariants():
    good = {"roles": {"ctrl_a": "n1", "ctrl_b": "n2"}, "n_nodes": 10,
            "failovers_executed": 1, "detection_time_sec": 20.0,
            "failover_time_sec": 21.0, "active_controller_final": "n2",
            "frames_sent": 10, "frames_delivered": 90,
            "reports_sent": 5, "reports_delivered": 5}
    assert check.widegrid_problems(good) == []
    for change in ({"failovers_executed": 0},
                   {"detection_time_sec": None},
                   {"active_controller_final": "n3"},
                   {"frames_delivered": 91},
                   {"reports_delivered": 6}):
        assert check.widegrid_problems(dict(good, **change)), change


def test_default_seed_inputs_are_all_recorded(tmp_path):
    expected = check.load_expected()
    seed = expected["seed"]
    hil = HilFaults(seed, tmp_path)
    wide = WideGrid1000(seed, tmp_path)
    for index in range(40):
        assert hil.unit(index).keys[0] in expected["runs"]["hil_faults"]
    for index in range(12):
        assert wide.unit(index).keys[0] in expected["runs"]["widegrid_1000"]
