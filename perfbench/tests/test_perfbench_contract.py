"""BENCHMARK.json, claims.json and the code agree."""

import json
from pathlib import Path

from perfbench import layers
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CLAIMS = json.loads((ROOT / "perfbench" / "claims.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(CLAIMS["workloads"]) == set(WORKLOADS)


def test_per_layer_metrics_match_the_traced_run():
    declared = [(m["name"], m["unit"], m["better"])
                for m in BENCHMARK["per_layer"]]
    assert declared == list(layers.PER_LAYER)


def test_end_to_end_metrics_are_bounded_and_setup_is_named():
    names = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert set(names) == {"sim_s_per_s", "run_s_p50", "setup_s",
                          "peak_rss_mb", "ok_ratio"}
    assert names["setup_s"]["unit"] == "s"
    assert names["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in names.values())
    assert names["setup_s"]["bound"] == max(m["bound"]
                                            for m in names.values())


def test_every_layer_metric_has_a_claim():
    claimed = {name for layer in CLAIMS["layers"]
               for name in layer["metrics"]}
    reported = {name for name, _u, _b in layers.PER_LAYER
                if not name.startswith(("share.", "trace."))}
    assert claimed == reported


def test_coverage_workload_is_the_claimed_one():
    moves = {}
    for layer in CLAIMS["layers"]:
        for name in layer["metrics"]:
            moves[name] = {workload for _metric, workload in layer["moves"]}
    span_metric = {"sim.run_until": "sim.run_until_s",
                   "experiments.build": "experiments.build_s",
                   "experiments.collect": "experiments.collect_s",
                   "plant.settle": "plant.settle_s",
                   "plant.step": "plant.step_s",
                   "evm.execute": "evm.execute_s",
                   "evm.decode": "evm.decode_s",
                   "evm.install": "evm.install_s",
                   "rtos.release": "rtos.spawn_s",
                   "hardware.battery_draw": "hardware.battery_draw_s",
                   "hardware.set_state": "hardware.set_state_s",
                   "net.medium.transmit": "net.medium.transmit_s",
                   "net.mac.send": "net.mac.send_s",
                   "net.topology": "net.topology_s",
                   "scenarios.run": "scenarios.run_s",
                   "scenarios.commit": "scenarios.commit_s",
                   "dist.campaign": "dist.campaign_s",
                   "warehouse.ingest": "warehouse.ingest_s"}
    assert set(span_metric) == set(layers.BOUNDARIES)
    for span, (_targets, workload) in layers.BOUNDARIES.items():
        assert workload in moves[span_metric[span]], span
