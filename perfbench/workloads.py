"""The benchmark's workloads: inputs from a seed, one unit of work, checks.

A workload yields *units*, the closed-loop step ``run.py`` times and
limits (one unit in flight at a time).  A unit holds one or more runs;
each run has an input key (its identity in ``expected.json``), the
simulated seconds it covers, and after execution its simulated
statistics, which are digested and checked for invariants.

Nothing from ``repro`` is imported at module load, so the set-up probe
can time those imports from a fresh interpreter.
"""

from __future__ import annotations

import dataclasses
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench import check

# Inputs cycle through this many consecutive seeds (per workload), so a
# run never sees an input twice and the default seed's inputs are all
# in the recorded table.
CYCLE = {"hil_faults": 8, "widegrid_1000": 6, "campaign_dist": 16}

CAMPAIGN_BATCH = 24
CAMPAIGN_HORIZON_SEC = 5.0


@dataclass
class Unit:
    index: int
    keys: list[str]
    inputs: list[Any]
    sim_seconds: list[float]

    @property
    def runs(self) -> int:
        return len(self.keys)


class Workload:
    name = ""
    round = 1  # units per round of distinct inputs; loops end on a round
    in_process = True  # runs execute in this process (see UnitClock)

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    # Set-up probe, run in a fresh interpreter: the imports and lazy
    # first-use costs a user pays once.
    @staticmethod
    def probe() -> None:
        raise NotImplementedError

    def start(self) -> None:
        """In-process set-up (cluster, warehouse); timed as set-up."""

    def warm_up(self) -> None:
        """Fill this process's lazy caches before timing (untimed)."""

    def close(self) -> None:
        """Release what ``start`` acquired (idempotent)."""

    def recover(self) -> None:
        """Make the workload usable again after a unit was interrupted."""

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def execute(self, unit: Unit) -> Any:
        raise NotImplementedError

    def verify(self, unit: Unit, raw: Any) -> list[tuple[dict, list[str]]]:
        """``(digested statistics, invariant problems)`` per run."""
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer counts the workload reads outside the spans."""
        return {"dist.retries": 0}

    @staticmethod
    def n_workers() -> int:
        """Processes that execute runs concurrently."""
        return 1

    def cycle_seed(self, index: int) -> int:
        return self.seed + index % CYCLE[self.name]


# ----------------------------------------------------------------------
class HilFaults(Workload):
    name = "hil_faults"

    @staticmethod
    def probe() -> None:
        from repro.scenarios import Scenario, run_scenario
        from repro.scenarios.stock import fast_hil

        run_scenario(Scenario("warm-up", hil=fast_hil(settle_sec=50.0),
                              duration_sec=2.0))

    warm_up = probe

    round = 7  # one run of each stock scenario

    def unit(self, index: int) -> Unit:
        from repro.scenarios.stock import stock_names, stock_scenario

        names = stock_names()
        name = names[index % len(names)]
        seed = self.cycle_seed(index // len(names))
        scenario = stock_scenario(name, seed=seed)
        return Unit(index, [f"{name}@{seed}"], [scenario],
                    [scenario.duration_sec])

    def execute(self, unit: Unit) -> Any:
        # Looked up at call time so the traced run sees its wrapper.
        import repro.scenarios.runner as runner_mod

        return [runner_mod.run_scenario(s).to_dict() for s in unit.inputs]

    def verify(self, unit: Unit, raw: Any) -> list[tuple[dict, list[str]]]:
        return [(stats, check.hil_problems(scenario.to_dict(), stats))
                for scenario, stats in zip(unit.inputs, raw)]


# ----------------------------------------------------------------------
WIDEGRID_FIELDS = ("frames_sent", "frames_delivered", "collisions",
                   "reports_sent", "reports_delivered", "delivery_ratio",
                   "failovers_executed", "detection_time_sec",
                   "failover_time_sec", "active_controller_final")


def widegrid_config(seed: int):
    """The 1000-node failover trial: 300 m arena, 25 m radios, primary
    crash at 10 s, 45 simulated seconds, one-frame control period."""
    from repro.experiments.widegrid import WideGridConfig
    from repro.sim.clock import SEC

    return WideGridConfig(n_nodes=1000, area_m=300.0, radio_range_m=25.0,
                          seed=seed, duration_sec=45.0,
                          report_period_sec=15.0,
                          control_period_ticks=5 * SEC,
                          heartbeat_timeout_ticks=15 * SEC,
                          crash_primary_at_sec=10.0)


class WideGrid1000(Workload):
    name = "widegrid_1000"

    @staticmethod
    def probe() -> None:
        from repro.experiments.widegrid import (
            WideGridConfig,
            run_widegrid_trial,
        )

        run_widegrid_trial(WideGridConfig(n_nodes=12, area_m=40.0,
                                          duration_sec=2.0,
                                          crash_primary_at_sec=1.0))

    warm_up = probe

    def unit(self, index: int) -> Unit:
        seed = self.cycle_seed(index)
        config = widegrid_config(seed)
        return Unit(index, [f"widegrid_1000@{seed}"], [config],
                    [config.duration_sec])

    def execute(self, unit: Unit) -> Any:
        import repro.experiments.widegrid as widegrid

        return [dataclasses.asdict(widegrid.run_widegrid_trial(config))
                for config in unit.inputs]

    def verify(self, unit: Unit, raw: Any) -> list[tuple[dict, list[str]]]:
        return [({k: result[k] for k in WIDEGRID_FIELDS},
                 check.widegrid_problems(result)) for result in raw]


# ----------------------------------------------------------------------
class CampaignDist(Workload):
    name = "campaign_dist"
    in_process = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.cluster = None
        self.warehouse = None
        self._requeued = 0

    @staticmethod
    def probe() -> None:
        import repro.dist  # noqa: F401
        import repro.scenarios  # noqa: F401
        import repro.warehouse  # noqa: F401

    @staticmethod
    def n_workers() -> int:
        import os

        return min(2, len(os.sched_getaffinity(0)))

    def start(self) -> None:
        from repro.dist import LocalCluster
        from repro.warehouse import open_warehouse

        self.close()
        shutil.rmtree(self.work_dir / "warehouse", ignore_errors=True)
        self.warehouse = open_warehouse(self.work_dir / "warehouse")
        self.cluster = LocalCluster(n_workers=self.n_workers(),
                                    mode="subprocess", processes=1)
        self.cluster.wait_for_workers(timeout=60.0)
        self._warm_batch()

    def _warm_batch(self) -> None:
        """One small batch: forks each worker's pool child and imports
        the scenario stack there (part of set-up)."""
        from repro.scenarios import Scenario
        from repro.scenarios.stock import fast_hil

        grid = [Scenario("warm-up", hil=fast_hil(settle_sec=50.0),
                         seed=i, duration_sec=1.0)
                for i in range(2 * self.n_workers())]
        runner = self.cluster.runner()
        try:
            result = runner.run(grid)
        finally:
            runner.close()
        if result.failed or len(result.records) != len(grid):
            raise RuntimeError(f"warm-up batch lost runs: {result.failed}")

    def close(self) -> None:
        if self.cluster is not None:
            self._requeued += self._stats()["jobs_requeued"]
            cluster, self.cluster = self.cluster, None
            cluster.close()
        if self.warehouse is not None:
            warehouse, self.warehouse = self.warehouse, None
            warehouse.close()

    def recover(self) -> None:
        self.start()

    def _stats(self) -> dict[str, int]:
        return self.cluster.coordinator.status()["stats"]

    def unit(self, index: int) -> Unit:
        from repro.scenarios import Scenario
        from repro.scenarios.stock import fast_hil

        base = self.seed * 1000 + (index % CYCLE[self.name]) * CAMPAIGN_BATCH
        grid = [Scenario("fast_hil", hil=fast_hil(), seed=base + i,
                         duration_sec=CAMPAIGN_HORIZON_SEC)
                for i in range(CAMPAIGN_BATCH)]
        return Unit(index, [f"fast_hil@{s.seed}" for s in grid], grid,
                    [s.duration_sec for s in grid])

    def execute(self, unit: Unit) -> Any:
        store = self.work_dir / "campaigns" / f"batch-{unit.index:05d}"
        rows_before = self.warehouse.counts().get("runs", 0)
        runner = self.cluster.runner(results_dir=str(store),
                                     warehouse=self.warehouse,
                                     tenant="perfbench")
        try:
            result = runner.run(unit.inputs)
        finally:
            runner.close()
        return result, store, rows_before

    def verify(self, unit: Unit, raw: Any) -> list[tuple[dict, list[str]]]:
        from repro.scenarios import ResultsStore

        result, store, rows_before = raw
        batch_problems = []
        stored = ResultsStore(store).load_runs()
        if len(stored) != unit.runs:
            batch_problems.append(f"store holds {len(stored)} of "
                                  f"{unit.runs} runs")
        rows = self.warehouse.counts().get("runs", 0) - rows_before
        if rows != unit.runs:
            batch_problems.append(f"warehouse ingested {rows} of "
                                  f"{unit.runs} runs")
        by_seed = {r["scenario"]["seed"]: r["metrics"]
                   for r in result.records}
        out = []
        for scenario in unit.inputs:
            stats = by_seed.get(scenario.seed)
            if stats is None:
                out.append(({}, ["run failed in the cluster"]
                            + batch_problems))
                continue
            out.append((stats, check.hil_problems(
                scenario.to_dict(), stats, must_fail_over=False)
                + batch_problems))
        return out

    def layer_extras(self) -> dict[str, float]:
        requeued = self._requeued
        if self.cluster is not None:
            requeued += self._stats()["jobs_requeued"]
        return {"dist.retries": requeued}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (HilFaults, WideGrid1000, CampaignDist)}
