"""Record ``expected.json``: the digest of every run the default seed
generates, for every workload.

    python3 perfbench/record_expected.py

Re-record only in a change that means to alter simulated behaviour, and
say so in that change; a change that only makes the program faster must
leave every digest as it is.  Runs execute in-process (the campaign
workload's records are the same ``RunMetrics`` its cluster returns), and
a run that breaks an invariant is refused, not recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def record(name: str, seed: int) -> dict[str, str]:
    from perfbench import check
    from perfbench.workloads import CYCLE, WORKLOADS, CampaignDist

    with tempfile.TemporaryDirectory() as tmp:
        workload = WORKLOADS[name](seed, Path(tmp))
        per_cycle = CYCLE[name] * workload.round
        table: dict[str, str] = {}
        for index in range(per_cycle):
            unit = workload.unit(index)
            if name == CampaignDist.name:
                import repro.scenarios.runner as runner_mod

                checked = [(stats, check.hil_problems(
                    s.to_dict(), stats, must_fail_over=False))
                    for s in unit.inputs
                    for stats in [runner_mod.run_scenario(s).to_dict()]]
            else:
                checked = workload.verify(unit, workload.execute(unit))
            for key, (stats, problems) in zip(unit.keys, checked):
                if problems:
                    raise SystemExit(f"{key} breaks an invariant: {problems}")
                table[key] = check.digest(stats)
        return table


def main() -> None:
    from perfbench.check import EXPECTED_PATH
    from perfbench.run import DEFAULT_SEED
    from perfbench.workloads import WORKLOADS

    runs = {}
    for name in WORKLOADS:
        runs[name] = record(name, DEFAULT_SEED)
        print(f"{name}: {len(runs[name])} runs recorded", file=sys.stderr)
    EXPECTED_PATH.write_text(
        json.dumps({"seed": DEFAULT_SEED, "runs": runs}, indent=1,
                   sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
