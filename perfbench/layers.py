"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each boundary is a public entry point of one layer of ``src/repro``
(one private one, ``Scheduler._release``, where the layer has no public
call that the stack reaches; see ``README.md``).  ``BOUNDARIES`` names
the span each records and the workload whose end-to-end metric that
layer should move: the coverage check requires a nonzero call count
there, because a zero means a call site bypasses the wrapper, not that
the layer is free.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from perfbench.trace import Chunk, Tracer, aggregate, capsule_digest

# span name -> (owner, attribute) pairs wrapped for it, and the workload
# on which the layer's "moves" prediction requires calls.
BOUNDARIES: dict[str, tuple[tuple[tuple[str, str], ...], str]] = {
    "sim.run_until": ((("repro.sim.engine:Engine", "run_until"),),
                      "widegrid_1000"),
    "experiments.build": ((("repro.experiments.hil:HilRig", "__init__"),
                           ("repro.experiments.widegrid:WideGridRig",
                            "__init__")), "widegrid_1000"),
    "experiments.collect": ((("repro.scenarios.runner", "collect"),
                             ("repro.experiments.widegrid:WideGridRig",
                              "collect")), "widegrid_1000"),
    "plant.settle": ((("repro.plant.gas_plant:NaturalGasPlant", "settle"),),
                     "campaign_dist"),
    "plant.step": ((("repro.plant.gas_plant:NaturalGasPlant", "step"),),
                   "campaign_dist"),
    "evm.execute": ((("repro.evm.interpreter:Interpreter", "execute"),),
                    "hil_faults"),
    "evm.decode": ((("repro.evm.bytecode:Program", "decode"),),
                   "hil_faults"),
    "evm.install": ((("repro.evm.capsule:CapsuleStore", "install"),),
                    "hil_faults"),
    "rtos.release": ((("repro.rtos.scheduler:Scheduler", "spawn_job"),
                      ("repro.rtos.scheduler:Scheduler", "_release")),
                     "hil_faults"),
    "hardware.battery_draw": ((("repro.hardware.battery:Battery", "draw"),),
                              "widegrid_1000"),
    "hardware.set_state": ((("repro.hardware.radio:Radio", "set_state"),),
                           "widegrid_1000"),
    "net.medium.transmit": ((("repro.net.medium:MediumPort", "transmit"),),
                            "widegrid_1000"),
    "net.mac.send": ((("repro.net.mac.rtlink:RtLinkMac", "send"),),
                     "widegrid_1000"),
    "net.topology": ((("repro.net.topology", "random_geometric_connected"),
                      ("repro.experiments.widegrid",
                       "random_geometric_connected")), "widegrid_1000"),
    "scenarios.run": ((("repro.scenarios.runner", "run_scenario"),),
                      "campaign_dist"),
    "scenarios.commit": ((("repro.scenarios.store:ResultsStore",
                           "commit_staged"),), "campaign_dist"),
    "dist.campaign": ((("repro.dist.runner:DistributedCampaignRunner",
                        "run"),), "campaign_dist"),
    "warehouse.ingest": ((("repro.warehouse", "ingest_store"),),
                         "campaign_dist"),
}

# Span recorded around each job in a traced dist worker.
JOB_SPAN = "dist.job"

# Layer -> spans whose self time is that layer's host time.
LAYER_SPANS = {
    "sim": ("sim.run_until",),
    "experiments": ("experiments.build", "experiments.collect"),
    "plant": ("plant.settle", "plant.step"),
    "evm": ("evm.execute", "evm.decode", "evm.install"),
    "rtos": ("rtos.release",),
    "hardware": ("hardware.battery_draw", "hardware.set_state"),
    "net.medium": ("net.medium.transmit",),
    "net.mac": ("net.mac.send",),
    "net.topology": ("net.topology",),
    "scenarios": ("scenarios.run", "scenarios.commit"),
    # Worker-side job handling; the client's ``dist.campaign`` span is
    # mostly waiting on workers, so it is reported as wall time only.
    "dist": (JOB_SPAN,),
    "warehouse": ("warehouse.ingest",),
}


def _resolve(ref: str):
    import importlib

    module_name, _, qualname = ref.partition(":")
    owner = importlib.import_module(module_name)
    for part in filter(None, qualname.split(".")):
        owner = getattr(owner, part)
    return owner


def _hooks(name: str, tracer: Tracer, attr: str) -> dict[str, Any]:
    """Exact counts read at a boundary, by span name."""
    if name == "sim.run_until":
        return {"after": lambda events, *a, **k: events,
                "counter": "sim.events"}
    if name == "evm.execute":
        return {"after": lambda state, *a, **k: state.steps,
                "counter": "evm.instructions"}
    if name == "evm.decode":
        def note(cls, blob, *a, **k):
            tracer.capsules.add(capsule_digest(bytes(blob)))
        return {"before": note}
    if name == "rtos.release" and attr == "_release":
        # jobs_released moves only when the release really starts a job
        # (a stale chain or a suspended task releases nothing).
        return {"before": lambda sched, tcb, *a, **k: -tcb.jobs_released,
                "after": lambda r, sched, tcb, *a, **k: tcb.jobs_released,
                "counter": "rtos.jobs_spawned"}
    if name == "rtos.release":
        return {"after": lambda job, *a, **k: 1,
                "counter": "rtos.jobs_spawned"}
    if name == "hardware.set_state":
        return {"before": lambda radio, new, *a, **k: new is not radio.state,
                "counter": "hardware.radio_transitions"}
    if name == "net.topology":
        return {"after": lambda res, *a, **k: res[0].graph.number_of_edges(),
                "counter": "net.links"}
    if name == "warehouse.ingest":
        return {"after": lambda report, *a, **k: report.inserted,
                "counter": "warehouse.rows"}
    return {}


def install(tracer: Tracer) -> None:
    """Wrap every boundary in ``BOUNDARIES`` (call before building rigs)."""
    for name, (targets, _workload) in BOUNDARIES.items():
        for ref, attr in targets:
            tracer.patch(_resolve(ref), attr, name,
                         **_hooks(name, tracer, attr))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(chunks: Iterable[Chunk], workload: str,
                  n_workers: int = 1) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from traced chunks (read once, one at a time),
    plus the list of coverage defects: boundaries with zero calls on the
    workload whose end-to-end metric they should move."""
    table = aggregate(())
    counters: dict[str, float] = defaultdict(float)
    capsules: set[str] = set()
    for chunk in chunks:
        aggregate((chunk,), table)
        for key, value in chunk.counters.items():
            counters[key] += value
        capsules |= chunk.capsules

    def calls(name: str) -> int:
        return int(table[name]["calls"]) if name in table else 0

    def wall(name: str) -> float:
        return table[name]["wall"] if name in table else 0.0

    def self_s(name: str) -> float:
        return table[name]["self"] if name in table else 0.0

    plant_step_in_settle = "plant.step<plant.settle"
    step_calls = calls("plant.step") - calls(plant_step_in_settle)
    step_self = self_s("plant.step") - self_s(plant_step_in_settle)
    events = counters.get("sim.events", 0.0)
    decodes = calls("evm.decode")
    busy = wall(JOB_SPAN)
    campaign = wall("dist.campaign")
    m: dict[str, float] = {
        "sim.events": events,
        "sim.run_until_s": wall("sim.run_until"),
        "sim.host_us_per_event": (wall("sim.run_until") / events * 1e6
                                  if events else 0.0),
        "sim.unattributed_s": self_s("sim.run_until"),
        "experiments.build_s": self_s("experiments.build"),
        "experiments.collect_s": self_s("experiments.collect"),
        "plant.settle_calls": calls("plant.settle"),
        "plant.settle_s": wall("plant.settle"),
        "plant.step_calls": step_calls,
        "plant.step_s": step_self,
        "evm.execute_calls": calls("evm.execute"),
        "evm.execute_s": self_s("evm.execute"),
        "evm.instructions": counters.get("evm.instructions", 0.0),
        "evm.decode_calls": decodes,
        "evm.decode_s": self_s("evm.decode"),
        "evm.decodes_per_capsule": (decodes / len(capsules)
                                    if capsules else 0.0),
        "evm.install_calls": calls("evm.install"),
        "evm.install_s": self_s("evm.install"),
        "rtos.jobs_spawned": counters.get("rtos.jobs_spawned", 0.0),
        "rtos.spawn_s": self_s("rtos.release"),
        "hardware.battery_draw_calls": calls("hardware.battery_draw"),
        "hardware.battery_draw_s": self_s("hardware.battery_draw"),
        "hardware.radio_transitions":
            counters.get("hardware.radio_transitions", 0.0),
        "hardware.set_state_s": self_s("hardware.set_state"),
        "net.medium.transmit_calls": calls("net.medium.transmit"),
        "net.medium.transmit_s": self_s("net.medium.transmit"),
        "net.mac.send_calls": calls("net.mac.send"),
        "net.mac.send_s": self_s("net.mac.send"),
        "net.topology_s": self_s("net.topology"),
        "net.links": counters.get("net.links", 0.0),
        "scenarios.runs": calls("scenarios.run"),
        "scenarios.run_s": wall("scenarios.run"),
        "scenarios.commit_s": self_s("scenarios.commit"),
        "dist.jobs": calls(JOB_SPAN),
        "dist.campaign_s": campaign,
        "dist.worker_busy_s": busy,
        "dist.worker_util": (busy / (n_workers * campaign)
                             if campaign else 0.0),
        "dist.overhead_s": (campaign - busy / n_workers
                            if campaign else 0.0),
        "warehouse.rows": counters.get("warehouse.rows", 0.0),
        "warehouse.ingest_s": self_s("warehouse.ingest"),
    }
    # Layer shares of all traced self time (the ranking the cProfile
    # shares are compared with).
    selfs = {layer: sum(self_s(n) for n in names)
             for layer, names in LAYER_SPANS.items()}
    total = sum(selfs.values())
    for layer, value in selfs.items():
        m[f"share.{layer}"] = value / total if total else 0.0
    defects = [name for name, (_targets, workload_) in BOUNDARIES.items()
               if workload_ == workload and calls(name) == 0]
    if workload == "campaign_dist" and calls(JOB_SPAN) == 0:
        defects.append(JOB_SPAN)
    return m, defects


# Every metric a traced run reports: (name, unit, better).  The layer
# metrics above, the exact medium counts and dist retries the workload
# reads from its outputs, and the tracing overhead.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.run_until_s", "s", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("sim.unattributed_s", "s", "lower"),
    ("experiments.build_s", "s", "lower"),
    ("experiments.collect_s", "s", "lower"),
    ("plant.settle_calls", "count", "lower"),
    ("plant.settle_s", "s", "lower"),
    ("plant.step_calls", "count", "lower"),
    ("plant.step_s", "s", "lower"),
    ("evm.execute_calls", "count", "lower"),
    ("evm.execute_s", "s", "lower"),
    ("evm.instructions", "count", "lower"),
    ("evm.decode_calls", "count", "lower"),
    ("evm.decode_s", "s", "lower"),
    ("evm.decodes_per_capsule", "ratio", "lower"),
    ("evm.install_calls", "count", "lower"),
    ("evm.install_s", "s", "lower"),
    ("rtos.jobs_spawned", "count", "lower"),
    ("rtos.spawn_s", "s", "lower"),
    ("hardware.battery_draw_calls", "count", "lower"),
    ("hardware.battery_draw_s", "s", "lower"),
    ("hardware.radio_transitions", "count", "lower"),
    ("hardware.set_state_s", "s", "lower"),
    ("net.medium.transmit_calls", "count", "lower"),
    ("net.medium.transmit_s", "s", "lower"),
    ("net.medium.frames_sent", "count", "lower"),
    ("net.medium.frames_delivered", "count", "higher"),
    ("net.medium.collisions", "count", "lower"),
    ("net.mac.send_calls", "count", "lower"),
    ("net.mac.send_s", "s", "lower"),
    ("net.topology_s", "s", "lower"),
    ("net.links", "count", "higher"),
    ("scenarios.runs", "count", "higher"),
    ("scenarios.run_s", "s", "lower"),
    ("scenarios.commit_s", "s", "lower"),
    ("dist.jobs", "count", "higher"),
    ("dist.retries", "count", "lower"),
    ("dist.campaign_s", "s", "lower"),
    ("dist.worker_busy_s", "s", "lower"),
    ("dist.worker_util", "fraction", "higher"),
    ("dist.overhead_s", "s", "lower"),
    ("warehouse.rows", "count", "higher"),
    ("warehouse.ingest_s", "s", "lower"),
    *((f"share.{layer}", "fraction", "lower") for layer in LAYER_SPANS),
    ("trace.untraced_sim_s_per_s", "sim_s/s", "higher"),
    ("trace.sim_s_per_s", "sim_s/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_defects", "count", "lower"),
)
