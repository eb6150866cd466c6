"""The repository benchmark: command-line entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop (one unit in flight) for ``S``
seconds of host time, checks every run's simulated statistics, and
prints a table followed, as the last line of standard output, by one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the same loop untraced, then installs the layer wrappers and runs it
again, and reports the per-layer metrics of the traced loop plus the
tracing overhead.  See ``perfbench/README.md`` for what each metric
means and which layer should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":  # run as a script: import from the checkout
    sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench.hostclock import RunTimeout, UnitClock, scaled_setup  # noqa: E402
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 1
SETUP_PROBES = 5        # fresh interpreters timed per run (median kept)
SETUP_STARTS = 3        # in-process set-ups timed per run (median kept)
DEADLINE_S = 150.0      # no unit runs past this point of the process
LIMIT_FACTOR = 8.0      # a unit may take this many times the median
LIMIT_FLOOR_S = 5.0
FIRST_LIMIT_S = 60.0    # before any median exists

PROCESS_START = time.perf_counter()


@dataclass
class Tally:
    """What one measured loop did."""

    attempted: int = 0
    failed: int = 0
    sim_seconds: float = 0.0      # simulated horizon of runs that passed
    busy_seconds: float = 0.0     # wall time inside units, failures too
    scaled_seconds: float = 0.0   # the same, scaled to the nominal host
    run_seconds: list[float] = field(default_factory=list)  # scaled
    frames: dict[str, int] = field(default_factory=lambda: {
        "frames_sent": 0, "frames_delivered": 0, "collisions": 0})
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str, runs: int) -> None:
        self.attempted += runs
        self.failed += runs
        self.problems.append(what)

    @property
    def rate(self) -> float:
        """Simulated seconds per scaled host second."""
        return (self.sim_seconds / self.scaled_seconds
                if self.scaled_seconds else 0.0)

    @property
    def wall_rate(self) -> float:
        """Simulated seconds per raw wall second."""
        return (self.sim_seconds / self.busy_seconds
                if self.busy_seconds else 0.0)


def unit_limit(tally: Tally, unit_runs: int) -> float:
    """Wall-time limit of the next unit: a multiple of this loop's own
    median, never past the process deadline."""
    if tally.run_seconds:
        limit = max(LIMIT_FLOOR_S, LIMIT_FACTOR * unit_runs
                    * statistics.median(tally.run_seconds))
    else:
        limit = FIRST_LIMIT_S
    remaining = PROCESS_START + DEADLINE_S - time.perf_counter()
    return max(0.5, min(limit, remaining))


def measure(workload, checker, seconds: float, after_unit=None) -> Tally:
    """Closed loop: start units one at a time until ``seconds`` pass and
    the last round of inputs is complete (the mix stays fixed)."""
    tally = Tally()
    end = time.perf_counter() + seconds
    deadline = PROCESS_START + DEADLINE_S
    index = 0
    while time.perf_counter() < deadline and (
            time.perf_counter() < end or index % workload.round):
        unit = workload.unit(index)
        index += 1
        clock = UnitClock(unit_limit(tally, unit.runs),
                          sample=workload.in_process)
        raw, failure = None, ""
        try:
            with clock:
                raw = workload.execute(unit)
        except RunTimeout as exc:
            failure = str(exc)
        except Exception:  # a raising run is a failed run, not an abort
            failure = "raised:\n" + traceback.format_exc()
        tally.busy_seconds += clock.wall
        tally.scaled_seconds += clock.scaled
        if after_unit is not None:
            after_unit(index - 1)
        if failure:
            tally.fail(f"unit {index - 1} {unit.keys[0]}: {failure}",
                       unit.runs)
            workload.recover()
            continue
        tally.run_seconds.append(clock.scaled / unit.runs)
        for key, sim, (stats, problems) in zip(
                unit.keys, unit.sim_seconds, workload.verify(unit, raw)):
            problems = checker.check(key, stats, problems) if stats \
                else problems
            tally.attempted += 1
            if problems:
                tally.failed += 1
                tally.problems.append(f"{key}: {'; '.join(problems)}")
                continue
            tally.sim_seconds += sim
            for name in tally.frames:
                tally.frames[name] += stats[name]
    return tally


def probe_setup(workload_name: str) -> None:
    """A fresh interpreter imports the workload's modules and makes its
    first small run."""
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py"),
                    workload_name], check=True, timeout=60)


def setup(workload, timed: bool) -> tuple[float, int]:
    """Set the workload up; with ``timed``, repeat each set-up step and
    return the summed medians of their scaled costs and the number of
    fresh-interpreter samples."""
    if not timed:
        workload.start()
        workload.warm_up()
        return 0.0, 0
    probes = [scaled_setup(lambda: probe_setup(workload.name))
              for _ in range(SETUP_PROBES)]
    starts = [scaled_setup(workload.start) for _ in range(SETUP_STARTS)]
    workload.warm_up()
    return (statistics.median(probes) + statistics.median(starts),
            SETUP_PROBES)


def live_descendants_peak_kb() -> int:
    """Largest peak RSS (``VmHWM``) among this process's live
    descendants.  A dist worker's pool children die with their worker
    and are never reaped here, so ``getrusage`` alone would miss them."""
    children: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        children.setdefault(ppid, []).append(int(stat.parent.name))
    peak, stack = 0, list(children.get(os.getpid(), ()))
    while stack:
        pid = stack.pop()
        stack.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak


def peak_rss_mb(live_descendants_kb: int) -> float:
    """Max RSS of this process, of every reaped child and of the live
    descendants measured before the workload closed (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children, live_descendants_kb) / 1024.0


def traced_loop(workload, checker, seconds: float, trace_dir: Path):
    """Install the wrappers and run the loop again, writing each unit's
    spans out as it ends; returns the tally, the workload's own layer
    counts and the chunk files."""
    from perfbench import layers
    from perfbench.trace import Tracer, chunk_path
    from perfbench.traced_worker import TRACE_DIR_ENV

    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    tracer = Tracer()
    layers.install(tracer)
    if workload.name == "campaign_dist":
        os.environ[TRACE_DIR_ENV] = str(trace_dir)
        _spawn_traced_workers()
        workload.start()  # a fresh cluster whose workers are traced
    setup_files = set(trace_dir.glob("*.spans"))  # warm-up jobs
    tracer.take()  # drop spans recorded while setting up

    def after_unit(index: int) -> None:
        tracer.take().dump(chunk_path(trace_dir, index))
        tracer.run = index + 1

    try:
        tally = measure(workload, checker, seconds, after_unit)
        extras = workload.layer_extras()
        workload.close()
    finally:
        tracer.unpatch()
    return tally, extras, sorted(set(trace_dir.glob("*.spans")) - setup_files)


def _spawn_traced_workers() -> None:
    """Make ``LocalCluster`` start ``perfbench.traced_worker`` agents
    (same arguments as ``python -m repro.dist``)."""
    import repro.dist.cluster as cluster_mod

    def spawn(address, processes=1, slots=None, heartbeat_period=2.0,
              name="", compress=True):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        argv = [sys.executable, "-m", "perfbench.traced_worker", "worker",
                "--connect", address, "--processes", str(processes),
                "--slots", str(slots or 0),
                "--heartbeat", str(heartbeat_period)]
        if name:
            argv += ["--name", name]
        if not compress:
            argv.append("--no-compress")
        return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)

    cluster_mod.spawn_worker_process = spawn


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_table(rows: list[tuple[str, float, str, str]]) -> None:
    width = max(len(name) for name, *_ in rows)
    for name, value, unit, samples in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<12} {samples}")


def traced_metrics(workload, untraced: Tally, traced: Tally,
                   extras: dict, chunk_files: list[Path]) -> dict:
    from perfbench import layers
    from perfbench.trace import load_chunk

    name = workload.name
    values, defects = layers.layer_metrics(
        (load_chunk(p) for p in chunk_files), name, workload.n_workers())
    values.update(extras)
    for frames, count in traced.frames.items():
        values[f"net.medium.{frames}"] = count
    values["trace.untraced_sim_s_per_s"] = untraced.rate
    values["trace.sim_s_per_s"] = traced.rate
    values["trace.overhead_pct"] = (
        (untraced.rate / traced.rate - 1.0) * 100.0 if traced.rate else 0.0)
    values["trace.coverage_defects"] = len(defects)
    for span in defects:
        print(f"TRACING DEFECT: {span} saw no calls on {name}; its call "
              f"site bypasses the wrapper", file=sys.stderr)
    metrics = {metric_name: metric(values[metric_name], unit)
               for metric_name, unit, _better in layers.PER_LAYER}
    print(f"{name} traced: {traced.attempted} runs, "
          f"{len(defects)} coverage defect(s)")
    report_table([(n, m["value"], m["unit"], "") for n, m in metrics.items()])
    return metrics


def end_to_end_metrics(workload, tally: Tally, setup_s: float,
                       setup_samples: int, rss_mb: float) -> dict:
    samples = len(tally.run_seconds)
    failed_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    metrics = {
        "sim_s_per_s": metric(tally.rate, "sim_s/s"),
        "run_s_p50": metric(statistics.median(tally.run_seconds)
                            if samples else 0.0, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "ok_ratio": metric(1.0 - failed_ratio, "fraction"),
    }
    print(f"{workload.name} seed={workload.seed}")
    report_table([
        ("sim_s_per_s", tally.rate, "sim_s/s", f"{tally.attempted} runs"),
        ("  unscaled (wall)", tally.wall_rate, "sim_s/s", ""),
        ("run_s_p50", metrics["run_s_p50"]["value"], "s",
         f"n={samples} units"),
        ("setup_s", setup_s, "s", f"n={setup_samples} probes"),
        ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", ""),
        ("failed_ratio", failed_ratio, "fraction",
         f"{tally.failed}/{tally.attempted} runs"),
    ])
    return metrics


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from perfbench import check

    expected = check.load_expected()
    checker = check.OutputChecker(expected["runs"].get(args.workload, {}),
                                  strict=args.seed == expected["seed"])
    work_dir = WORK / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        setup_s, setup_samples = setup(workload, timed=not args.trace)
        tally = measure(workload, checker, args.seconds)
        descendants_kb = live_descendants_peak_kb()
        if args.trace:
            traced, extras, chunk_files = traced_loop(
                workload, checker, args.seconds, work_dir / "trace")
    finally:
        workload.close()

    if args.trace:
        tallies = (tally, traced)
        metrics = traced_metrics(workload, tally, traced, extras,
                                 chunk_files)
    else:
        tallies = (tally,)
        metrics = end_to_end_metrics(workload, tally, setup_s, setup_samples,
                                     peak_rss_mb(descendants_kb))
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    for problem in problems:
        print(f"FAILED RUN: {problem}", file=sys.stderr)
    print(f"digests checked: {checker.digest_checked}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure at {SRC / 'repro'}")
    sys.exit(main())
