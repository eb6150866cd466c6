"""Host time scaled to a nominal host speed, and the per-unit time limit.

On a shared host the same simulation can take 2.5 times longer from one
half minute to the next, because neighbours load the machine.  Raw wall
time then spreads too widely between runs to show a 10% change.  So
while a unit runs, a fixed pure-Python calibration loop is timed every
``PERIOD_S``; each slice of wall time between samples is multiplied by
``NOMINAL_S / calibration time`` of the sample that ends it.  The sum is
the time the unit would have taken on a host that runs the calibration
loop in ``NOMINAL_S``.  Calibration time itself is excluded.

The calibration loop runs no repository code, so anything a change does
to the program's own work moves the scaled time exactly as it moves wall
time; only the host's speed is divided out.  Set-up steps (process
start, imports) are scaled the same way by a reference interpreter that
imports only the standard library.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

CALIBRATION_ITERATIONS = 20_000
NOMINAL_S = 0.003   # the calibration loop on a quiet 2.0 GHz Xeon vCPU
PERIOD_S = 0.25

REFERENCE_IMPORTS = ("import json, decimal, email.parser, http.client, "
                     "argparse, asyncio, sqlite3, statistics, "
                     "xml.dom.minidom, logging.handlers, unittest")
NOMINAL_STARTUP_S = 0.2  # that reference interpreter on the same vCPU


class RunTimeout(BaseException):
    """A unit overran its host-time limit.  A BaseException so that
    fault-containment ``except Exception`` blocks in the stack cannot
    swallow it."""


def calibrate() -> float:
    """Seconds this host takes for a fixed loop of bytecode dispatch,
    integer arithmetic and dict stores."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x = (x * 31 + i) % 1000003
        table[i & 1023] = x
    return time.perf_counter() - start


def calibrate_cpus() -> float:
    """Mean calibration over every CPU this process may run on: work
    spread over processes runs on all of them, and neighbours load each
    differently."""
    cpus = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            samples.append(calibrate())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(samples) / len(samples)


def scaled_setup(fn) -> float:
    """Scaled wall seconds of one set-up step ``fn()``.

    Set-up is process start and imports, which host load slows
    differently from bytecode: it is scaled by a reference interpreter
    (start plus standard-library imports, no repository code) timed just
    before it, against ``NOMINAL_STARTUP_S``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True,
                   timeout=60)
    reference = time.perf_counter() - start
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * NOMINAL_STARTUP_S / reference


class UnitClock:
    """Times one unit and enforces its limit (a context manager).

    With ``sample`` the calibration runs every ``PERIOD_S`` inside the
    unit, for work done in this process.  Without it (work done in
    other processes, which a sample here would compete with) the unit is
    scaled by the mean of samples taken on every CPU just before and
    just after it.
    After exit, ``wall`` and ``scaled`` hold the unit's seconds.
    """

    def __init__(self, limit_s: float, sample: bool = True) -> None:
        self.limit_s = limit_s
        self.sample = sample
        self.wall = 0.0
        self.scaled = 0.0

    def _tick(self, _signum, _frame) -> None:
        now = time.perf_counter()
        if now - self._started - self._calibrating > self.limit_s:
            raise RunTimeout(f"over its {self.limit_s:.1f} s limit")
        if self.sample:
            self.scaled += (now - self._mark) * NOMINAL_S / calibrate()
            self._mark = time.perf_counter()
            self._calibrating += self._mark - now

    def __enter__(self) -> "UnitClock":
        self._before = 0.0 if self.sample else calibrate_cpus()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._calibrating = 0.0
        self._started = self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        now = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = now - self._started - self._calibrating
        if self.sample:
            self.scaled += (now - self._mark) * NOMINAL_S / calibrate()
        else:
            after = calibrate_cpus()
            self.scaled = self.wall * NOMINAL_S / ((self._before + after) / 2)
