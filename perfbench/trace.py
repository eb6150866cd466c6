"""Span tracing at layer boundaries, installed from outside the program.

A :class:`Tracer` replaces a layer's public entry point (a class or
module attribute) with a wrapper that records one span per call: the
span's name, start, end, the span open when it was called (its parent)
and the id of the benchmark run it belongs to.  Spans live in parallel
arrays in memory; when a run ends they are taken as a :class:`Chunk`,
written out, and aggregated.  Nothing under ``src/`` changes.

Self time -- a span's duration minus the part of it that its child
spans cover -- is computed by :func:`self_times`, which counts
overlapping children once.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

COLUMNS = (("name_id", "i"), ("parent", "i"), ("run_id", "i"),
           ("start", "d"), ("end", "d"))


@dataclass
class Chunk:
    """The spans and counts of one run in one process.  ``parent``
    indexes this chunk's own columns (-1 for a root span)."""

    names: list[str]
    columns: dict[str, array]
    counters: dict[str, float] = field(default_factory=dict)
    capsules: set[str] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.columns["start"])

    def dump(self, path: Path) -> None:
        """Write ``path`` (the span columns) and ``path.json`` (names,
        counts and column lengths)."""
        with open(path, "wb") as fh:
            for column, _code in COLUMNS:
                self.columns[column].tofile(fh)
        header = {"names": self.names, "spans": len(self),
                  "counters": self.counters,
                  "capsules": sorted(self.capsules)}
        Path(f"{path}.json").write_text(json.dumps(header), encoding="utf-8")


def load_chunk(path: Path) -> Chunk:
    header = json.loads(Path(f"{path}.json").read_text(encoding="utf-8"))
    columns = {}
    with open(path, "rb") as fh:
        for column, code in COLUMNS:
            values = array(code)
            values.fromfile(fh, header["spans"])
            columns[column] = values
    return Chunk(header["names"], columns, header["counters"],
                 set(header["capsules"]))


class Tracer:
    """In-memory span recorder for one thread of one process.

    ``run`` is stamped on every span recorded from now on; ``run.py``
    sets it before each benchmark run.  ``counters`` holds exact counts
    read at the same boundaries (instructions executed, links built,
    rows ingested, ...).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.columns = {column: array(code) for column, code in COLUMNS}
        self._stack = [-1]
        self.run = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.capsules: set[str] = set()
        self._restore: list[tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.columns["start"])

    def _name_index(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, fn: Callable, name: str,
             before: Callable[..., float] | None = None,
             after: Callable[..., float] | None = None,
             counter: str = "") -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``before(*args, **kwargs)`` and ``after(result, *args,
        **kwargs)`` run around each call; with a ``counter`` name, what
        they return is added to ``counters[counter]`` (e.g. the steps a
        VM run returned)."""
        nid = self._name_index(name)
        stack = self._stack
        columns = self.columns
        names, parents = columns["name_id"], columns["parent"]
        runs, starts, ends = columns["run_id"], columns["start"], columns["end"]
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                counted = before(*args, **kwargs)
                if counter:
                    counters[counter] += counted
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                counted = after(result, *args, **kwargs)
                if counter:
                    counters[counter] += counted
            return result

        for attr in ("__name__", "__qualname__", "__module__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None) or name)
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with its
        traced twin; classmethods stay classmethods."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, **hooks))
        else:
            replacement = self.wrap(raw, name, **hooks)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Put every patched attribute back (newest first)."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def take(self) -> Chunk:
        """Everything recorded since the last take, as a chunk; the
        recorder starts empty again.  Call only with no span open."""
        if len(self._stack) != 1:
            raise RuntimeError("take() with a span still open")
        chunk = Chunk(list(self.names),
                      {c: array(code, self.columns[c]) for c, code in COLUMNS},
                      dict(self.counters), set(self.capsules))
        for values in self.columns.values():
            del values[:]
        self.counters.clear()
        self.capsules.clear()
        return chunk


# ----------------------------------------------------------------------
# Self time and aggregation
# ----------------------------------------------------------------------
def self_times(parent: Sequence[int], start: Sequence[float],
               end: Sequence[float]) -> list[float]:
    """Per-span self time: duration minus the union of its children's
    intervals, clipped to the span itself.

    Children are swept in start order per parent, so overlapping
    children are counted once.  Spans recorded by one thread are
    already in start order; anything else is sorted first."""
    n = len(start)
    order: Iterable[int] = range(n)
    if any(start[i] < start[i - 1] for i in range(1, n)):
        order = sorted(range(n), key=start.__getitem__)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return [max(0.0, end[i] - start[i] - covered[i]) for i in range(n)]


def aggregate(chunks: Iterable[Chunk], table: dict | None = None,
              ) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``wall`` (summed duration) and ``self``
    (summed self time), plus the same under ``name<parent-name`` keys
    so a caller can split a span by what called it.  Adds into
    ``table`` when one is given."""
    if table is None:
        table = defaultdict(lambda: {"calls": 0, "wall": 0.0, "self": 0.0})
    for chunk in chunks:
        c = chunk.columns
        name_id, parent, start, end = (c["name_id"], c["parent"],
                                       c["start"], c["end"])
        selfs = self_times(parent, start, end)
        keys = {}
        for i in range(len(start)):
            p = parent[i]
            pair = (name_id[i], name_id[p] if p >= 0 else -1)
            entries = keys.get(pair)
            if entries is None:
                name = chunk.names[pair[0]]
                parent_name = chunk.names[pair[1]] if pair[1] >= 0 else ""
                entries = keys[pair] = (table[name],
                                        table[f"{name}<{parent_name}"])
            duration = end[i] - start[i]
            for entry in entries:
                entry["calls"] += 1
                entry["wall"] += duration
                entry["self"] += selfs[i]
    return table


def capsule_digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def chunk_path(directory: Path, run: int) -> Path:
    """Where the process with this pid writes run ``run``'s chunk."""
    return directory / f"{os.getpid()}-{run:05d}.spans"
