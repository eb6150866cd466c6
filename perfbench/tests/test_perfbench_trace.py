"""Span recording and self time."""

import pytest

from array import array

from perfbench.trace import (
    COLUMNS,
    Chunk,
    Tracer,
    aggregate,
    load_chunk,
    self_times,
)


def chunk_from_rows(rows):
    """A chunk from ``(name, start, end, parent)`` rows."""
    names = []
    columns = {column: array(code) for column, code in COLUMNS}
    for name, start, end, parent in rows:
        if name not in names:
            names.append(name)
        columns["name_id"].append(names.index(name))
        columns["parent"].append(parent)
        columns["run_id"].append(0)
        columns["start"].append(start)
        columns["end"].append(end)
    return Chunk(names, columns)


def rows_of(chunk):
    """``(name, start, end, parent, run)`` per span."""
    c = chunk.columns
    return [(chunk.names[c["name_id"][i]], c["start"][i], c["end"][i],
             c["parent"][i], c["run_id"][i]) for i in range(len(chunk))]


def selfs(rows):
    chunk = chunk_from_rows(rows)
    c = chunk.columns
    return self_times(c["parent"], c["start"], c["end"])


def test_nested_spans_subtract_only_direct_children():
    # root [0,10] > child [1,4] > grandchild [2,3]; second child [6,7]
    rows = [("root", 0.0, 10.0, -1), ("child", 1.0, 4.0, 0),
            ("leaf", 2.0, 3.0, 1), ("child", 6.0, 7.0, 0)]
    assert selfs(rows) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_overlapping_children_are_counted_once():
    # two workers' spans under one parent overlap on [3,5]
    rows = [("campaign", 0.0, 10.0, -1), ("job", 1.0, 5.0, 0),
            ("job", 3.0, 8.0, 0), ("job", 4.0, 6.0, 0)]
    assert selfs(rows) == pytest.approx([3.0, 4.0, 5.0, 2.0])


def test_children_out_of_start_order_and_past_the_parent():
    # recorded out of order; one child outlives its parent (clipped)
    rows = [("p", 0.0, 10.0, -1), ("c", 8.0, 12.0, 0), ("c", 2.0, 9.0, 0)]
    assert selfs(rows)[0] == pytest.approx(2.0)


def test_aggregate_splits_by_parent_name():
    rows = [("settle", 0.0, 4.0, -1), ("step", 0.0, 1.0, 0),
            ("step", 1.0, 2.0, 0), ("step", 5.0, 6.0, -1)]
    table = aggregate([chunk_from_rows(rows)])
    assert table["step"]["calls"] == 3
    assert table["step<settle"]["calls"] == 2
    assert table["settle"]["self"] == pytest.approx(2.0)
    assert table["step<"]["wall"] == pytest.approx(1.0)


class Thing:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @classmethod
    def build(cls, n):
        return n


def test_tracer_records_parents_counts_and_restores(tmp_path):
    originals = (Thing.__dict__["outer"], Thing.__dict__["inner"],
                 Thing.__dict__["build"])
    tracer = Tracer()
    tracer.patch(Thing, "outer", "outer")
    tracer.patch(Thing, "inner", "inner",
                 after=lambda result, self, n: result, counter="doubled")
    tracer.patch(Thing, "build", "build", before=lambda cls, n: 1,
                 counter="built")
    thing = Thing()
    assert thing.outer(5) == 11 and Thing.build(3) == 3
    tracer.run = 7
    assert thing.inner(1) == 2
    chunk = tracer.take()
    assert len(tracer) == 0 and tracer.counters == {}
    rows = rows_of(chunk)
    assert [r[0] for r in rows] == ["outer", "inner", "build", "inner"]
    assert [r[3] for r in rows] == [-1, 0, -1, -1]
    assert [r[4] for r in rows] == [0, 0, 0, 7]
    assert chunk.counters == {"doubled": 12, "built": 1}
    path = tmp_path / "x.spans"
    chunk.dump(path)
    again = load_chunk(path)
    assert rows_of(again) == rows and again.counters == chunk.counters
    tracer.unpatch()
    assert (Thing.__dict__["outer"], Thing.__dict__["inner"],
            Thing.__dict__["build"]) == originals


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(KeyError):
        wrapped()
    chunk = tracer.take()  # would refuse with a span left open
    row = rows_of(chunk)[0]
    assert row[2] >= row[1]
