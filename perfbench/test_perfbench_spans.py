"""Tests for the benchmark's span arithmetic, exports and wrapping."""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench.spans import (
    Span,
    Tracer,
    chrome_events,
    coverage,
    merged_length,
    root_of,
    self_times,
    write_chrome,
    write_jsonl,
)

REPO = Path(__file__).resolve().parents[1]


def span(id, name, start, end, parent=None):
    return Span(id, name, start, parent, rid=None, tid=1, end=end)


def test_merged_length_unions_and_clips():
    assert merged_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert merged_length([(1, 3), (2, 5), (7, 8)], 2, 7.5) == 3.5
    assert merged_length([], 0, 1) == 0
    assert merged_length([(4, 6)], 0, 3) == 0


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [5, 6], b2 [5.5, 7]
    spans = [
        span(1, "run.x", 0, 10),
        span(2, "a", 1, 4, parent=1),
        span(3, "a1", 2, 3, parent=2),
        span(4, "b", 5, 9, parent=1),
        span(5, "b1", 5, 6, parent=4),
        span(6, "b2", 5.5, 7, parent=4),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 3 - 4)
    assert selfs[2] == pytest.approx(2)
    assert selfs[3] == pytest.approx(1)
    # Overlapping children are merged before subtraction: 4 - 2.
    assert selfs[4] == pytest.approx(2)
    # Self times partition the root's wall clock, except where siblings
    # overlap (b1 and b2 share [5.5, 6]).
    assert sum(selfs.values()) == pytest.approx(10 + 0.5)


def test_coverage_excludes_roots_containers_and_orphans():
    spans = [
        span(1, "run.x", 0, 10),
        span(2, "group", 0, 8, parent=1),
        span(3, "leaf", 1, 5, parent=2),
        span(4, "orphan", 20, 30),  # no root above it: not counted
    ]
    assert root_of(spans) == {1: 1, 2: 1, 3: 1}
    # leaf 4 s + group self 4 s out of 10 s
    assert coverage(spans) == pytest.approx(0.8)
    # a container's self time is glue: only the leaf's 4 s count
    assert coverage(spans, containers=["group"]) == pytest.approx(0.4)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrapped_calls_nest_and_unwrap():
    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2

    class Counter:
        def step(self):
            return module.outer(1)

    tracer = Tracer(clock=Clock())
    original_step = Counter.step
    tracer.wrap(module, "inner", "layer.inner",
                on_return=lambda result, a, k: tracer.count("inner.result", result))
    tracer.wrap(module, "outer", "layer.outer")
    tracer.wrap(Counter, "step", "run.step", rid=lambda self: "request-1")
    assert Counter().step() == 4
    spans = tracer.closed()
    by_name = {s.name: s for s in spans}
    assert by_name["layer.outer"].parent == by_name["run.step"].id
    assert by_name["layer.inner"].parent == by_name["layer.outer"].id
    assert {s.rid for s in spans} == {"request-1"}
    assert tracer.counters["inner.result"] == 2
    tracer.unwrap_all()
    assert Counter.step is original_step
    assert Counter().step() == 4
    assert len(tracer.closed()) == 3


def test_generator_wrapping_spans_each_item():
    holder = types.SimpleNamespace(items=lambda n: iter(range(n)))
    tracer = Tracer(clock=Clock())
    tracer.wrap(holder, "items", "layer.next", generator=True,
                on_return=lambda item, a, k: tracer.count("items"))
    with tracer.span("run.loop"):
        assert list(holder.items(3)) == [0, 1, 2]
    names = [s.name for s in tracer.closed()]
    # three items plus the exhausting call
    assert names.count("layer.next") == 4
    assert tracer.counters["items"] == 3


def test_exports(tmp_path):
    spans = [span(1, "run.x", 1.0, 3.0), span(2, "layer.a", 1.5, 2.0, parent=1)]
    write_jsonl(spans, tmp_path / "t.jsonl")
    records = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert records[0]["self"] == pytest.approx(1.5)
    assert records[1]["parent"] == 1
    write_chrome(spans, tmp_path / "t.json")
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert events == chrome_events(spans)["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[1]["ts"] == pytest.approx(0.5e6)
    assert events[1]["dur"] == pytest.approx(0.5e6)


def test_run_refuses_a_tree_without_sources(tmp_path):
    result = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", "app-run",
         "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
