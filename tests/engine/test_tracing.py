"""Unit tests for the tracing span tree (EXPLAIN ANALYZE's backbone)."""

import dataclasses
import json
from collections import defaultdict

import pytest

from repro.chaos import checkpoint_sides, driver_kill, make_schedule
from repro.engine.metrics import MetricsRegistry
from repro.engine.tracing import (
    Span,
    Tracer,
    _find_dict,
    format_explain_analyze,
    iteration_timeline,
)
from tests.integration.test_chaos import (
    NUM_WORKERS,
    QUERY_SETUPS,
    differential,
    make_context_factory,
)


def make_tracer():
    metrics = MetricsRegistry()
    return metrics, Tracer(metrics)


class TestSpanLifecycle:
    def test_duration_comes_from_the_simulated_clock(self):
        metrics, tracer = make_tracer()
        metrics.advance(1.0)
        with tracer.span("stage", "s") as span:
            metrics.advance(0.5, label="stage:s")
        assert span.start == pytest.approx(1.0)
        assert span.end == pytest.approx(1.5)
        assert span.duration == pytest.approx(0.5)

    def test_nesting_builds_a_tree(self):
        _, tracer = make_tracer()
        with tracer.span("query", "q") as outer:
            with tracer.span("fixpoint", "f"):
                with tracer.span("iteration", "i1"):
                    pass
                with tracer.span("iteration", "i2"):
                    pass
        assert tracer.roots == [outer]
        (fixpoint,) = outer.children
        assert [c.name for c in fixpoint.children] == ["i1", "i2"]
        assert [s.name for s in outer.find("iteration")] == ["i1", "i2"]

    def test_counter_deltas_recorded_on_exit(self):
        metrics, tracer = make_tracer()
        metrics.inc("shuffle_bytes", 100)
        with tracer.span("iteration", "i") as span:
            metrics.inc("shuffle_bytes", 40)
            metrics.inc("tasks", 4)
        assert span.metrics == {"shuffle_bytes": 40, "tasks": 4}

    def test_mismatched_end_raises(self):
        _, tracer = make_tracer()
        outer = tracer.begin("query", "q")
        tracer.begin("stage", "s")
        with pytest.raises(RuntimeError):
            tracer.end(outer)

    def test_span_closed_on_exception(self):
        _, tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("query", "q"):
                raise ValueError("boom")
        assert tracer.current is None
        assert tracer.roots[0].end is not None

    def test_leaf_spans_attach_to_current(self):
        _, tracer = make_tracer()
        with tracer.span("stage", "s") as stage:
            tracer.leaf("task", "s[0]", worker=2, cpu_seconds=0.1)
        (task,) = stage.children
        assert task.kind == "task"
        assert task.attrs["worker"] == 2
        assert task.duration == 0.0


class TestSerialization:
    def test_to_dict_round_trips_through_json(self):
        metrics, tracer = make_tracer()
        with tracer.span("query", "q"):
            with tracer.span("iteration", "i", index=1) as span:
                metrics.advance(0.25, label="stage:x")
                metrics.inc("shuffle_remote_bytes", 64)
                span.annotate(delta_total=3, delta_by_view={"path": 3})
        reloaded = json.loads(json.dumps(tracer.to_dict()))
        (query,) = reloaded["spans"]
        (iteration,) = query["children"]
        assert iteration["attrs"]["delta_by_view"] == {"path": 3}
        assert iteration["metrics"]["shuffle_remote_bytes"] == 64
        assert iteration["time_by_label"]["stage:x"] == pytest.approx(0.25)
        assert iteration["duration"] == pytest.approx(0.25)

    def test_reset_clears_spans(self):
        _, tracer = make_tracer()
        with tracer.span("query", "q"):
            pass
        tracer.reset()
        assert tracer.roots == []


class TestRendering:
    def _trace(self):
        metrics, tracer = make_tracer()
        with tracer.span("query", "q") as query:
            with tracer.span("fixpoint", "path") as fixpoint:
                for i, delta in enumerate([3, 1, 0], start=1):
                    with tracer.span("iteration", f"iteration-{i}",
                                     index=i) as span:
                        metrics.advance(0.02, label="stage:fixpoint-shufflemap")
                        if delta:
                            metrics.advance(0.001, label="shuffle")
                            metrics.inc("shuffle_remote_bytes", delta * 16)
                        span.annotate(delta_total=delta,
                                      delta_by_view={"path": delta})
                fixpoint.annotate(iterations=3, mode="dsn")
        return query.to_dict()

    def test_iteration_timeline_rows(self):
        rows = iteration_timeline(self._trace())
        assert [r["iteration"] for r in rows] == [1, 2, 3]
        assert [r["delta_total"] for r in rows] == [3, 1, 0]
        assert rows[0]["delta_by_view"] == {"path": 3}
        assert rows[0]["remote_bytes"] == 48
        assert rows[0]["stage_seconds"] == pytest.approx(0.02)
        assert rows[0]["shuffle_seconds"] == pytest.approx(0.001)
        assert rows[2]["remote_bytes"] == 0

    def test_format_explain_analyze_shape(self):
        report = format_explain_analyze(self._trace())
        assert "EXPLAIN ANALYZE" in report
        assert "iterations=3" in report
        assert "delta(path)" in report
        # One table line per iteration.
        data_lines = [line for line in report.splitlines()
                      if line.strip().startswith(("1 ", "2 ", "3 "))]
        assert len(data_lines) == 3

    def test_format_handles_missing_trace(self):
        assert "no trace" in format_explain_analyze(None)

    def test_span_find_includes_self(self):
        span = Span(kind="fixpoint", name="f")
        assert list(span.find("fixpoint")) == [span]


class TestWindows:
    def test_a_zero_increment_adds_no_key(self):
        metrics, tracer = make_tracer()
        with tracer.span("query", "q") as query, \
                tracer.span("stage", "s") as span:
            metrics.inc("spill_bytes", 0)
            metrics.inc("tasks")
        assert span.metrics == query.metrics == {"tasks": 1}
        assert metrics.windows == [] and query.time_by_label == {}

    def test_an_exception_leaves_no_window_open(self):
        metrics, tracer = make_tracer()
        with pytest.raises(ZeroDivisionError):
            with tracer.span("query", "q"):
                with tracer.owned_span("fixpoint", "f"):
                    with tracer.span("stage", "s"):
                        with tracer.span("exchange", "shuffle"):
                            1 / 0
        assert metrics.windows == [] and tracer.current is None

    def test_spans_nest_through_a_bare_window_and_close_by_identity(self):
        # The window between the query and its stages is an owned span:
        # nested, it stays its parent's child.
        metrics, tracer = make_tracer()
        with tracer.span("query", "q") as query:
            with tracer.owned_span("fixpoint", "f") as fixpoint:
                first = tracer.begin("stage", "s")
                assert tracer.current is first
                tracer.end(first)
                second = tracer.begin("stage", "s")
                # Equal as a dataclass, but not the open window.
                twin = dataclasses.replace(second)
                assert twin == second
                with pytest.raises(RuntimeError):
                    tracer.end(twin)
                tracer.end(second)
        assert query.children == [fixpoint]
        assert fixpoint.children == [first, second]
        assert tracer.roots == [query] and metrics.windows == []

    def test_spans_carry_wall_time_and_leaves_none(self):
        _, tracer = make_tracer()
        with tracer.span("query", "q") as outer:
            with tracer.span("stage", "s") as inner:
                leaf = tracer.leaf("task", "t")
        assert 0 < inner.wall_s <= outer.wall_s
        assert leaf.wall_s == 0 and leaf.to_dict()["wall_s"] == 0
        assert outer.to_dict()["wall_s"] == outer.wall_s
        report = format_explain_analyze(outer.to_dict())
        assert f"total wall time: {outer.wall_s:.4f}s" in report


# ----------------------------------------------------------------------
# The snapshot-and-diff the tracer used to do per span, kept as the
# oracle: every span of every library query must carry exactly what a
# copy of the registry at its begin, diffed against one at its end, says.
# ----------------------------------------------------------------------


@pytest.fixture
def reference(monkeypatch):
    """Wrap ``Tracer.begin`` / ``end`` to copy the whole registry and mark
    a complete log of labelled advances at both ends of every span;
    yields the closed spans as ``(span, counter diff, per-label sums)``."""
    begin, end, advance = Tracer.begin, Tracer.end, MetricsRegistry.advance
    advances, marks, closed = [], {}, []

    def logged_advance(self, seconds, label=""):
        advance(self, seconds, label)
        if label:
            advances.append((self, label, seconds))

    def marked_begin(self, kind, name, **attrs):
        span = begin(self, kind, name, **attrs)
        marks[id(span)] = (span, dict(self.metrics.counters), len(advances))
        return span

    def diffed_end(self, span):
        end(self, span)
        _, before, mark = marks.pop(id(span))
        diff = {}
        for counter, value in dict(self.metrics.counters).items():
            delta = value - before.get(counter, 0.0)
            if delta:
                diff[counter] = delta
        sums = {}
        for registry, label, seconds in advances[mark:]:
            if registry is self.metrics:
                sums[label] = sums.get(label, 0.0) + seconds
        closed.append((span, diff, sums))

    monkeypatch.setattr(MetricsRegistry, "advance", logged_advance)
    monkeypatch.setattr(Tracer, "begin", marked_begin)
    monkeypatch.setattr(Tracer, "end", diffed_end)
    yield closed
    assert not marks, "a span was begun and never ended"


def assert_spans_match_reference(closed):
    assert closed
    for span, diff, sums in closed:
        where = f"{span.kind}:{span.name}"
        assert span.metrics.keys() == diff.keys(), where
        for counter, delta in diff.items():
            heard = span.metrics[counter]
            if float(delta).is_integer():
                assert heard == delta, (where, counter)
            else:  # a difference of sums rounds; a sum of parts does not
                assert heard == pytest.approx(delta, rel=1e-9, abs=1e-12), \
                    (where, counter)
        # Same additions in the same order: bit-equal, key order included.
        assert list(span.time_by_label.items()) == list(sums.items()), where


@pytest.mark.timeout(120)
@pytest.mark.parametrize("axis", ["clean", "chaos", "kill_resume"])
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_every_span_equals_the_snapshot_and_diff_reference(
        query_name, axis, reference, tmp_path):
    _, make_query = QUERY_SETUPS[query_name]
    if axis == "kill_resume":
        # Every kill lands; most resumes restore a mid-run checkpoint,
        # whose counters reach the open spans through ``inc``.
        report = differential(
            query_name, **checkpoint_sides(str(tmp_path), interval=1),
            faults=driver_kill(3), resume=True)
        assert report.exact and report.killed, report.summary()
    else:
        ctx = make_context_factory(query_name)()
        if axis == "chaos":
            make_schedule(29, num_workers=NUM_WORKERS).arm(ctx.cluster)
        ctx.sql(make_query())
        root = ctx.last_run.trace
        # The query's record and its root span heard the same additions
        # in the same order: bit-equal.
        assert root["metrics"] == ctx.last_run.metrics
        assert root["time_by_label"] == ctx.last_run.time_breakdown
        assert root["duration"] == ctx.last_run.sim_time
    assert_spans_match_reference(reference)
    assert len({id(span) for span, _, _ in reference}) == len(reference)


class _CountsWholeReads(defaultdict):
    """A counter dict that counts every read of *all* of itself — the
    copy and the walk a per-span snapshot-and-diff needs."""

    whole_reads = 0

    def _whole(self, read):
        self.whole_reads += 1
        return read()

    def items(self):
        return self._whole(super().items)

    def keys(self):  # what ``dict(counters)`` calls on a subclass
        return self._whole(super().keys)

    def values(self):
        return self._whole(super().values)

    def copy(self):
        return self._whole(super().copy)

    def __iter__(self):
        return self._whole(super().__iter__)


def test_a_query_reads_the_whole_registry_once_however_many_spans():
    _, make_query = QUERY_SETUPS["sssp"]
    ctx = make_context_factory("sssp")()
    counters = ctx.metrics.counters = _CountsWholeReads(float)
    for i in range(20_000):
        counters[f"session.c{i}.submitted"] = 1.0
    ctx.sql(make_query())
    spans = sum(1 for kind in ("query", "fixpoint", "iteration", "stage")
                for _ in _find_dict(ctx.last_run.trace, kind))
    assert spans > 10
    # Neither the query's record nor any span copies the registry.
    assert counters.whole_reads == 0
    assert ctx.last_run.metrics == ctx.last_run.trace["metrics"]
    assert ctx.last_run.metrics["tasks"] > 0
    assert not any(name.startswith("session.")
                   for name in ctx.last_run.metrics)
