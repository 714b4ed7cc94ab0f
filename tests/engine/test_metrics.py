"""Unit tests for the metrics registry and cost model."""

import pytest

from repro.engine.metrics import ClockEvent, CostModel, MetricsRegistry
from repro.engine.tracing import Tracer


class TestRegistry:
    def test_counters_lazy(self):
        metrics = MetricsRegistry()
        assert metrics.get("anything") == 0
        metrics.inc("stages")
        metrics.inc("stages", 2)
        assert metrics.get("stages") == 3

    def test_clock_advances_with_labels(self):
        metrics = MetricsRegistry()
        metrics.advance(0.5, label="stage:x")
        metrics.advance(0.25, label="shuffle")
        assert metrics.sim_time == pytest.approx(0.75)
        assert [(e.label, e.seconds) for e in metrics.events()] == [
            ("stage:x", 0.5), ("shuffle", 0.25)]

    def test_events_unpack_as_label_seconds_pairs(self):
        # ClockEvent stays tuple-compatible with the historical
        # (label, seconds) shape plus the span_id attribution field.
        metrics = MetricsRegistry()
        metrics.advance(0.5, label="load")
        event = metrics.events()[0]
        assert isinstance(event, ClockEvent)
        label, seconds, span_id = event
        assert (label, seconds, span_id) == ("load", 0.5, None)

    def test_unlabeled_advance_not_recorded_as_event(self):
        metrics = MetricsRegistry()
        metrics.advance(0.5)
        assert metrics.events() == []
        assert metrics.sim_time == 0.5


class TestEventAttribution:
    """events() label/span attribution after the tracing refactor."""

    def test_event_carries_innermost_span_id(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics)
        with tracer.span("query", "q") as outer:
            metrics.advance(0.1, label="load")
            with tracer.span("stage", "s") as inner:
                metrics.advance(0.2, label="stage:s")
        events = metrics.events()
        assert events[0].span_id == outer.span_id
        assert events[1].span_id == inner.span_id

    def test_event_span_id_none_outside_spans(self):
        metrics = MetricsRegistry()
        Tracer(metrics)
        metrics.advance(0.1, label="load")
        assert metrics.events()[0].span_id is None

    def test_labels_attributed_to_open_spans(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics)
        with tracer.span("query", "q") as outer:
            metrics.advance(0.1, label="load")
            with tracer.span("stage", "s") as inner:
                metrics.advance(0.2, label="stage:s")
            metrics.advance(0.3, label="shuffle")
        assert outer.time_by_label == pytest.approx(
            {"load": 0.1, "stage:s": 0.2, "shuffle": 0.3})
        assert inner.time_by_label == pytest.approx({"stage:s": 0.2})

    def test_disabled_tracer_leaves_events_unattributed(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics, enabled=False)
        with tracer.span("query", "q"):
            metrics.advance(0.1, label="load")
        assert metrics.events()[0] == ClockEvent("load", 0.1, None)
        assert tracer.roots == []

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().advance(-1)

    def test_snapshot_includes_clock(self):
        metrics = MetricsRegistry()
        metrics.inc("tasks", 7)
        metrics.advance(1.0)
        snapshot = metrics.snapshot()
        assert snapshot["tasks"] == 7
        assert snapshot["sim_time"] == 1.0

    def test_reset(self):
        metrics = MetricsRegistry()
        metrics.inc("x")
        metrics.advance(1, label="y")
        metrics.reset()
        assert metrics.sim_time == 0
        assert metrics.get("x") == 0
        assert metrics.events() == []

    def test_events_since_returns_only_the_tail(self):
        metrics = MetricsRegistry()
        metrics.advance(1, label="old")
        mark = metrics.event_count()
        assert mark == 1
        metrics.advance(2, label="new")
        assert metrics.events_since(mark) == [ClockEvent("new", 2, None)]
        assert metrics.events_since(metrics.event_count()) == []


class TestScopedCounters:
    def test_snapshot_reads_its_own_names_not_the_registry(self):
        metrics = MetricsRegistry()
        bob, eve = metrics.scoped("session.bob"), metrics.scoped("session.eve")
        bob.inc("submitted")
        bob.inc("latency_s", 0.25)
        eve.inc("submitted", 3)
        metrics.inc("tasks", 7)
        assert metrics.get("session.bob.submitted") == bob.get("submitted") == 1
        assert bob.snapshot() == {"submitted": 1, "latency_s": 0.25}
        assert eve.snapshot() == {"submitted": 3}

        class NoScans(dict):
            def items(self):
                raise AssertionError("the registry was scanned")

            keys = values = __iter__ = items

        metrics.counters = NoScans(metrics.counters)
        assert bob.snapshot() == {"submitted": 1, "latency_s": 0.25}
        metrics.reset()
        assert bob.snapshot() == {}


class TestBoundedEventLog:
    def test_the_log_keeps_the_recent_past_and_counts_everything(self):
        metrics = MetricsRegistry()
        depth = metrics.EVENT_LOG_DEPTH
        for i in range(depth + 10):
            metrics.advance(1, label=f"e{i}")
        assert metrics.event_count() == depth + 10
        events = metrics.events()
        assert len(events) == depth
        assert (events[0].label, events[-1].label) \
            == ("e10", f"e{depth + 9}")
        # Marks are absolute: a tail reads the same before and after the
        # front fell off; a mark older than the log reads what is left.
        assert [e.label for e in metrics.events_since(depth + 8)] \
            == [f"e{depth + 8}", f"e{depth + 9}"]
        assert metrics.events_since(3) == events
        assert metrics.sim_time == depth + 10
        metrics.reset()
        assert metrics.event_count() == 0 and metrics.events() == []

    def test_attributing_sums_a_window_whatever_the_log_kept(self):
        metrics = MetricsRegistry()
        metrics.advance(1, label="before")
        outer, inner = {}, {}
        with metrics.attributing(outer):
            for _ in range(metrics.EVENT_LOG_DEPTH):
                metrics.advance(0.5, label="stage")
            with metrics.attributing(inner):
                metrics.advance(2, label="shuffle")
            metrics.advance(3)  # unlabelled: clock only
            with pytest.raises(ZeroDivisionError):
                with metrics.attributing({}):
                    1 / 0
            metrics.advance(0.5, label="stage")
        metrics.advance(1, label="after")
        assert inner == {"shuffle": 2}
        assert outer == {"stage": 0.5 * (metrics.EVENT_LOG_DEPTH + 1),
                         "shuffle": 2}
        assert metrics.windows == []


class _TailOnlyList(list):
    """An event log that may be appended to, measured and tail-sliced,
    but never walked from the start — which is what copying it does."""

    def __iter__(self):
        raise AssertionError("the whole event log was copied")


def test_per_query_event_read_ignores_earlier_events():
    """A query on a long-lived context reads only its own clock events:
    its cost must not depend on how many came before."""
    from repro import RaSQLContext

    ctx = RaSQLContext(num_workers=2)
    ctx.register_table("edge", ["Src", "Dst"], [(0, 1), (1, 2), (2, 3)])
    query = """
        WITH recursive tc(Src, Dst) AS
          (SELECT Src, Dst FROM edge) UNION
          (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
        SELECT Src, Dst FROM tc
    """
    ctx.sql(query)
    expected = dict(ctx.last_run.time_breakdown)
    assert expected

    metrics = ctx.cluster.metrics
    backlog = _TailOnlyList(metrics._events)
    backlog.extend(ClockEvent("backlog", 1.0, None) for _ in range(1000))
    metrics._events = backlog
    ctx.sql(query)
    breakdown = ctx.last_run.time_breakdown
    assert "backlog" not in breakdown
    assert breakdown.keys() == expected.keys()


class TestCostModel:
    def test_transfer_includes_latency(self):
        model = CostModel(network_bandwidth_bytes_per_s=1e6,
                          network_latency_s=0.01)
        assert model.transfer_seconds(1_000_000) == pytest.approx(1.01)

    def test_parallel_streams_divide_bandwidth_time(self):
        model = CostModel(network_bandwidth_bytes_per_s=1e6,
                          network_latency_s=0.0)
        single = model.transfer_seconds(1_000_000, 1)
        quad = model.transfer_seconds(1_000_000, 4)
        assert quad == pytest.approx(single / 4)

    def test_default_bandwidth_is_gigabit(self):
        # 1 Gbit/s = 125e6 bytes/s, the paper's testbed network.
        assert CostModel().network_bandwidth_bytes_per_s == 125e6

    def test_zero_streams_clamped(self):
        model = CostModel()
        assert model.transfer_seconds(1000, 0) == model.transfer_seconds(1000, 1)
