"""Unit tests for the metrics registry and cost model."""

import pytest

from repro.engine.metrics import CostModel, MetricsRegistry
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
        with Tracer(metrics).span("query", "q") as window:
            metrics.advance(0.5, label="stage:x")
            metrics.advance(0.25, label="shuffle")
        assert metrics.sim_time == pytest.approx(0.75)
        assert window.time_by_label == {"stage:x": 0.5, "shuffle": 0.25}
        assert window.duration == pytest.approx(0.75)

    def test_unlabeled_advance_not_recorded_as_event(self):
        metrics = MetricsRegistry()
        with Tracer(metrics).span("query", "q") as window:
            metrics.advance(0.5)
        assert window.time_by_label == {}
        assert metrics.sim_time == window.duration == 0.5


class TestEventAttribution:
    """Labelled advances and increments reach every open window."""

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


class TestAttributingWindow:
    def test_a_window_hears_only_while_open(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics)
        metrics.inc("tasks", 5)
        metrics.advance(1, label="before")
        with tracer.span("query", "q") as outer:
            metrics.inc("tasks")
            metrics.advance(0.5, label="stage")
            with tracer.span("exchange", "shuffle") as inner:
                metrics.inc("shuffle_bytes", 64)
                metrics.advance(2, label="shuffle")
            metrics.inc("zero", 0)
            metrics.advance(3)  # unlabelled: clock only
            with pytest.raises(ZeroDivisionError):
                with tracer.span("stage", "s") as failed:
                    metrics.advance(0.25, label="stage")
                    1 / 0
            metrics.advance(0.5, label="stage")
        metrics.inc("tasks")
        metrics.advance(1, label="after")
        assert inner.metrics == {"shuffle_bytes": 64}
        assert inner.time_by_label == {"shuffle": 2} and inner.duration == 2
        assert failed.duration == 0.25
        assert outer.metrics == {"tasks": 1, "shuffle_bytes": 64}
        assert outer.time_by_label == {"stage": 1.25, "shuffle": 2}
        assert outer.duration == 6.25
        assert metrics.windows == []


def test_a_query_record_ignores_earlier_queries(tmp_path):
    """A query on a long-lived context reports its own counters, clock
    and time breakdown: a checkpointed run before it leaves no trace."""
    from repro import ExecutionConfig, RaSQLContext

    ctx = RaSQLContext(num_workers=2)
    ctx.register_table("edge", ["Src", "Dst"],
                       [(i, i + 1) for i in range(12)])
    query = """
        WITH recursive tc(Src, Dst) AS
          (SELECT Src, Dst FROM edge) UNION
          (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
        SELECT Src, Dst FROM tc
    """
    ctx.sql(query, config=ExecutionConfig(checkpoint_dir=str(tmp_path),
                                          checkpoint_interval=2))
    checkpointed = ctx.last_run
    assert checkpointed.checkpoint_summary()["checkpoint_writes"] > 0

    ctx.sql(query)
    run = ctx.last_run
    assert set(run.checkpoint_summary().values()) == {0}
    assert run.sim_time == run.trace["duration"]
    assert run.metrics == run.trace["metrics"]
    assert run.time_breakdown == run.trace["time_by_label"]
    assert 0 < run.sim_time < ctx.metrics.sim_time
    # The same plain query on a fresh context reads the same record.
    fresh = RaSQLContext(num_workers=2)
    fresh.register_table("edge", ["Src", "Dst"],
                         [(i, i + 1) for i in range(12)])
    fresh.sql(query)
    assert fresh.last_run.metrics["tasks"] == run.metrics["tasks"]
    assert fresh.last_run.iterations == run.iterations


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
