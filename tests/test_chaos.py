"""Unit tests for the chaos harness itself (schedules, spec parsing)."""

import pytest

from repro import RaSQLContext
from repro.chaos import make_schedule, run_differential
from repro.engine.faults import (
    FailureInjector,
    ProcessPoisonInjector,
    WorkerLossInjector,
    parse_fault_spec,
)


class TestMakeSchedule:
    def test_deterministic_per_seed(self):
        a, b = make_schedule(42), make_schedule(42)
        assert a.describe() == b.describe()

    def test_seeds_differ(self):
        described = {make_schedule(seed).describe() for seed in range(20)}
        assert len(described) > 1

    def test_composition(self):
        schedule = make_schedule(7, task_deaths=3, worker_losses=2)
        deaths = [i for i in schedule.injectors
                  if isinstance(i, FailureInjector)]
        assert len(deaths) == 3
        assert sum(isinstance(i, WorkerLossInjector)
                   for i in schedule.injectors) == 2
        for injector in deaths:
            assert injector.point in ("before", "after")

    def test_arm_installs_on_cluster(self):
        ctx = RaSQLContext(num_workers=2)
        schedule = make_schedule(3)
        schedule.arm(ctx.cluster)
        assert len(ctx.cluster.armed["task"]) == 2
        assert len(ctx.cluster.armed["worker-loss"]) == 1


class TestParseFaultSpec:
    def test_task_spec(self):
        injector = parse_fault_spec(
            "task:fixpoint:task_index=1:point=after:times=2")
        assert isinstance(injector, FailureInjector)
        assert injector.stage_pattern == "fixpoint"
        assert injector.task_index == 1
        assert injector.point == "after"
        assert injector.times == 2

    def test_task_any_index_and_persistent(self):
        injector = parse_fault_spec("task:map:task_index=any:persistent=true")
        assert injector.task_index is None
        assert injector.persistent is True

    def test_worker_loss_spec(self):
        injector = parse_fault_spec(
            "worker-loss:fixpoint:worker=2:at_task=1:skip_matches=3")
        assert isinstance(injector, WorkerLossInjector)
        assert injector.worker == 2
        assert injector.at_task == 1
        assert injector.skip_matches == 3

    def test_worker_auto(self):
        assert parse_fault_spec("worker-loss:fixpoint:worker=auto").worker is None

    def test_process_poison_spec(self):
        injector = parse_fault_spec(
            "process-poison:fixpoint-shufflemap:task_index=any:times=2")
        assert isinstance(injector, ProcessPoisonInjector)
        assert injector.stage_pattern == "fixpoint-shufflemap"
        assert injector.task_index is None
        assert injector.times == 2
        # FailureInjector's rule: any task of a matching stage, two
        # strikes in total.
        assert not injector.should_fail("fixpoint-base", 0)
        assert [injector.should_fail("fixpoint-shufflemap", index)
                for index in (0, 1, 2)] == [True, True, False]
        assert injector.injected == 2

    @pytest.mark.parametrize("bad", [
        "nonsense",
        "explode:fixpoint",
        "task:fixpoint:badoption",
        "task:fixpoint:times=soon",
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


class TestRunWithChaos:
    EDGES = [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 5.0), (3, 4, 1.0), (4, 2, 1.0)]
    QUERY = """
        WITH recursive path(Dst, min() AS Cost) AS
          (SELECT 1, 0) UNION
          (SELECT edge.Dst, path.Cost + edge.Cost
           FROM path, edge WHERE path.Dst = edge.Src)
        SELECT Dst, Cost FROM path
    """

    def make_context(self, extra=(), **side):
        ctx = RaSQLContext(num_workers=4, **side)
        ctx.register_table("edge", ["Src", "Dst", "Cost"],
                           self.EDGES + list(extra))
        return ctx

    @pytest.mark.usefixtures("fake_clock")
    def test_exact_match_and_counters(self):
        # Both runs read a fixed-step task clock, so the sim_time
        # comparison below sees modelled charges only, not wall jitter.
        schedule = make_schedule(11, num_workers=4)
        report = run_differential(self.QUERY, self.make_context,
                                  faults=schedule.injectors)
        assert report.exact and not report.leaks
        assert len(report.oracle_rows) == len(report.subject_rows)
        fired = schedule.fired()
        assert report.fired == sum(fired.values())
        assert report.counters["task_failures"] == fired["task"]
        assert report.counters["workers_lost"] == fired["worker-loss"]
        assert report.subject_run.sim_time >= report.oracle_run.sim_time
        assert "EXACT" in report.summary()

    def test_empty_schedule_is_free(self):
        report = run_differential(self.QUERY, self.make_context)
        assert report.exact
        assert report.counters["task_failures"] == 0
        assert report.counters["recovery_seconds"] == 0
        # The two runs do the same work; only measured-CPU jitter differs.
        clean, again = report.oracle_run.sim_time, report.subject_run.sim_time
        assert abs(again - clean) < 0.2 * clean + 0.01

    def test_trace_shows_recovery(self):
        from repro.engine.tracing import format_explain_analyze

        report = run_differential(
            self.QUERY, self.make_context,
            faults=[WorkerLossInjector("fixpoint", worker=1, at_task=1)])
        assert report.exact
        rendered = format_explain_analyze(report.trace)
        assert "fault recovery" in rendered
        assert "workers lost: 1" in rendered

    def test_a_diverging_subject_is_a_mismatch(self):
        """The harness can fail: a subject over other data is not exact."""
        report = run_differential(self.QUERY, self.make_context,
                                  subject={"extra": [(4, 5, 1.0)]})
        assert not report.exact and "MISMATCH" in report.summary()
