"""Failure injection + stage replay (Section 6.1's fault-recovery claim)."""

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.baselines import serial
from repro.engine.cluster import Cluster, StageTask
from repro.engine.dataset import Partition
from repro.engine.faults import (
    BLACKLIST_AFTER,
    MAX_TASK_RETRIES,
    CorruptionInjector,
    FailureInjector,
    WorkerLossInjector,
)
from repro.engine.serialization import rows_checksum
from repro.errors import (
    FaultInjectionError,
    NoHealthyWorkersError,
    TaskRetryExhaustedError,
)
from repro.queries import get_query

EDGES = [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 5.0), (3, 4, 1.0), (4, 2, 1.0)]


class TestInjector:
    def test_matches_stage_and_task(self):
        injector = FailureInjector("shufflemap", task_index=2, times=3)
        assert not injector.should_fail("fixpoint-base", 2)
        assert not injector.should_fail("fixpoint-shufflemap", 1)
        assert injector.should_fail("fixpoint-shufflemap", 2)
        assert injector.injected == 1

    def test_bounded_times(self):
        injector = FailureInjector("stage", times=2, task_index=None)
        assert injector.should_fail("stage", 0)
        assert injector.should_fail("stage", 1)
        assert not injector.should_fail("stage", 2)

    def test_rejects_bad_point(self):
        with pytest.raises(ValueError):
            FailureInjector("x", point="middle")


class TestClusterReplay:
    def test_before_failure_charges_and_retries(self):
        cluster = Cluster(num_workers=2)
        cluster.inject_failures(FailureInjector("work", point="before"))
        calls = []
        tasks = [StageTask(0, [], lambda: calls.append(1) or "ok")]
        results = cluster.run_stage("work", tasks)
        assert results[0].output == "ok"
        assert len(calls) == 1  # before-failure never ran the body
        assert cluster.metrics.get("task_failures") == 1

    def test_after_failure_restores_and_reruns(self):
        cluster = Cluster(num_workers=2)
        cluster.inject_failures(FailureInjector("work", point="after"))
        state = {"value": 0}
        tasks = [StageTask(
            0, [],
            lambda: state.__setitem__("value", state["value"] + 1),
            snapshot=lambda: dict(state),
            restore=lambda saved: state.update(saved))]
        cluster.run_stage("work", tasks)
        # Ran twice, but the first attempt's mutation was rolled back.
        assert state["value"] == 1
        assert cluster.metrics.get("task_failures") == 1

    def test_failure_costs_simulated_time(self):
        baseline = Cluster(num_workers=2)
        baseline.run_stage("work", [StageTask(0, [], lambda: None)])
        failing = Cluster(num_workers=2)
        failing.inject_failures(FailureInjector("work", point="before"))
        failing.run_stage("work", [StageTask(0, [], lambda: None)])
        assert failing.metrics.sim_time > baseline.metrics.sim_time


class TestFixpointRecovery:
    """Injected failures must never change query results."""

    def run_sssp(self, injector=None, **config_kwargs):
        ctx = RaSQLContext(num_workers=4,
                           config=ExecutionConfig(**config_kwargs))
        if injector is not None:
            ctx.cluster.inject_failures(injector)
        ctx.register_table("edge", ["Src", "Dst", "Cost"], EDGES)
        result = ctx.sql(get_query("sssp").formatted(source=1))
        return result.to_dict(), ctx

    def test_before_failure_every_iteration(self):
        injector = FailureInjector("fixpoint", task_index=None, times=50,
                                   point="before")
        result, ctx = self.run_sssp(injector)
        assert result == serial.sssp(EDGES, 1)
        assert ctx.metrics.get("task_failures") > 0

    def test_after_failure_mid_merge(self):
        # The hard case: the task dies after mutating the cached state;
        # replay must restore the snapshot or sums/mins would re-merge.
        injector = FailureInjector("fixpoint-shufflemap", task_index=None,
                                   times=8, point="after")
        result, ctx = self.run_sssp(injector)
        assert result == serial.sssp(EDGES, 1)
        assert ctx.metrics.get("task_failures") == 8

    def test_after_failure_two_stage_mode(self):
        injector = FailureInjector("fixpoint-reduce", task_index=None,
                                   times=5, point="after")
        result, ctx = self.run_sssp(injector, stage_combination=False)
        assert result == serial.sssp(EDGES, 1)
        assert ctx.metrics.get("task_failures") == 5

    def test_after_failure_with_sum_aggregates(self):
        # Re-merging increments would double-count without the rollback.
        dag = [(1, 2), (1, 3), (2, 4), (3, 4)]
        ctx = RaSQLContext(num_workers=4)
        ctx.cluster.inject_failures(FailureInjector(
            "fixpoint-shufflemap", task_index=None, times=10, point="after"))
        ctx.register_table("edge", ["Src", "Dst"], dag)
        result = ctx.sql(get_query("count_paths").formatted(source=1))
        assert result.to_dict() == serial.count_paths(dag, 1)
        assert ctx.metrics.get("task_failures") == 10

    def test_recovery_slows_but_preserves(self):
        clean_result, clean_ctx = self.run_sssp()
        injector = FailureInjector("fixpoint", task_index=None, times=20,
                                   point="after")
        failed_result, failed_ctx = self.run_sssp(injector)
        assert failed_result == clean_result
        assert failed_ctx.metrics.sim_time > clean_ctx.metrics.sim_time


class TestRetryBudget:
    def test_persistent_failure_exhausts_budget(self):
        cluster = Cluster(num_workers=2)
        cluster.inject_failures(FailureInjector(
            "work", point="before", times=100, persistent=True))
        with pytest.raises(TaskRetryExhaustedError) as excinfo:
            cluster.run_stage("work", [StageTask(0, [], lambda: "ok")])
        assert excinfo.value.stage == "work"
        # The budget of MAX_TASK_RETRIES retries is exceeded by one.
        assert excinfo.value.attempts == MAX_TASK_RETRIES + 1
        assert cluster.metrics.get("task_failures") == MAX_TASK_RETRIES + 1

    def test_transient_failure_stays_within_budget(self):
        # A non-persistent injector fails each task at most once per
        # stage visit, so even times=100 never exhausts the budget.
        cluster = Cluster(num_workers=2)
        cluster.inject_failures(FailureInjector(
            "work", task_index=None, point="before", times=100))
        results = cluster.run_stage("work", [StageTask(0, [], lambda: "ok")])
        assert results[0].output == "ok"
        assert cluster.metrics.get("task_attempts") == 2

    def test_backoff_charged_to_clock(self):
        plain = Cluster(num_workers=2)
        plain.inject_failures(FailureInjector("work", point="before"))
        plain.run_stage("work", [StageTask(0, [], lambda: None)])
        assert plain.metrics.get("recovery_seconds") > 0
        assert plain.metrics.get("recovery_seconds") >= \
            plain.cost_model.task_retry_backoff_s


class TestMutationGuard:
    """Satellite: a mutating task without hooks must refuse after-replay
    instead of silently re-applying its side effects (the old behaviour
    re-ran ``task.fn`` and corrupted sums)."""

    def test_after_failure_without_hooks_raises(self):
        cluster = Cluster(num_workers=2)
        cluster.inject_failures(FailureInjector("work", point="after"))
        state = {"value": 0}
        task = StageTask(
            0, [], lambda: state.__setitem__("value", state["value"] + 1),
            mutating=True)  # declared mutating, but no snapshot/restore
        with pytest.raises(FaultInjectionError):
            cluster.run_stage("work", [task])

    def test_worker_loss_replay_without_hooks_raises(self):
        cluster = Cluster(num_workers=2)
        cluster.inject_failures(WorkerLossInjector("work", worker=0, at_task=1))
        state = {"value": 0}
        tasks = [
            StageTask(0, [],
                      lambda: state.__setitem__("value", state["value"] + 1),
                      preferred_worker=0, mutating=True),
            StageTask(1, [], lambda: "ok", preferred_worker=1),
        ]
        with pytest.raises(FaultInjectionError):
            cluster.run_stage("work", tasks)

    def test_pure_task_replays_without_hooks(self):
        # Side-effect-free tasks (mutating=False, the default) replay
        # fine without hooks — that is the Spark lineage story.
        cluster = Cluster(num_workers=2)
        cluster.inject_failures(FailureInjector("work", point="after"))
        results = cluster.run_stage("work", [StageTask(0, [], lambda: 42)])
        assert results[0].output == 42
        assert cluster.metrics.get("task_failures") == 1


class TestWorkerLoss:
    def make_tasks(self, cluster, n=4):
        tasks = []
        for i in range(n):
            part = Partition(i, [(i,)], cluster.worker_for_partition(i))
            tasks.append(StageTask(i, [part], lambda rows: list(rows),
                                   preferred_worker=part.worker))
        return tasks

    def test_loss_invalidates_and_reschedules(self):
        cluster = Cluster(num_workers=4)
        cluster.inject_failures(WorkerLossInjector("work", worker=2))
        results = cluster.run_stage("work", self.make_tasks(cluster))
        assert cluster.lost_workers == {2}
        assert all(r.worker != 2 for r in results)
        assert cluster.metrics.get("workers_lost") == 1
        assert cluster.metrics.get("cache_invalidated_partitions") == 1
        assert cluster.metrics.get("recovery_seconds") > 0
        # Outputs are unaffected by where the tasks ran.
        assert [r.output for r in results] == [[(i,)] for i in range(4)]

    def test_mid_stage_loss_replays_committed_tasks(self):
        cluster = Cluster(num_workers=4)
        cluster.inject_failures(WorkerLossInjector("work", worker=0, at_task=2))
        results = cluster.run_stage("work", self.make_tasks(cluster))
        # Task 0 committed on worker 0 before the loss; its output died
        # with the executor, so it re-ran elsewhere.
        assert results[0].worker != 0
        assert results[0].output == [(0,)]
        assert cluster.metrics.get("task_attempts") == 5  # 4 tasks + 1 replay

    def test_auto_victim_is_highest_live_worker(self):
        cluster = Cluster(num_workers=4)
        cluster.inject_failures(WorkerLossInjector("work", worker=None))
        cluster.run_stage("work", self.make_tasks(cluster))
        assert cluster.lost_workers == {3}

    def test_partition_homes_remap_deterministically(self):
        cluster = Cluster(num_workers=4)
        cluster.lose_worker(1)
        live = [0, 2, 3]
        for i in range(8):
            home = cluster.worker_for_partition(i)
            assert home in live
            if i % 4 != 1:
                assert home == i % 4  # surviving homes unchanged

    def test_inject_failures_rejects_unknown_objects(self):
        """Anything that is not one of the injector classes used to be
        appended to ``Cluster.armed["task"]`` and die mid-query with
        ``AttributeError: ... 'point'``; it is refused at the call."""
        from repro.chaos import ChaosSchedule

        cluster = Cluster(num_workers=2)
        schedule = ChaosSchedule(seed=1, injectors=[FailureInjector("x")])
        with pytest.raises(TypeError) as excinfo:
            cluster.inject_failures(schedule)  # meant: schedule.arm(cluster)
        message = str(excinfo.value)
        for name in ("FailureInjector", "WorkerLossInjector",
                     "MemoryPressureInjector", "CorruptionInjector",
                     "DriverKillInjector", "ProcessKillInjector",
                     "ProcessPoisonInjector", "ChaosSchedule"):
            assert name in message
        with pytest.raises(TypeError):
            cluster.inject_failures(None)
        assert not cluster.armed["task"]
        schedule.arm(cluster)
        assert cluster.armed["task"] == schedule.injectors

    def test_last_worker_cannot_be_lost(self):
        cluster = Cluster(num_workers=2)
        cluster.lose_worker(0)
        with pytest.raises(NoHealthyWorkersError):
            cluster.lose_worker(1)

    def test_loss_skips_when_last_survivor(self):
        # An injector that would kill the only live worker is a no-op
        # rather than an abort: its budget is not consumed.
        cluster = Cluster(num_workers=2)
        cluster.lose_worker(1)
        injector = WorkerLossInjector("work", worker=0)
        cluster.inject_failures(injector)
        results = cluster.run_stage("work", [StageTask(0, [], lambda: "ok")])
        assert results[0].output == "ok"
        assert injector.injected == 0

    def test_query_survives_worker_loss(self):
        ctx = RaSQLContext(num_workers=4)
        ctx.inject_faults(WorkerLossInjector(
            "fixpoint", worker=1, at_task=1, skip_matches=1))
        ctx.register_table("edge", ["Src", "Dst", "Cost"], EDGES)
        result = ctx.sql(get_query("sssp").formatted(source=1))
        assert result.to_dict() == serial.sssp(EDGES, 1)
        assert ctx.metrics.get("workers_lost") == 1
        assert ctx.metrics.get("recovery_seconds") > 0


class TestBlacklisting:
    def test_repeated_failures_blacklist_worker(self):
        # Within the retry budget, BLACKLIST_AFTER failures blacklist.
        assert BLACKLIST_AFTER <= MAX_TASK_RETRIES
        cluster = Cluster(num_workers=4)
        cluster.inject_failures(FailureInjector(
            "work", point="before", times=BLACKLIST_AFTER, persistent=True))
        task = StageTask(0, [], lambda: "ok", preferred_worker=1)
        results = cluster.run_stage("work", [task])
        assert cluster.recovery.blacklisted == {1}
        assert cluster.metrics.get("workers_blacklisted") == 1
        # The committing attempt ran away from the blacklisted worker.
        assert results[0].worker != 1

    def test_scheduler_avoids_blacklisted_workers(self):
        cluster = Cluster(num_workers=4)
        cluster.recovery.blacklisted.add(2)
        parts = [Partition(i, [(i,)], i) for i in range(4)]
        tasks = [StageTask(i, [parts[i]], lambda rows: list(rows),
                           preferred_worker=i) for i in range(4)]
        results = cluster.run_stage("work", tasks)
        assert all(r.worker != 2 for r in results)

    def test_blacklist_ignored_when_all_workers_listed(self):
        cluster = Cluster(num_workers=2)
        cluster.recovery.blacklisted.update({0, 1})
        assert cluster.healthy_workers() == [0, 1]


class TestShuffleCorruption:
    """Checksum verification earns its keep: an injected flip changes
    the bucket's checksum, so every flip is detected and the run stays
    bit-exact.

    Decomposed plans keep delta rows co-partitioned — the whole point of
    the optimization is that iterations never shuffle — so the suite
    turns them off to put a corruptible exchange on every iteration."""

    TC = """
WITH recursive tc(Src, Dst) AS
  (SELECT Src, Dst FROM edge) UNION
  (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
SELECT Src, Dst FROM tc
"""

    def make_context(self, **kwargs):
        from repro import RaSQLContext
        ctx = RaSQLContext(num_workers=4, **kwargs)
        ctx.register_table("edge", ["Src", "Dst"],
                           [(i, i + 1) for i in range(16)] + [(4, 2)])
        return ctx

    def run_tc(self, ctx):
        return sorted(
            ctx.sql(self.TC,
                    config=ctx.config.but(decomposed_plans=False)).rows)

    def test_detected_corruption_is_bit_exact_and_charged(self):
        clean = self.run_tc(self.make_context())

        ctx = self.make_context()
        ctx.inject_faults(CorruptionInjector(skip_matches=2, times=3, seed=5))
        got = self.run_tc(ctx)
        snap = ctx.metrics.snapshot()
        assert got == clean
        assert snap["shuffle_corruption_injected"] >= 1
        assert (snap["shuffle_corruption_detected"]
                == snap["shuffle_corruption_injected"])
        assert snap.get("shuffle_corruption_undetected", 0) == 0
        assert snap["shuffle_corruption_refetch_bytes"] > 0
        assert snap["recovery_seconds"] > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_corrupt_changes_the_bucket_checksum(self, seed):
        """What verification relies on: the mangled copy never hashes
        like the pristine bucket, for numeric and string cells alike."""
        rows = [(i, i + 1, f"v{i}", 0.5 * i) for i in range(12)] + [()]
        injector = CorruptionInjector(seed=seed)
        assert injector.corrupt(rows) is None  # not armed yet
        assert injector.matches()
        mangled = injector.corrupt(rows)
        assert injector.injected == 1
        assert len(mangled) == len(rows) and mangled != rows
        assert rows_checksum(mangled) != rows_checksum(rows)

    def test_corruption_schedule_replays_identically(self):
        def discrete():
            ctx = self.make_context()
            ctx.inject_faults(CorruptionInjector(skip_matches=1, times=2,
                                                 seed=9))
            rows = self.run_tc(ctx)
            snap = ctx.metrics.snapshot()
            return (rows, snap["shuffle_corruption_injected"],
                    snap["shuffle_corruption_refetch_bytes"])

        assert discrete() == discrete()

    def test_clean_runs_never_pay_for_checksums(self):
        ctx = self.make_context()
        self.run_tc(ctx)
        snap = ctx.metrics.snapshot()
        assert snap.get("shuffle_corruption_injected", 0) == 0
        assert snap.get("shuffle_corruption_detected", 0) == 0
        assert snap.get("shuffle_corruption_refetch_bytes", 0) == 0
