"""The simulated cluster: workers, stage execution, shuffle, broadcast.

All computation is performed for real inside this process, so results are
exact.  What is *simulated* is placement and time: partitions have home
workers, a scheduling policy assigns tasks, and a cost model converts
measured task CPU time + modelled data movement into cluster seconds on
``metrics.sim_time``.  Within a stage, workers run concurrently, so a stage
contributes ``max`` over workers of their busy time.

The key invariant that the partition-aware pieces of the paper rely on:
partition ``i`` of every co-partitioned structure lives on worker
``i % num_workers``.  Shuffles place their output this way, so when the
scheduler also pins task ``i`` there (``partition_aware`` policy), every
iteration's input is local — the inter-iteration locality of Section 6.1.

Fault tolerance (Section 6.1's recovery argument) lives here too:

- *Task deaths* (:class:`repro.engine.faults.FailureInjector`) are retried
  within a per-task budget, with exponential backoff charged to the cost
  model; tasks that mutate cached state restore their pre-stage snapshot
  first, which is the simulator's rendition of recomputing from the cached
  all-relation "checkpoint".
- *Worker loss* (:class:`repro.engine.faults.WorkerLossInjector` or
  :meth:`Cluster.lose_worker`) invalidates every cached partition homed on
  the lost worker, replays the current stage's committed tasks that ran
  there (their outputs died with the executor), and reschedules pending
  tasks to surviving workers.  When a worker's partitions are re-homed,
  ``worker_for_partition`` remaps them deterministically so later
  iterations keep their locality.
- Workers accumulating failures are *blacklisted*
  (:class:`repro.engine.faults.RecoveryManager`) and avoided by the
  scheduler.

Resource governance lives here too: every cached partition, shuffle
buffer, and broadcast is charged against a per-worker budget
(:class:`repro.engine.memory.MemoryManager`), with least-recently-touched
segments spilling to a simulated disk tier under pressure; query
deadlines are checked cooperatively at stage boundaries
(:meth:`Cluster.check_deadline`); and
:class:`repro.engine.faults.MemoryPressureInjector` shrinks budgets
mid-run for chaos testing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.engine.backend import ProcessConfig, SimulatedBackend
from repro.engine.dataset import Dataset, Partition
from repro.engine.faults import (
    INJECTOR_KINDS,
    RecoveryManager,
    WorkerLossInjector,
    injector_kind,
)
from repro.engine.memory import MemoryConfig, MemoryManager
from repro.engine.metrics import CostModel, MetricsRegistry
from repro.engine.partitioner import HashPartitioner, make_key_fn
from repro.engine.scheduler import TaskSpec, fallback_worker, make_policy
from repro.engine.serialization import CompressionCodec, rows_checksum, rows_size
from repro.engine.tracing import Tracer
from repro.errors import (
    DriverCrashError,
    FaultInjectionError,
    NoHealthyWorkersError,
    QueryDeadlineExceededError,
)


@dataclass
class StageTask:
    """One task of a stage: a function over the rows of its input partitions.

    ``snapshot``/``restore`` are optional hooks for tasks that mutate
    cached state (the fixpoint's merge): under failure injection the
    cluster snapshots before running and restores before a replay, which
    is the simulator's rendition of recomputing from the cached
    checkpoint (Section 6.1's fault-recovery argument).  ``mutating``
    declares that the task's function has such side effects: an
    after-commit failure (or a worker-loss replay) of a mutating task
    without both hooks raises :class:`repro.errors.FaultInjectionError`
    instead of replaying against half-applied state.
    """

    index: int
    inputs: list[Partition]
    fn: Callable[..., object]
    preferred_worker: int | None = None
    snapshot: Callable[[], object] | None = None
    restore: Callable[[object], None] | None = None
    mutating: bool = False
    #: Picklable description of the task for the process backend; when
    #: every task of a stage carries one and the pool is up, the batch
    #: runs on real worker processes instead of calling ``fn``.
    payload: object | None = None


@dataclass
class TaskResult:
    index: int
    output: object
    worker: int
    cpu_seconds: float
    remote_bytes: int


@dataclass
class Broadcast:
    """A broadcast variable: the same value visible on every worker."""

    value: object
    nbytes: int
    compressed: bool
    #: Memory-charge group of the per-worker copies (see
    #: :class:`repro.engine.memory.MemoryManager.release_group`).
    memory_group: str | None = None


class Cluster:
    """Execution substrate for one session.

    Parameters
    ----------
    num_workers:
        Simulated worker count (the paper uses 15 workers + 1 master).
    num_partitions:
        Default partition count for new datasets; the paper uses one
        partition per core.  Defaults to ``num_workers``.
    scheduler:
        ``"partition_aware"`` (the paper's policy) or ``"default"``
        (Spark-like hybrid).
    cost_model:
        Constants of the simulated network/scheduler; see
        :class:`repro.engine.metrics.CostModel`.
    """

    def __init__(self, num_workers: int = 4, num_partitions: int | None = None,
                 scheduler: str = "partition_aware",
                 cost_model: CostModel | None = None,
                 seed: int = 17, trace: bool = True,
                 memory_config: MemoryConfig | None = None,
                 backend: str = "simulated",
                 process_config: ProcessConfig | None = None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if num_partitions is not None and num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1 (or None for one per "
                f"worker), got {num_partitions!r}")
        self.num_workers = num_workers
        self.num_partitions = num_partitions or num_workers
        self.scheduler = make_policy(scheduler, seed=seed)
        self.cost_model = cost_model or CostModel()
        self.codec = CompressionCodec()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.metrics, enabled=trace)
        self.recovery = RecoveryManager()
        self.memory = MemoryManager(num_workers,
                                    memory_config or MemoryConfig(),
                                    self.metrics, self.cost_model,
                                    self.tracer)
        #: Absolute simulated-clock deadline of the running query
        #: (``None`` = no deadline); set by ``RaSQLContext.sql``.
        self.deadline: float | None = None
        self.lost_workers: set[int] = set()
        #: Armed injectors by fault kind (``faults.INJECTOR_KINDS``).
        #: ``"process-kill"`` (real signals, process backend only) is
        #: deliberately NOT part of ``_injecting``: it strikes OS
        #: processes, not the simulated attempt loop, and must not
        #: disable remote batches.
        self.armed: dict[str, list] = {kind: [] for kind in INJECTOR_KINDS}
        if backend == "process":
            # Imported lazily: backend.process pulls in worker/payload
            # modules that import back into the engine.
            from repro.engine.backend.process import ProcessClusterBackend
            self.backend = ProcessClusterBackend(self, process_config)
        elif backend == "simulated":
            self.backend = SimulatedBackend()
        else:
            raise ValueError(
                f"unknown backend {backend!r}: expected 'simulated' or "
                f"'process'")
        # Monotonic ids naming shuffle/broadcast memory-charge groups, so
        # consumers can release a whole exchange or broadcast at once.
        self._exchange_epoch = 0
        self._broadcast_epoch = 0

    # ------------------------------------------------------------------
    # fault injection and worker liveness
    # ------------------------------------------------------------------

    def inject_failures(self, injector) -> None:
        """Arm an injector of any :data:`repro.engine.faults.INJECTOR_KINDS`
        class; anything else is a ``TypeError`` here, not mid-query."""
        self.armed[injector_kind(injector)].append(injector)

    @property
    def _injecting(self) -> bool:
        return bool(self.armed["task"] or self.armed["worker-loss"])

    def live_workers(self) -> list[int]:
        """Workers still alive, in canonical order."""
        return [w for w in range(self.num_workers)
                if w not in self.lost_workers]

    def healthy_workers(self) -> list[int]:
        """Schedulable workers: live and not blacklisted.

        When every live worker is blacklisted the blacklist is ignored
        (Spark likewise refuses to starve a stage), so the pool is never
        empty while any worker survives.
        """
        live = self.live_workers()
        healthy = [w for w in live if w not in self.recovery.blacklisted]
        return healthy or live

    def lose_worker(self, worker: int, stage_name: str = "") -> None:
        """Kill a worker: liveness bookkeeping + detection latency.

        Cached-partition invalidation and current-stage replay happen in
        :meth:`_fire_worker_loss` when the loss strikes mid-stage; a loss
        between stages only needs the home remapping that
        :meth:`worker_for_partition` performs lazily.
        """
        if worker in self.lost_workers or not 0 <= worker < self.num_workers:
            return
        if len(self.live_workers()) <= 1:
            raise NoHealthyWorkersError(
                f"cannot lose worker {worker}: it is the last live worker")
        self.lost_workers.add(worker)
        detect = self.cost_model.worker_loss_detect_s
        self.metrics.inc("workers_lost")
        self.metrics.advance(detect, label="recovery")
        self.metrics.inc("recovery_seconds", detect)
        self.tracer.leaf("fault", f"worker-lost[{worker}]",
                         worker=worker, stage=stage_name)

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------

    def check_deadline(self, where: str = "") -> None:
        """Abort cooperatively once the simulated clock passes the deadline.

        Called at stage boundaries (Spark cancels jobs between tasks,
        not inside them): the stage that crossed the line completes and
        is fully accounted, then the query raises
        :class:`repro.errors.QueryDeadlineExceededError`.
        """
        if self.deadline is None or self.metrics.sim_time <= self.deadline:
            return
        self.metrics.inc("deadline_aborts")
        at = f" at stage {where!r}" if where else ""
        raise QueryDeadlineExceededError(
            f"query exceeded its deadline{at}: simulated time "
            f"{self.metrics.sim_time:.4f}s is past the "
            f"{self.deadline:.4f}s deadline — raise deadline_seconds "
            f"(CLI --timeout) or reduce the workload",
            deadline_seconds=self.deadline,
            sim_time=self.metrics.sim_time, stage=where)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def worker_for_partition(self, partition_index: int) -> int:
        """The home of a partition id (stable while its worker lives).

        After a worker loss the orphaned homes remap deterministically
        onto the surviving workers, so re-cached partitions and the
        partition-aware scheduler keep agreeing on placement.
        """
        home = partition_index % self.num_workers
        if home in self.lost_workers:
            live = self.live_workers()
            return live[partition_index % len(live)]
        return home

    # ------------------------------------------------------------------
    # data ingestion
    # ------------------------------------------------------------------

    def partition_rows(self, rows: Iterable[Sequence],
                       key_indices: tuple[int, ...],
                       num_partitions: int | None = None) -> list[list[tuple]]:
        """Hash-partition rows locally (no cost accounting)."""
        n = num_partitions or self.num_partitions
        partitioner = HashPartitioner(n)
        key_fn = make_key_fn(key_indices)
        buckets: list[list[tuple]] = [[] for _ in range(n)]
        for row in rows:
            row = tuple(row)
            buckets[partitioner.partition_of(key_fn(row))].append(row)
        return buckets

    def parallelize(self, rows: Iterable[Sequence],
                    key_indices: tuple[int, ...] | None = None,
                    num_partitions: int | None = None) -> Dataset:
        """Distribute rows into a dataset without charging load time."""
        n = num_partitions or self.num_partitions
        if key_indices is None:
            materialized = [tuple(r) for r in rows]
            chunk = max(1, -(-len(materialized) // n))
            parts = [
                Partition(i, materialized[i * chunk:(i + 1) * chunk],
                          self.worker_for_partition(i))
                for i in range(n)
            ]
            return Dataset(parts)
        buckets = self.partition_rows(rows, key_indices, n)
        parts = [Partition(i, bucket, self.worker_for_partition(i))
                 for i, bucket in enumerate(buckets)]
        return Dataset(parts, HashPartitioner(n), key_indices)

    def load(self, rows: Iterable[Sequence],
             key_indices: tuple[int, ...] | None = None,
             num_partitions: int | None = None) -> Dataset:
        """Distribute rows *and* charge data-loading time.

        The paper's Figure 8/9 totals start "from the data loading"; this
        models a parallel HDFS scan followed by the initial hash exchange.
        """
        t0 = time.perf_counter()
        dataset = self.parallelize(rows, key_indices, num_partitions)
        cpu = time.perf_counter() - t0
        nbytes = dataset.size_bytes()
        load_time = self.cost_model.transfer_seconds(nbytes, self.num_workers)
        self.metrics.advance(load_time + cpu * self.cost_model.cpu_scale
                             / self.num_workers, label="load")
        self.metrics.inc("load_bytes", nbytes)
        return dataset

    # ------------------------------------------------------------------
    # stage execution
    # ------------------------------------------------------------------

    def run_stage(self, name: str, tasks: list[StageTask]) -> list[TaskResult]:
        """Execute one stage: schedule tasks, run them, advance the clock.

        Each task's function is called with one ``list[tuple]`` argument per
        input partition.  Remote fetches (input partition cached on a
        different worker than the task ran on) are counted and charged.
        """
        self.check_deadline(name)
        for injector in self.armed["driver-kill"]:
            if injector.matches(name):
                injector.fire()
                self.metrics.inc("driver_kills")
                raise DriverCrashError(
                    f"injected driver crash before stage {name!r} "
                    f"(simulated time {self.metrics.sim_time:.4f}s)")
        for injector in self.armed["memory-pressure"]:
            if injector.matches(name):
                injector.fire()
                self.memory.apply_pressure(injector.fraction, stage=name)
        specs = []
        for task in tasks:
            preferred = task.preferred_worker
            if preferred is None and task.inputs:
                preferred = task.inputs[0].worker
            specs.append(TaskSpec(task.index, preferred))
        assignments = self.scheduler.assign(specs, self.num_workers,
                                            healthy=self.healthy_workers())

        with self.tracer.span("stage", name, tasks=len(tasks)) as stage_span:
            if self.backend.wants_batch(tasks):
                raw = self.backend.run_batch(name, tasks, assignments)
                return self._finish_batch(name, tasks, raw, stage_span)
            return self._run_stage_body(name, tasks, assignments, stage_span)

    def _finish_batch(self, name: str, tasks: list[StageTask],
                      raw: list[tuple], stage_span) -> list[TaskResult]:
        """Account a backend-executed batch exactly like a local stage.

        ``raw`` is ``[(output, worker, cpu_seconds), ...]`` in task
        order.  The simulated clock keeps its meaning under the process
        backend: measured *worker* CPU seconds feed the same cost model,
        so sim_time stays comparable across backends even though the
        wall-clock concurrency is now real.
        """
        worker_busy = [0.0] * self.num_workers
        results: list[TaskResult] = []
        for task, (output, worker, cpu) in zip(tasks, raw):
            cpu_s = cpu * self.cost_model.cpu_scale
            fetch_time, remote_bytes, remote_count = self._fetch_cost(task, worker)
            if remote_count:
                self.metrics.inc("remote_fetches", remote_count)
                self.metrics.inc("remote_fetch_bytes", remote_bytes)
            self.metrics.inc("task_attempts")
            busy = cpu_s + self.cost_model.task_overhead_s + fetch_time
            worker_busy[worker] += busy
            results.append(self._traced_task(
                name, TaskResult(task.index, output, worker, cpu_s,
                                 remote_bytes), busy))
        return self._finish_stage(name, results, worker_busy, stage_span)

    def _traced_task(self, name: str, result: TaskResult,
                     busy: float) -> TaskResult:
        """One committed task of stage ``name``, recorded in the trace."""
        self.tracer.leaf("task", f"{name}[{result.index}]",
                         index=result.index, worker=result.worker,
                         cpu_seconds=result.cpu_seconds,
                         remote_bytes=result.remote_bytes,
                         busy_seconds=busy)
        return result

    def _finish_stage(self, name: str, results: list[TaskResult],
                      worker_busy: list[float],
                      stage_span) -> list[TaskResult]:
        """The tail of every stage, wherever its tasks ran: workers run
        concurrently, so the stage costs the busiest one's time."""
        stage_time = self.cost_model.stage_overhead_s + max(worker_busy, default=0.0)
        self.metrics.advance(stage_time, label=f"stage:{name}")
        self.metrics.inc("stages")
        self.metrics.inc("tasks", len(results))
        self.metrics.inc("task_cpu_seconds",
                         sum(r.cpu_seconds for r in results))
        stage_span.annotate(stage_seconds=stage_time)
        self.check_deadline(name)
        return results

    def shutdown(self) -> None:
        """Tear down backend resources (the process pool, if any)."""
        self.backend.shutdown()

    def _run_stage_body(self, name: str, tasks: list[StageTask],
                        assignments: list[int], stage_span) -> list[TaskResult]:
        worker_busy = [0.0] * self.num_workers
        injecting = self._injecting
        results: list[TaskResult] = []

        # Pre-stage snapshots are the last cached all-relation state: the
        # Section 6.1 "checkpoint" every recovery path replays from.
        snapshots: dict[int, object] = {}
        loss_at: dict[int, list[WorkerLossInjector]] = defaultdict(list)
        if injecting:
            for pos, task in enumerate(tasks):
                if task.snapshot is not None:
                    snapshots[pos] = task.snapshot()
            if tasks:
                for injector in self.armed["worker-loss"]:
                    if injector.matches(name):
                        strike = min(max(injector.at_task, 0), len(tasks) - 1)
                        loss_at[strike].append(injector)

        for pos, task in enumerate(tasks):
            for injector in loss_at.get(pos, ()):
                self._fire_worker_loss(injector, name, pos, tasks,
                                       assignments, results, snapshots,
                                       worker_busy)
            result, busy = self._run_task_attempts(
                name, task, pos, assignments[pos], snapshots.get(pos),
                injecting, worker_busy)
            results.append(self._traced_task(name, result, busy))
        return self._finish_stage(name, results, worker_busy, stage_span)

    def _fetch_cost(self, task: StageTask,
                    worker: int) -> tuple[float, int, int]:
        """Remote-input fetch time/bytes/count for a task on a worker."""
        remote_bytes = 0
        remote_count = 0
        for partition in task.inputs:
            if partition.worker != worker:
                remote_bytes += partition.size_bytes()
                remote_count += 1
        fetch_time = 0.0
        if remote_count:
            fetch_time = (self.cost_model.network_latency_s * remote_count
                          + remote_bytes / self.cost_model.network_bandwidth_bytes_per_s)
        return fetch_time, remote_bytes, remote_count

    def _attempt_fails(self, stage_name: str, task: StageTask, point: str,
                       fired: set[int]) -> bool:
        """Consult injectors for one attempt; transient ones fire once."""
        for injector in self.armed["task"]:
            if injector.point != point:
                continue
            if not injector.persistent and id(injector) in fired:
                continue
            if injector.should_fail(stage_name, task.index):
                if not injector.persistent:
                    fired.add(id(injector))
                return True
        return False

    @staticmethod
    def _guard_replayable(task: StageTask, stage_name: str) -> None:
        """Refuse to replay a state-mutating task without both hooks."""
        if task.mutating and (task.restore is None or task.snapshot is None):
            raise FaultInjectionError(
                f"task {task.index} of stage {stage_name!r} mutates cached "
                "state but has no snapshot/restore hooks; replaying it "
                "would run against half-applied state — refusing the "
                "injected failure instead of corrupting the result")

    def _record_task_failure(self, name: str, task: StageTask, worker: int,
                             failures: int) -> int:
        """Blacklist bookkeeping after a failed attempt; returns the
        (possibly reassigned) worker for the retry."""
        self.recovery.check_retry_budget(name, task.index, failures)
        if self.recovery.record_failure(worker):
            self.metrics.inc("workers_blacklisted")
            self.tracer.leaf("fault", f"blacklist[{worker}]",
                             worker=worker, stage=name,
                             failures=self.recovery.failures_by_worker[worker])
        healthy = self.healthy_workers()
        if worker not in healthy:
            preferred = (task.preferred_worker
                         if task.preferred_worker is not None else worker)
            worker = fallback_worker(preferred, healthy)
        return worker

    def _run_task_attempts(self, name: str, task: StageTask, pos: int,
                           worker: int, saved: object, injecting: bool,
                           worker_busy: list[float]) -> tuple[TaskResult, float]:
        """Run one task to commit, retrying injected failures.

        Wasted attempts (scheduling, fetch, discarded CPU, backoff) are
        charged to the worker that ran them *and* accumulated into the
        ``recovery_seconds`` counter so EXPLAIN ANALYZE can report the
        overhead of recovery separately.
        """
        fetch_time, remote_bytes, remote_count = self._fetch_cost(task, worker)
        if remote_count:
            self.metrics.inc("remote_fetches", remote_count)
            self.metrics.inc("remote_fetch_bytes", remote_bytes)

        failures = 0
        fired: set[int] = set()
        backoff_base = self.cost_model.task_retry_backoff_s
        while True:
            self.metrics.inc("task_attempts")

            # Executor lost before the task ran: the attempt still paid
            # scheduling and any input fetch.
            if injecting and self._attempt_fails(name, task, "before", fired):
                failures += 1
                waste = (self.cost_model.task_overhead_s + fetch_time
                         + self.recovery.backoff_seconds(backoff_base, failures))
                worker_busy[worker] += waste
                self.metrics.inc("task_failures")
                self.metrics.inc("recovery_seconds", waste)
                worker = self._record_task_failure(name, task, worker, failures)
                fetch_time, _, _ = self._fetch_cost(task, worker)
                continue

            t0 = time.perf_counter()
            output = task.fn(*[p.rows for p in task.inputs])
            cpu = (time.perf_counter() - t0) * self.cost_model.cpu_scale

            # Executor lost after computing but before committing: the
            # whole attempt is wasted; replay from the cached state.
            if injecting and self._attempt_fails(name, task, "after", fired):
                self._guard_replayable(task, name)
                failures += 1
                waste = (cpu + self.cost_model.task_overhead_s + fetch_time
                         + self.recovery.backoff_seconds(backoff_base, failures))
                worker_busy[worker] += waste
                self.metrics.inc("task_failures")
                self.metrics.inc("recovery_seconds", waste)
                if task.restore is not None:
                    task.restore(saved)
                worker = self._record_task_failure(name, task, worker, failures)
                fetch_time, _, _ = self._fetch_cost(task, worker)
                continue

            busy = cpu + self.cost_model.task_overhead_s + fetch_time
            worker_busy[worker] += busy
            return (TaskResult(task.index, output, worker, cpu, remote_bytes),
                    busy)

    def _fire_worker_loss(self, injector: WorkerLossInjector, name: str,
                          pos: int, tasks: list[StageTask],
                          assignments: list[int],
                          results: list[TaskResult],
                          snapshots: dict[int, object],
                          worker_busy: list[float]) -> None:
        """One worker dies mid-stage: invalidate, replay, reschedule.

        The Section 6.1 recovery path end to end: the lost worker's cached
        partitions are re-derived onto their new homes (charged as network
        transfer from the surviving copies/lineage), committed tasks whose
        outputs lived on the dead executor are replayed from the pre-stage
        snapshot, and this stage's pending tasks move to healthy workers.
        """
        live = self.live_workers()
        victim = injector.worker if injector.worker is not None else live[-1]
        if victim not in live or len(live) <= 1:
            return  # already dead, unknown, or the last survivor: no-op
        injector.fire()
        self.lose_worker(victim, stage_name=name)

        # 1) Every cached partition homed on the victim is gone; re-home
        # it and charge re-derivation from the surviving copies.
        invalidated: set[int] = set()
        invalidated_bytes = 0
        for task in tasks:
            for partition in task.inputs:
                if partition.worker == victim and id(partition) not in invalidated:
                    invalidated.add(id(partition))
                    invalidated_bytes += partition.size_bytes()
                    partition.worker = self.worker_for_partition(partition.index)
        if invalidated:
            refetch = self.cost_model.transfer_seconds(
                invalidated_bytes, len(self.live_workers()))
            self.metrics.inc("cache_invalidated_partitions", len(invalidated))
            self.metrics.inc("cache_invalidated_bytes", invalidated_bytes)
            self.metrics.advance(refetch, label="recovery")
            self.metrics.inc("recovery_seconds", refetch)

        # 2) Replay this stage's committed tasks that ran on the victim:
        # their outputs died with the executor.  State-mutating tasks
        # restore the pre-stage snapshot first so the replay is exact.
        replayed: list[int] = []
        for prev_pos in range(len(results)):
            prev = results[prev_pos]
            if prev.worker != victim:
                continue
            prev_task = tasks[prev_pos]
            self._guard_replayable(prev_task, name)
            if prev_task.restore is not None:
                prev_task.restore(snapshots.get(prev_pos))
            new_worker = fallback_worker(victim, self.healthy_workers())
            fetch_time, new_remote, _ = self._fetch_cost(prev_task, new_worker)
            self.metrics.inc("task_attempts")
            t0 = time.perf_counter()
            output = prev_task.fn(*[p.rows for p in prev_task.inputs])
            cpu = (time.perf_counter() - t0) * self.cost_model.cpu_scale
            busy = cpu + self.cost_model.task_overhead_s + fetch_time
            worker_busy[new_worker] += busy
            self.metrics.inc("recovery_seconds", busy)
            results[prev_pos] = TaskResult(prev.index, output, new_worker,
                                           cpu, new_remote)
            replayed.append(prev.index)

        # 3) Pending tasks assigned to the victim move to healthy workers.
        healthy = self.healthy_workers()
        rescheduled = 0
        for later in range(pos, len(assignments)):
            if assignments[later] == victim:
                assignments[later] = fallback_worker(victim, healthy)
                rescheduled += 1
        self.tracer.leaf("recovery", f"stage-replay[{name}]",
                         worker=victim, stage=name, at_task=pos,
                         replayed_tasks=replayed, rescheduled=rescheduled,
                         invalidated_partitions=len(invalidated),
                         invalidated_bytes=invalidated_bytes)

    # ------------------------------------------------------------------
    # shuffle exchange
    # ------------------------------------------------------------------

    def exchange(self, map_outputs: list[tuple[int, dict[int, list[tuple]]]],
                 num_partitions: int,
                 partitioner: HashPartitioner,
                 key_indices: tuple[int, ...] | None = None) -> Dataset:
        """The ShuffleExchange of Algorithm 4, line 22.

        ``map_outputs`` is a list of ``(source_worker, buckets)`` pairs where
        ``buckets`` maps target partition id to rows.  Output partition ``i``
        is placed on its canonical worker; bytes whose source worker differs
        from the target worker are charged as network transfer (streams run
        in parallel across workers).
        """
        gathered: list[list[tuple]] = [[] for _ in range(num_partitions)]
        # A gathered partition's size is its buckets' sizes summed: each
        # row is sized once, here, where it crosses the wire.
        gathered_bytes = [0] * num_partitions
        remote_bytes = 0
        total_bytes = 0
        total_records = 0
        # Corruption injection + checksum verification.  Checksums are
        # computed only while an injector is armed: the map side hashed
        # the pristine bucket, the reduce side hashes what arrived, and a
        # mismatch triggers a charged re-fetch of the pristine rows.  No
        # injector armed -> zero extra work on the clean hot path.
        corruptors = [c for c in self.armed["corruption"] if c.matches()]
        for source_worker, buckets in map_outputs:
            for pid, rows in buckets.items():
                if not rows:
                    continue
                nbytes = rows_size(rows)
                delivered = rows
                for injector in corruptors:
                    mangled = injector.corrupt(rows)
                    if mangled is None:
                        continue
                    self.metrics.inc("shuffle_corruption_injected")
                    if rows_checksum(mangled) != rows_checksum(rows):
                        refetch = self.cost_model.transfer_seconds(nbytes, 1)
                        self.metrics.advance(refetch, label="corruption-recovery")
                        self.metrics.inc("recovery_seconds", refetch)
                        self.metrics.inc("shuffle_corruption_detected")
                        self.metrics.inc("shuffle_corruption_refetch_bytes",
                                         nbytes)
                        self.tracer.leaf("fault", "shuffle-corruption",
                                         partition=pid, bytes=nbytes)
                    else:
                        # An astronomically unlikely hash collision: the
                        # mangled bucket flows through.
                        self.metrics.inc("shuffle_corruption_undetected")
                        delivered = mangled
                gathered[pid].extend(delivered)
                gathered_bytes[pid] += nbytes
                total_bytes += nbytes
                total_records += len(rows)
                if self.worker_for_partition(pid) != source_worker:
                    remote_bytes += nbytes

        with self.tracer.span("exchange", "shuffle") as span:
            self.metrics.inc("shuffle_records", total_records)
            self.metrics.inc("shuffle_bytes", total_bytes)
            self.metrics.inc("shuffle_remote_bytes", remote_bytes)
            if remote_bytes:
                self.metrics.advance(
                    self.cost_model.transfer_seconds(remote_bytes, self.num_workers),
                    label="shuffle")
            span.annotate(records=total_records, bytes=total_bytes,
                          remote_bytes=remote_bytes)
        return self.restore_exchange(gathered, partitioner, key_indices,
                                     gathered_bytes)

    def restore_exchange(self, per_partition_rows: list[list[tuple]],
                         partitioner: HashPartitioner,
                         key_indices: tuple[int, ...] | None = None,
                         sizes: list[int] | None = None) -> Dataset:
        """Place rows already bucketed by target partition: the tail of
        :meth:`exchange`, and all there is to re-materializing an
        exchanged dataset from a checkpoint.  ``sizes`` are the
        partitions' wire sizes when the caller summed them (a restored
        dataset is sized from its rows).

        No routing and no *network* time happens here (the resume path
        charges the blob's disk read under the ``"checkpoint"`` label),
        so a restored dataset's placement and shuffle-tier memory charges
        equal the original's and the merge stage releases the same group.
        """
        parts = [Partition(i, rows, self.worker_for_partition(i),
                           None if sizes is None else sizes[i])
                 for i, rows in enumerate(per_partition_rows)]
        dataset = Dataset(parts, partitioner, key_indices)
        # Shuffle buffers occupy memory on the receiving workers until
        # the consuming stage releases them (repro.core.fixpoint does,
        # after the merge absorbs them into the cached state).
        group = f"x{self._exchange_epoch}"
        self._exchange_epoch += 1
        dataset.memory_group = group
        for part in parts:
            if part.rows:
                self.memory.charge("shuffle", group, part.index,
                                   part.worker, part.size_bytes())
        return dataset

    # ------------------------------------------------------------------
    # broadcast
    # ------------------------------------------------------------------

    def broadcast(self, value: object, nbytes: int | None = None,
                  compress: bool = False,
                  ship_hash_table: bool = False) -> Broadcast:
        """Ship a value to every worker (Section 7.2).

        ``ship_hash_table=True`` models Spark's default broadcast-hash join,
        which serializes the *built hash table* (2–3x larger than the rows);
        the paper's optimization instead broadcasts the compressed rows and
        rebuilds the table on each worker.
        """
        from repro.engine.serialization import HASH_TABLE_BLOWUP

        if nbytes is None:
            if isinstance(value, list):
                nbytes = rows_size(value)
            else:
                raise ValueError("nbytes required for non-row-list broadcasts")
        with self.tracer.span("broadcast", "broadcast") as span:
            wire_bytes = nbytes
            extra_cpu = 0.0
            if ship_hash_table:
                wire_bytes = int(wire_bytes * HASH_TABLE_BLOWUP)
            if compress:
                extra_cpu += self.codec.cpu_seconds(wire_bytes)
                wire_bytes = self.codec.compressed_size(wire_bytes)
                self.metrics.inc("broadcast_bytes_compressed", wire_bytes)
            self.metrics.inc("broadcast_bytes", wire_bytes)

            receivers = max(1, self.num_workers - 1)
            # Tree/torrent-style broadcast: cost grows with log of receivers,
            # bounded below by pushing one full copy over the sender's link.
            copies = max(1, receivers.bit_length())
            transfer = self.cost_model.transfer_seconds(wire_bytes * copies, 1)
            self.metrics.advance(transfer + extra_cpu, label="broadcast")
            span.annotate(raw_bytes=nbytes, wire_bytes=wire_bytes,
                          compressed=compress)
        result = Broadcast(value, wire_bytes, compress)
        # Every live worker holds a deserialized copy: charge the raw
        # bytes per worker (the wire form is transient).
        group = f"b{self._broadcast_epoch}"
        self._broadcast_epoch += 1
        result.memory_group = group
        for worker in self.live_workers():
            self.memory.charge("broadcast", group, worker, worker, nbytes)
        return result
