"""Fault injection and recovery policy (Section 6.1).

The paper argues SetRDD does not compromise fault recovery: because the
all-relation's partitions are always cached ("checkpointed"), "a failure
in any iteration will only incur the replay of the execution job belonging
to the current stage".  This module lets tests and benchmarks exercise
exactly that, at two granularities:

- :class:`FailureInjector` kills individual *task attempts* at a chosen
  point; the cluster retries them (restoring any state snapshot first)
  within a bounded per-task budget.
- :class:`WorkerLossInjector` kills a whole *worker*: every cached
  partition homed there is invalidated, completed tasks of the current
  stage that ran on it are replayed from the last cached all-relation
  state, and pending tasks are rescheduled to surviving workers.

Two failure points are modeled for task deaths:

- ``"before"`` — the executor is lost before the task starts (scheduling
  charged, no work done).  Replay is trivially safe.
- ``"after"`` — the task dies after doing its work but before committing
  its output.  Replay must not observe the half-applied state, so tasks
  that mutate cached state (the fixpoint's merge) provide
  snapshot/restore hooks; the cluster restores before re-running.  An
  after-point failure on a task that declares itself mutating but has no
  restore hook raises :class:`repro.errors.FaultInjectionError` instead
  of silently corrupting the result.

:class:`RecoveryManager` holds the recovery *policy* — retry budget
(:data:`MAX_TASK_RETRIES`), exponential backoff, and worker blacklisting
after :data:`BLACKLIST_AFTER` failures.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.errors import TaskRetryExhaustedError


#: Failed attempts tolerated per task before the stage aborts with
#: :class:`repro.errors.TaskRetryExhaustedError` (Spark's
#: ``spark.task.maxFailures`` minus one).
MAX_TASK_RETRIES = 4

#: Task failures attributed to one worker before it is excluded from
#: scheduling (``spark.blacklist.*``).  Blacklisted workers keep their
#: cached partitions — only new task placement avoids them.
BLACKLIST_AFTER = 3


class _TaskTrigger:
    """Shared rule of the task injectors: strike a task of a stage whose
    name matches ``stage_pattern`` — task ``task_index``, or every task
    when it is ``None`` — at most ``times`` times in total.  A plain
    mixin like :class:`_StageTrigger`."""

    def __post_init__(self):
        self._regex = re.compile(self.stage_pattern)

    def should_fail(self, stage_name: str, task_index: int) -> bool:
        if self.injected >= self.times:
            return False
        if not self._regex.search(stage_name):
            return False
        if self.task_index is not None and task_index != self.task_index:
            return False
        self.injected += 1
        return True


@dataclass
class FailureInjector(_TaskTrigger):
    """Fail matching task attempts a bounded number of times.

    ``stage_pattern`` is a regex matched against the stage name;
    ``task_index`` of ``None`` targets every task of a matching stage.
    ``times`` bounds total injected failures across the run.
    ``point`` is ``"before"`` or ``"after"`` (see module docstring).
    ``persistent`` makes the injector fail the *retries* of a task too
    (the default fails each task at most once per stage visit, modelling
    a transient fault that a retry survives); a persistent injector
    models a deterministic fault and will exhaust the retry budget.
    """

    stage_pattern: str
    task_index: int | None = 0
    times: int = 1
    point: str = "before"
    persistent: bool = False
    injected: int = field(default=0, init=False)

    def __post_init__(self):
        if self.point not in ("before", "after"):
            raise ValueError(f"unknown failure point {self.point!r}")
        super().__post_init__()


@dataclass
class ProcessPoisonInjector(_TaskTrigger):
    """Crash the pool worker that runs a matching task (process backend
    only): a segfaulting UDF.

    The driver consults :meth:`should_fail` as it ships each task
    (``ProcessClusterBackend._dispatch_many``); a struck task's entry
    carries a poison flag and the worker hard-exits (``os._exit``)
    instead of running it.  The supervisor learns of the crash the way
    it learns of any other — pipe EOF or process sentinel, the head of
    the worker's in-flight FIFO as suspect — and never reads the
    injector.  ``times`` counts strikes in total, across workers and
    respawns: ``task_index=None, times=1`` crashes one worker, and a
    task struck on each re-dispatch is quarantined after
    ``process.POISON_THRESHOLD`` kills.
    """

    stage_pattern: str
    task_index: int | None = 0
    times: int = 1
    injected: int = field(default=0, init=False)


class _StageTrigger:
    """Shared schedule of the stage-pattern injectors: strike on a stage
    whose name matches ``stage_pattern``, after skipping ``skip_matches``
    matching stages, at most ``times`` times.  A plain mixin (no
    dataclass fields) so each injector keeps its own field order."""

    def __post_init__(self):
        self._regex = re.compile(self.stage_pattern)

    def matches(self, stage_name: str) -> bool:
        """True when this injector should strike at *this* stage."""
        if self.injected >= self.times:
            return False
        if not self._regex.search(stage_name):
            return False
        self._seen += 1
        return self._seen > self.skip_matches

    def fire(self) -> None:
        self.injected += 1


@dataclass
class WorkerLossInjector(_StageTrigger):
    """Kill a worker when a matching stage reaches a chosen task.

    ``worker`` of ``None`` picks a victim deterministically at fire time
    (the highest-numbered live worker, so worker 0 — the "master-ish"
    home of partition 0 — dies last).  ``at_task`` is the position in
    the stage's task list at which the loss strikes (clamped to the
    stage size), so losses can land mid-stage, after some tasks already
    committed.  ``skip_matches`` skips that many matching stages first,
    which is how chaos schedules hit random *iterations* of the
    fixpoint.  ``times`` bounds total losses from this injector.
    """

    stage_pattern: str
    worker: int | None = None
    at_task: int = 0
    skip_matches: int = 0
    times: int = 1
    injected: int = field(default=0, init=False)
    _seen: int = field(default=0, init=False)


@dataclass
class ProcessKillInjector(_StageTrigger):
    """Send a real signal to a live pool worker when a matching stage
    starts (process backend only).

    ``signal`` of ``"kill"`` SIGKILLs the victim — a spontaneous crash
    the supervisor detects via pipe EOF / process sentinel.  ``"stop"``
    SIGSTOPs it — a frozen-but-alive worker whose heartbeats cease, so
    the liveness reaper must SIGKILL it; no SIGCONT is ever sent.
    ``worker`` of ``None`` picks the highest-numbered live pool worker
    at fire time, mirroring :class:`WorkerLossInjector`.
    ``skip_matches``/``times`` follow the same schedule idiom.
    """

    stage_pattern: str
    signal: str = "kill"
    worker: int | None = None
    skip_matches: int = 0
    times: int = 1
    injected: int = field(default=0, init=False)
    _seen: int = field(default=0, init=False)

    def __post_init__(self):
        if self.signal not in ("kill", "stop"):
            raise ValueError(
                f"ProcessKillInjector signal must be 'kill' or 'stop', "
                f"got {self.signal!r}")
        super().__post_init__()


@dataclass
class MemoryPressureInjector(_StageTrigger):
    """Shrink the per-worker memory budget when a matching stage starts.

    Models a noisy neighbour (another application's executors growing)
    rather than a crash: when the injector fires, the cluster's
    :class:`repro.engine.memory.MemoryManager` budget drops to
    ``fraction`` of the current peak per-worker resident bytes, forcing
    least-recently-touched cached partitions to spill.  The injected
    budget is *soft* — enforcement spills and counts overflows but never
    raises — because chaos faults must degrade a run, not change its
    result.  ``skip_matches``/``times`` follow
    :class:`WorkerLossInjector` so seeded schedules can strike random
    fixpoint iterations.
    """

    stage_pattern: str
    fraction: float = 0.5
    skip_matches: int = 0
    times: int = 1
    injected: int = field(default=0, init=False)
    _seen: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"fraction must be in (0, 1], got {self.fraction!r}")
        super().__post_init__()


@dataclass
class CorruptionInjector:
    """Flip one value inside a shuffle bucket of a matching exchange.

    Models an in-flight bit flip / torn frame on the wire: the reduce
    side receives a bucket whose content no longer matches what the map
    side hashed.  The cluster always verifies: it detects the mismatch,
    charges a re-fetch, and delivers the pristine rows, so results stay
    bit-exact.

    The victim bucket/row/column are drawn from a ``seed``-derived RNG,
    never wall-clock entropy, so chaos schedules replay identically.
    ``skip_matches`` counts *exchanges* (each shuffle is one match),
    letting schedules strike random iterations.
    """

    skip_matches: int = 0
    times: int = 1
    seed: int = 0
    injected: int = field(default=0, init=False)
    _seen: int = field(default=0, init=False)
    _armed: bool = field(default=False, init=False)

    def __post_init__(self):
        self._rng = random.Random((self.seed * 2654435761 + 97) % 2**32)

    def matches(self) -> bool:
        """Consult once per exchange; arms the injector for one bucket."""
        if self.injected >= self.times or self._armed:
            return False
        self._seen += 1
        if self._seen <= self.skip_matches:
            return False
        self._armed = True
        return True

    def corrupt(self, rows: list[tuple]) -> list[tuple] | None:
        """Mangle one row of *rows* if armed; returns the corrupted copy."""
        if not self._armed or not rows:
            return None
        self._armed = False
        self.injected += 1
        mangled = list(rows)
        index = self._rng.randrange(len(mangled))
        victim = mangled[index]
        if victim:
            column = self._rng.randrange(len(victim))
            value = victim[column]
            flipped = (value + 1) if isinstance(value, (int, float)) \
                and not isinstance(value, bool) else "§corrupt"
            mangled[index] = victim[:column] + (flipped,) + victim[column + 1:]
        else:
            mangled[index] = ("§corrupt",)
        return mangled


@dataclass
class DriverKillInjector(_StageTrigger):
    """Kill the *driver* when a matching stage is about to start.

    Unlike every other injector, this one is unrecoverable in-process:
    the cluster raises :class:`repro.errors.DriverCrashError` — which is
    deliberately not a :class:`repro.errors.RaSQLError`, so no layer of
    the engine or the serving stack absorbs it.  Chaos harnesses catch
    it at the outermost level and model the restart (WAL replay +
    checkpoint resume).  ``skip_matches``/``times`` follow
    :class:`WorkerLossInjector`.
    """

    stage_pattern: str
    skip_matches: int = 0
    times: int = 1
    injected: int = field(default=0, init=False)
    _seen: int = field(default=0, init=False)


#: Fault kind -> injector class: the first word of a ``--faults`` spec
#: (:func:`parse_fault_spec`) and the key of the list
#: ``Cluster.inject_failures`` arms an injector on (``Cluster.armed``).
INJECTOR_KINDS = {
    "task": FailureInjector,
    "worker-loss": WorkerLossInjector,
    "memory-pressure": MemoryPressureInjector,
    "corruption": CorruptionInjector,
    "driver-kill": DriverKillInjector,
    "process-kill": ProcessKillInjector,
    "process-poison": ProcessPoisonInjector,
}

#: How a spec option's value is read when it is not an int.
_OPTION_TYPES = {
    "point": str, "signal": str, "fraction": float,
    "persistent": lambda value: value.lower() in ("1", "true", "yes"),
}


def injector_kind(injector) -> str:
    """The :data:`INJECTOR_KINDS` key of an injector instance."""
    for kind, injector_class in INJECTOR_KINDS.items():
        if isinstance(injector, injector_class):
            return kind
    names = [c.__name__ for c in INJECTOR_KINDS.values()]
    raise TypeError(
        f"expected a {', '.join(names[:-1])} or {names[-1]}, not "
        f"{type(injector).__name__} (a ChaosSchedule is armed with "
        f"schedule.arm(cluster))")


def parse_fault_spec(spec: str):
    """Parse a CLI ``--faults`` spec into an injector.

    Grammar: ``KIND:PATTERN[:key=value ...]`` with ``KIND`` a key of
    :data:`INJECTOR_KINDS`, ``PATTERN`` the stage regex and the options
    the injector's fields; ``corruption[:key=value ...]`` takes no pattern
    (it strikes exchanges, counted by ``skip_matches``)::

        task:fixpoint:task_index=1:point=after:times=2
        task:fixpoint-map:task_index=any:persistent=true
        worker-loss:fixpoint:worker=auto:at_task=1:skip_matches=3
        memory-pressure:fixpoint:fraction=0.4:skip_matches=1
        process-kill:fixpoint:signal=stop:skip_matches=2
        process-poison:fixpoint:task_index=any
        corruption:skip_matches=2:seed=7

    ``task_index=any`` targets every task of a matching stage;
    ``worker=auto`` picks the victim at fire time.
    """
    kind, *parts = spec.split(":")
    injector_class = INJECTOR_KINDS.get(kind)
    if injector_class is None or not (parts or kind == "corruption"):
        raise ValueError(
            f"bad fault spec {spec!r}: expected KIND:PATTERN[:key=value ...] "
            f"with KIND one of {', '.join(INJECTOR_KINDS)}")
    args = [] if kind == "corruption" else [parts.pop(0)]
    kwargs: dict = {}
    for option in parts:
        key, sep, value = option.partition("=")
        if not sep:
            raise ValueError(f"bad fault option {option!r} in {spec!r} "
                             "(expected key=value)")
        if key in ("task_index", "worker") and value.lower() in (
                "any", "auto", "none", "*"):
            kwargs[key] = None
            continue
        try:
            kwargs[key] = _OPTION_TYPES.get(key, int)(value)
        except ValueError:
            raise ValueError(
                f"bad fault option {option!r} in {spec!r}") from None
    return injector_class(*args, **kwargs)


class RecoveryManager:
    """Retry budget, backoff, and worker blacklisting for one cluster.

    The cluster consults this on every task failure; the manager only
    tracks *policy state* (per-worker failure tallies, the blacklist) —
    the cluster owns execution and cost accounting.
    """

    def __init__(self):
        self.failures_by_worker: dict[int, int] = {}
        self.blacklisted: set[int] = set()

    def record_failure(self, worker: int) -> bool:
        """Attribute one task failure to a worker.

        Returns ``True`` when this failure pushed the worker over the
        blacklist threshold (i.e. it is *newly* blacklisted).
        """
        count = self.failures_by_worker.get(worker, 0) + 1
        self.failures_by_worker[worker] = count
        if worker not in self.blacklisted and count >= BLACKLIST_AFTER:
            self.blacklisted.add(worker)
            return True
        return False

    @staticmethod
    def check_retry_budget(stage: str, task_index: int,
                           failures: int) -> None:
        """Raise when a task has failed more times than the budget allows."""
        if failures > MAX_TASK_RETRIES:
            raise TaskRetryExhaustedError(
                f"task {task_index} of stage {stage!r} failed {failures} "
                f"times, exceeding MAX_TASK_RETRIES={MAX_TASK_RETRIES}",
                stage=stage, task_index=task_index, attempts=failures)

    @staticmethod
    def backoff_seconds(base: float, failures: int) -> float:
        """Exponential retry backoff charged to the simulated clock."""
        return base * (2 ** max(0, failures - 1))
