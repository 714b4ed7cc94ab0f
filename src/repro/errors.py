"""Exception hierarchy for the RaSQL reproduction.

Every error raised by the library derives from :class:`RaSQLError`, so callers
can catch one type at the API boundary.  The sub-classes mirror the stages of
the compilation pipeline described in Section 5 of the paper: parsing,
analysis (reference resolution), planning, and fixpoint execution.
"""

from __future__ import annotations

import copyreg


class RaSQLError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    Pickles by value: sub-classes take extra required ``__init__``
    arguments, which the default ``(type, args)`` reduction cannot
    supply, so an instance is rebuilt from its ``args`` and attribute
    dict without calling ``__init__`` — a worker-raised error reaches the
    driver with its type and fields intact.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ParseError(RaSQLError):
    """Raised when the RaSQL text cannot be tokenized or parsed.

    Carries the offending position so that front-ends can point at the
    character in the query string.
    """

    def __init__(self, message: str, position: int | None = None,
                 line: int | None = None, column: int | None = None):
        self.position = position
        self.line = line
        self.column = column
        location = ""
        if line is not None and column is not None:
            location = f" (line {line}, column {column})"
        super().__init__(message + location)


class AnalysisError(RaSQLError):
    """Raised when a parsed query fails semantic analysis.

    Examples: unknown table or column references, a recursive view whose
    sub-queries disagree on arity, or an aggregate that RaSQL does not
    support inside recursion (``avg`` — see Section 3 of the paper).
    """


class PlanningError(RaSQLError):
    """Raised when a valid logical plan cannot be turned into a physical one."""


class ExecutionError(RaSQLError):
    """Raised when a physical plan fails at run time."""


class FixpointNotReachedError(ExecutionError):
    """Raised when the fixpoint operator exceeds its iteration budget.

    This is the runtime manifestation of a non-terminating query, e.g. the
    stratified SSSP on a cyclic graph discussed around Figure 1 of the paper.
    The partial state is attached so tools (and the Figure 1 benchmark) can
    report how far the evaluation progressed.
    """

    def __init__(self, message: str, iterations: int, partial_result=None):
        self.iterations = iterations
        self.partial_result = partial_result
        super().__init__(message)


class MemoryBudgetExceededError(ExecutionError):
    """Raised when a worker's memory budget cannot be met even by spilling.

    The :class:`repro.engine.memory.MemoryManager` first spills
    least-recently-touched cached partitions to the simulated disk tier;
    this error fires only when the *working set* itself — the segment a
    running task just charged or touched — is larger than the per-worker
    budget, so no amount of spilling can fit it (Spark's executor OOM).
    """

    def __init__(self, message: str, worker: int, requested_bytes: int,
                 budget_bytes: int, resident_bytes: int,
                 spilled_bytes: int = 0):
        self.worker = worker
        self.requested_bytes = requested_bytes
        self.budget_bytes = budget_bytes
        self.resident_bytes = resident_bytes
        self.spilled_bytes = spilled_bytes
        super().__init__(message)


class QueryDeadlineExceededError(ExecutionError):
    """Raised when a query's simulated runtime passes its deadline.

    Checked cooperatively at stage boundaries, like Spark job
    cancellation: the stage that crossed the deadline completes, then
    the query aborts.  ``partial_trace`` carries the span tree recorded
    up to the abort (set by :meth:`repro.RaSQLContext.sql`), so EXPLAIN
    ANALYZE tooling can show how far the query got.
    """

    def __init__(self, message: str, deadline_seconds: float,
                 sim_time: float, stage: str = ""):
        self.deadline_seconds = deadline_seconds
        self.sim_time = sim_time
        self.stage = stage
        #: Span tree of the aborted query (attached at the API boundary).
        self.partial_trace: dict | None = None
        super().__init__(message)


class AdmissionRejectedError(RaSQLError):
    """Raised when the :class:`repro.core.governor.QueryGovernor` refuses
    a query: the concurrency slots (plus waiting room) are full, or the
    query's reserved memory would push total reservations past the
    cluster's budget.  ``retry_after_s`` is the governor's load-shedding
    hint (the ``Retry-After`` header of an HTTP 503): an estimate, from
    the current backlog, of when a resubmission could be admitted."""

    def __init__(self, message: str, label: str = "", reason: str = "",
                 active: int = 0, reserved_bytes: int = 0,
                 retry_after_s: float = 0.0):
        self.label = label
        self.reason = reason
        self.active = active
        self.reserved_bytes = reserved_bytes
        self.retry_after_s = retry_after_s
        super().__init__(message)


class CheckpointError(ExecutionError):
    """Raised when a fixpoint checkpoint cannot be written or used.

    Covers environmental failures (unwritable checkpoint dir) and
    semantic mismatches (resuming against a catalog whose data changed
    since the checkpoint was cut)."""


class CheckpointNotFoundError(CheckpointError):
    """Raised by :meth:`repro.RaSQLContext.resume` when no in-progress
    checkpoint exists for the requested query id — either the query was
    never run with checkpointing enabled, or it already completed and
    its iteration files were garbage-collected."""


class CheckpointCorruptionError(CheckpointError):
    """Raised when a checkpoint blob's content hash does not match its
    header.  Resuming from a torn or bit-flipped checkpoint would
    silently diverge from the clean run, so the loader refuses."""


class WALError(RaSQLError):
    """Raised when the serving write-ahead log cannot be replayed:
    the recovered catalog does not match the bootstrap fingerprint the
    WAL header recorded, or replaying an insert lands on a different
    ``Catalog.data_version`` than the original execution logged."""


class CircuitOpenError(RaSQLError):
    """Raised by the serving circuit breaker when a query shape has
    failed repeatedly and the breaker is shedding that shape's traffic.

    ``retry_after_s`` says when the breaker will let a probe through
    (half-open); resubmitting earlier fails immediately without
    touching the cluster."""

    def __init__(self, message: str, shape: str = "", failures: int = 0,
                 retry_after_s: float = 0.0):
        self.shape = shape
        self.failures = failures
        self.retry_after_s = retry_after_s
        super().__init__(message)


class DriverCrashError(RuntimeError):
    """An injected driver/service death (``DriverKillInjector``).

    Deliberately **not** a :class:`RaSQLError`: the serving layer's
    request loop catches ``RaSQLError`` and turns it into a failed
    future, but a driver crash must take the whole process down —
    nothing inside the service may absorb it.  Chaos harnesses catch it
    at the outermost level and model the restart."""


class FaultInjectionError(RaSQLError):
    """Raised when an injected failure cannot be recovered safely.

    The canonical case: an ``"after"``-point failure hits a task that
    mutates cached state but provides no snapshot/restore hooks — a
    replay would run against half-applied state and silently corrupt the
    result, so the cluster refuses instead of replaying.
    """


class TaskRetryExhaustedError(ExecutionError):
    """Raised when a task keeps failing past the per-task retry budget.

    Mirrors Spark's ``spark.task.maxFailures`` abort: after
    ``faults.MAX_TASK_RETRIES`` failed attempts the stage — and the query — is
    given up rather than retried forever.
    """

    def __init__(self, message: str, stage: str, task_index: int,
                 attempts: int):
        self.stage = stage
        self.task_index = task_index
        self.attempts = attempts
        super().__init__(message)


class NoHealthyWorkersError(ExecutionError):
    """Raised when worker loss would leave the cluster with no live worker."""


class PoisonTaskError(ExecutionError):
    """Raised when a task keeps killing its worker process (process backend).

    A task whose execution crashes the hosting OS worker
    ``process.POISON_THRESHOLD`` times (SIGKILL'd for hanging counts too) is quarantined instead of
    respawn-looping the pool — the Spark/YARN "poison pill" abort.  Like
    :class:`QueryDeadlineExceededError`, ``partial_trace`` carries the span
    tree recorded up to the abort (attached at the API boundary), so the
    crash site is debuggable from EXPLAIN ANALYZE output alone.
    """

    def __init__(self, message: str, stage: str = "", task_index: int = -1,
                 worker_kills: int = 0):
        self.stage = stage
        self.task_index = task_index
        self.worker_kills = worker_kills
        #: Span tree of the aborted query (attached at the API boundary).
        self.partial_trace: dict | None = None
        super().__init__(message)


class InexpressibleQueryError(RaSQLError):
    """Raised by :mod:`repro.compile` when an analyzed plan has no
    standard ``WITH RECURSIVE`` form.

    The two structural causes (Section 3 discussion): mutual recursion —
    a multi-view clique cannot be expressed as a chain of single-table
    recursive CTEs — and aggregate twin forms whose accumulator
    contribution is not homogeneous-linear in the recursive aggregate
    column, so replaying the derivation bag outside the recursion would
    double- or under-count.  ``view`` names the offending recursive view
    and ``reason`` is a stable machine-checkable tag
    (``"mutual-recursion"``, ``"non-linear-accumulator"``,
    ``"non-linear-recursion"``, ...).
    """

    def __init__(self, message: str, view: str = "", reason: str = ""):
        self.view = view
        self.reason = reason
        super().__init__(message)


class PreMViolationError(RaSQLError):
    """Raised by the PreM auto-validation tool when a query fails the check.

    The attached ``iteration`` is the first fixpoint step at which the
    aggregate-pushed evaluation diverged from its un-aggregated twin
    (Appendix G of the paper).
    """

    def __init__(self, message: str, iteration: int):
        self.iteration = iteration
        super().__init__(message)
