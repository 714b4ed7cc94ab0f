"""The differential harness: run an oracle, run a subject, compare.

Section 6.1 claims the cached all-relation partitions make recovery cheap
*and* exact: a failure only replays the current stage, and the replayed
stage recomputes the same deltas.  Every such claim here — recovery, kill
+ resume, real signals against worker processes, spilling, the
generated kernel path vs the interpreted pipeline, a killed and
recovered service — is checked one way:
:func:`run_differential` runs the query on a fresh *oracle* context and on
a fresh *subject* one (another config or backend, and/or fault injectors),
and one :class:`DifferentialReport` says whether rows, iteration count and
convergence verdict agree, what fired, what the subject's counters
recorded, and what the contexts left behind.  A new axis is a new
``subject=`` / ``faults=`` argument, not a new driver.

Everything is seeded, so a failing ``(query, seed)`` pair reproduces
exactly.  The CLI exposes the harness as ``python -m repro --chaos SEED``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.checkpoint import make_query_id
from repro.core.config import DEFAULT_CHECKPOINT_INTERVAL, DEFAULT_CONFIG
from repro.engine.faults import (
    CorruptionInjector,
    DriverKillInjector,
    FailureInjector,
    MemoryPressureInjector,
    ProcessKillInjector,
    WorkerLossInjector,
    injector_kind,
)
from repro.engine.memory import MemoryConfig
from repro.errors import DriverCrashError, RaSQLError


def _describe(fault) -> str:
    if isinstance(fault, dict):  # a worker-side directive (poison / hang)
        return f"worker-{fault['kind']}[{fault['stage']}]"
    options = " ".join(f"{f.name}={getattr(fault, f.name)}"
                       for f in dataclasses.fields(fault)
                       if f.init and getattr(fault, f.name) != f.default)
    return f"{injector_kind(fault)}[{options}]"


@dataclass
class ChaosSchedule:
    """A reproducible set of fault injectors derived from one seed."""

    seed: int
    injectors: list = field(default_factory=list)

    def arm(self, cluster) -> None:
        """Install every injector on a cluster."""
        for injector in self.injectors:
            cluster.inject_failures(injector)

    def fired(self) -> Counter:
        """Strikes that landed so far, per fault kind
        (:data:`repro.engine.faults.INJECTOR_KINDS`)."""
        counts: Counter = Counter()
        for injector in self.injectors:
            counts[injector_kind(injector)] += injector.injected
        return counts

    def describe(self) -> str:
        return f"seed={self.seed}: " + (
            "; ".join(map(_describe, self.injectors)) or "no faults")


def make_schedule(seed: int, num_workers: int = 4,
                  num_partitions: int | None = None,
                  task_deaths: int = 2, worker_losses: int = 1,
                  memory_pressure: int = 1,
                  stage_pattern: str = "fixpoint") -> ChaosSchedule:
    """Derive a deterministic fault schedule from a seed.

    Task deaths pick a random partition/point per injector; worker losses
    pick a random strike position and skip a random number of matching
    stages first, so across seeds the faults land in different fixpoint
    iterations — early, mid-merge, and near convergence.  Memory-pressure
    injectors shrink the per-worker budget to a random fraction of peak
    usage mid-run (soft enforcement: spills, never aborts), exercising
    the spill tier alongside the crash faults.
    """
    rng = random.Random(seed)
    n = num_partitions or num_workers
    deaths = [FailureInjector(stage_pattern, task_index=rng.randrange(n),
                              times=1, point=rng.choice(("before", "after")))
              for _ in range(task_deaths)]
    losses = [WorkerLossInjector(stage_pattern, worker=None,
                                 at_task=rng.randrange(n),
                                 skip_matches=rng.randrange(3), times=1)
              for _ in range(worker_losses)]
    squeezes = [MemoryPressureInjector(stage_pattern,
                                       fraction=rng.uniform(0.3, 0.7),
                                       skip_matches=rng.randrange(3), times=1)
                for _ in range(memory_pressure)]
    return ChaosSchedule(seed=seed, injectors=deaths + losses + squeezes)


def make_real_kill_schedule(seed: int, kills: int = 1,
                            stage_pattern: str = "fixpoint"
                            ) -> list[ProcessKillInjector]:
    """Seeded :class:`ProcessKillInjector` list: random signal (SIGKILL
    or SIGSTOP) and a random number of matching stages skipped first, so
    across seeds the strikes land in different fixpoint iterations."""
    rng = random.Random(seed)
    return [ProcessKillInjector(stage_pattern,
                                signal=rng.choice(("kill", "stop")),
                                skip_matches=rng.randrange(4),
                                times=1)
            for _ in range(kills)]


def driver_kill(seed: int) -> Callable[[object], list[DriverKillInjector]]:
    """``faults=`` of a kill-resume differential: one driver kill whose
    strike position is drawn from ``seed`` using the *oracle's* iteration
    count (at least one matching stage per iteration), so across seeds it
    lands early, mid-run and near convergence — and sometimes past the
    end, exercising the query-completed-anyway path."""
    rng = random.Random(seed)
    return lambda oracle_run: [DriverKillInjector(
        "fixpoint",
        skip_matches=rng.randrange(max(1, oracle_run.iterations + 2)))]


def sorted_rows(rows) -> list[tuple]:
    """A relation's (or a row list's) rows in a canonical order; the
    repr-keyed sort tolerates mixed-type columns (ints vs strings)."""
    return sorted(getattr(rows, "rows", rows), key=repr)


def converged(run) -> bool:
    """Did every clique's delta history drain to zero?"""
    return all(history[-1] == 0
               for history in run.delta_history.values() if history)


@dataclass
class DifferentialReport:
    """Outcome of one oracle-vs-subject comparison."""

    #: Canonically ordered result rows of each side (a service
    #: differential: ``(request id, answer)`` per compared request);
    #: the subject's are ``None`` when its query raised ``error``.
    oracle_rows: list
    subject_rows: list | None
    #: Each side's ``RunInfo`` (the subject's is the resumed run when a
    #: kill fired); ``None`` for a service differential.
    oracle_run: object = None
    subject_run: object = None
    #: The faults armed on the subject.
    faults: list = field(default_factory=list)
    #: A driver kill fired (and, under ``resume=True``, was resumed).
    killed: bool = False
    error: RaSQLError | None = None
    #: What the contexts left behind (see :func:`_leaks`).
    leaks: list[str] = field(default_factory=list)
    #: Axis-specific extras (the service differential's phase counts).
    details: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        """Same rows, same iteration count, same convergence verdict —
        and nothing leaked."""
        if self.subject_rows != self.oracle_rows or self.leaks:
            return False
        a, b = self.oracle_run, self.subject_run
        return a is None or (a.iterations == b.iterations
                             and converged(a) == converged(b))

    @property
    def fired(self) -> int:
        """Strikes of the armed injectors that landed."""
        return sum(getattr(fault, "injected", 0) for fault in self.faults)

    @property
    def counters(self) -> dict[str, float]:
        """The subject run's counters (absent reads as 0)."""
        return defaultdict(float, self.subject_run.metrics)

    @property
    def trace(self) -> dict | None:
        """The subject run's span tree, for EXPLAIN ANALYZE rendering."""
        return self.subject_run.trace

    def summary(self) -> str:
        faults = "; ".join(map(_describe, self.faults)) or "no faults"
        got = (type(self.error).__name__ if self.error
               else f"{len(self.subject_rows)} rows")
        text = (f"differential[{faults}] -> "
                f"{'EXACT' if self.exact else 'MISMATCH'}: {got} (oracle "
                f"{len(self.oracle_rows)}); fired={self.fired} "
                f"killed={self.killed}")
        if self.subject_run is not None:
            a, b, count = self.oracle_run, self.subject_run, self.counters
            text += (
                f" from_iter={b.resumed_from}; iter {b.iterations} (oracle "
                f"{a.iterations}); sim {a.sim_time:.4f}s -> {b.sim_time:.4f}s;"
                + "".join(f" {name}={count[name]:.0f}" for name in (
                    "task_failures", "workers_lost", "task_attempts",
                    "process_worker_crashes", "process_worker_reaps",
                    "process_worker_respawns") if count[name]))
        text += "".join(f" {k}={v}" for k, v in self.details.items())
        return text + ("; LEAKED: " + "; ".join(self.leaks)
                       if self.leaks else "")


def _leaks(contexts: Sequence, dead: Sequence = (),
           checkpoint_dirs: Sequence[str] = (),
           completed: bool = True) -> list[str]:
    """What the closed ``contexts`` left behind: open attribution windows,
    kept tracer roots, held governor tickets (a ``dead`` context models a
    crashed driver, whose tickets died with it), live child processes,
    and checkpoint files — a ``.tmp`` always, a blob once its query
    ``completed``.  (The spill tier is simulated and owns no files.)"""
    leaks = []
    for index, ctx in enumerate(contexts):
        governor = ctx.governor.report()
        for what, left in (
                ("open attribution windows", ctx.metrics.windows),
                ("tracer roots", ctx.cluster.tracer.roots),
                ("governor tickets", ctx not in dead and (
                    governor["active"] or governor["waiting"]
                    or governor["reserved_bytes"]))):
            if left:
                leaks.append(f"context {index}: {what}: {left}")
    for directory in checkpoint_dirs:
        for root, _, files in os.walk(directory):
            leaks.extend(
                f"checkpoint file {os.path.join(root, name)}" for name in files
                if name.endswith((".tmp", ".ckpt") if completed else ".tmp"))
    leaks.extend(f"child process {child.name}"
                 for child in multiprocessing.active_children())
    return leaks


def squeezed(ctx) -> dict:
    """``subject=`` of a spill differential: a hard per-worker budget that
    makes the query the (oracle) ``ctx`` just ran spill when run again —
    above its largest single segment (so the budget cannot abort) but at
    60% of its peak resident set."""
    memory = ctx.cluster.memory
    peak = max(memory.high_water_bytes(worker)
               for worker in range(ctx.cluster.num_workers))
    return {"memory_config": MemoryConfig(worker_budget_bytes=max(
        memory.max_segment_bytes() + 1, int(0.6 * peak)))}


def checkpoint_sides(directory: str, interval: int | None = None) -> dict:
    """``oracle=`` / ``subject=`` of a kill-resume differential: both
    sides checkpoint (same config, so plan choices are identical) into
    sibling directories under ``directory``."""
    return {side: {"config": DEFAULT_CONFIG.but(
        checkpoint_interval=interval or DEFAULT_CHECKPOINT_INTERVAL,
        checkpoint_dir=os.path.join(directory, side))}
        for side in ("oracle", "subject")}


def run_differential(query: str, make_context: Callable[..., object], *,
                     oracle: dict | None = None,
                     subject: dict | Callable[[object], dict] | None = None,
                     faults=(), resume: bool = False) -> DifferentialReport:
    """Run ``query`` on an oracle and on a subject; compare bit-exactly.

    ``make_context(**side)`` must return a *fresh*
    :class:`repro.RaSQLContext` (tables registered, deterministic data)
    each call — runs sharing cluster state compare nothing — whose
    ``config`` the query runs under.  ``oracle`` / ``subject`` are the
    keywords of the two calls: whatever differs between the sides
    (``config=``, ``memory_config=``, ...; default: nothing).  ``subject``
    may be a function of the finished oracle context (:func:`squeezed`).

    ``faults`` are armed on the subject only: injectors, worker-side
    directive dicts (``ProcessClusterBackend.add_chaos``), or a function
    of the oracle's ``RunInfo`` returning them (:func:`driver_kill`).

    ``resume=True`` is the one control-flow difference: a
    :class:`DriverCrashError` out of the subject is the modelled crash,
    and the query continues on another fresh subject context via
    :meth:`repro.RaSQLContext.resume`.  A typed :class:`RaSQLError` lands
    on ``report.error``.  Every context is closed (the process pool torn
    down) on every path, then checked for leaks.
    """
    contexts, dead = [], []

    def fresh(side):
        contexts.append(make_context(**(side or {})))
        return contexts[-1]

    killed, error, actual = False, None, None
    try:
        oracle_ctx = fresh(oracle)
        expected = oracle_ctx.sql(query)
        if callable(subject):
            subject = subject(oracle_ctx)
        if callable(faults):
            faults = faults(oracle_ctx.last_run)
        faults = list(faults)
        ctx = fresh(subject)
        directives = [f for f in faults if isinstance(f, dict)]
        ctx.inject_faults(*(f for f in faults if not isinstance(f, dict)))
        if directives:
            ctx.cluster.backend.add_chaos(directives)
        try:
            actual = ctx.sql(query)
        except DriverCrashError:
            if not resume:
                raise
            killed = True
            dead.append(ctx)
            ctx = fresh(subject)
            actual = ctx.resume(make_query_id(query))
        except RaSQLError as exc:
            error = exc
    finally:
        for context in contexts:
            context.close()
    return DifferentialReport(
        oracle_rows=sorted_rows(expected),
        subject_rows=None if error else sorted_rows(actual),
        oracle_run=oracle_ctx.last_run, subject_run=ctx.last_run,
        faults=faults, killed=killed, error=error,
        leaks=_leaks(contexts, dead,
                     {c.config.checkpoint_dir for c in contexts} - {None},
                     completed=error is None))


def future_answer(future):
    """A finished future's comparable answer: sorted rows, an insert's
    appended-row count, or the name of the error it failed with."""
    if not future.ok:
        return type(future.error).__name__
    value = future.value
    return value if future.kind == "insert" else sorted_rows(value)


def serial_replay(ctx, ops: dict[int, tuple], execution_order: Sequence[int],
                  views: dict[str, str]) -> dict[int, object]:
    """The serial witness of a service run: replay its recorded
    ``execution_order`` one request at a time on the fresh ``ctx`` — plain
    ``ctx.sql`` (a view read re-runs the view's statement from ``views``),
    ``catalog.append_rows`` for inserts; no service, no caches, no
    incremental maintenance.  ``ops`` maps request ids to
    :mod:`repro.serving.workload` op tuples; returns ``{request id:
    answer}`` in :func:`future_answer`'s form."""
    answers: dict[int, object] = {}
    for request_id in execution_order:
        _, kind, payload = ops[request_id]
        if kind == "insert":
            answers[request_id] = ctx.catalog.append_rows(*payload)
        else:
            answers[request_id] = sorted_rows(
                ctx.sql(payload if kind == "sql" else views[payload]))
    return answers


def run_service_differential(make_context: Callable[..., object],
                             ops: Sequence[tuple], *,
                             views: dict[str, str],
                             wal_path: str, checkpoint_dir: str,
                             oracle: dict | None = None,
                             subject: dict | None = None,
                             seed: int = 0, kill_after_requests: int = 2,
                             corruptions: int = 0) -> DifferentialReport:
    """Kill a live :class:`repro.serving.QueryService` under load; verify.

    ``ops`` are :func:`repro.serving.workload.generate_ops` tuples;
    ``views`` maps each served view they read to its statement; the
    killed and the recovered service run on ``make_context(**subject)``,
    the serial witness on ``make_context(**oracle)``.  Phase 1
    boots a WAL-logged service, creates the views, submits the whole
    stream (op *i* is request id ``i + 1``), steps ``kill_after_requests``
    requests, then arms a seeded :class:`DriverKillInjector` and drains
    until the driver dies (or the backlog ends — some seeds survive; the
    differential must still match).  Phase 2 recovers a fresh service
    from the WAL on a bootstrap-state context and drains the re-admitted
    backlog.  Phase 3 is :func:`serial_replay` of the recovered service's
    ``execution_order``; every post-recovery answer is diffed against it.
    """
    from repro.serving import QueryService
    from repro.serving.workload import submit_op

    contexts = [make_context(**side or {})
                for side in (subject, subject, oracle)]
    ctx, recovered_ctx, serial_ctx = contexts
    services: list = []
    killed = False
    try:
        service = QueryService(ctx, scheduler="seeded", seed=seed,
                               wal_path=wal_path)
        services.append(service)
        for name, sql in views.items():
            service.create_view(name, sql)
        rng = random.Random(seed)
        sql_config = ctx.config.but(
            checkpoint_interval=3, checkpoint_dir=checkpoint_dir)
        for op in ops:
            submit_op(service, op, config=sql_config)
        faults = [CorruptionInjector(skip_matches=rng.randrange(4),
                                     seed=seed * 31 + index)
                  for index in range(corruptions)]
        ctx.inject_faults(*faults)
        try:
            for _ in range(kill_after_requests):
                service.step()
            # Arm the kill only now: the view DDL and warm-up requests run
            # unharmed, so the crash lands mid-backlog.
            faults.append(DriverKillInjector(
                "fixpoint", skip_matches=rng.randrange(6)))
            ctx.inject_faults(faults[-1])
            service.drain()
        except DriverCrashError:
            killed = True
        recovered = QueryService.recover(recovered_ctx, wal_path)
        services.append(recovered)
        recovered.drain()
        expected = serial_replay(
            serial_ctx, dict(enumerate(ops, start=1)),
            recovered.execution_order, views)
    finally:
        for service in services:
            service.wal.close()
        for context in contexts:
            context.close()
    # A pre-crash completion's result died with the driver: only what the
    # recovered service answered is compared.
    answered = {future.request_id: future_answer(future)
                for future in recovered.completed}
    compared = [rid for rid in recovered.execution_order if rid in answered]
    return DifferentialReport(
        oracle_rows=[(rid, expected[rid]) for rid in compared],
        subject_rows=[(rid, answered[rid]) for rid in compared],
        faults=faults, killed=killed,
        leaks=_leaks(contexts, [ctx] if killed else (), [checkpoint_dir]),
        details={"compared": len(compared),
                 "readmitted": len(recovered.recovered_futures),
                 "corruption_detected": int(sum(
                     c.metrics.get("shuffle_corruption_detected")
                     for c in (ctx, recovered_ctx))),
                 "stale_checkpoints": int(recovered_ctx.metrics.get(
                     "serving_checkpoint_stale"))})
