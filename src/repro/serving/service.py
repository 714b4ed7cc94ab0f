"""The multi-tenant query service: many in-flight requests, one cluster.

:class:`QueryService` turns a :class:`repro.core.context.RaSQLContext`
into a served endpoint.  Clients (named :class:`~repro.serving.session.
Session` objects) *submit* work — SQL statements, reads of served
incremental views, base-table inserts — and get a :class:`QueryFuture`
back immediately; a cooperative driver later executes the backlog and
resolves the futures.

Scheduling model
----------------

Real Spark SQL servers (the Thrift server, Livy) multiplex sessions over
one SparkContext with a fair/FIFO scheduler.  Here the cluster is
*simulated* — one global clock, one metrics registry — so a preemptive
thread pool would race on shared simulated state and destroy the
bit-exact determinism every differential suite in this repo relies on.
The driver is therefore **cooperative**: requests interleave at request
granularity, and the interleaving is chosen by a seeded scheduler, so

- ``scheduler="fifo"`` replays submissions in order;
- ``scheduler="seeded"`` picks uniformly (``random.Random(seed)``) among
  the *dispatchable* requests, modeling concurrent clients racing to
  the driver — deterministically reproducible from the seed.

Admission is decoupled from execution: the governor ticket is acquired
at **submit** time (so a burst fills slots, queues FIFO, and rejects
beyond capacity exactly as :class:`repro.core.governor.QueryGovernor`
specifies), but a request only becomes dispatchable once its ticket
holds a slot (``ticket.waiting`` is ``False`` — promotions happen as
earlier requests release).  Tickets are released on *every* completion
path: success, analysis errors, deadline aborts, memory overflows.

Caching
-------

SQL statements pass through the shared :class:`~repro.serving.cache.
PlanCache` (normalized text + catalog schema epoch) and
:class:`~repro.serving.cache.ResultCache` (… + the data epochs of the
tables the statement names + config); served views memoize their final
SELECT between inserts.  An insert submitted through the service is one
``Catalog.append_rows`` and nothing else: the grown epoch retires the
result-cache entries that could have read the table, by key, and the
context's cached base sides absorb the rows at their next lookup — a
served view's among them, at its next read.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.checkpoint import CheckpointStore, make_query_id
from repro.core.config import ExecutionConfig
from repro.core.context import _query_label
from repro.core.streaming import IncrementalView
from repro.engine.serialization import rows_size
from repro.errors import (
    AdmissionRejectedError,
    AnalysisError,
    CheckpointError,
    CircuitOpenError,
    RaSQLError,
    WALError,
)
from repro.relation import Relation
from repro.serving.cache import PlanCache, ResultCache, normalize_sql
from repro.serving.resilience import CircuitBreaker, RetryPolicy
from repro.serving.session import Session
from repro.serving.views import ServedView
from repro.serving.wal import WriteAheadLog

#: How many finished futures (each with its result relation) and
#: execution-order ids a service keeps — the recent past, which is what
#: the interleaving differentials and the post-recovery replay read; the
#: total is counted, so a service does not grow with what it answered.
COMPLETED_WINDOW = 256

#: Simulated seconds the front end charges per executed request (parse,
#: dispatch, reply), under the ``serving-overhead`` label.
SERVICE_OVERHEAD_S = 0.0005

@dataclass
class QueryFuture:
    """Handle to one submitted request; resolved by the driver.

    ``submitted_at`` / ``finished_at`` are simulated-clock readings, so
    :attr:`latency_s` is deterministic end-to-end simulated latency —
    admission queue charge included (the clock advances under the
    ``admission-wait`` label during submit for queued tickets).
    """

    request_id: int
    session: str
    kind: str  # "sql" | "view_read" | "insert"
    label: str
    submitted_at: float
    started_at: float | None = None
    finished_at: float | None = None
    value: object | None = None
    error: Exception | None = None
    done: bool = False
    #: Where the answer came from: "executed", "result_cache",
    #: "view_snapshot", "view_evaluated", "applied", "rejected", or
    #: "resumed" (continued from a durable checkpoint after recovery).
    source: str | None = None
    queued: bool = False

    def result(self):
        """The request's value; re-raises its error; refuses if pending."""
        if not self.done:
            raise RuntimeError(
                f"request #{self.request_id} ({self.label!r}) is still "
                f"pending — drain() or step() the service first")
        if self.error is not None:
            raise self.error
        return self.value

    @property
    def ok(self) -> bool:
        return self.done and self.error is None

    @property
    def latency_s(self) -> float:
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at


@dataclass
class _Request:
    future: QueryFuture
    session: Session
    ticket: object  # AdmissionTicket
    sql: str | None = None
    config: object | None = None
    view_name: str | None = None
    table: str | None = None
    rows: list = field(default_factory=list)
    #: WAL recovery found this request in flight with checkpointing on:
    #: try to continue its fixpoint from the durable checkpoint.
    resume_checkpoint: bool = False
    #: Transient-failure re-executions consumed so far (RetryPolicy).
    retries: int = 0
    #: ``(catalog.version, catalog.tables_named(sql))`` at submission:
    #: admission's estimate and the result key read one scan of the text.
    named: tuple | None = None


class QueryService:
    """A served, cached, admission-controlled front end to one context."""

    def __init__(self, ctx, scheduler: str = "seeded", seed: int = 0,
                 wal_path: str | None = None):
        if scheduler not in ("fifo", "seeded"):
            raise ValueError(
                f"scheduler must be 'fifo' or 'seeded', got {scheduler!r}")
        self.ctx = ctx
        self.scheduler = scheduler
        self.seed = seed
        self.metrics = ctx.metrics
        self.plan_cache = PlanCache(metrics=self.metrics)
        self.result_cache = ResultCache(metrics=self.metrics)
        self._rng = random.Random(seed)
        self._sessions: dict[str, Session] = {}
        self._views: dict[str, ServedView] = {}
        self._pending: list[_Request] = []
        #: The last :data:`COMPLETED_WINDOW` finished futures, and how
        #: many ever finished.
        self.completed: list[QueryFuture] = []
        self.completed_total = 0
        self._next_request_id = 1
        #: Execution order of the completed requests still in the window
        #: (request ids), which the interleaving differential replays.
        self.execution_order: list[int] = []
        # Seeded, decorrelated from the scheduler draw — never
        # wall-clock entropy (replay-twice-identical contract).
        self.retry_policy = RetryPolicy(
            random.Random((seed * 2654435761 + 73) % 2**32))
        self.breaker = CircuitBreaker()
        #: Futures rebuilt by :meth:`recover` for in-flight WAL entries,
        #: keyed by their original request id.
        self.recovered_futures: dict[int, QueryFuture] = {}
        self._replaying = False
        self.wal = WriteAheadLog(wal_path) if wal_path else None
        if self.wal is not None and self.wal.seq == 0:
            # Fresh log: stamp the bootstrap epoch.  Recovery refuses a
            # catalog whose data_version differs (completed inserts are
            # re-applied from the log on top of the bootstrap state).
            self.wal.append({"type": "header", "seed": seed,
                             "scheduler": scheduler,
                             "data_version": ctx.catalog.data_version})

    def _log(self, rec: dict) -> None:
        if self.wal is not None and not self._replaying:
            self.wal.append(rec)

    # ------------------------------------------------------------------
    # sessions and views
    # ------------------------------------------------------------------

    def session(self, name: str) -> Session:
        """The named session, created on first use."""
        if name not in self._sessions:
            self._sessions[name] = Session(self, name)
        return self._sessions[name]

    def create_view(self, name: str, sql: str) -> ServedView:
        """Materialize a served incremental view under ``name``.

        DDL runs synchronously (the initial fixpoint executes now), under
        a governor ticket so its memory reservation is accounted like any
        query's.
        """
        key = name.lower()
        if key in self._views:
            raise AnalysisError(f"view {name!r} is already served")
        ticket = self.ctx.governor.admit(
            f"create view {name}", self.ctx._estimate_query_bytes(sql))
        try:
            view = IncrementalView(self.ctx, sql)
        finally:
            self.ctx.governor.release(ticket)
        served = ServedView(name, view)
        self._views[key] = served
        self.metrics.inc("serving_views_created")
        self._log({"type": "create_view", "name": name, "sql": sql})
        return served

    def view(self, name: str) -> ServedView:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise AnalysisError(
                f"no served view {name!r} (serving: "
                f"{sorted(v.name for v in self._views.values())})") from None

    # ------------------------------------------------------------------
    # submission (tickets acquired here)
    # ------------------------------------------------------------------

    def submit(self, session: Session, sql: str, config=None) -> QueryFuture:
        """Submit a SQL statement; returns immediately with a future."""
        future = self._new_future(session, "sql", _query_label(sql))
        session.counters.inc("sql_queries")
        # Intent is durable *before* admission: a rejected request still
        # leaves a (submit, complete) pair, an admitted one that dies
        # mid-flight leaves submit-without-complete for re-admission.
        self._log({"type": "submit", "request_id": future.request_id,
                   "session": session.name, "kind": "sql",
                   "label": future.label, "sql": sql,
                   "config": (dataclasses.asdict(config)
                              if config is not None else None)})
        catalog = self.ctx.catalog
        named = (catalog.version, catalog.tables_named(sql))
        estimate = self.ctx._estimate_query_bytes(sql, named[1])
        request = self._admit(future, session, estimate)
        if request is not None:
            request.sql = sql
            request.config = config
            request.named = named
        return future

    def submit_view_read(self, session: Session,
                         view_name: str) -> QueryFuture:
        """Submit a read of a served view (cheap: state is resident)."""
        served = self.view(view_name)  # raises for unknown views
        future = self._new_future(session, "view_read",
                                  f"read view {served.name}")
        session.counters.inc("view_reads")
        self._log({"type": "submit", "request_id": future.request_id,
                   "session": session.name, "kind": "view_read",
                   "label": future.label, "view_name": served.name})
        request = self._admit(future, session, estimated_bytes=0)
        if request is not None:
            request.view_name = served.name
        return future

    def submit_insert(self, session: Session, table: str,
                      rows: Iterable[Sequence]) -> QueryFuture:
        """Submit a base-table insert (served views over the table catch
        up with it at their next read)."""
        rows = [tuple(r) for r in rows]
        future = self._new_future(session, "insert",
                                  f"insert {len(rows)} rows into {table}")
        session.counters.inc("inserts")
        self._log({"type": "submit", "request_id": future.request_id,
                   "session": session.name, "kind": "insert",
                   "label": future.label, "table": table,
                   "rows": [list(r) for r in rows]})
        request = self._admit(future, session, rows_size(rows))
        if request is not None:
            request.table = table
            request.rows = rows
        return future

    def _new_future(self, session: Session, kind: str,
                    label: str) -> QueryFuture:
        future = QueryFuture(request_id=self._next_request_id,
                             session=session.name, kind=kind, label=label,
                             submitted_at=self.metrics.sim_time)
        self._next_request_id += 1
        session.counters.inc("submitted")
        self.metrics.inc("serving_requests")
        return future

    def _admit(self, future: QueryFuture, session: Session,
               estimated_bytes: int) -> _Request | None:
        """Acquire the governor ticket; on rejection fail the future now."""
        try:
            ticket = self.ctx.governor.admit(
                f"{session.name}: {future.label}", estimated_bytes)
        except AdmissionRejectedError as exc:
            session.counters.inc("rejected")
            self.metrics.inc("serving_rejected")
            self._finish(future, session, error=exc, source="rejected")
            return None
        future.queued = ticket.queued
        request = _Request(future=future, session=session, ticket=ticket)
        self._pending.append(request)
        return request

    # ------------------------------------------------------------------
    # the cooperative driver
    # ------------------------------------------------------------------

    def step(self) -> QueryFuture | None:
        """Execute one dispatchable request; ``None`` when idle.

        Only requests whose tickets hold admission slots are eligible
        (queued tickets become eligible when promotion flips them off
        ``waiting``); among those the configured scheduler picks next.
        """
        ready = [r for r in self._pending if not r.ticket.waiting]
        if not ready:
            if self._pending:
                raise RuntimeError(
                    "serving backlog is stuck: every pending ticket is "
                    "still queued (governor promotion failed to run?)")
            return None
        if self.scheduler == "fifo":
            request = ready[0]
        else:
            request = self._rng.choice(ready)
        self._pending.remove(request)
        return self._execute(request)

    def drain(self) -> list[QueryFuture]:
        """Run the backlog to empty; returns the futures in finish order."""
        finished = []
        while True:
            future = self.step()
            if future is None:
                return finished
            finished.append(future)

    # ------------------------------------------------------------------
    # execution paths (tickets released here, on every path)
    # ------------------------------------------------------------------

    def _execute(self, request: _Request) -> QueryFuture:
        future = request.future
        future.started_at = self.metrics.sim_time
        self.metrics.advance(SERVICE_OVERHEAD_S, label="serving-overhead")
        self.execution_order.append(future.request_id)
        del self.execution_order[:-COMPLETED_WINDOW]
        try:
            while True:
                try:
                    if future.kind == "sql":
                        value, source = self._run_sql_request(request)
                    elif future.kind == "view_read":
                        value, source = self._run_view_read(request)
                    else:
                        value, source = self._run_insert(request)
                except RaSQLError as exc:
                    if (future.kind == "sql"
                            and self.retry_policy.should_retry(
                                exc, request.retries)):
                        # Transient infrastructure failure: hold the
                        # ticket, back off (seeded jitter), re-execute.
                        backoff = self.retry_policy.backoff_s(
                            request.retries)
                        request.retries += 1
                        self.metrics.inc("serving_retries")
                        request.session.counters.inc("retries")
                        if backoff > 0:
                            self.metrics.advance(backoff,
                                                 label="retry-backoff")
                        continue
                    # The original typed error reaches the future intact
                    # — payloads (partial_trace, requested_bytes,
                    # retry_after_s) are part of the API contract.
                    self._finish(future, request.session, error=exc,
                                 source="error")
                else:
                    self._finish(future, request.session, value=value,
                                 source=source)
                return future
        finally:
            # The one place tickets die: success, analysis errors,
            # deadline aborts, memory overflows all pass through here.
            # (A DriverCrashError skips it by design — the process is
            # dead; recovery re-admits from the WAL.)
            self.ctx.governor.release(request.ticket)

    def _run_sql_request(self, request: _Request) -> tuple[Relation, str]:
        # Normalized once: the breaker's shape and both cache keys.
        text = normalize_sql(request.sql)
        try:
            self.breaker.check(text, self.metrics.sim_time)
        except CircuitOpenError:
            self.metrics.inc("serving_circuit_shed")
            request.session.counters.inc("circuit_shed")
            raise
        try:
            value, source = self._run_sql_inner(request, text)
        except RaSQLError:
            self.breaker.record_failure(text, self.metrics.sim_time)
            raise
        self.breaker.record_success(text)
        return value, source

    def _run_sql_inner(self, request: _Request,
                       text: str) -> tuple[Relation, str]:
        session, sql = request.session, request.sql
        config = request.config or self.ctx.config
        catalog = self.ctx.catalog
        # Normalizing collapses whitespace only, so the submitted text
        # names the same tables — while the schema it was scanned under
        # holds.
        names = (request.named[1] if request.named is not None
                 and request.named[0] == catalog.version else None)
        result_key = self.result_cache.normalized_key(text, catalog, config,
                                                      names)
        found, cached = self.result_cache.lookup(result_key)
        if found:
            session.counters.inc("result_cache_hits")
            return cached, "result_cache"

        ticket = request.ticket
        admission = {"queued": ticket.queued, "wait_s": ticket.wait_s,
                     "reserved_bytes": ticket.reserved_bytes,
                     "session": session.name}

        if request.resume_checkpoint and config.checkpointing:
            request.resume_checkpoint = False
            qid = make_query_id(sql)
            if CheckpointStore(config.checkpoint_dir).has_resumable(qid):
                try:
                    result = self.ctx.resume_admitted(
                        qid, config, label=request.future.label,
                        admission=admission)
                except CheckpointError:
                    # Unusable — typically cut over data a re-admitted
                    # insert, scheduled first, has since changed.  The
                    # request is not lost to it: the plain re-execution
                    # below supersedes the manifest and collects the blob.
                    self.metrics.inc("serving_checkpoint_stale")
                else:
                    self.metrics.inc("serving_checkpoint_resumes")
                    self.result_cache.store(result_key, result)
                    return result, "resumed"
            # (Or crashed before its first checkpoint.)

        plan_key = self.plan_cache.normalized_key(text, catalog, config)
        plan_found, analyzed = self.plan_cache.lookup(plan_key)
        if plan_found:
            session.counters.inc("plan_cache_hits")
        else:
            analyzed = self.ctx.analyze_query(sql, config)
            self.plan_cache.store(plan_key, analyzed)

        result = self.ctx.execute_admitted(
            sql, config, label=request.future.label, analyzed=analyzed,
            admission=admission)
        self.result_cache.store(result_key, result)
        return result, "executed"

    def _run_view_read(self, request: _Request) -> tuple[Relation, str]:
        served = self.view(request.view_name)
        hits_before = served.snapshot_hits
        relation = served.read()
        self.metrics.inc("serving_view_reads")
        if served.snapshot_hits > hits_before:
            self.metrics.inc("serving_view_snapshot_hits")
            request.session.counters.inc("view_snapshot_hits")
            return relation, "view_snapshot"
        return relation, "view_evaluated"

    def _run_insert(self, request: _Request) -> tuple[int, str]:
        # The whole insert: what is derived from the table — served views
        # included — catches up with the grown epoch when next read.
        appended = self.ctx.catalog.append_rows(request.table, request.rows)
        self.metrics.inc("serving_inserts")
        self.metrics.inc("serving_rows_inserted", appended)
        return appended, "applied"

    def _finish(self, future: QueryFuture, session: Session, value=None,
                error=None, source=None) -> None:
        future.value = value
        future.error = error
        future.source = source
        future.finished_at = self.metrics.sim_time
        future.done = True
        self.completed.append(future)
        del self.completed[:-COMPLETED_WINDOW]
        self.completed_total += 1
        session.counters.inc("failed" if error is not None else "completed")
        session.counters.inc("latency_s", future.latency_s)
        self._log({"type": "complete", "request_id": future.request_id,
                   "ok": error is None, "source": source,
                   "error": type(error).__name__ if error else None,
                   "data_version": self.ctx.catalog.data_version})

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, ctx, wal_path: str, **kwargs) -> "QueryService":
        """Rebuild a crashed service from its write-ahead log.

        ``ctx`` must hold the *bootstrap* catalog — the base tables as
        they were when the dead service was constructed (its WAL header
        pinned that ``data_version``); every visible change since then
        came through the service and is replayed from the log: served
        views are re-created, completed inserts re-applied in their
        original completion order (each checked against the
        ``data_version`` it originally landed on), ``execution_order``
        is pre-filled with the completed prefix, and submitted-but-
        unfinished requests are re-admitted with their original request
        ids (checkpointed SQL queries resume their fixpoint from the
        last durable iteration).  ``drain()`` the returned service to
        run the re-admitted backlog; :attr:`recovered_futures` maps the
        original request ids to the new futures.
        """
        records, truncated = WriteAheadLog.read(wal_path)
        if not records or records[0].get("type") != "header":
            raise WALError(
                f"WAL {wal_path!r} has no header record — not a service "
                f"log, or its first line was lost")
        header = records[0]
        if ctx.catalog.data_version != header["data_version"]:
            raise WALError(
                f"recovered catalog is at data_version "
                f"{ctx.catalog.data_version} but the WAL was bootstrapped "
                f"at {header['data_version']}; restore the base tables to "
                f"their bootstrap state first — completed inserts are "
                f"re-applied from the log")
        service = cls(ctx, scheduler=header["scheduler"],
                      seed=header["seed"], wal_path=wal_path, **kwargs)
        service._replaying = True
        try:
            service._replay(records[1:])
        finally:
            service._replaying = False
        if truncated:
            service.metrics.inc("wal_torn_lines", truncated)
        service.metrics.inc("serving_recoveries")
        return service

    def _replay(self, records: list[dict]) -> None:
        submits: dict[int, dict] = {}
        max_id = 0
        for rec in records:
            if rec["type"] == "submit":
                submits[rec["request_id"]] = rec
                max_id = max(max_id, rec["request_id"])

        for rec in records:
            kind = rec["type"]
            if kind == "create_view":
                self.create_view(rec["name"], rec["sql"])
            elif kind == "complete":
                rid = rec["request_id"]
                sub = submits.pop(rid, None)
                if sub is None:
                    raise WALError(
                        f"WAL complete record for request #{rid} has no "
                        f"matching submit — log is damaged beyond a torn "
                        f"tail")
                if rec.get("source") != "rejected":
                    self.execution_order.append(rid)
                    del self.execution_order[:-COMPLETED_WINDOW]
                if sub["kind"] == "insert" and rec["ok"]:
                    self.ctx.catalog.append_rows(sub["table"], sub["rows"])
                    self.metrics.inc("wal_replayed_inserts")
                    logged = rec.get("data_version")
                    if (logged is not None
                            and self.ctx.catalog.data_version != logged):
                        raise WALError(
                            f"insert #{rid} replayed to data_version "
                            f"{self.ctx.catalog.data_version} but "
                            f"originally landed on {logged} — the "
                            f"recovered catalog diverged from the logged "
                            f"history")

        # Whatever never completed was in flight when the driver died:
        # re-admit under the original request ids, in submission order.
        for rid in sorted(submits):
            sub = submits[rid]
            session = self.session(sub["session"])
            future = QueryFuture(request_id=rid, session=sub["session"],
                                 kind=sub["kind"], label=sub["label"],
                                 submitted_at=self.metrics.sim_time)
            if sub["kind"] == "sql":
                estimate = self.ctx._estimate_query_bytes(sub["sql"])
            elif sub["kind"] == "insert":
                estimate = rows_size([tuple(r) for r in sub["rows"]])
            else:
                estimate = 0
            request = self._admit(future, session, estimate)
            if request is not None:
                if sub["kind"] == "sql":
                    config = (ExecutionConfig(**sub["config"])
                              if sub.get("config") else None)
                    request.sql = sub["sql"]
                    request.config = config
                    effective = config or self.ctx.config
                    request.resume_checkpoint = bool(
                        effective.checkpointing)
                elif sub["kind"] == "view_read":
                    request.view_name = sub["view_name"]
                else:
                    request.table = sub["table"]
                    request.rows = [tuple(r) for r in sub["rows"]]
            self.recovered_futures[rid] = future
            self.metrics.inc("wal_readmitted")
        self._next_request_id = max(max_id + 1, self._next_request_id)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def report(self) -> dict:
        """Service-wide gauges: governor, caches, views, sessions."""
        return {
            "pending": len(self._pending),
            "completed": self.completed_total,
            "governor": self.ctx.governor.report(),
            "circuit_breaker": self.breaker.report(),
            "plan_cache": self.plan_cache.report(),
            "result_cache": self.result_cache.report(),
            "views": {v.name: v.report() for v in self._views.values()},
            "sessions": {name: session.report()
                         for name, session in sorted(self._sessions.items())},
        }
