"""Service crash recovery, retries, circuit breaking, typed payloads.

The serving-tier half of the durability layer: the WAL round-trips and
tolerates torn tails, a killed-and-restarted :class:`QueryService`
replays to the same answers a clean serial execution gives, transient
failures retry with *seeded* backoff (replay-twice-identical), repeat
failures trip a per-shape circuit breaker, and every typed error
reaches :meth:`QueryFuture.result` with its payload intact.
"""

import random

import pytest

from repro import ExecutionConfig, MemoryConfig, QueryGovernor, RaSQLContext
from repro.chaos import run_service_differential, sorted_rows
from repro.engine.faults import FailureInjector
from repro.errors import (
    AdmissionRejectedError,
    AnalysisError,
    CircuitOpenError,
    MemoryBudgetExceededError,
    QueryDeadlineExceededError,
    TaskRetryExhaustedError,
    WALError,
)
from repro.queries import get_query
from repro.serving import CircuitBreaker, QueryService, RetryPolicy, WriteAheadLog
from repro.serving.resilience import (
    BREAKER_COOLDOWN_S,
    BREAKER_THRESHOLD,
    RETRY_BASE_BACKOFF_S,
    RETRY_MAX,
)
from repro.serving.workload import VIEW_NAME, generate_ops

pytestmark = [pytest.mark.serving, pytest.mark.resilience]

TC = """
WITH recursive tc(Src, Dst) AS
  (SELECT Src, Dst FROM edge) UNION
  (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
SELECT Src, Dst FROM tc
"""
CNT = """
WITH recursive hops(Dst, min() AS D) AS
  (SELECT 0, 0) UNION
  (SELECT edge.Dst, hops.D + 1 FROM hops, edge WHERE hops.Dst = edge.Src)
SELECT Dst, D FROM hops
"""
EDGES = [(i, i + 1) for i in range(18)] + [(4, 2)]
SPARE = [(18 + i, 19 + i) for i in range(8)]


def make_context(**kwargs):
    ctx = RaSQLContext(num_workers=4, **kwargs)
    ctx.register_table("edge", ["Src", "Dst"], list(EDGES))
    return ctx


# ----------------------------------------------------------------------
# WAL format
# ----------------------------------------------------------------------


class TestWriteAheadLog:
    def test_round_trip_and_seq_continuation(self, tmp_path):
        path = str(tmp_path / "w.wal")
        wal = WriteAheadLog(path)
        assert wal.append({"type": "header"}) == 0
        assert wal.append({"type": "submit", "request_id": 1}) == 1
        wal.close()

        reopened = WriteAheadLog(path)
        assert reopened.seq == 2  # continues, never rewinds
        reopened.append({"type": "complete", "request_id": 1})
        reopened.close()

        records, truncated = WriteAheadLog.read(path)
        assert truncated == 0
        assert [r["type"] for r in records] == ["header", "submit",
                                                "complete"]
        assert [r["seq"] for r in records] == [0, 1, 2]

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "w.wal")
        wal = WriteAheadLog(path)
        wal.append({"type": "header"})
        wal.append({"type": "submit", "request_id": 1})
        wal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"crc": "feedfacecafef00d", "rec": {"seq": 2, "ty')
        records, truncated = WriteAheadLog.read(path)
        assert len(records) == 2 and truncated == 1

    def test_tampered_record_stops_replay(self, tmp_path):
        path = str(tmp_path / "w.wal")
        wal = WriteAheadLog(path)
        wal.append({"type": "header"})
        wal.append({"type": "submit", "request_id": 1})
        wal.close()
        lines = open(path).read().splitlines()
        lines[1] = lines[1].replace('"request_id": 1', '"request_id": 9')
        open(path, "w").write("\n".join(lines) + "\n")
        records, truncated = WriteAheadLog.read(path)
        assert len(records) == 1 and truncated == 1

    def test_missing_wal(self, tmp_path):
        with pytest.raises(WALError):
            WriteAheadLog.read(str(tmp_path / "absent.wal"))


# ----------------------------------------------------------------------
# killed service vs serial replay
# ----------------------------------------------------------------------


def make_workload_context(num_workers=4, **kwargs):
    """The ``serving.workload`` schema: a weighted edge table (and room
    for the whole op stream in the governor's backlog)."""
    ctx = RaSQLContext(num_workers=num_workers, governor=QueryGovernor(
        max_concurrent=8, max_queue=8), **kwargs)
    ctx.register_table("edge", ["Src", "Dst", "Cost"],
                       [(a, b, 1.0) for a, b in EDGES])
    return ctx


def killed_service_differential(tmp_path, seed, subject=None):
    """View reads, repeated and distinct SQL, and inserts — half of them
    re-inserting a row the stream already added — in equal parts, under
    one corruption and a driver kill."""
    ops = generate_ops(clients=2, requests=10, seed=seed, reinsert=0.5,
                       mix={"view_read": 1, "hot_sql": 1, "pooled_sql": 1,
                            "insert": 1})
    return run_service_differential(
        make_workload_context, ops, subject=subject,
        views={VIEW_NAME: get_query("sssp").formatted(source=0)},
        wal_path=str(tmp_path / "svc.wal"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        seed=seed, kill_after_requests=2, corruptions=1)


@pytest.mark.timeout(180)
@pytest.mark.parametrize("seed", [1, 8])
def test_killed_service_matches_serial_replay(tmp_path, seed):
    report = killed_service_differential(tmp_path, seed)
    assert report.exact and report.killed, report.summary()
    assert report.details["compared"] > 0
    # Seed 1's scheduler runs a re-admitted insert before the killed
    # statement: its checkpoint is stale, and it is re-executed — not
    # failed with CheckpointError, its blob not left behind.
    assert report.details["stale_checkpoints"] == (seed == 1)


@pytest.mark.process_backend
@pytest.mark.timeout(180)
def test_killed_service_on_the_process_backend_matches_serial_replay(
        tmp_path):
    """Composition: the killed and the recovered service over (two) real
    worker processes, against the simulated serial witness."""
    report = killed_service_differential(
        tmp_path, 8, subject={"config": ExecutionConfig(backend="process"),
                              "num_workers": 2})
    assert report.exact and report.killed, report.summary()
    assert report.details["compared"] > 0


@pytest.mark.timeout(120)
def test_recover_replays_views_inserts_and_backlog(tmp_path):
    wal = str(tmp_path / "svc.wal")
    ctx = make_context()
    service = QueryService(ctx, scheduler="fifo", wal_path=wal)
    service.create_view("reach", TC)
    alice = service.session("alice")
    service.submit_insert(alice, "edge", [SPARE[0]])
    pending_sql = service.submit(alice, CNT)
    pending_read = service.submit_view_read(alice, "reach")
    service.step()  # the insert executes; sql + read stay in flight

    # Model the crash: the process dies, in-memory state is gone.
    recovered_ctx = make_context()
    recovered = QueryService.recover(recovered_ctx, wal)
    assert recovered.execution_order == [1]
    assert sorted(recovered.recovered_futures) == [2, 3]
    # The pre-crash insert was re-applied before the backlog runs.
    assert len(recovered_ctx.catalog.get("edge").rows) == len(EDGES) + 1
    finished = recovered.drain()
    assert [f.request_id for f in finished] == [2, 3]
    assert all(f.ok for f in finished)

    # Differential: the recovered answers equal a clean serial run.
    serial = make_context()
    serial.catalog.append_rows("edge", [SPARE[0]])
    assert (sorted_rows(recovered.recovered_futures[2].result())
            == sorted_rows(serial.sql(CNT)))
    assert (sorted_rows(recovered.recovered_futures[3].result())
            == sorted_rows(serial.sql(TC)))
    # The futures the dead process handed out are still undrainable —
    # recovery resolves the *recovered* futures, not the old objects.
    assert not pending_sql.done and not pending_read.done


@pytest.mark.timeout(60)
def test_recover_refuses_a_drifted_bootstrap_catalog(tmp_path):
    wal = str(tmp_path / "svc.wal")
    QueryService(make_context(), wal_path=wal)
    drifted = make_context()
    drifted.catalog.append_rows("edge", [SPARE[0]])  # out-of-band change
    with pytest.raises(WALError, match="bootstrap"):
        QueryService.recover(drifted, wal)


@pytest.mark.timeout(60)
def test_recover_requires_a_header(tmp_path):
    path = str(tmp_path / "svc.wal")
    wal = WriteAheadLog(path)
    wal.append({"type": "submit", "request_id": 1})
    wal.close()
    with pytest.raises(WALError, match="header"):
        QueryService.recover(make_context(), path)


# ----------------------------------------------------------------------
# typed error payloads through QueryFuture.result()
# ----------------------------------------------------------------------


class TestTypedErrorPayloads:
    def test_deadline_error_carries_partial_trace(self):
        ctx = make_context()
        service = QueryService(ctx, scheduler="fifo")
        future = service.submit(
            service.session("a"), TC,
            config=ctx.config.but(deadline_seconds=0.05))
        service.drain()
        with pytest.raises(QueryDeadlineExceededError) as info:
            future.result()
        assert info.value.partial_trace is not None
        assert info.value.sim_time >= info.value.deadline_seconds

    def test_memory_error_carries_budget_payload(self):
        ctx = make_context(memory_config=MemoryConfig(worker_budget_bytes=8))
        service = QueryService(ctx, scheduler="fifo")
        future = service.submit(service.session("a"), TC)
        service.drain()
        with pytest.raises(MemoryBudgetExceededError) as info:
            future.result()
        assert info.value.requested_bytes > info.value.budget_bytes == 8

    def test_admission_rejection_carries_retry_after(self):
        ctx = make_context()
        ctx.governor = QueryGovernor(max_concurrent=1, max_queue=0,
                                     metrics=ctx.metrics)
        service = QueryService(ctx, scheduler="fifo")
        a = service.session("a")
        service.submit(a, TC)
        shed = service.submit(a, CNT)
        assert shed.done and shed.source == "rejected"
        with pytest.raises(AdmissionRejectedError) as info:
            shed.result()
        assert info.value.reason == "concurrency"
        assert info.value.retry_after_s > 0

    def test_memory_rejection_retry_after(self):
        governor = QueryGovernor(max_reserved_bytes=1)
        with pytest.raises(AdmissionRejectedError) as info:
            governor.admit("big", estimated_bytes=10_000)
        assert info.value.reason == "memory"
        assert info.value.retry_after_s > 0


# ----------------------------------------------------------------------
# retries: bounded, seeded, replay-identical
# ----------------------------------------------------------------------


class TestRetries:
    def _service_with_persistent_failure(self):
        ctx = make_context()
        ctx.inject_faults(FailureInjector(
            "fixpoint", point="before", times=1000, persistent=True))
        return ctx, QueryService(ctx, scheduler="fifo")

    def test_transient_exhaustion_is_retried_then_surfaced(self):
        ctx, service = self._service_with_persistent_failure()
        with ctx.cluster.tracer.owned_span("test", "retries") as window:
            future = service.submit(service.session("a"), TC)
            service.drain()
        # Every service-level retry consumed, original error surfaced.
        assert ctx.metrics.snapshot()["serving_retries"] == RETRY_MAX
        with pytest.raises(TaskRetryExhaustedError):
            future.result()
        assert "retry-backoff" in window.time_by_label

    def test_retry_backoff_draws_are_seeded_and_replayable(self):
        def draws(seed):
            policy = RetryPolicy(rng=random.Random(seed))
            return [policy.backoff_s(attempt) for attempt in range(6)]

        assert draws(7) == draws(7)  # replay-twice-identical
        assert draws(7) != draws(8)  # and actually jittered
        grow = draws(7)
        assert all(b >= RETRY_BASE_BACKOFF_S * (2 ** i)
                   for i, b in enumerate(grow))

    def test_service_error_counters_replay_identically(self):
        def discrete():
            ctx, service = self._service_with_persistent_failure()
            future = service.submit(service.session("a"), TC)
            service.drain()
            snap = ctx.metrics.snapshot()
            return (type(future.error).__name__,
                    snap["serving_retries"], snap["task_failures"])

        assert discrete() == discrete()


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_state_machine(self):
        breaker = CircuitBreaker()
        for _ in range(BREAKER_THRESHOLD - 1):
            breaker.record_failure("q", now=0.0)
        breaker.check("q", now=0.0)  # still closed
        breaker.record_failure("q", now=0.0)
        assert breaker.state("q") == "open"
        with pytest.raises(CircuitOpenError) as info:
            breaker.check("q", now=4.0)
        assert info.value.retry_after_s == pytest.approx(
            BREAKER_COOLDOWN_S - 4.0)
        # Cooldown elapsed: half-open probe.
        breaker.check("q", now=BREAKER_COOLDOWN_S)
        assert breaker.state("q") == "half_open"
        # The probe failed: re-open for a fresh cooldown.
        breaker.record_failure("q", now=BREAKER_COOLDOWN_S)
        assert breaker.state("q") == "open"
        breaker.check("q", now=2 * BREAKER_COOLDOWN_S)
        breaker.record_success("q")
        assert breaker.state("q") == "closed"
        assert breaker.report() == {}

    def test_a_shape_exists_only_while_failing_or_not_closed(self):
        breaker = CircuitBreaker()
        for i in range(100):
            breaker.check(f"healthy-{i}", now=0.0)
            breaker.record_success(f"healthy-{i}")
        assert breaker._shapes == {}
        breaker.record_failure("flaky", now=0.0)
        assert breaker.report() == {"flaky": {"state": "closed",
                                              "failures": 1}}
        breaker.record_success("flaky")
        assert breaker._shapes == {}

    def test_failing_shape_is_shed_then_probed(self):
        ctx = make_context()
        service = QueryService(ctx, scheduler="fifo")
        session = service.session("a")
        bad = "SELECT Nope FROM missing_table"
        for _ in range(BREAKER_THRESHOLD):
            future = service.submit(session, bad)
            service.drain()
            assert isinstance(future.error, AnalysisError)
        shed = service.submit(session, "SELECT  Nope FROM   missing_table")
        service.drain()  # same shape after normalization: shed at the door
        with pytest.raises(CircuitOpenError) as info:
            shed.result()
        assert info.value.retry_after_s > 0
        assert ctx.metrics.snapshot()["serving_circuit_shed"] == 1
        # A *different* shape is unaffected by the open circuit.
        ok = service.submit(session, TC)
        service.drain()
        assert ok.ok
        ctx.metrics.advance(BREAKER_COOLDOWN_S, label="idle")
        probe = service.submit(session, bad)
        service.drain()  # half-open probe reaches the analyzer again
        assert isinstance(probe.error, AnalysisError)
        # normalize_sql is whitespace- (not case-) folding: the key is
        # the single-spaced statement, and the failed probe re-opens it.
        assert service.breaker.state(bad) == "open"
