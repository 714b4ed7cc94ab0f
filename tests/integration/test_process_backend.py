"""Process-backend differential and supervision suite.

The simulated backend is the deterministic oracle; the process backend
runs eligible fixpoint stages on real spawn-started worker processes.
This suite proves the two agree bit-exactly — identical result rows,
identical iteration counts, identical convergence verdicts — for every
library query, both on a healthy pool and while chaos SIGKILLs/SIGSTOPs
live workers mid-query, and that the supervision layer's guarantees
hold: hung workers are reaped within the configured liveness timeout,
poison tasks fail typed (with a partial trace) instead of crash-looping,
and an exhausted pool surfaces :class:`NoHealthyWorkersError`.

Run with ``pytest -m process_backend``; each test tears its pool down.
"""

import functools
import time

import pytest

from repro.chaos import (
    make_real_kill_schedule,
    make_schedule,
    run_differential,
    sorted_rows,
    squeezed,
)
from repro.core.config import ExecutionConfig
from repro.engine.backend import ProcessConfig
from repro.engine.faults import DriverKillInjector
from repro.engine.tracing import _find_dict
from repro.errors import NoHealthyWorkersError, PoisonTaskError
from repro.queries.library import get_query
from tests.integration.test_chaos import (
    FAST_SUPERVISION,
    NUM_WORKERS,
    QUERY_SETUPS,
    base_sides,
    differential,
    make_context_factory,
)

pytestmark = pytest.mark.process_backend

PROCESS = ExecutionConfig(backend="process")
SSSP = QUERY_SETUPS["sssp"][1]()


def make_context(query_name, backend):
    return make_context_factory(query_name)(
        config=ExecutionConfig(backend=backend))


def process_differential(query_name, **harness):
    """``query_name`` on the simulated oracle vs real worker processes."""
    harness.setdefault("subject", {"config": PROCESS})
    return differential(query_name, **harness)


#: ... with no faults, run once per query however many tests read it.
clean_differential = functools.lru_cache(maxsize=None)(process_differential)


def ineligible(report):
    """The typed ``remote_ineligible`` slug of each subject fixpoint."""
    return [span["attrs"].get("remote_ineligible")
            for span in _find_dict(report.trace, "fixpoint")]


# ----------------------------------------------------------------------
# differential: every library query, clean pool
# ----------------------------------------------------------------------


@pytest.mark.timeout(180)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_clean_differential(query_name):
    report = clean_differential(query_name)
    assert report.exact, report.summary()
    # The process run must not have silently degraded to the oracle.
    assert report.counters["process_backend_degradations"] == 0


# ----------------------------------------------------------------------
# differential: every library query, under real signal chaos
# ----------------------------------------------------------------------


@pytest.mark.timeout(180)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_differential_under_real_kills(query_name):
    index = sorted(QUERY_SETUPS).index(query_name)
    seed = 101 + index  # per-query seed: strikes land in varied spots
    report = process_differential(
        query_name, faults=make_real_kill_schedule(seed, kills=1))
    assert report.exact, f"seed={seed}: {report.summary()}"
    # A fired kill must be fully accounted in the supervision counters.
    if report.fired:
        counters = report.counters
        assert (counters["process_worker_crashes"]
                + counters["process_worker_reaps"]) >= report.fired


# ----------------------------------------------------------------------
# supervision guarantees
# ----------------------------------------------------------------------


@pytest.mark.timeout(120)
def test_hung_worker_reaped_within_liveness_timeout():
    """A SIGSTOP-style hang (heartbeats cease) is detected and reaped
    within the configured liveness timeout plus scheduling slack."""
    config = FAST_SUPERVISION
    ctx = make_context("sssp", "process")
    try:
        backend = ctx.cluster.backend
        assert backend.remote_ready()

        # Warm run: pool spawned, imports done, query path exercised.
        t0 = time.monotonic()
        clean = ctx.sql(SSSP)
        clean_wall = time.monotonic() - t0

        backend.add_chaos([{"kind": "hang", "stage": "fixpoint",
                            "task": None, "times": 1}])
        t0 = time.monotonic()
        chaotic = ctx.sql(SSSP)
        chaos_wall = time.monotonic() - t0

        supervision = ctx.last_run.supervision_summary()
        assert supervision["process_worker_reaps"] >= 1
        assert supervision["process_worker_respawns"] >= 1
        assert sorted_rows(clean) == sorted_rows(chaotic)

        overhead = chaos_wall - clean_wall
        # The reaper must wait out the liveness timeout (the hang keeps
        # the OS process alive) but detect within about one heartbeat of
        # it; the remaining slack covers the respawn (a fresh spawn-start
        # interpreter) and state rebuild.
        assert overhead >= config.liveness_timeout - config.heartbeat_interval
        assert overhead <= config.liveness_timeout + 10.0
    finally:
        ctx.close()


def poison(task, times):
    """A worker-side directive: the task kills whichever worker runs it."""
    return {"kind": "poison", "stage": "fixpoint", "task": task,
            "times": times}


@pytest.mark.timeout(120)
def test_poison_task_quarantined_with_partial_trace():
    """A task that keeps killing its worker is quarantined after
    ``poison_threshold`` kills and fails the query typed."""
    report = process_differential("sssp", faults=[poison(1, 10)])
    exc = report.error
    assert isinstance(exc, PoisonTaskError)
    assert exc.task_index == 1
    assert exc.worker_kills == FAST_SUPERVISION.poison_threshold
    assert exc.partial_trace is not None
    assert report.counters["process_tasks_quarantined"] == 1
    # The first kills were respawned before the quarantine tripped.
    assert report.counters["process_worker_respawns"] >= 1
    assert not report.leaks, report.summary()


@pytest.mark.timeout(120)
def test_poison_surfaces_through_query_future():
    """Respawn-budget/poison exhaustion reaches a serving-layer client
    as a typed error carrying the partial trace."""
    from repro.serving import QueryService

    ctx = make_context("sssp", "process")
    try:
        backend = ctx.cluster.backend
        assert backend.remote_ready()
        backend.add_chaos([poison(1, 20)])
        service = QueryService(ctx)
        future = service.submit(service.session("alice"), SSSP)
        service.drain()
        assert future.done and not future.ok
        with pytest.raises(PoisonTaskError) as excinfo:
            future.result()
        assert excinfo.value.partial_trace is not None
    finally:
        ctx.close()


NO_RESPAWN = ProcessConfig(heartbeat_interval=0.05, liveness_timeout=1.0,
                           task_deadline_s=20.0, backoff_base_s=0.01,
                           respawn_budget=0)


@pytest.mark.timeout(120)
def test_pool_exhaustion_raises_no_healthy_workers():
    """Killing every worker with no respawn budget fails typed, not by
    hanging or indexing into an empty pool."""
    report = process_differential("sssp", faults=[poison(None, 20)],
                                  process_config=NO_RESPAWN, num_workers=2)
    assert isinstance(report.error, NoHealthyWorkersError)
    assert not report.leaks, report.summary()


@pytest.mark.timeout(120)
def test_pool_shrinks_to_survivors_and_stays_exact():
    """With no respawn budget the pool degrades gracefully: partitions
    re-home onto survivors and the result stays bit-exact."""
    report = process_differential("cc", faults=[poison(2, 1)],
                                  process_config=NO_RESPAWN)
    assert report.exact, report.summary()
    assert report.counters["process_worker_crashes"] >= 1
    assert report.counters["process_worker_respawns"] == 0
    assert report.counters["process_backend_degradations"] >= 1
    assert report.counters["workers_lost"] == 1


@pytest.mark.timeout(120)
def test_explain_analyze_reports_supervision():
    from repro.engine.tracing import format_explain_analyze

    report = format_explain_analyze(clean_differential("sssp").trace)
    assert "process supervision" in report
    assert "tasks shipped to pool workers" in report
    assert "heartbeats" in report


# ----------------------------------------------------------------------
# no silent degradation: a clique kept on the driver says why
# ----------------------------------------------------------------------

#: Joins tc with its own all-relation on a non-partition key: the
#: gather fallback, which reads sibling partitions mid-stage.
NONLINEAR_TC = """
WITH recursive tc(X, Y) AS
  (SELECT Src, Dst FROM edge) UNION
  (SELECT a.X, b.Y FROM tc a, tc b WHERE a.Y = b.X)
SELECT X, Y FROM tc
"""


@pytest.mark.timeout(180)
@pytest.mark.parametrize("cause", [
    "backend-not-ready", "evaluation=naive", "stage_combination=off",
    "use_setrdd=off", "checkpointing", "deadline",
    "memory-budget", "injector:failure", "term-not-codegen", "gather-join",
    "decomposed-no-fused-runner"])
def test_remote_ineligible_cause_is_reported(cause, tmp_path, monkeypatch):
    """Every feature that keeps a ``backend="process"`` clique on the
    driver leaves its typed reason in the trace and in EXPLAIN ANALYZE;
    the answer is the simulated oracle's (same feature on) regardless.
    Checkpoints, budgets and injectors are composed for real: a kill and
    a resume, a budget that spills, the whole seeded schedule.  (A pool
    of two: it is spawned to be asked, and nothing ships.)"""
    import contextlib

    query = {"gather-join": NONLINEAR_TC,
             # keyed (min) decomposed plan: only the reference local loop
             "decomposed-no-fused-runner": get_query("apsp").sql,
             }.get(cause) or SSSP
    warns = contextlib.nullcontext()
    if cause == "backend-not-ready":
        from repro.engine.backend.process import ProcessClusterBackend

        def cannot_spawn(self, worker):
            raise OSError("no processes for you")
        monkeypatch.setattr(ProcessClusterBackend, "_spawn_worker",
                            cannot_spawn)
        warns = pytest.warns(RuntimeWarning, match="falling back")
    feature = {
        "evaluation=naive": {"evaluation": "naive"},
        "stage_combination=off": {"stage_combination": False},
        "use_setrdd=off": {"use_setrdd": False},
        "checkpointing": {"checkpoint_interval": 1},
        "deadline": {"deadline_seconds": 1e6},
        "term-not-codegen": {"codegen": False},
    }.get(cause, {})
    faults = {
        "checkpointing": [DriverKillInjector("fixpoint", skip_matches=3)],
        "injector:failure": make_schedule(29, num_workers=2).injectors,
    }.get(cause, ())

    def side(backend, clean=None):
        directory = (str(tmp_path / backend) if cause == "checkpointing"
                     else None)
        budget = squeezed(clean) if clean and cause == "memory-budget" else {}
        return {"config": ExecutionConfig(
            backend=backend, checkpoint_dir=directory, **feature), **budget}

    with warns:
        report = run_differential(
            query, make_context_factory("sssp", num_workers=2),
            oracle=side("simulated"),
            subject=lambda clean: side("process", clean), faults=faults,
            resume=cause == "checkpointing")

    assert report.exact, report.summary()
    assert report.counters["process_tasks_shipped"] == 0
    assert report.counters["process_remote_ineligible"] == 1
    assert ineligible(report) == [cause]
    assert bool(report.fired) == bool(faults)
    assert report.killed == (cause == "checkpointing")
    assert report.counters["spill_events"] or cause != "memory-budget"
    rendered = report.subject_run.explain_analyze()
    assert "process supervision" in rendered
    assert f"remote-ineligible: {cause}" in rendered

    # The simulated backend was never asked for workers: nothing to say.
    sim_run = report.oracle_run
    assert sim_run.supervision_summary()["process_remote_ineligible"] == 0
    assert "remote-ineligible" not in sim_run.explain_analyze()


# ----------------------------------------------------------------------
# the cross-query base-side cache reaches the install blob (DESIGN.md §19)
# ----------------------------------------------------------------------


@pytest.fixture
def install_spies(monkeypatch):
    """``(pickles, shipped)``: every driver-side pickling/hashing of a
    heavy install half, and the heavy field of every install message."""
    import types

    from repro.engine.backend import payloads, process

    pickles, shipped = [], []

    def dump_payload(payload, _original=payloads.dump_payload):
        pickles.append("dump_payload")
        return _original(payload)

    def sha256(data, _original=payloads.hashlib.sha256):
        pickles.append("sha256")
        return _original(data)

    monkeypatch.setattr(payloads, "dump_payload", dump_payload)
    monkeypatch.setattr(payloads, "hashlib",
                        types.SimpleNamespace(sha256=sha256))
    send = process._WorkerHandle.send

    def recording_send(self, message):
        if message[1] == "install":
            shipped.append(message[4])
        send(self, message)

    monkeypatch.setattr(process._WorkerHandle, "send", recording_send)
    return pickles, shipped


def _delta(run, before, name):
    return run.metrics.get(name, 0) - before.get(name, 0)


@pytest.mark.timeout(180)
def test_repeated_query_ships_no_heavy_half_and_pickles_nothing(
        install_spies):
    pickles, shipped = install_spies
    sim_ctx = make_context("sssp", "simulated")
    ctx = make_context("sssp", "process")
    try:
        first = ctx.sql(SSSP)
        assert pickles == ["dump_payload", "sha256"]
        assert len(shipped) == NUM_WORKERS and None not in shipped
        assert ctx.last_run.supervision_summary()[
            "process_install_blob_reused"] == 0
        assert ("install heavy half: pickled and hashed by this query"
                in ctx.last_run.explain_analyze())

        before = dict(ctx.last_run.metrics)
        del pickles[:], shipped[:]
        second = ctx.sql(SSSP)
        run = ctx.last_run
        assert pickles == [] and shipped == [None] * NUM_WORKERS
        assert _delta(run, before, "process_install_blob_reused") == 1
        assert _delta(run, before, "process_install_bytes") == 0
        assert _delta(run, before, "base_side_cache_hits") == 1
        assert _delta(run, before, "process_tasks_shipped") > 0
        assert ("install heavy half: reused pickled from the base-side cache"
                in run.explain_analyze())
        assert (sorted_rows(second) == sorted_rows(first)
                == sorted_rows(sim_ctx.sql(SSSP)))

        # A grown table: the driver's sides absorb the rows (nothing is
        # rebuilt), the heavy half is re-pickled and re-shipped once — and
        # still bit-exact with the simulated twin.
        for context in (ctx, sim_ctx):
            context.catalog.append_rows("edge", [(0, 23, 0.5), (23, 7, 0.25)])
        before = dict(run.metrics)
        third = ctx.sql(SSSP)
        assert pickles == ["dump_payload", "sha256"]
        assert len(shipped) == 2 * NUM_WORKERS and None not in shipped[-NUM_WORKERS:]
        assert _delta(ctx.last_run, before, "base_side_cache_misses") == 0
        assert _delta(ctx.last_run, before, "base_side_cache_appended") == 1
        expected = sim_ctx.sql(SSSP)
        assert sorted_rows(third) == sorted_rows(expected) != sorted_rows(first)
        assert ctx.last_run.iterations == sim_ctx.last_run.iterations
        assert sorted_rows(ctx.sql(SSSP)) == sorted_rows(expected)
    finally:
        ctx.close()


@pytest.mark.timeout(180)
def test_killed_workers_replacement_is_installed_from_the_memoised_half(
        install_spies):
    """Composition: a warm base-side cache x a real SIGKILL."""
    from repro.engine.faults import ProcessKillInjector

    pickles, shipped = install_spies
    report = process_differential("sssp", warm=True, faults=[
        ProcessKillInjector("fixpoint-shufflemap", signal="kill",
                            skip_matches=1)])
    assert report.exact and report.fired == 1, report.summary()
    assert base_sides(report) == (1, 0)
    assert report.counters["process_worker_respawns"] == 1
    assert report.counters["process_install_blob_reused"] == 1
    # Only the warm-up pickled.  The killed run shipped no heavy half, yet
    # the respawned worker (whose blob cache is empty) was sent the
    # bytes: the memoised ones.
    assert pickles == ["dump_payload", "sha256"]
    warm, again, (resent,) = (shipped[:NUM_WORKERS],
                              shipped[NUM_WORKERS:2 * NUM_WORKERS],
                              shipped[2 * NUM_WORKERS:])
    assert again == [None] * NUM_WORKERS and resent == warm[0]
    assert (report.counters["process_install_bytes"]
            == (NUM_WORKERS + 1) * len(resent))
    # ... and they are the pruned sides: (Dst, Cost), not edge rows.
    assert _stored_widths(resent) == {2}


def _stored_widths(heavy: bytes) -> set:
    """Tuple widths (0: a bare value) of every value the co-partitioned
    sides of a pickled heavy install half store."""
    from repro.engine.serialization import load_payload

    base_partitions, _ = load_payload(heavy)
    return {len(value) if isinstance(value, tuple) else 0
            for sides in base_partitions.values() for side in sides
            for bucket in side.values() for value in bucket}


@pytest.mark.timeout(180)
@pytest.mark.parametrize("query_name, widths", [("sssp", {2}), ("cc", {0})])
def test_two_workers_on_pruned_sides_match_the_simulated_twin(
        query_name, widths, install_spies):
    """The pool probes the same pruned sides the driver built — sssp's
    ``(Dst, Cost)`` of the 3-column edge, cc's bare ``Dst`` — bit-exactly,
    and ships fewer install bytes than whole rows would take."""
    from dataclasses import replace

    from repro.core.analyzer import analyze
    from repro.core.optimizer import optimize
    from repro.core.parser import parse
    from repro.core.physical import build_base_side
    from repro.core.planner import plan_clique
    from repro.engine.kernels import make_router
    from repro.engine.serialization import dump_payload

    _, shipped = install_spies
    _, make_query = QUERY_SETUPS[query_name]
    report = process_differential(query_name, num_workers=2)
    assert report.exact, report.summary()
    assert (report.subject_run.delta_history
            == report.oracle_run.delta_history)
    summary = report.counters
    assert summary["process_tasks_shipped"] > 0
    assert summary["process_backend_degradations"] == 0
    ctx = make_context(query_name, "simulated")  # for its catalog

    assert len(shipped) == 2 and shipped[0] == shipped[1]
    assert _stored_widths(shipped[0]) == widths
    assert summary["process_install_bytes"] == 2 * len(shipped[0])
    # What the same install weighed before pruning: whole edge rows.
    clique = optimize(analyze(parse(make_query()), ctx.catalog)).cliques()[0]
    (plan,) = plan_clique(clique, ExecutionConfig(
        decomposed_plans=False)).base_plans
    assert plan.read_positions is not None
    rows = list(dict.fromkeys(ctx.catalog.get("edge").rows))
    _, sides = build_base_side(replace(plan, read_positions=None), rows,
                               make_router(plan.build_key, 2))
    whole = dump_payload(({plan.step_id: sides}, {}))
    assert len(shipped[0]) < len(whole)
