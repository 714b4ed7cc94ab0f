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
The marker suite runs with the kernel size gate lifted
(``tests/conftest.py``) so the tiny test graphs still take the
remote-eligible kernel paths.
"""

import time

import pytest

from repro import RaSQLContext
from repro.chaos import (
    _converged,
    make_real_kill_schedule,
    run_with_real_kills,
)
from repro.core.config import ExecutionConfig
from repro.engine.backend import ProcessConfig
from repro.errors import NoHealthyWorkersError, PoisonTaskError
from repro.queries.library import get_query
from tests.integration.test_chaos import NUM_WORKERS, QUERY_SETUPS

pytestmark = pytest.mark.process_backend

#: Tight supervision constants so fault tests run in seconds: a worker
#: silent for 1s is reaped, crash backoff is near-zero.
FAST_SUPERVISION = ProcessConfig(heartbeat_interval=0.05,
                                 liveness_timeout=1.0,
                                 task_deadline_s=20.0,
                                 backoff_base_s=0.01)


def make_context(query_name, backend, process_config=FAST_SUPERVISION,
                 num_workers=NUM_WORKERS):
    build_tables, _ = QUERY_SETUPS[query_name]
    config = ExecutionConfig(backend=backend)
    kwargs = {"process_config": process_config} if backend == "process" else {}
    ctx = RaSQLContext(num_workers=num_workers, config=config, **kwargs)
    for name, (columns, rows) in build_tables().items():
        ctx.register_table(name, columns, rows)
    return ctx


def _rows(relation):
    return sorted(relation.rows, key=repr)


# ----------------------------------------------------------------------
# differential: every library query, clean pool
# ----------------------------------------------------------------------


@pytest.mark.timeout(180)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_clean_differential(query_name):
    _, make_query = QUERY_SETUPS[query_name]
    sim_ctx = make_context(query_name, "simulated")
    expected = sim_ctx.sql(make_query())
    sim_run = sim_ctx.last_run

    proc_ctx = make_context(query_name, "process")
    try:
        actual = proc_ctx.sql(make_query())
        run = proc_ctx.last_run
    finally:
        proc_ctx.close()

    assert _rows(expected) == _rows(actual)
    assert sim_run.iterations == run.iterations
    assert _converged(sim_run) == _converged(run)
    # The process run must not have silently degraded to the oracle.
    assert run.supervision_summary()["process_backend_degradations"] == 0


# ----------------------------------------------------------------------
# differential: every library query, under real signal chaos
# ----------------------------------------------------------------------


@pytest.mark.timeout(180)
@pytest.mark.parametrize("query_name", sorted(QUERY_SETUPS))
def test_differential_under_real_kills(query_name):
    index = sorted(QUERY_SETUPS).index(query_name)
    seed = 101 + index  # per-query seed: strikes land in varied spots
    _, make_query = QUERY_SETUPS[query_name]

    def factory(backend):
        return make_context(query_name, backend)

    report = run_with_real_kills(
        make_query(), factory, make_real_kill_schedule(seed, kills=1),
        seed=seed)
    assert report.exact, report.summary()
    # A fired kill must be fully accounted in the supervision counters.
    if report.kills_fired:
        counters = report.counters
        assert (counters["process_worker_crashes"]
                + counters["process_worker_reaps"]) >= report.kills_fired


# ----------------------------------------------------------------------
# supervision guarantees
# ----------------------------------------------------------------------


@pytest.mark.timeout(120)
def test_hung_worker_reaped_within_liveness_timeout():
    """A SIGSTOP-style hang (heartbeats cease) is detected and reaped
    within the configured liveness timeout plus scheduling slack."""
    config = FAST_SUPERVISION
    ctx = make_context("sssp", "process", config)
    _, make_query = QUERY_SETUPS["sssp"]
    try:
        backend = ctx.cluster.backend
        assert backend.remote_ready()

        # Warm run: pool spawned, imports done, query path exercised.
        t0 = time.monotonic()
        clean = ctx.sql(make_query())
        clean_wall = time.monotonic() - t0

        backend.add_chaos([{"kind": "hang", "stage": "fixpoint",
                            "task": None, "times": 1}])
        t0 = time.monotonic()
        chaotic = ctx.sql(make_query())
        chaos_wall = time.monotonic() - t0

        supervision = ctx.last_run.supervision_summary()
        assert supervision["process_worker_reaps"] >= 1
        assert supervision["process_worker_respawns"] >= 1
        assert _rows(clean) == _rows(chaotic)

        overhead = chaos_wall - clean_wall
        # The reaper must wait out the liveness timeout (the hang keeps
        # the OS process alive) but detect within about one heartbeat of
        # it; the remaining slack covers the respawn (a fresh spawn-start
        # interpreter) and state rebuild.
        assert overhead >= config.liveness_timeout - config.heartbeat_interval
        assert overhead <= config.liveness_timeout + 10.0
    finally:
        ctx.close()


@pytest.mark.timeout(120)
def test_poison_task_quarantined_with_partial_trace():
    """A task that keeps killing its worker is quarantined after
    ``poison_threshold`` kills and fails the query typed."""
    ctx = make_context("sssp", "process")
    _, make_query = QUERY_SETUPS["sssp"]
    try:
        backend = ctx.cluster.backend
        assert backend.remote_ready()
        backend.add_chaos([{"kind": "poison", "stage": "fixpoint",
                            "task": 1, "times": 10}])
        with pytest.raises(PoisonTaskError) as excinfo:
            ctx.sql(make_query())
        exc = excinfo.value
        assert exc.task_index == 1
        assert exc.worker_kills == backend.config.poison_threshold
        assert exc.partial_trace is not None
        supervision = ctx.last_run.supervision_summary()
        assert supervision["process_tasks_quarantined"] == 1
        # The first kills were respawned before the quarantine tripped.
        assert supervision["process_worker_respawns"] >= 1
    finally:
        ctx.close()


@pytest.mark.timeout(120)
def test_poison_surfaces_through_query_future():
    """Respawn-budget/poison exhaustion reaches a serving-layer client
    as a typed error carrying the partial trace."""
    from repro.serving import QueryService

    ctx = make_context("sssp", "process")
    _, make_query = QUERY_SETUPS["sssp"]
    try:
        backend = ctx.cluster.backend
        assert backend.remote_ready()
        backend.add_chaos([{"kind": "poison", "stage": "fixpoint",
                            "task": 1, "times": 20}])
        service = QueryService(ctx)
        future = service.submit(service.session("alice"), make_query())
        service.drain()
        assert future.done and not future.ok
        with pytest.raises(PoisonTaskError) as excinfo:
            future.result()
        assert excinfo.value.partial_trace is not None
    finally:
        ctx.close()


@pytest.mark.timeout(120)
def test_pool_exhaustion_raises_no_healthy_workers():
    """Killing every worker with no respawn budget fails typed, not by
    hanging or indexing into an empty pool."""
    config = ProcessConfig(heartbeat_interval=0.05, liveness_timeout=1.0,
                           task_deadline_s=20.0, backoff_base_s=0.01,
                           respawn_budget=0)
    ctx = make_context("sssp", "process", config, num_workers=2)
    _, make_query = QUERY_SETUPS["sssp"]
    try:
        backend = ctx.cluster.backend
        assert backend.remote_ready()
        backend.add_chaos([{"kind": "poison", "stage": "fixpoint",
                            "task": None, "times": 20}])
        with pytest.raises(NoHealthyWorkersError):
            ctx.sql(make_query())
    finally:
        ctx.close()


@pytest.mark.timeout(120)
def test_pool_shrinks_to_survivors_and_stays_exact():
    """With no respawn budget the pool degrades gracefully: partitions
    re-home onto survivors and the result stays bit-exact."""
    sim_ctx = make_context("cc", "simulated")
    _, make_query = QUERY_SETUPS["cc"]
    expected = sim_ctx.sql(make_query())
    sim_run = sim_ctx.last_run

    config = ProcessConfig(heartbeat_interval=0.05, liveness_timeout=1.0,
                           task_deadline_s=20.0, backoff_base_s=0.01,
                           respawn_budget=0)
    ctx = make_context("cc", "process", config)
    try:
        backend = ctx.cluster.backend
        assert backend.remote_ready()
        backend.add_chaos([{"kind": "poison", "stage": "fixpoint",
                            "task": 2, "times": 1}])
        actual = ctx.sql(make_query())
        run = ctx.last_run
        supervision = run.supervision_summary()
        assert supervision["process_worker_crashes"] >= 1
        assert supervision["process_worker_respawns"] == 0
        assert supervision["process_backend_degradations"] >= 1
        assert len(ctx.cluster.lost_workers) == 1
    finally:
        ctx.close()
    assert _rows(expected) == _rows(actual)
    assert sim_run.iterations == run.iterations


@pytest.mark.timeout(120)
def test_explain_analyze_reports_supervision():
    ctx = make_context("sssp", "process")
    _, make_query = QUERY_SETUPS["sssp"]
    try:
        ctx.sql(make_query())
        report = ctx.last_run.explain_analyze()
    finally:
        ctx.close()
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


def _ineligible_context(cause, backend, tmp_path):
    """An sssp-tables context on ``backend`` with the one feature named
    by ``cause`` switched on."""
    from repro.engine.faults import FailureInjector
    from repro.engine.memory import MemoryConfig

    config = {
        "evaluation=naive": {"evaluation": "naive"},
        "stage_combination=off": {"stage_combination": False},
        "use_setrdd=off": {"use_setrdd": False},
        "kernels=off": {"kernels": False},
        "checkpointing": {"checkpoint_dir": str(tmp_path / backend),
                          "checkpoint_interval": 2},
        "deadline": {"deadline_seconds": 1e6},
        "term-not-codegen": {"codegen": False},
    }.get(cause, {})
    cluster_kwargs = {}
    if cause == "memory-budget":
        cluster_kwargs["memory_config"] = MemoryConfig(
            worker_budget_bytes=1 << 30)
    if backend == "process":
        cluster_kwargs["process_config"] = FAST_SUPERVISION
    ctx = RaSQLContext(num_workers=NUM_WORKERS,
                       config=ExecutionConfig(backend=backend, **config),
                       **cluster_kwargs)
    for name, (columns, rows) in QUERY_SETUPS["sssp"][0]().items():
        ctx.register_table(name, columns, rows)
    if cause == "injector:failure":
        ctx.inject_faults(FailureInjector("fixpoint-shufflemap", times=1))
    return ctx


@pytest.mark.timeout(180)
@pytest.mark.parametrize("cause", [
    "backend-not-ready", "evaluation=naive", "stage_combination=off",
    "use_setrdd=off", "kernels=off", "checkpointing", "deadline",
    "memory-budget", "injector:failure", "term-not-codegen", "gather-join",
    "decomposed-no-fused-runner"])
def test_remote_ineligible_cause_is_reported(cause, tmp_path, monkeypatch):
    """Every feature that keeps a ``backend="process"`` clique on the
    driver leaves its typed reason in the trace and in EXPLAIN ANALYZE;
    the answer is the simulated oracle's regardless."""
    from repro.engine.tracing import _find_dict

    query = {"gather-join": NONLINEAR_TC,
             # keyed (min) decomposed plan: only the reference local loop
             "decomposed-no-fused-runner": get_query("apsp").sql,
             }.get(cause) or QUERY_SETUPS["sssp"][1]()
    if cause == "backend-not-ready":
        from repro.engine.backend.process import ProcessClusterBackend

        def cannot_spawn(self, worker):
            raise OSError("no processes for you")
        monkeypatch.setattr(ProcessClusterBackend, "_spawn_worker",
                            cannot_spawn)
    runs = {}
    for backend in ("simulated", "process"):
        ctx = _ineligible_context(cause, backend, tmp_path)
        try:
            if cause == "backend-not-ready" and backend == "process":
                with pytest.warns(RuntimeWarning, match="falling back"):
                    runs[backend] = (ctx.sql(query), ctx.last_run)
            else:
                runs[backend] = (ctx.sql(query), ctx.last_run)
        finally:
            ctx.close()
    (expected, sim_run), (actual, run) = runs["simulated"], runs["process"]

    assert _rows(expected) == _rows(actual)
    assert sim_run.iterations == run.iterations
    summary = run.supervision_summary()
    assert summary["process_tasks_shipped"] == 0
    assert summary["process_remote_ineligible"] == 1
    assert [span["attrs"].get("remote_ineligible")
            for span in _find_dict(run.trace, "fixpoint")] == [cause]
    report = run.explain_analyze()
    assert "process supervision" in report
    assert f"remote-ineligible: {cause}" in report

    # The simulated backend was never asked for workers: nothing to say.
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
    _, make_query = QUERY_SETUPS["sssp"]
    sim_ctx = make_context("sssp", "simulated")
    ctx = make_context("sssp", "process")
    try:
        first = ctx.sql(make_query())
        assert pickles == ["dump_payload", "sha256"]
        assert len(shipped) == NUM_WORKERS and None not in shipped
        assert ctx.last_run.supervision_summary()[
            "process_install_blob_reused"] == 0
        assert ("install heavy half: pickled and hashed by this query"
                in ctx.last_run.explain_analyze())

        before = dict(ctx.last_run.metrics)
        del pickles[:], shipped[:]
        second = ctx.sql(make_query())
        run = ctx.last_run
        assert pickles == [] and shipped == [None] * NUM_WORKERS
        assert _delta(run, before, "process_install_blob_reused") == 1
        assert _delta(run, before, "process_install_bytes") == 0
        assert _delta(run, before, "base_side_cache_hits") == 1
        assert _delta(run, before, "process_tasks_shipped") > 0
        assert ("install heavy half: reused pickled from the base-side cache"
                in run.explain_analyze())
        assert _rows(second) == _rows(first) == _rows(sim_ctx.sql(make_query()))

        # A grown table: the driver's sides absorb the rows (nothing is
        # rebuilt), the heavy half is re-pickled and re-shipped once — and
        # still bit-exact with the simulated twin.
        for context in (ctx, sim_ctx):
            context.catalog.append_rows("edge", [(0, 23, 0.5), (23, 7, 0.25)])
        before = dict(run.metrics)
        third = ctx.sql(make_query())
        assert pickles == ["dump_payload", "sha256"]
        assert len(shipped) == 2 * NUM_WORKERS and None not in shipped[-NUM_WORKERS:]
        assert _delta(ctx.last_run, before, "base_side_cache_misses") == 0
        assert _delta(ctx.last_run, before, "base_side_cache_appended") == 1
        expected = sim_ctx.sql(make_query())
        assert _rows(third) == _rows(expected) != _rows(first)
        assert ctx.last_run.iterations == sim_ctx.last_run.iterations
        assert _rows(ctx.sql(make_query())) == _rows(expected)
    finally:
        ctx.close()


@pytest.mark.timeout(180)
def test_killed_workers_replacement_is_installed_from_the_memoised_half(
        install_spies):
    from repro.engine.faults import ProcessKillInjector

    pickles, shipped = install_spies
    _, make_query = QUERY_SETUPS["sssp"]
    sim_ctx = make_context("sssp", "simulated")
    expected = sim_ctx.sql(make_query())
    ctx = make_context("sssp", "process")
    try:
        ctx.sql(make_query())
        before = dict(ctx.last_run.metrics)
        del pickles[:], shipped[:]
        injector = ProcessKillInjector("fixpoint-shufflemap", signal="kill",
                                       skip_matches=1)
        ctx.cluster.inject_failures(injector)
        actual = ctx.sql(make_query())
        run = ctx.last_run
    finally:
        ctx.close()
    assert injector.injected == 1
    assert _rows(actual) == _rows(expected)
    assert run.iterations == sim_ctx.last_run.iterations
    assert _delta(run, before, "process_worker_respawns") == 1
    assert _delta(run, before, "process_install_blob_reused") == 1
    # Nothing was pickled for this query, yet the respawned worker (whose
    # blob cache is empty) was sent the bytes: the memoised ones.
    assert pickles == []
    assert shipped[:NUM_WORKERS] == [None] * NUM_WORKERS
    (resent,) = shipped[NUM_WORKERS:]
    assert isinstance(resent, bytes)
    assert _delta(run, before, "process_install_bytes") == len(resent)
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
    sim_ctx = make_context(query_name, "simulated", num_workers=2)
    expected = sim_ctx.sql(make_query())
    ctx = make_context(query_name, "process", num_workers=2)
    try:
        actual = ctx.sql(make_query())
        run = ctx.last_run
    finally:
        ctx.close()
    assert _rows(actual) == _rows(expected)
    assert run.iterations == sim_ctx.last_run.iterations
    assert run.delta_history == sim_ctx.last_run.delta_history
    summary = run.supervision_summary()
    assert summary["process_tasks_shipped"] > 0
    assert summary["process_backend_degradations"] == 0

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
