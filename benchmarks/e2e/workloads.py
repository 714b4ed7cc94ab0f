"""The four workloads: inputs, set-up, timed phase, traced phase, checks.

Every workload runs on ``num_workers=2`` with the default
``ExecutionConfig`` apart from ``backend``.  The seed reaches only the
generators (``rmat_graph`` and the serving op stream); the program sees
generated inputs.  One call to :func:`run` is one run of one workload in
the current (fresh) process:

- ``trace=False`` — the end-to-end metrics, no wrapper installed: set-up
  (context, table, pool, cold first run), then timed repetitions for
  ``seconds``, then verification, then further set-ups for ``setup_s``.
- ``trace=True`` — the per-layer metrics: untraced repetitions for a
  third of ``seconds`` (the overhead baseline), traced repetitions for
  the rest, the primitive microbenchmarks, and the trace JSON.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass

import measure
import micro
import oracles
import spans
import spec
from repro import ExecutionConfig, RaSQLContext
from repro.core.governor import QueryGovernor
from repro.datagen import rmat_graph
from repro.errors import RaSQLError
from repro.queries.library import get_query
from repro.serving import QueryService

NUM_WORKERS = 2
MIN_REPS = 2
#: ``setup_s`` is the median over repeated set-ups: a workload keeps
#: setting up until it has MAX_SETUPS samples or has spent this long on
#: them (the 1M-edge set-up alone takes longer, so it is measured once).
SETUP_BUDGET_S = 5.0
MAX_SETUPS = 5


class Tally:
    """Operations attempted / failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, *args) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what % args if args else what)


def _fingerprint(rows) -> tuple[int, int]:
    return len(rows), oracles.checksum(rows)


def _close(ctx, tally: Tally) -> None:
    ctx.close()
    leaked = measure.surviving_children()
    tally.check(not leaked, "child processes survived ctx.close(): %s", leaked)


def _more_setups(setup_once, first_s: float) -> list[float]:
    """Repeat ``setup_once() -> seconds`` within the set-up budget."""
    samples = [first_s]
    while len(samples) < MAX_SETUPS and sum(samples) < SETUP_BUDGET_S:
        gc.collect()
        samples.append(setup_once())
    return samples


# ----------------------------------------------------------------------
# batch workloads: one library query, repeated
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    query: str
    vertices: int
    #: floor for ``--scale`` (below it the kernel size gate or tracing
    #: overhead, not the workload, is what gets measured)
    min_vertices: int
    weighted: bool
    backend: str


BATCH = {
    "cc_sim_1m": Batch("cc", 100_000, 2_000, False, "simulated"),
    "sssp_proc_300k": Batch("sssp", 30_000, 600, True, "process"),
    "tc_sim_1k": Batch("tc", 1_000, 200, False, "simulated"),
}
SSSP_SOURCE = 0


def _batch_sql(query: str) -> str:
    entry = get_query(query)
    return entry.formatted(source=SSSP_SOURCE) if query == "sssp" else entry.sql


def _batch_setup(edges, sql: str, weighted: bool, backend: str):
    """Context + table (+ worker pool) + the cold first run."""
    with measure.stopwatch() as took:
        ctx = RaSQLContext(num_workers=NUM_WORKERS,
                           config=ExecutionConfig(backend=backend))
        ctx.register_table(
            "edge", ["Src", "Dst", "Cost"] if weighted else ["Src", "Dst"],
            edges)
        result = ctx.sql(sql)
    return ctx, result, took["seconds"]


def _oracle_ok(query: str, edges, rows) -> bool:
    if query == "cc":
        return rows == [(oracles.cc_min_label_count(edges),)]
    if query == "sssp":
        return oracles.same_rows(rows, oracles.sssp_rows(edges, SSSP_SOURCE))
    return oracles.same_rows(rows, oracles.tc_rows(edges))


def _untraced_reps(ctx, sql, seconds, expected, tally):
    """Timed ``ctx.sql`` repetitions: at least MIN_REPS, until
    ``seconds`` have passed.  Returns the samples and the last result."""
    samples: list[measure.Timed] = []
    last = None
    start = time.perf_counter()
    while len(samples) < MIN_REPS or time.perf_counter() - start < seconds:
        try:
            timed = measure.timed_call(lambda: ctx.sql(sql))
        except RaSQLError as exc:
            tally.check(False, "query raised %r", exc)
            break
        last = timed.result
        samples.append(timed._replace(result=None))
        tally.check(_fingerprint(last.rows) == expected,
                    "repetition %d: row count/checksum differ from the "
                    "cold run", len(samples))
    return samples, last


def _counter_delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0) - before.get(name, 0)


def _layer_times(recorder, whole_s: float, query_id=None) -> dict:
    """The time-valued layer metrics of one traced unit."""
    def total(prefix, exact=False):
        return recorder.seconds(prefix, query_id, exact)

    front_ms = {
        "core.parser.parse_ms": total("core.parser.parse") * 1e3,
        "core.analyzer.analyze_ms": total("core.analyzer.analyze") * 1e3,
        "core.optimizer.optimize_ms": total("core.optimizer.optimize") * 1e3,
        "core.planner.plan_ms": total("core.planner.plan_clique") * 1e3,
    }
    execute = total("core.fixpoint.execute")
    in_cluster = recorder.child_seconds(
        "core.fixpoint.execute", "engine.cluster.", query_id)
    select = total("core.executor.execute_select")
    stage = "engine.cluster.run_stage:fixpoint-"
    layers = sum(front_ms.values()) / 1e3 + execute + select
    return {
        **front_ms,
        "core.fixpoint.execute_s": execute,
        "core.fixpoint.self_s": execute - in_cluster,
        "engine.cluster.stage_base_s": total(stage + "base", exact=True),
        "engine.cluster.stage_shufflemap_s":
            total(stage + "shufflemap", exact=True),
        "engine.cluster.stage_decomposed_s":
            total(stage + "decomposed", exact=True),
        "engine.cluster.exchange_s": total("engine.cluster.exchange"),
        "engine.cluster.broadcast_s": total("engine.cluster.broadcast"),
        "engine.backend.run_batch_s": total("engine.backend.run_batch"),
        "core.executor.final_select_s": select,
        "bench.layers_sum_frac": layers / whole_s if whole_s else 0.0,
    }


def _layer_counts(before: dict, after: dict) -> dict:
    """The counter-valued layer metrics from two ``metrics.snapshot()``s."""
    def delta(name):
        return _counter_delta(before, after, name)

    return {
        "engine.cluster.stages": delta("stages"),
        "engine.cluster.tasks": delta("tasks"),
        "engine.cluster.shuffle_records": delta("shuffle_records"),
        "engine.cluster.shuffle_bytes": delta("shuffle_bytes"),
        "engine.backend.task_messages": delta("process_task_messages"),
        "engine.backend.tasks_shipped": delta("process_tasks_shipped"),
        "engine.backend.tasks_driver_local":
            delta("process_tasks_driver_local"),
        "engine.backend.payload_bytes": delta("process_payload_bytes"),
        "engine.backend.install_bytes": delta("process_install_bytes"),
    }


def _check_shipped(ctx, tally: Tally) -> None:
    """A silent driver-local fallback is a failed run."""
    counters = ctx.metrics.snapshot()
    tally.check(ctx.cluster.backend.remote_ready(),
                "the process pool is not up")
    tally.check(counters.get("process_tasks_shipped", 0) > 0,
                "no task was shipped to a worker process")
    tally.check(counters.get("process_tasks_driver_local", 0) == 0,
                "%d tasks fell back to the driver",
                counters.get("process_tasks_driver_local", 0))


def run_batch(name: str, seed: int, seconds: float, trace: bool,
              scale: float, trace_path) -> dict:
    workload = BATCH[name]
    vertices = max(workload.min_vertices, round(workload.vertices * scale))
    sql = _batch_sql(workload.query)
    tally = Tally()

    start = time.perf_counter()
    edges = rmat_graph(vertices, seed=seed, weighted=workload.weighted)
    datagen_s = time.perf_counter() - start

    ctx, cold, setup_s = _batch_setup(edges, sql, workload.weighted,
                                      workload.backend)
    expected = _fingerprint(cold.rows)
    del cold
    params = {"query": workload.query, "vertices": vertices,
              "edges": len(edges), "backend": workload.backend,
              "num_workers": NUM_WORKERS, "datagen_s": datagen_s,
              "result_rows": expected[0]}

    reps, last = _untraced_reps(ctx, sql, seconds / 3 if trace else seconds,
                                expected, tally)
    walls = [rep.wall for rep in reps]
    counts = {"reps": len(reps)}

    if trace:
        metrics = _batch_traced(
            name, ctx, sql, seconds * 2 / 3, expected, tally, walls,
            trace_path, {"workload": name, "seed": seed, **params})
        metrics.update(micro.run(edges))
    else:
        peak_rss = measure.peak_rss_mb()

    if workload.backend == "process":
        _check_shipped(ctx, tally)
        twin, twin_cold, _ = _batch_setup(edges, sql, workload.weighted,
                                          "simulated")
        tally.check(last is not None
                    and oracles.same_rows(last.rows, twin_cold.rows),
                    "process result is not bit-exact with its simulated twin")
        if trace:
            twin_reps, _ = _untraced_reps(twin, sql, seconds / 3,
                                          expected, tally)
            sim_wall = statistics.median(rep.wall for rep in twin_reps)
            wall = statistics.median(walls)
            driver = statistics.median(rep.driver_cpu for rep in reps)
            workers = statistics.median(rep.children_cpu for rep in reps)
            metrics.update({
                "engine.backend.driver_cpu_s": driver,
                "engine.backend.worker_cpu_s": workers,
                "engine.backend.cpu_per_wall": (driver + workers) / wall,
                "engine.backend.driver_wait_frac": 1.0 - driver / wall,
                "engine.backend.sim_wall_s": sim_wall,
                "engine.backend.speedup_vs_sim": sim_wall / wall,
            })
        del twin_cold
        twin.close()  # simulated: owns no process; the leak check follows

    tally.check(last is not None
                and _oracle_ok(workload.query, edges, last.rows),
                "result disagrees with the independent %s oracle",
                workload.query)
    del last
    _close(ctx, tally)
    del ctx

    if not trace:
        def setup_again() -> float:
            again, result, spent = _batch_setup(
                edges, sql, workload.weighted, workload.backend)
            tally.check(_fingerprint(result.rows) == expected,
                        "a repeated set-up's cold run differs")
            del result
            _close(again, tally)
            return spent

        setups = _more_setups(setup_again, setup_s)
        counts["setups"] = len(setups)
        tail, tail_s = measure.tail(walls)
        metrics = {
            "query_wall_s": statistics.median(walls),
            "query_tail_s": tail_s,
            "query_cpu_s": statistics.median(
                rep.driver_cpu + rep.children_cpu for rep in reps),
            "requests_per_s": len(walls) / sum(walls),
            "peak_rss_mb": peak_rss,
            "setup_s": statistics.median(setups),
        }
        counts["tail_percentile"] = tail
        counts["walls"] = walls
        counts["slowdowns"] = [rep.slowdown for rep in reps]
        counts["setup_samples"] = setups
    return {"params": params, "metrics": metrics, "counts": counts,
            "tally": tally}


def _batch_traced(name, ctx, sql, seconds, expected, tally, untraced_walls,
                  trace_path, meta) -> dict:
    """Traced repetitions; time metrics are medians over them, counts
    come from the last one (they repeat exactly).  Span times stay raw —
    ``bench.box_slowdown`` says how the box ran meanwhile — and only the
    overhead compares yardstick-scaled walls."""
    recorder = spans.Recorder()
    per_rep: list[dict] = []
    walls, slowdowns = [], []
    counts: dict = {}
    result = None
    start = time.perf_counter()
    with spans.installed(recorder, ctx):
        while not per_rep or time.perf_counter() - start < seconds:
            rep = len(per_rep)
            before = ctx.metrics.snapshot()
            gc.collect()
            gc.disable()
            try:
                with measure.stopwatch() as took, \
                        recorder.span("query", query_id=rep):
                    result = ctx.sql(sql)
            except RaSQLError as exc:
                tally.check(False, "traced query raised %r", exc)
                break
            finally:
                gc.enable()
            whole = recorder.seconds("query", rep)
            walls.append(whole / took["slowdown"])
            slowdowns.append(took["slowdown"])
            per_rep.append(_layer_times(recorder, whole, rep))
            counts = _layer_counts(before, ctx.metrics.snapshot())
            tally.check(_fingerprint(result.rows) == expected,
                        "traced repetition %d: row count/checksum differ",
                        rep)
    recorder.dump(trace_path, meta)
    if not per_rep:
        return {}
    metrics = {key: statistics.median(rep[key] for rep in per_rep)
               for key in per_rep[0]}
    metrics.update(counts)
    run = ctx.last_run
    metrics["core.fixpoint.iterations"] = run.iterations
    metrics["core.fixpoint.delta_rows"] = sum(
        sum(history) for history in run.delta_history.values())
    metrics["core.executor.result_rows"] = len(result.rows)
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(walls) / statistics.median(untraced_walls) - 1.0)
    metrics["bench.box_slowdown"] = statistics.median(slowdowns)
    low, high = spec.LAYERS_SUM_RANGE
    tally.check(low <= metrics["bench.layers_sum_frac"] <= high,
                "%s: layers sum to %.3f of the traced whole (allowed "
                "%.2f-%.2f)", name, metrics["bench.layers_sum_frac"], low, high)
    return metrics


# ----------------------------------------------------------------------
# serve_mix: a closed loop of one client against QueryService
# ----------------------------------------------------------------------

SERVE_VERTICES = 360
VIEW = "dist"
#: Share of each request kind in the op stream.
MIX = (("view_read", 0.65), ("hot_sql", 0.12), ("pooled_sql", 0.08),
       ("cold_sql", 0.10), ("insert", 0.05))
#: Distinct cold statements: more than the 128-entry plan cache and the
#: 256-entry result cache hold.
COLD_SOURCES = 512
GOVERNOR_SLOTS, GOVERNOR_QUEUE = 4, 8
#: Ops served before timing starts (part of set-up: caches fill).
WARMUP_OPS = 1_000
#: The timed stream is a fixed number of requests, ``seconds`` times this
#: rate (what this 2-core box sustains), not a time box: the service
#: slows as it ages, so only a fixed stream gives every run the same
#: requests to time, the same cache traffic and the same heap.
NOMINAL_REQUESTS_PER_S = 450
#: Requests between two yardstick readings of the timed stream.
YARDSTICK_EVERY = 250


class OpStream:
    """The seeded request stream: ``(kind, payload)`` pairs."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._next_node = 10_000  # fresh vertex ids: inserts never repeat
        reach, sssp = get_query("reach"), get_query("sssp")
        self._hot = ["SELECT count(*) FROM edge",
                     reach.formatted(source=0), sssp.formatted(source=0)]
        self._pooled = [reach.formatted(source=s) for s in range(1, 9)]
        self._cold = [reach.formatted(source=s) for s in range(COLD_SOURCES)]
        self._kinds = [kind for kind, _ in MIX]
        self._weights = [weight for _, weight in MIX]

    def next_op(self) -> tuple[str, object]:
        rng = self._rng
        kind = rng.choices(self._kinds, self._weights)[0]
        if kind == "view_read":
            return "view_read", VIEW
        if kind == "hot_sql":
            return "sql", rng.choice(self._hot)
        if kind == "pooled_sql":
            return "sql", rng.choice(self._pooled)
        if kind == "cold_sql":
            return "sql", rng.choice(self._cold)
        row = (rng.randrange(64), self._next_node, float(rng.randint(1, 10)))
        self._next_node += 1
        return "insert", row


@dataclass
class Served:
    ctx: RaSQLContext
    service: QueryService
    session: object
    stream: OpStream


def _submit(served: Served, kind: str, payload):
    if kind == "view_read":
        return served.session.read_view(payload)
    if kind == "sql":
        return served.session.sql(payload)
    return served.session.insert("edge", [payload])


def _serve_chunk(served: Served, tally: Tally, numbers: range,
                 recorder=None) -> dict[str, list[float]]:
    """Closed loop, one client: submit, drain, next.  Returns the raw
    per-kind latencies (none when a recorder takes the spans instead)."""
    latencies = {"sql": [], "view_read": [], "insert": []}
    service, stream = served.service, served.stream
    for number in numbers:
        kind, payload = stream.next_op()
        if recorder is None:
            begin = time.perf_counter()
            future = _submit(served, kind, payload)
            service.drain()
            latencies[kind].append(time.perf_counter() - begin)
        else:
            with recorder.span("request:" + kind, query_id=number):
                future = _submit(served, kind, payload)
                service.drain()
        tally.check(future.ok, "request #%d (%s) failed: %r",
                    number, kind, future.error)
    return latencies


def _serve_ops(served: Served, tally: Tally, count: int, recorder=None):
    """The timed stream, in chunks with a yardstick reading at every
    chunk boundary.  Returns per-kind latencies, the wall of the whole
    stream and the driver CPU it used — all at reference speed — and the
    slowdown readings."""
    latencies = {"sql": [], "view_read": [], "insert": []}
    wall = cpu = 0.0
    slowdowns = []
    # Unlike the batch repetitions the stream keeps the collector on, as a
    # service does: paused, the cycles every request leaves behind grow
    # the heap to ~1 GB within 15 s and the run measures page faults.
    gc.collect()
    reading = measure.box_slowdown()
    for first in range(0, count, YARDSTICK_EVERY):
        chunk_cpu = time.process_time()
        start = time.perf_counter()
        raw = _serve_chunk(
            served, tally, range(first, min(first + YARDSTICK_EVERY, count)),
            recorder)
        chunk_wall = time.perf_counter() - start
        chunk_cpu = time.process_time() - chunk_cpu
        following = measure.box_slowdown()
        slowdown = (reading + following) / 2
        reading = following
        slowdowns.append(slowdown)
        wall += chunk_wall / slowdown
        cpu += chunk_cpu / slowdown
        for kind, values in raw.items():
            latencies[kind].extend(value / slowdown for value in values)
    return latencies, wall, cpu, slowdowns


def _serve_setup(edges, seed: int, warmup: int, tally: Tally):
    """Context, governor, table, service, served view, warm-up ops."""
    with measure.stopwatch() as took:
        ctx = RaSQLContext(num_workers=NUM_WORKERS)
        ctx.governor = QueryGovernor(max_concurrent=GOVERNOR_SLOTS,
                                     max_queue=GOVERNOR_QUEUE,
                                     metrics=ctx.metrics)
        ctx.register_table("edge", ["Src", "Dst", "Cost"], edges)
        # One client in a closed loop leaves the scheduler nothing to
        # choose, so its seed is fixed: the workload seed reaches only
        # the generators.
        service = QueryService(ctx, scheduler="seeded", seed=0)
        service.create_view(
            VIEW, get_query("sssp").formatted(source=SSSP_SOURCE))
        served = Served(ctx, service, service.session("client-0"),
                        OpStream(seed))
        _serve_chunk(served, tally, range(warmup))
    return served, took["seconds"]


def _serve_verify(served: Served, tally: Tally) -> None:
    """The served view equals a from-scratch run on the final table."""
    view_rows = served.service.view(VIEW).read().rows
    scratch = served.ctx.sql(get_query("sssp").formatted(source=SSSP_SOURCE))
    tally.check(oracles.same_rows(view_rows, scratch.rows),
                "served view differs from a from-scratch sssp on the "
                "final edge table")


def _cache_counts(served: Served) -> dict:
    view = served.service.view(VIEW)
    return {"plan_hits": served.service.plan_cache.hits,
            "plan_misses": served.service.plan_cache.misses,
            "result_hits": served.service.result_cache.hits,
            "result_misses": served.service.result_cache.misses,
            "result_evictions": served.service.result_cache.evictions,
            "view_reads": view.reads, "snapshot_hits": view.snapshot_hits}


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def run_serve(name: str, seed: int, seconds: float, trace: bool,
              scale: float, trace_path) -> dict:
    tally = Tally()
    warmup = max(50, round(WARMUP_OPS * scale))
    requests = max(200, round(seconds * NOMINAL_REQUESTS_PER_S * scale))
    start = time.perf_counter()
    edges = rmat_graph(SERVE_VERTICES, seed=seed, weighted=True)
    datagen_s = time.perf_counter() - start
    params = {"vertices": SERVE_VERTICES, "edges": len(edges),
              "backend": "simulated", "num_workers": NUM_WORKERS,
              "clients": 1, "loop": "closed", "mix": dict(MIX),
              "cold_sources": COLD_SOURCES, "warmup_ops": warmup,
              "requests": requests,
              "governor": [GOVERNOR_SLOTS, GOVERNOR_QUEUE],
              "datagen_s": datagen_s}

    served, setup_s = _serve_setup(edges, seed, warmup, tally)
    if trace:
        metrics, counts = _serve_traced(served, edges, seed, warmup,
                                        requests, tally, trace_path,
                                        {"workload": name, "seed": seed,
                                         **params})
        metrics.update(micro.run(edges))
        return {"params": params, "metrics": metrics, "counts": counts,
                "tally": tally}

    latencies, wall, cpu, slowdowns = _serve_ops(served, tally, requests)
    peak_rss = measure.peak_rss_mb()
    _serve_verify(served, tally)
    _close(served.ctx, tally)
    del served

    def setup_again() -> float:
        again, spent = _serve_setup(edges, seed, warmup, tally)
        _close(again.ctx, tally)
        return spent

    setups = _more_setups(setup_again, setup_s)
    sql = latencies["sql"]
    tail, tail_s = measure.tail(sql)
    metrics = {
        "query_wall_s": statistics.median(sql),
        "query_tail_s": tail_s,
        "query_cpu_s": cpu / requests,
        "requests_per_s": requests / wall,
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setups),
    }
    counts = {"setups": len(setups), "tail_percentile": tail,
              "setup_samples": setups, "slowdowns": slowdowns,
              **{kind + "_requests": len(values)
                 for kind, values in latencies.items()}}
    return {"params": params, "metrics": metrics, "counts": counts,
            "tally": tally}


def _serve_traced(served, edges, seed, warmup, ops, tally, trace_path, meta):
    """The timed stream untraced, then the same stream traced on an
    identical fresh service: counts repeat exactly, and the two walls
    give the tracing overhead."""
    latencies, untraced_wall, _, _ = _serve_ops(served, tally, ops)
    _serve_verify(served, tally)
    _close(served.ctx, tally)

    served, _ = _serve_setup(edges, seed, warmup, tally)
    view = served.service.view(VIEW)
    recorder = spans.Recorder()
    caches = _cache_counts(served)
    before = served.ctx.metrics.snapshot()
    with spans.installed(recorder, served.ctx, served_view=view):
        _, traced_wall, _, slowdowns = _serve_ops(served, tally, ops,
                                                  recorder)
    after = served.ctx.metrics.snapshot()
    caches = {key: value - caches[key]
              for key, value in _cache_counts(served).items()}
    recorder.dump(trace_path, meta)
    _serve_verify(served, tally)
    _close(served.ctx, tally)

    analyze = recorder.seconds("core.context.analyze_query")
    execute = recorder.seconds("core.context.execute_admitted")
    analyzed = recorder.count("core.context.analyze_query")
    executed = recorder.count("core.context.execute_admitted")
    sql_requests = recorder.count("request:sql")
    inserts = recorder.count("core.streaming.insert")
    governor = (recorder.seconds("core.governor.admit")
                + recorder.seconds("core.governor.release"))
    sql_wall = recorder.seconds("request:sql")

    metrics = _layer_times(recorder, analyze + execute)
    metrics.update(_layer_counts(before, after))
    metrics.update({
        "core.fixpoint.iterations": _counter_delta(before, after,
                                                   "iterations"),
        "serving.service.sql_p50_ms":
            statistics.median(latencies["sql"]) * 1e3,
        "serving.service.sql_p99_ms":
            measure.percentile(latencies["sql"], 99.0) * 1e3,
        "serving.service.insert_p50_ms":
            statistics.median(latencies["insert"]) * 1e3,
        "serving.service.view_read_p50_us":
            statistics.median(latencies["view_read"]) * 1e6,
        "serving.service.analyze_ms_per_miss":
            analyze / analyzed * 1e3 if analyzed else 0.0,
        "serving.service.execute_ms_per_miss":
            execute / executed * 1e3 if executed else 0.0,
        "serving.service.self_ms":
            (sql_wall - analyze - execute) / sql_requests * 1e3,
        "serving.cache.plan_hit_rate":
            _rate(caches["plan_hits"], caches["plan_misses"]),
        "serving.cache.result_hit_rate":
            _rate(caches["result_hits"], caches["result_misses"]),
        "serving.cache.result_evictions": caches["result_evictions"],
        "serving.views.snapshot_hit_rate":
            caches["snapshot_hits"] / caches["view_reads"],
        "core.governor.admit_release_us": governor / ops * 1e6,
        "core.streaming.maintain_ms_per_insert":
            recorder.seconds("core.streaming.insert") / inserts * 1e3
            if inserts else 0.0,
        "bench.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        "bench.box_slowdown": statistics.median(slowdowns),
    })
    counts = {"ops": ops, "sql_requests": sql_requests, "inserts": inserts,
              "executed": executed, "analyzed": analyzed, **caches}
    return metrics, counts


def run(name: str, seed: int, seconds: float, trace: bool, scale: float,
        trace_path) -> dict:
    """One run of one workload.  ``metrics`` holds every end-to-end
    metric (``trace=False``) or every per-layer metric (``trace=True``;
    layers the workload does not reach read 0)."""
    runner = run_serve if name == "serve_mix" else run_batch
    outcome = runner(name, seed, seconds, trace, scale, trace_path)
    if trace:
        outcome["metrics"] = {metric: outcome["metrics"].get(metric, 0.0)
                              for metric, _, _ in spec.PER_LAYER}
    return outcome
