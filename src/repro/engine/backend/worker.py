"""Process-backend worker: the child side of the supervision pipe.

Each pool worker is a spawn-started process running :func:`worker_main`.
It keeps *resident state*: for every installed session it owns real
``SetRDD``/``KeyedStateRDD`` structures (all ``n`` partitions allocated,
only the home partitions ever populated), so an iteration ships only the
incoming delta rows — never the all-relation.

Protocol (driver -> worker, one tuple per message)::

    (req_id, "install", light_spec, blob_digest, heavy_blob_or_None)
    (req_id, "release", sid)
    (req_id, "rebuild", sid, {partition: [rows_by_view, ...]})
    (req_id, "collect", sid, [partition, ...])
    (req_id, "chaos",   [directive, ...])
    (req_id, "task",    stage, task_index, payload_blob)
    (0,      "task_batch", stage, [(req_id, task_index, blob), ...])
    (req_id, "ping")
    (req_id, "stop")

An install ships its *heavy* half (prebuilt base join structures and
broadcast tables — see ``payloads.split_install_spec``) content-addressed:
when the driver predicts this worker still caches the digest, it sends
``None`` instead of re-shipping megabytes of unchanged base partitions.
The worker's blob cache mirrors the driver's bookkeeping FIFO exactly
(``BLOB_CACHE_SLOTS``, insertion order, no reorder on hit), so a
predicted hit can never miss.  A ``task_batch`` carries one worker's
whole per-iteration task set in a single message — each entry replies
individually under its own ``req_id``, in order, exactly as if the tasks
had arrived as separate messages.

Worker -> driver::

    ("ok",  req_id, cpu_seconds, result)
    ("err", req_id, pickled_exception_or_None, traceback_text)
    ("hb",  seq)                      # heartbeat daemon thread

The derivation code is *shared with the simulated oracle*, not
reimplemented: merges go through
:func:`repro.core.fixpoint.merge_into_state_partition`, decomposed
fixpoints through ``run_grouped_fixpoint``/``run_fused_fixpoint``, term
functions are recompiled from the very source the driver generated, and
the kernel routers/folds come from ``repro.engine.kernels``.

Chaos directives (``{"kind": "poison"|"hang", "stage": regex,
"task": index-or-None, "times": n}``) are checked before a task runs:
``poison`` hard-exits the process (``os._exit``) the way a segfaulting
UDF would; ``hang`` silences the heartbeat and sleeps, modelling a
livelocked executor, so the supervisor's liveness reaper has something
real to catch.
"""

from __future__ import annotations

import os
import pickle
import re
import threading
import time
import traceback

from repro.core.fixpoint import (
    FixpointOperator,
    _make_assembler,
    _make_negator,
    _make_splitter,
    aggregate_and_route,
    merge_into_state_partition,
    run_fused_fixpoint,
    run_grouped_fixpoint,
)
from repro.engine.backend.payloads import (BLOB_CACHE_SLOTS, InstallSpec,
                                           assemble_install_spec,
                                           recompile_term)
from repro.engine.kernels import make_fold_kernel, make_router
from repro.engine.serialization import load_payload
from repro.engine.setrdd import KeyedStateRDD, SetRDD
from repro.core.physical import TermRuntime


class _Heartbeat(threading.Thread):
    """Daemon thread beating on the pipe; shares the reply send lock."""

    def __init__(self, conn, lock, interval: float):
        super().__init__(daemon=True, name="rasql-heartbeat")
        self.conn = conn
        self.lock = lock
        self.interval = interval
        self.seq = 0
        self._stopped = threading.Event()

    def run(self):
        while not self._stopped.wait(self.interval):
            try:
                with self.lock:
                    self.conn.send(("hb", self.seq))
            except Exception:
                return  # driver gone; the main loop will exit on EOF
            self.seq += 1

    def stop(self):
        self._stopped.set()


class WorkerSession:
    """One installed fixpoint session: resident state + live callables
    reconstructed from the wire spec."""

    def __init__(self, spec: InstallSpec):
        self.spec = spec
        n = spec.n
        self.states: dict[str, SetRDD | KeyedStateRDD] = {}
        self.splitters: dict = {}
        self.assemblers: dict = {}
        self.negators: dict = {}
        self.two_col: dict[str, bool] = {}
        self.routers: dict = {}
        self.fold_kernels: dict = {}
        for name, view in spec.views.items():
            functions = view.aggregate_functions
            if view.has_aggregates:
                self.states[name] = KeyedStateRDD(
                    n, functions, use_kernels=True)
            else:
                self.states[name] = SetRDD(n)
            self.splitters[name] = _make_splitter(view)
            self.assemblers[name] = _make_assembler(view)
            self.negators[name] = _make_negator(view)
            self.two_col[name] = view.two_col
            self.routers[name] = make_router(view.partition_key_positions, n)
            self.fold_kernels[name] = (
                make_fold_kernel(functions[0]) if view.two_col else None)
        self.terms = [(ts, recompile_term(ts.source, ts.view))
                      for ts in spec.terms]
        self.dedup_fns = [recompile_term(ts.dedup_source, ts.view)
                          if ts.dedup_source is not None else None
                          for ts in spec.terms]
        #: Current task's fresh deltas per view (single partition at a
        #: time; the incremental state-table append reads these).
        self.fresh: dict[str, dict[int, list]] = {
            name: {} for name in spec.views}
        self._state_tables: dict[tuple, list] = {}
        runtime = TermRuntime()
        runtime.broadcast_tables = spec.broadcast_tables
        runtime.base_partitions = spec.base_partitions
        runtime.state_rows = self._state_rows
        runtime.delta_rows = self._delta_rows
        runtime.state_total = self._state_total
        runtime.state_table = self._state_table
        self.runtime = runtime

    # -- TermRuntime closures (mirror FixpointOperator._setup_states) --

    def _state_rows(self, view_name: str, partition: int) -> list[tuple]:
        if partition == -1:
            # Gathered joins read sibling partitions mid-stage; remote
            # eligibility excludes them, so this cannot be reached.
            raise RuntimeError(
                "gather join reached the process-backend worker; "
                "_remote_eligible should have kept this clique simulated")
        state = self.states[view_name]
        if isinstance(state, SetRDD):
            return list(state.partitions[partition])
        return state.partition_rows(partition)

    def _delta_rows(self, view_name: str, partition: int) -> list[tuple]:
        return self.fresh[view_name].get(partition, [])

    def _state_total(self, view_name: str, partition: int, key):
        return self.states[view_name].partitions[partition].get(key)

    def _state_table(self, view_name: str, partition: int,
                     key_positions, pad):
        """Version-validated state-side build table; same cache rules as
        :meth:`repro.core.fixpoint.FixpointOperator._state_table` minus
        the driver-only metrics and gather bypass."""
        state = self.states[view_name]
        version = state.versions[partition]
        count = len(state.partitions[partition])
        cache_key = (view_name, partition, key_positions, pad)
        entry = self._state_tables.get(cache_key)
        if entry is not None and entry[0] == version:
            if entry[1] == count:
                return entry[2]
            fresh = self.fresh[view_name].get(partition, [])
            if isinstance(state, SetRDD) and entry[1] + len(fresh) == count:
                FixpointOperator._append_state_rows(
                    entry[2], fresh, key_positions, pad)
                entry[1] = count
                return entry[2]
        table = FixpointOperator._build_state_side(
            self._state_rows(view_name, partition), key_positions, pad)
        self._state_tables[cache_key] = [version, count, table]
        return table

    # -- the per-iteration hot path --

    def iterate(self, partition: int, rows_by_view: dict[str, list]
                ) -> tuple[int, dict, dict[str, int]]:
        """Merge one partition's incoming deltas, derive, route.

        Returns ``(d_count, per_view_buckets, d_by_view)``; the driver
        sums ``d_by_view`` across partitions for its span annotations
        (its own ``_current_d`` stays empty in remote mode).
        """
        d_count = 0
        d_by_view: dict[str, int] = {}
        for name in self.spec.view_order:
            rows = rows_by_view.get(name, [])
            fresh = merge_into_state_partition(
                self.states[name], partition, rows, self.two_col[name],
                self.splitters[name], self.assemblers[name])
            self.fresh[name][partition] = fresh
            d_by_view[name] = len(fresh)
            d_count += len(fresh)
        if d_count == 0:
            return 0, {}, d_by_view
        return d_count, self._evaluate_terms(partition), d_by_view

    def _evaluate_terms(self, partition: int) -> dict[str, dict[int, list]]:
        """The kernels-mode subset of
        :meth:`repro.core.fixpoint.FixpointOperator._evaluate_terms`:
        no naive mode, no memory touches; the aggregate-and-route tail
        is the shared :func:`repro.core.fixpoint.aggregate_and_route`."""
        collected: dict[str, list[tuple]] = {}
        for spec, fn in self.terms:
            delta = self.fresh[spec.delta_view].get(partition, [])
            if not delta:
                continue
            rows = fn(delta, partition, self.runtime)
            if spec.negate and rows:
                negate = self.negators[spec.view]
                rows = [negate(r) for r in rows]
            collected.setdefault(spec.view, []).extend(rows)

        return aggregate_and_route(
            collected, self.spec.views, self.spec.partial_aggregation,
            self.two_col, self.fold_kernels, self.splitters,
            self.assemblers, self.routers)

    def decompose(self, partition: int, mode: str, delta_rows: list):
        """Stateless per-partition fixpoint via the shared runners."""
        if mode == "grouped":
            return run_grouped_fixpoint(
                [ts.grouped_spec for ts, _ in self.terms],
                self.runtime.broadcast_tables, delta_rows,
                self.spec.max_iterations)
        return run_fused_fixpoint(
            self.dedup_fns, self.runtime.broadcast_tables, delta_rows,
            self.spec.max_iterations)

    # -- crash recovery --

    def rebuild(self, log: dict[int, list]) -> None:
        """Replay committed iterations from the driver's replay log.

        Clears each partition first (idempotent on a fresh respawn,
        necessary when a survivor re-adopts): the state is exactly the
        in-order merge of every committed iteration's incoming rows —
        the fresh-delta returns are recomputed and discarded.
        """
        for partition, iterations in log.items():
            for name in self.spec.view_order:
                state = self.states[name]
                state.replace_partition(
                    partition, set() if isinstance(state, SetRDD) else {})
            for rows_by_view in iterations:
                for name in self.spec.view_order:
                    rows = rows_by_view.get(name, [])
                    if rows:
                        merge_into_state_partition(
                            self.states[name], partition, rows,
                            self.two_col[name], self.splitters[name],
                            self.assemblers[name])

    def collect(self, partitions: list[int]) -> dict[str, dict[int, object]]:
        """Final state containers for the requested (home) partitions."""
        out: dict[str, dict[int, object]] = {}
        for name in self.spec.view_order:
            state = self.states[name]
            out[name] = {
                p: (set(state.partitions[p]) if isinstance(state, SetRDD)
                    else dict(state.partitions[p]))
                for p in partitions}
        return out


def _apply_chaos(directives: list[dict], stage: str, task_index: int,
                 heartbeat: _Heartbeat) -> None:
    """Fire the first matching armed directive (worker-side decrement;
    the driver keeps its own copy in sync via reap detection)."""
    for directive in directives:
        if directive.get("times", 0) <= 0:
            continue
        if not re.search(directive["stage"], stage):
            continue
        task = directive.get("task")
        if task is not None and task != task_index:
            continue
        directive["times"] -= 1
        if directive["kind"] == "poison":
            os._exit(42)  # no cleanup, no reply: a hard native crash
        if directive["kind"] == "hang":
            heartbeat.stop()
            time.sleep(3600.0)  # reaped long before this returns
        return


def _run_payload(sessions: dict[str, WorkerSession], payload):
    kind = payload[0]
    if kind == "iterate":
        _, sid, partition, rows_by_view = payload
        return sessions[sid].iterate(partition, rows_by_view)
    if kind == "decompose":
        _, sid, partition, mode, delta_rows = payload
        return sessions[sid].decompose(partition, mode, delta_rows)
    raise RuntimeError(f"unknown payload kind {kind!r}")


def worker_main(conn, worker_id: int, heartbeat_interval: float) -> None:
    """Entry point of a pool worker process."""
    lock = threading.Lock()
    heartbeat = _Heartbeat(conn, lock, heartbeat_interval)
    heartbeat.start()
    sessions: dict[str, WorkerSession] = {}
    chaos: list[dict] = []
    #: Content-addressed heavy-install blobs, FIFO-evicted; mirrors the
    #: driver's per-worker ``cached_digests`` bookkeeping exactly.
    blob_cache: dict[str, bytes] = {}

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # driver exited; die quietly
        req_id, kind = message[0], message[1]
        try:
            cpu = 0.0
            if kind == "stop":
                with lock:
                    conn.send(("ok", req_id, 0.0, None))
                return
            if kind == "ping":
                result = worker_id
            elif kind == "install":
                light, digest, heavy = message[2], message[3], message[4]
                if heavy is None:
                    heavy = blob_cache[digest]  # driver predicted a hit
                else:
                    blob_cache[digest] = heavy
                    while len(blob_cache) > BLOB_CACHE_SLOTS:
                        del blob_cache[next(iter(blob_cache))]
                sessions[light.sid] = WorkerSession(
                    assemble_install_spec(light, heavy))
                result = None
            elif kind == "release":
                sessions.pop(message[2], None)
                result = None
            elif kind == "chaos":
                chaos = message[2]
                result = None
            elif kind == "rebuild":
                sessions[message[2]].rebuild(message[3])
                result = None
            elif kind == "collect":
                result = sessions[message[2]].collect(message[3])
            elif kind == "task":
                stage, task_index, blob = message[2], message[3], message[4]
                payload = load_payload(blob)
                _apply_chaos(chaos, stage, task_index, heartbeat)
                t0 = time.perf_counter()
                result = _run_payload(sessions, payload)
                cpu = time.perf_counter() - t0
            elif kind == "task_batch":
                # One coalesced message, one reply per entry, in order —
                # indistinguishable from separate "task" messages to the
                # supervisor (its inflight FIFO matches entry order, so
                # poison-suspect and deadline logic are unchanged).
                # Liveness under a long batch is the heartbeat daemon's
                # job; it beats independently of this loop.
                stage, entries = message[2], message[3]
                for task_req, task_index, blob in entries:
                    try:
                        payload = load_payload(blob)
                        _apply_chaos(chaos, stage, task_index, heartbeat)
                        t0 = time.perf_counter()
                        task_result = _run_payload(sessions, payload)
                        task_cpu = time.perf_counter() - t0
                    except BaseException as exc:
                        try:
                            exc_blob = pickle.dumps(
                                exc, protocol=pickle.HIGHEST_PROTOCOL)
                        except Exception:
                            exc_blob = None
                        with lock:
                            try:
                                conn.send(("err", task_req, exc_blob,
                                           traceback.format_exc()))
                            except Exception:
                                return
                        continue
                    with lock:
                        try:
                            conn.send(("ok", task_req, task_cpu,
                                       task_result))
                        except Exception:
                            return
                continue
            else:
                raise RuntimeError(f"unknown request kind {kind!r}")
        except BaseException as exc:  # reply-with-error, keep serving
            try:
                exc_blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                exc_blob = None
            with lock:
                try:
                    conn.send(("err", req_id, exc_blob,
                               traceback.format_exc()))
                except Exception:
                    return
            continue
        with lock:
            try:
                conn.send(("ok", req_id, cpu, result))
            except Exception:
                return
