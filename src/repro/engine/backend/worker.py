"""Process-backend worker: the child side of the supervision pipe.

Each pool worker is a spawn-started process running :func:`worker_main`.
It keeps *resident state*: for every installed session it owns a
:class:`repro.core.iteration.CliqueStep` (all ``n`` partitions allocated,
only the home partitions ever populated), so an iteration ships only the
incoming delta rows — never the all-relation.

Protocol (driver -> worker, one tuple per message)::

    (req_id, "install", light_spec, blob_digest, heavy_blob_or_None)
    (req_id, "release", sid)
    (req_id, "rebuild", sid, {partition: [rows_by_view, ...]})
    (req_id, "collect", sid, [partition, ...])
    (req_id, "chaos",   [directive, ...])
    (0,      "task_batch", stage, [(req_id, task_index, blob), ...])
    (req_id, "ping")
    (req_id, "stop")

An install ships its *heavy* half (prebuilt base join structures and
broadcast tables — see ``payloads.split_install_spec``) content-addressed:
when the driver predicts this worker still caches the digest, it sends
``None`` instead of re-shipping megabytes of unchanged base partitions.
The worker's blob cache follows the driver's bookkeeping FIFO exactly
(``BLOB_CACHE_SLOTS``, insertion order, no reorder on hit), so a
predicted hit can never miss; beside the bytes it keeps the *decoded*
structures of the digest it installed last, so repeated queries over the
same table epochs unpickle them once (:class:`WorkerState`).  Tasks only ever
arrive as a ``task_batch``
— one worker's share of a stage in a single message, a crash-recovery
re-dispatch being a batch of one; each entry replies individually under
its own ``req_id``, in order.

Worker -> driver::

    ("ok",  req_id, cpu_seconds, result)
    ("err", req_id, pickled_exception_or_None, traceback_text)
    ("hb",  seq)                      # heartbeat daemon thread

The derivation code *is* the simulated oracle's, not a second copy of it:
an ``iterate`` task runs the same :meth:`CliqueStep.merge` /
:meth:`CliqueStep.derive` the driver's schedulers call, decomposed
fixpoints go through ``run_grouped_fixpoint``/``run_fused_fixpoint``, and
term functions are recompiled from the very source the driver generated.

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
from dataclasses import replace

from repro.core.decomposed import run_fused_fixpoint, run_grouped_fixpoint
from repro.core.iteration import CliqueStep
from repro.engine.backend.payloads import (BLOB_CACHE_SLOTS, InstallSpec,
                                           assemble_install_spec,
                                           recompile_term)
from repro.engine.serialization import load_payload


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
    """One installed fixpoint session: the clique's step (resident state
    + live callables) reconstructed from the wire spec."""

    def __init__(self, spec: InstallSpec):
        self.spec = spec
        self.step = CliqueStep(
            spec.views,
            [(ts.view, ts.delta_view, ts.negate,
              recompile_term(ts.source, ts.view), ts.folds)
             for ts in spec.terms],
            spec.n, spec.partial_aggregation)
        self.step.broadcast_tables = spec.broadcast_tables
        self.step.base_partitions = spec.base_partitions
        self.dedup_fns = [recompile_term(ts.dedup_source, ts.view)
                          if ts.dedup_source is not None else None
                          for ts in spec.terms]

    def decompose(self, partition: int, mode: str, delta_rows: list):
        """Stateless per-partition fixpoint via the shared runners."""
        if mode == "grouped":
            return run_grouped_fixpoint(
                [ts.grouped_spec for ts in self.spec.terms],
                self.spec.broadcast_tables, delta_rows,
                self.spec.max_iterations)
        return run_fused_fixpoint(
            self.dedup_fns, self.spec.broadcast_tables, delta_rows,
            self.spec.max_iterations)

    def rebuild(self, log: dict[int, list]) -> None:
        """Replay committed iterations from the driver's replay log.

        Clears each partition first (idempotent on a fresh respawn,
        necessary when a survivor re-adopts): the state is exactly the
        in-order merge of every committed iteration's incoming rows —
        the fresh-delta returns are recomputed and discarded.
        """
        for partition, iterations in log.items():
            for state in self.step.states.values():
                state.clear_partition(partition)
            for rows_by_view in iterations:
                self.step.merge(partition, rows_by_view)

    def collect(self, partitions: list[int]) -> dict[str, dict[int, object]]:
        """Final state containers for the requested (home) partitions."""
        return {name: {p: state.snapshot_partition(p) for p in partitions}
                for name, state in self.step.states.items()}


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
        # The combined step of ``schedulers.iterate_combined``, minus the
        # driver-only accounting: merge, then derive unless D is empty.
        _, sid, partition, rows_by_view = payload
        step = sessions[sid].step
        d_by_view = step.merge(partition, rows_by_view)
        if not any(d_by_view.values()):
            return d_by_view, {}
        return d_by_view, step.derive(partition)
    if kind == "decompose":
        _, sid, partition, mode, delta_rows = payload
        return sessions[sid].decompose(partition, mode, delta_rows)
    raise RuntimeError(f"unknown payload kind {kind!r}")


class WorkerState:
    """What a pool worker keeps between messages, and its control arms.

    ``blob_cache`` holds content-addressed heavy-install blobs,
    FIFO-evicted, following the driver's per-worker ``cached_digests``
    bookkeeping exactly.  ``decoded`` holds the unpickled ``(base
    partitions, broadcast tables)`` of the digest installed last —
    shared read-only by every session installed from it — so only an
    install over a *different* heavy half pays ``load_payload``.  It has
    no validity check of its own: the digest is the content of the
    driver's install half, which lives by the one epoch rule
    (``BaseSideCache``, DESIGN.md §19).
    """

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.sessions: dict[str, WorkerSession] = {}
        self.chaos: list[dict] = []
        self.blob_cache: dict[str, bytes] = {}
        self.decoded: dict[str, tuple[dict, dict]] = {}

    def install(self, light: InstallSpec, digest: str,
                heavy: bytes | None) -> None:
        if heavy is None:
            heavy = self.blob_cache[digest]  # driver predicted a hit
        else:
            self.blob_cache[digest] = heavy
            while len(self.blob_cache) > BLOB_CACHE_SLOTS:
                del self.blob_cache[next(iter(self.blob_cache))]
        sides = self.decoded.get(digest)
        if sides is None:
            self.decoded.clear()  # before decoding: never two resident
            spec = assemble_install_spec(light, heavy)
            self.decoded[digest] = (spec.base_partitions,
                                    spec.broadcast_tables)
        else:
            spec = replace(light, base_partitions=sides[0],
                           broadcast_tables=sides[1])
        self.sessions[light.sid] = WorkerSession(spec)

    def control(self, message):
        kind = message[1]
        if kind == "ping":
            return self.worker_id
        if kind == "install":
            self.install(*message[2:5])
        elif kind == "release":
            self.sessions.pop(message[2], None)
        elif kind == "chaos":
            self.chaos[:] = message[2]
        elif kind == "rebuild":
            self.sessions[message[2]].rebuild(message[3])
        elif kind == "collect":
            return self.sessions[message[2]].collect(message[3])
        elif kind != "stop":
            raise RuntimeError(f"unknown request kind {kind!r}")
        return None


def _reply(conn, lock, req_id, run) -> bool:
    """Send ``run()``'s ``(cpu_seconds, result)`` as an ``ok`` reply, or
    the exception it raised as an ``err`` reply (reply-with-error, keep
    serving).  False when the pipe is gone and the worker should exit."""
    try:
        cpu, result = run()
        message = ("ok", req_id, cpu, result)
    except BaseException as exc:
        try:
            exc_blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            exc_blob = None
        message = ("err", req_id, exc_blob, traceback.format_exc())
    with lock:
        try:
            conn.send(message)
        except Exception:
            return False
    return True


def worker_main(conn, worker_id: int, heartbeat_interval: float) -> None:
    """Entry point of a pool worker process."""
    lock = threading.Lock()
    heartbeat = _Heartbeat(conn, lock, heartbeat_interval)
    heartbeat.start()
    state = WorkerState(worker_id)

    def run_task(stage, task_index, blob):
        payload = load_payload(blob)
        _apply_chaos(state.chaos, stage, task_index, heartbeat)
        t0 = time.perf_counter()
        result = _run_payload(state.sessions, payload)
        return time.perf_counter() - t0, result

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # driver exited; die quietly
        req_id, kind = message[0], message[1]
        if kind == "task_batch":
            # One reply per entry, in order, each under its own req id —
            # the supervisor's inflight FIFO matches entry order, so its
            # poison-suspect and deadline logic see individual tasks.
            # Liveness under a long batch is the heartbeat daemon's job;
            # it beats independently of this loop.
            stage, entries = message[2], message[3]
            for task_req, task_index, blob in entries:
                if not _reply(conn, lock, task_req,
                              lambda: run_task(stage, task_index, blob)):
                    return
        elif not _reply(conn, lock, req_id,
                        lambda: (0.0, state.control(message))) or kind == "stop":
            return
