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
    (0,      "task_batch", [(req_id, blob, poisoned), ...])
    (req_id, "ping")
    (req_id, "stop")

An install ships its *heavy* half (prebuilt base join structures and
broadcast tables — see ``payloads.split_install_spec``) content-addressed:
the worker keeps the half of the digest it installed last, and the
driver, which records that one digest per worker, sends ``None`` instead
of the bytes exactly when the install's digest is it — so repeated
queries over the same table epochs ship and unpickle them once
(:class:`WorkerState`).  Every worker receives every partition's sides,
one pickle per partition, and decodes a partition's sides when the first
task for that partition runs here (:class:`payloads.HeavyHalf`), before
the task's clock starts: a worker holds decoded only the partitions it
serves, and a partition that a respawn or a pool shrink re-homes here is
decoded before its first task on this worker.  Tasks only ever arrive as a ``task_batch``
— one worker's share of a stage in a single message, a crash-recovery
re-dispatch being a batch of one; each entry replies individually under
its own ``req_id``, in order.  An entry whose ``poisoned`` flag the
driver set (an armed ``faults.ProcessPoisonInjector`` struck it)
hard-exits the process (``os._exit``) instead of running, the way a
segfaulting UDF would; the worker matches no fault rule of its own.

Worker -> driver::

    ("ok",  req_id, cpu_seconds, result)
    ("err", req_id, pickled_exception_or_None, traceback_text)
    ("hb",  seq)                      # heartbeat daemon thread

An ``iterate`` result's shuffle buckets are ``ShuffleBlock``s pickled
once here, headed by record count and ``rows_size``: the driver sums its
shuffle counters from the headers and forwards each block's pickled rows
unread, as plain bytes (next payload, replay log), to the worker that
decodes them (``incoming_rows``).

The derivation code *is* the simulated oracle's, not a second copy of it:
an ``iterate`` task runs the same :meth:`CliqueStep.merge` /
:meth:`CliqueStep.derive` the driver's schedulers call, a ``decompose``
task the same ``run_grouped_fixpoint`` / ``run_local_fixpoint`` the
driver's decomposed path calls (the latter over the session step's own
terms), and term functions are recompiled from the very source the
driver generated.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback

from repro.core.decomposed import run_grouped_fixpoint, run_local_fixpoint
from repro.core.iteration import CliqueStep
from repro.engine.backend.base import HEARTBEAT_INTERVAL_S
from repro.engine.backend.payloads import (HeavyHalf, InstallSpec,
                                           recompile_term)
from repro.engine.metrics import timed
from repro.engine.serialization import (ShuffleBlock, incoming_rows,
                                       load_payload)


class _Heartbeat(threading.Thread):
    """Daemon thread beating on the pipe; shares the reply send lock."""

    def __init__(self, conn, lock, interval: float):
        super().__init__(daemon=True, name="rasql-heartbeat")
        self.conn = conn
        self.lock = lock
        self.interval = interval
        self.seq = 0

    def run(self):
        while True:
            time.sleep(self.interval)
            try:
                with self.lock:
                    self.conn.send(("hb", self.seq))
            except Exception:
                return  # driver gone; the main loop will exit on EOF
            self.seq += 1


class WorkerSession:
    """One installed fixpoint session: the clique's step (resident state
    + live callables) reconstructed from the light wire spec, joining
    against the sides of its install's heavy half."""

    def __init__(self, spec: InstallSpec, half: HeavyHalf):
        self.spec = spec
        self.half = half
        self.step = CliqueStep(
            spec.views,
            [(ts.view, ts.delta_view, ts.negate,
              recompile_term(ts.source, ts.view), ts.folds)
             for ts in spec.terms],
            spec.n, spec.partial_aggregation)
        self.step.broadcast_tables = half.broadcast_tables
        self.step.base_partitions = half.base_partitions

    def decompose(self, partition: int, mode: str, delta_rows: list):
        """Stateless per-partition fixpoint via the shared runners."""
        spec, tables = self.spec, self.half.broadcast_tables
        if mode == "grouped":
            return run_grouped_fixpoint(
                [ts.grouped_spec for ts in spec.terms],
                tables, delta_rows, spec.max_iterations)
        (view_name, view), = spec.views.items()
        return run_local_fixpoint(
            self.step.terms, view_name, view, spec.partial_aggregation,
            tables, delta_rows, spec.max_iterations)

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
                self.step.merge(partition, incoming_rows(rows_by_view))

    def collect(self, partitions: list[int]) -> dict[str, dict[int, object]]:
        """Final state containers for the requested (home) partitions."""
        return {name: {p: state.snapshot_partition(p) for p in partitions}
                for name, state in self.step.states.items()}


def _run_payload(session: WorkerSession, payload):
    kind = payload[0]
    if kind == "iterate":
        # The combined step of ``schedulers.iterate_combined``, minus the
        # driver-only accounting: merge, then derive unless D is empty.
        _, _, partition, rows_by_view = payload
        step = session.step
        d_by_view = step.merge(partition, incoming_rows(rows_by_view))
        if not any(d_by_view.values()):
            return d_by_view, {}
        return d_by_view, {
            view: {pid: ShuffleBlock.encode(b) for pid, b in buckets.items()}
            for view, buckets in step.derive(partition).items()}
    if kind == "decompose":
        _, _, partition, mode, delta_rows = payload
        return session.decompose(partition, mode, delta_rows)
    raise RuntimeError(f"unknown payload kind {kind!r}")


class WorkerState:
    """What a pool worker keeps between messages, its control arms and
    its task runner.

    ``decoded`` holds the :class:`payloads.HeavyHalf` of the digest
    installed last — shared by every session installed from it — so only
    an install over a *different* heavy half ships its bytes and pays
    ``load_payload``; the driver's ``installed_digest`` of this worker
    names that one digest.  Of its co-partitioned sides, only those of
    the partitions this worker has run a task for are decoded
    (:meth:`run_task`); each is decoded once per digest.  It has no
    validity check of its own: the digest is the content of the
    driver's install half, which lives by the one epoch rule
    (``BaseSideCache``, DESIGN.md §19).
    """

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.sessions: dict[str, WorkerSession] = {}
        self.decoded: dict[str, HeavyHalf] = {}

    def install(self, light: InstallSpec, digest: str,
                heavy: bytes | None) -> None:
        """``heavy`` is ``None`` exactly when ``digest`` is the one
        held here."""
        half = self.decoded.get(digest)
        if half is None:
            self.decoded.clear()  # before decoding: never two resident
            half = self.decoded[digest] = HeavyHalf(heavy)
        self.sessions[light.sid] = WorkerSession(light, half)

    def run_task(self, blob: bytes) -> tuple[float, object]:
        """``(cpu seconds, result)`` of one task payload.  Decoding the
        task partition's base sides, the first time one of its tasks runs
        here, is install work: it happens before the task clock starts."""
        payload = load_payload(blob)
        session = self.sessions[payload[1]]
        session.half.decode(payload[2])
        result, seconds = timed(_run_payload, session, payload)
        return seconds, result

    def control(self, message):
        kind = message[1]
        if kind == "ping":
            return self.worker_id
        if kind == "install":
            self.install(*message[2:5])
        elif kind == "release":
            self.sessions.pop(message[2], None)
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


def worker_main(conn, worker_id: int) -> None:
    """Entry point of a pool worker process."""
    lock = threading.Lock()
    _Heartbeat(conn, lock, HEARTBEAT_INTERVAL_S).start()
    state = WorkerState(worker_id)

    def run_task(blob, poisoned):
        if poisoned:
            os._exit(42)  # no cleanup, no reply: a hard native crash
        return state.run_task(blob)

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
            for task_req, blob, poisoned in message[2]:
                if not _reply(conn, lock, task_req,
                              lambda: run_task(blob, poisoned)):
                    return
        elif not _reply(conn, lock, req_id,
                        lambda: (0.0, state.control(message))) or kind == "stop":
            return
