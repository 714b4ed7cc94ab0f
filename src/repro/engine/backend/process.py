"""Supervised real-process execution backend.

``ProcessClusterBackend`` runs payload-carrying stage batches on a pool
of spawn-started OS worker processes (one per live simulated worker) and
supervises them:

- **Heartbeats** — each worker beats every ``HEARTBEAT_INTERVAL_S`` from a
  daemon thread; the supervisor's poll loop wakes at the same cadence.
  A worker silent past ``liveness_timeout`` (SIGSTOP, hard livelock —
  the heartbeat thread itself is frozen) is reaped with SIGKILL.
- **Hung-task reaping** — a dispatched task unfinished past
  ``task_deadline_s`` marks its worker hung even if heartbeats continue
  (an infinite loop beats happily); same SIGKILL reap.
- **Crash detection and replay** — pipe EOF / process sentinel detects
  spontaneous deaths.  The backend keeps a *committed replay log* of
  every merged iteration per state partition; a respawned worker (or a
  survivor adopting the dead worker's partitions via
  ``worker_for_partition``) rebuilds state by replaying the log, then
  the in-flight tasks are re-dispatched — their payloads carry their own
  input rows.  Failure bookkeeping goes through the cluster's existing
  :class:`repro.engine.faults.RecoveryManager`.
- **Poison quarantine** — a task that kills its worker
  :data:`POISON_THRESHOLD` times is quarantined and the query fails with a
  typed :class:`repro.errors.PoisonTaskError` instead of crash-looping.
- **Graceful degradation** — reaps past :data:`RESPAWN_BUDGET` per
  batch retire the slot: the pool shrinks to survivors and partitions
  re-home.  If the pool cannot spawn at all, the backend degrades
  permanently and every stage runs on the simulated oracle (with a
  warning).

The driver side of the pipe never blocks on a send: each handle owns a
sender thread fed by a queue, and the supervisor drains replies with
``multiprocessing.connection.wait`` over pipes *and* process sentinels.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
import warnings
from multiprocessing import connection as mp_connection

from repro.engine.backend.base import (
    HEARTBEAT_INTERVAL_S,
    ClusterBackend,
    ProcessConfig,
)
from repro.engine.backend.payloads import split_install_spec
from repro.engine.serialization import dump_payload
from repro.errors import (
    ExecutionError,
    NoHealthyWorkersError,
    PoisonTaskError,
)

#: Wall-clock ceiling for a worker to come up (import + install + ping).
_SPAWN_TIMEOUT_S = 60.0

#: A task that killed its worker this many times is quarantined and the
#: query fails with :class:`repro.errors.PoisonTaskError` instead of
#: crash-looping the pool.
POISON_THRESHOLD = 3

#: Reaps/crashes absorbed per stage batch before the backend stops
#: respawning and retires the slot instead (the pool shrinks to
#: survivors, partitions re-home via ``worker_for_partition``).
RESPAWN_BUDGET = 3

#: Base of the exponential respawn backoff
#: (``RESPAWN_BACKOFF_BASE_S * 2**(respawns - 1)`` wall seconds).
RESPAWN_BACKOFF_BASE_S = 0.05


class _WorkerHandle:
    """Driver-side bookkeeping for one pool worker."""

    def __init__(self, worker_id: int, proc, conn):
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.last_heartbeat = time.monotonic()
        #: When the current head of ``inflight`` became head; the basis
        #: of the per-attempt task deadline.
        self.head_since = time.monotonic()
        #: FIFO of dispatched-but-unreplied (pos, task); the worker is
        #: serial, so replies come back in dispatch order.
        self.inflight: list[tuple[int, object]] = []
        self.reqs: dict[int, tuple[int, object]] = {}
        #: Control req ids awaited synchronously -> reply slot.
        self.expected: set[int] = set()
        self.replies: dict[int, object] = {}
        #: Req ids whose replies must be dropped (aborted batch).
        self.abandoned: set[int] = set()
        #: Digest of the heavy install half this worker installed last —
        #: the one it holds (``WorkerState.decoded``); ``None`` until the
        #: first install reaches a fresh process.
        self.installed_digest: str | None = None
        self._sendq: queue.SimpleQueue = queue.SimpleQueue()
        self._sender = threading.Thread(
            target=self._send_loop, daemon=True,
            name=f"rasql-send-{worker_id}")
        self._sender.start()

    def _send_loop(self):
        while True:
            message = self._sendq.get()
            if message is None:
                return
            try:
                self.conn.send(message)
            except Exception:
                return  # broken pipe: supervision handles the crash

    def send(self, message) -> None:
        """Queue a message; never blocks the supervisor."""
        self._sendq.put(message)

    def close(self) -> None:
        self._sendq.put(None)
        try:
            self.conn.close()
        except Exception:
            pass


class ProcessClusterBackend(ClusterBackend):
    """Real-parallelism backend with the supervision layer.

    Owns no scheduling or accounting: the cluster routes batches here
    through the ``wants_batch``/``run_batch`` seam and keeps charging
    the simulated clock from the returned per-task CPU seconds.
    """

    def __init__(self, cluster, config: ProcessConfig | None = None):
        self.cluster = cluster
        self.config = config or ProcessConfig()
        self._handles: list[_WorkerHandle | None] = [None] * cluster.num_workers
        self._spawned = False
        self._degraded = False
        self._req_seq = 0
        self._session_seq = 0
        self._sessions: dict[str, object] = {}
        #: sid -> partition -> [rows_by_view per committed iteration].
        self._commit_log: dict[str, dict[int, list]] = {}
        #: sid -> partition -> worker currently holding its merged state.
        self._owner: dict[str, dict[int, int]] = {}
        #: (sid, stage, task_index) -> times this task killed its worker.
        self._kill_counts: dict[tuple, int] = {}
        self._quarantined: set[tuple] = set()
        self._respawns_left = RESPAWN_BUDGET
        atexit.register(self.shutdown)

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------

    def remote_ready(self) -> bool:
        if self._degraded:
            return False
        if not self._spawned:
            self._spawn_pool()
        return not self._degraded and any(
            handle is not None for handle in self._handles)

    def _spawn_pool(self) -> None:
        self._spawned = True
        try:
            self._ensure_importable()
            for worker in self.cluster.live_workers():
                self._handles[worker] = self._spawn_worker(worker)
        except Exception as exc:
            self._degrade(f"cannot spawn the worker pool: {exc!r}")

    def _degrade(self, why: str) -> None:
        """Permanent fallback to the simulated oracle (spawn failure).

        Never taken mid-query: once a session's merges live worker-side,
        running later iterations driver-side would double-merge."""
        self._degraded = True
        self.cluster.metrics.inc("process_backend_degradations")
        for handle in list(self._handles):
            if handle is None:
                continue
            handle.close()
            if handle.proc.is_alive():
                try:
                    os.kill(handle.proc.pid, signal.SIGKILL)
                except OSError:
                    pass
            handle.proc.join(timeout=5.0)
        self._handles = [None] * self.cluster.num_workers
        warnings.warn(
            f"process backend unavailable, falling back to the simulated "
            f"backend: {why}", RuntimeWarning, stacklevel=4)

    @staticmethod
    def _ensure_importable() -> None:
        """Make sure spawn children can ``import repro`` even when the
        parent imported it off ``sys.path`` manipulation (editable runs,
        test harnesses): prepend the package root to ``PYTHONPATH``."""
        import repro

        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = os.environ.get("PYTHONPATH", "")
        parts = existing.split(os.pathsep) if existing else []
        if root not in parts:
            os.environ["PYTHONPATH"] = os.pathsep.join([root] + parts)

    def _spawn_worker(self, worker: int) -> _WorkerHandle:
        from repro.engine.backend.worker import worker_main

        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=worker_main,
            args=(child_conn, worker),
            daemon=True, name=f"rasql-worker-{worker}")
        proc.start()
        child_conn.close()
        handle = _WorkerHandle(worker, proc, parent_conn)
        for light, heavy, digest in self._sessions.values():
            self._send_install(handle, light, heavy, digest)
        # Readiness barrier: the ping reply proves the child imported,
        # applied every install, and is beating — so a respawned worker
        # cannot be liveness-reaped for its own startup latency.
        self._request_sync(handle, ("ping",), _SPAWN_TIMEOUT_S)
        handle.last_heartbeat = time.monotonic()
        return handle

    def shutdown(self) -> None:
        for handle in self._handles:
            if handle is None:
                continue
            handle.send((self._next_req(), "stop"))
        deadline = time.monotonic() + 2.0
        for index, handle in enumerate(self._handles):
            if handle is None:
                continue
            handle.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.proc.is_alive():
                try:
                    os.kill(handle.proc.pid, signal.SIGKILL)
                except OSError:
                    pass
                handle.proc.join(timeout=5.0)
            handle.close()
            self._handles[index] = None
        self._spawned = False

    def _live_handles(self) -> list[_WorkerHandle]:
        return [handle for handle in self._handles if handle is not None]

    def _next_req(self) -> int:
        self._req_seq += 1
        return self._req_seq

    # ------------------------------------------------------------------
    # session management (driven by the fixpoint operator)
    # ------------------------------------------------------------------

    def new_session_id(self) -> str:
        self._session_seq += 1
        return f"s{self._session_seq}"

    def install_session(self, spec, pickled=None) -> None:
        """Install ``spec`` on every live worker; ``pickled`` is its
        heavy half when the caller already holds it pickled and hashed
        (``payloads.split_install_spec``)."""
        light, heavy, digest = split_install_spec(spec, pickled)
        self._sessions[spec.sid] = (light, heavy, digest)
        self._commit_log[spec.sid] = {}
        self._owner[spec.sid] = {}
        for handle in self._live_handles():
            self._send_install(handle, light, heavy, digest)

    def _send_install(self, handle: _WorkerHandle, light, heavy: bytes,
                      digest: str) -> None:
        """Install a session, shipping the heavy blob exactly when the
        worker does not hold its digest already.

        Repeated queries over the same table epochs share one heavy half
        (the ``BaseSideCache`` entry), so every install after the first
        is a light-spec-only send (``payload_bytes_saved`` counts the
        bytes not shipped); any other digest ships and replaces it.
        """
        metrics = self.cluster.metrics
        if handle.installed_digest == digest:
            ship = None
            metrics.inc("process_payload_bytes_saved", len(heavy))
        else:
            ship = heavy
            handle.installed_digest = digest
            metrics.inc("process_install_bytes", len(heavy))
        handle.send((self._next_req(), "install", light, digest, ship))

    def release_session(self, sid: str) -> None:
        self._sessions.pop(sid, None)
        self._commit_log.pop(sid, None)
        self._owner.pop(sid, None)
        for handle in self._live_handles():
            handle.send((self._next_req(), "release", sid))

    def collect_states(self, sid: str) -> dict[str, dict[int, object]]:
        """Gather final state partitions from their home workers."""
        out: dict[str, dict[int, object]] = {}
        n = self.cluster.num_partitions
        timeout = max(self.config.task_deadline_s, _SPAWN_TIMEOUT_S)
        for handle in list(self._live_handles()):
            partitions = [p for p in range(n)
                          if self.cluster.worker_for_partition(p)
                          == handle.worker_id]
            if not partitions:
                continue
            result = self._request_sync(
                handle, ("collect", sid, partitions), timeout)
            for view, parts in result.items():
                out.setdefault(view, {}).update(parts)
        return out

    # ------------------------------------------------------------------
    # the batch seam
    # ------------------------------------------------------------------

    def wants_batch(self, tasks) -> bool:
        if not tasks:
            return False
        if any(task.payload is None for task in tasks):
            if self._spawned and not self._degraded:
                self.cluster.metrics.inc("process_tasks_driver_local",
                                         len(tasks))
            return False
        return self.remote_ready()

    def run_batch(self, name, tasks, assignments):
        self._fire_kill_injectors(name)
        outputs: dict[int, tuple] = {}
        # Grace reset: between batches nobody drains the pipes, so idle
        # heartbeats sit buffered with no receipt timestamps.  Liveness
        # is measured from batch start.
        now = time.monotonic()
        for handle in self._live_handles():
            self._drain(handle, outputs)
            handle.last_heartbeat = now
        self._respawns_left = RESPAWN_BUDGET
        try:
            # Coalesce the initial dispatch per worker: one pipe message
            # per worker instead of one per task cuts an n-partition
            # iteration from n sends to |workers| sends.  Entry order
            # inside each batch is task order, so every inflight FIFO
            # invariant the supervisor relies on (head suspect,
            # per-attempt deadline) holds as if the tasks had been sent
            # individually.
            grouped: dict[int, list[tuple[int, object]]] = {}
            for pos, task in enumerate(tasks):
                key = self._poison_key(name, task)
                if key in self._quarantined:
                    raise PoisonTaskError(
                        f"task {task.index} of stage {name!r} is "
                        f"quarantined as a poison pill",
                        stage=name, task_index=task.index,
                        worker_kills=self._kill_counts.get(key, 0))
                grouped.setdefault(self._route(task, assignments, pos),
                                   []).append((pos, task))
            for worker, entries in grouped.items():
                self._dispatch_many(self._handles[worker], name, entries)
            while len(outputs) < len(tasks):
                self._supervise_once(name, tasks, outputs)
            return [outputs[pos] for pos in range(len(tasks))]
        except BaseException:
            self._abandon_all()
            raise

    # -- routing and dispatch --

    @staticmethod
    def _poison_key(name, task) -> tuple:
        payload = task.payload
        sid = payload[1] if payload is not None and len(payload) > 1 else None
        return (sid, name, task.index)

    def _route(self, task, assignments, pos: int) -> int:
        cluster = self.cluster
        if task.payload[0] == "iterate":
            # State residency: an iterate task MUST run where its state
            # partition lives, whatever the scheduler said.
            return cluster.worker_for_partition(task.index)
        if assignments is not None:
            worker = assignments[pos]
            if (0 <= worker < len(self._handles)
                    and self._handles[worker] is not None):
                return worker
        return cluster.worker_for_partition(task.index)

    def _dispatch_many(self, handle: _WorkerHandle, name,
                       entries: list[tuple[int, object]]) -> None:
        """Ship tasks to one worker as a single ``task_batch`` message.

        Bookkeeping is per task (req ids, inflight FIFO, shipped/payload
        counters, iterate-state ownership); only the message framing is
        coalesced.  A crash-recovery re-dispatch is a batch of one, and
        is offered to the armed poison injectors again like any entry.
        """
        metrics = self.cluster.metrics
        poisons = self.cluster.armed["process-poison"]
        if not handle.inflight:
            handle.head_since = time.monotonic()
        wire: list[tuple[int, bytes, bool]] = []
        for pos, task in entries:
            blob = dump_payload(task.payload)
            req_id = self._next_req()
            handle.reqs[req_id] = (pos, task)
            handle.inflight.append((pos, task))
            poisoned = any(injector.should_fail(name, task.index)
                           for injector in poisons)
            wire.append((req_id, blob, poisoned))
            metrics.inc("process_tasks_shipped")
            metrics.inc("process_payload_bytes", len(blob))
            payload = task.payload
            if payload[0] == "iterate":
                self._owner.setdefault(payload[1], {})[payload[2]] = \
                    handle.worker_id
        handle.send((0, "task_batch", wire))
        metrics.inc("process_task_messages")

    # -- supervision loop --

    def _supervise_once(self, name, tasks, outputs) -> None:
        config = self.config
        handles = self._live_handles()
        if not handles:
            raise NoHealthyWorkersError(
                "process pool has no live workers left")
        conn_map = {}
        sentinel_map = {}
        wait_on = []
        for handle in handles:
            wait_on.append(handle.conn)
            conn_map[handle.conn] = handle
            wait_on.append(handle.proc.sentinel)
            sentinel_map[handle.proc.sentinel] = handle
        ready = mp_connection.wait(wait_on, timeout=HEARTBEAT_INTERVAL_S)

        crashed: list[_WorkerHandle] = []
        for obj in ready:
            handle = conn_map.get(obj)
            if handle is None:
                handle = sentinel_map[obj]
                # Drain first: results the worker flushed before dying
                # are committed, not replayed.
                self._drain(handle, outputs)
                crashed.append(handle)
            elif not self._drain(handle, outputs):
                crashed.append(handle)
        seen: set[int] = set()
        for handle in crashed:
            if id(handle) in seen:
                continue
            seen.add(id(handle))
            if self._handles[handle.worker_id] is handle:
                self._handle_worker_death(name, tasks, handle, outputs,
                                          reason="crash")

        now = time.monotonic()
        metrics = self.cluster.metrics
        for handle in list(self._live_handles()):
            if not handle.proc.is_alive():
                self._drain(handle, outputs)
                self._handle_worker_death(name, tasks, handle, outputs,
                                          reason="crash")
                continue
            silent = now - handle.last_heartbeat
            if silent > 2 * HEARTBEAT_INTERVAL_S and handle.inflight:
                metrics.inc("process_heartbeats_missed")
            if silent > config.liveness_timeout:
                self._reap(name, tasks, handle, outputs, reason="liveness")
            elif (handle.inflight
                    and now - handle.head_since > config.task_deadline_s):
                self._reap(name, tasks, handle, outputs, reason="deadline")

    def _drain(self, handle: _WorkerHandle, outputs) -> bool:
        """Consume every buffered message; False on EOF (worker dead)."""
        try:
            while handle.conn.poll(0):
                self._on_message(handle, handle.conn.recv(), outputs)
        except (EOFError, OSError):
            return False
        return True

    def _on_message(self, handle: _WorkerHandle, message, outputs) -> None:
        if message[0] == "hb":
            handle.last_heartbeat = time.monotonic()
            self.cluster.metrics.inc("process_heartbeats")
            return
        tag, req_id = message[0], message[1]
        handle.last_heartbeat = time.monotonic()  # any reply is liveness
        if req_id in handle.abandoned:
            handle.abandoned.discard(req_id)
            return
        record = handle.reqs.pop(req_id, None)
        if tag == "err":
            if record is not None:
                handle.inflight = [entry for entry in handle.inflight
                                   if entry[0] != record[0]]
            raise self._rebuild_exc(message[2], message[3])
        if record is None:
            if req_id in handle.expected:
                handle.expected.discard(req_id)
                handle.replies[req_id] = message[3]
            return
        pos, task = record
        if handle.inflight and handle.inflight[0][0] == pos:
            handle.inflight.pop(0)
        else:
            handle.inflight = [entry for entry in handle.inflight
                               if entry[0] != pos]
        handle.head_since = time.monotonic()
        cpu_seconds, result = message[2], message[3]
        outputs[pos] = (result, handle.worker_id, cpu_seconds)
        payload = task.payload
        if payload[0] == "iterate" and payload[3]:
            # Committed: this merge is now part of the partition's state
            # and must be replayed if that state ever needs rebuilding.
            self._commit_log.setdefault(payload[1], {}) \
                .setdefault(payload[2], []).append(payload[3])

    @staticmethod
    def _rebuild_exc(blob, traceback_text):
        if blob is not None:
            try:
                return pickle.loads(blob)
            except Exception:
                pass
        return ExecutionError(
            f"process worker request failed remotely:\n{traceback_text}")

    # -- reaping, respawn, degradation --

    def _reap(self, name, tasks, handle: _WorkerHandle, outputs,
              reason: str) -> None:
        # Last-chance drain: the awaited reply may have just landed.
        if self._drain(handle, outputs):
            now = time.monotonic()
            if (reason == "liveness" and now - handle.last_heartbeat
                    <= self.config.liveness_timeout):
                return
            if reason == "deadline" and (
                    not handle.inflight
                    or now - handle.head_since <= self.config.task_deadline_s):
                return
        self.cluster.metrics.inc("process_worker_reaps")
        self.cluster.tracer.leaf(
            "fault", f"worker-reaped[{handle.worker_id}]",
            worker=handle.worker_id, stage=name, reason=reason)
        try:
            os.kill(handle.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        handle.proc.join(timeout=10.0)
        self._drain(handle, outputs)
        self._handle_worker_death(name, tasks, handle, outputs, reason=reason)

    def _handle_worker_death(self, name, tasks, handle: _WorkerHandle,
                             outputs, reason: str) -> None:
        cluster = self.cluster
        metrics = cluster.metrics
        worker = handle.worker_id
        if reason == "crash":
            metrics.inc("process_worker_crashes")
            cluster.tracer.leaf("fault", f"worker-crashed[{worker}]",
                                worker=worker, stage=name)
        handle.close()
        handle.proc.join(timeout=10.0)
        inflight = [(pos, task) for pos, task in handle.inflight
                    if pos not in outputs]
        handle.inflight.clear()
        handle.abandoned.update(handle.reqs)
        handle.reqs.clear()
        self._handles[worker] = None
        # The dead worker's merged state is gone with it.
        for owners in self._owner.values():
            for partition in [p for p, owner in owners.items()
                              if owner == worker]:
                owners.pop(partition)

        if inflight:
            # The head task is the prime suspect: it was executing (or
            # next to execute) when the worker died.
            _, suspect = inflight[0]
            key = self._poison_key(name, suspect)
            kills = self._kill_counts.get(key, 0) + 1
            self._kill_counts[key] = kills
            metrics.inc("task_failures")
            if kills >= POISON_THRESHOLD:
                self._quarantined.add(key)
                metrics.inc("process_tasks_quarantined")
                cluster.tracer.leaf(
                    "fault", f"poison-quarantine[{suspect.index}]",
                    worker=worker, stage=name, kills=kills)
                raise PoisonTaskError(
                    f"task {suspect.index} of stage {name!r} killed its "
                    f"worker {kills} times (POISON_THRESHOLD="
                    f"{POISON_THRESHOLD}); quarantined",
                    stage=name, task_index=suspect.index, worker_kills=kills)
            cluster.recovery.check_retry_budget(name, suspect.index, kills)
            if cluster.recovery.record_failure(worker):
                metrics.inc("workers_blacklisted")

        if self._respawns_left > 0:
            self._respawns_left -= 1
            used = RESPAWN_BUDGET - self._respawns_left
            backoff = RESPAWN_BACKOFF_BASE_S * (2 ** (used - 1))
            time.sleep(backoff)
            metrics.advance(backoff, label="recovery")
            metrics.inc("recovery_seconds", backoff)
            try:
                replacement = self._spawn_worker(worker)
            except Exception as exc:
                warnings.warn(
                    f"respawn of process worker {worker} failed ({exc!r}); "
                    f"retiring the slot instead", RuntimeWarning)
                replacement = None
            if replacement is not None:
                metrics.inc("process_worker_respawns")
                cluster.tracer.leaf(
                    "recovery", f"worker-respawned[{worker}]",
                    worker=worker, stage=name, backoff_s=backoff)
                self._handles[worker] = replacement
                self._send_rebuilds(replacement)
                for entry in inflight:
                    self._dispatch_many(replacement, name, [entry])
                return

        # Respawn budget exhausted (or respawn impossible): retire the
        # slot; survivors adopt the partitions that now re-home to them.
        metrics.inc("process_backend_degradations")
        cluster.tracer.leaf(
            "recovery", f"pool-shrink[{worker}]", worker=worker, stage=name,
            survivors=len(self._live_handles()))
        cluster.lose_worker(worker, name)
        for survivor in self._live_handles():
            self._send_rebuilds(survivor)
        for pos, task in inflight:
            target = self._route(task, None, pos)
            self._dispatch_many(self._handles[target], name, [(pos, task)])

    def _send_rebuilds(self, handle: _WorkerHandle) -> None:
        """Replay committed state onto a worker for every partition that
        homes there but whose merged state it does not hold."""
        worker = handle.worker_id
        for sid, log in self._commit_log.items():
            owners = self._owner.setdefault(sid, {})
            todo = {}
            for partition, iterations in log.items():
                if (self.cluster.worker_for_partition(partition) == worker
                        and owners.get(partition) != worker):
                    todo[partition] = iterations
                    owners[partition] = worker
            if todo:
                handle.send((self._next_req(), "rebuild", sid, todo))

    def _abandon_all(self) -> None:
        for handle in self._live_handles():
            handle.abandoned.update(handle.reqs)
            handle.reqs.clear()
            handle.inflight.clear()

    # -- chaos: real signals --

    def _fire_kill_injectors(self, name) -> None:
        for injector in self.cluster.armed["process-kill"]:
            if not injector.matches(name):
                continue
            handles = self._live_handles()
            if not handles:
                continue
            if injector.worker is not None:
                handle = (self._handles[injector.worker]
                          if 0 <= injector.worker < len(self._handles)
                          else None)
            else:
                handle = handles[-1]
            if handle is None:
                continue
            injector.fire()
            sig = (signal.SIGSTOP if injector.signal == "stop"
                   else signal.SIGKILL)
            try:
                os.kill(handle.proc.pid, sig)
            except OSError:
                continue
            self.cluster.tracer.leaf(
                "fault", f"process-{injector.signal}[{handle.worker_id}]",
                worker=handle.worker_id, stage=name, signal=injector.signal)

    # -- synchronous control requests --

    def _request_sync(self, handle: _WorkerHandle, tail: tuple,
                      timeout: float):
        req_id = self._next_req()
        handle.expected.add(req_id)
        handle.send((req_id,) + tail)
        scratch: dict = {}
        deadline = time.monotonic() + timeout
        while True:
            if req_id in handle.replies:
                return handle.replies.pop(req_id)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ExecutionError(
                    f"process worker {handle.worker_id} did not answer "
                    f"{tail[0]!r} within {timeout:.0f}s")
            try:
                if handle.conn.poll(min(remaining, 0.2)):
                    self._on_message(handle, handle.conn.recv(), scratch)
            except (EOFError, OSError):
                raise ExecutionError(
                    f"process worker {handle.worker_id} died during "
                    f"{tail[0]!r}") from None
