"""Execution backends: where a stage's tasks physically run.

The cluster's scheduling, cost model, shuffle accounting, and recovery
bookkeeping are backend-independent; a :class:`ClusterBackend` only decides
*where the task functions execute*.  Two implementations exist:

- :class:`SimulatedBackend` — tasks run inline in the driver process, in
  deterministic order.  This is the bit-exact oracle every differential
  suite compares against, and the default.
- :class:`repro.engine.backend.process.ProcessClusterBackend` — tasks whose
  :attr:`repro.engine.cluster.StageTask.payload` is set ship to a pool of
  real OS worker processes under a supervision layer (heartbeats, hung-task
  reaping, crash replay, poison quarantine).

The seam is deliberately narrow: :meth:`ClusterBackend.wants_batch` is
consulted once per stage after scheduling, and a backend that claims the
batch returns ``(output, worker, cpu_seconds)`` per task in task order.
Everything downstream — tracing leaves, busy-time accounting, simulated
clock advancement — is shared, so EXPLAIN ANALYZE output has the same
shape on both backends.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Seconds between a worker's heartbeat messages; also the supervisor's
#: poll granularity.
HEARTBEAT_INTERVAL_S = 0.05


@dataclass(frozen=True)
class ProcessConfig:
    """Supervision knobs of the process backend (cluster-level, not
    per-query plan knobs — they never affect results, only liveness).

    liveness_timeout:
        A worker silent (no heartbeat, no reply) for longer than this is
        presumed frozen (SIGSTOP, hard livelock) and reaped with SIGKILL.
        Generous by default: heartbeats come from a daemon thread that a
        CPU-bound task can starve for whole GIL quanta.  Must exceed
        :data:`HEARTBEAT_INTERVAL_S`, or every healthy worker is reaped.
    task_deadline_s:
        Wall-clock budget per task attempt.  A task still unfinished past
        it is hung (its worker may well keep heartbeating — an infinite
        loop beats happily); the worker is reaped and the attempt counts
        toward the poison threshold.
    """

    liveness_timeout: float = 5.0
    task_deadline_s: float = 30.0

    def __post_init__(self):
        if not self.liveness_timeout > HEARTBEAT_INTERVAL_S:
            raise ValueError(
                f"liveness_timeout must exceed the {HEARTBEAT_INTERVAL_S}s "
                f"heartbeat interval, got {self.liveness_timeout!r}")
        if not self.task_deadline_s > 0:
            raise ValueError(
                f"task_deadline_s must be positive, got "
                f"{self.task_deadline_s!r}")


class ClusterBackend:
    """Interface the cluster consults at the stage-execution seam."""

    def wants_batch(self, tasks) -> bool:
        """True to claim this stage's tasks for :meth:`run_batch`."""
        return False

    def run_batch(self, name, tasks, assignments):
        """Execute a claimed batch; returns ``[(output, worker,
        cpu_seconds), ...]`` in task order."""
        raise NotImplementedError

    def remote_ready(self) -> bool:
        """True when remote execution is available (pool spawned/spawnable)."""
        return False

    def shutdown(self) -> None:
        """Release any OS resources (processes, pipes); idempotent."""


class SimulatedBackend(ClusterBackend):
    """The deterministic in-process oracle: never claims a batch, so
    every task runs inline through the cluster's simulated path."""
