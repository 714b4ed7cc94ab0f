"""Task scheduling policies (Section 6.1, "Partition-Aware Scheduling").

Spark's default scheduler mixes executor load, locality-wait timers and
input locations; under concurrent stages this regularly places a task away
from its cached input, which costs a remote fetch.  The paper replaces it
with a policy that pins the task for partition *i* to the worker caching
partition *i* of the co-partitioned state, achieving inter-iteration
locality.

We reproduce both policies:

- :class:`DefaultPolicy` — honours the preferred location *most* of the
  time, but with a seeded probability (default 35%) falls back to the
  least-loaded worker, modelling locality-wait expiry.  The resulting
  remote fetches are charged by the cluster's cost model.
- :class:`PartitionAwarePolicy` — always returns the preferred worker.

Both are *health-aware*: ``assign`` takes an optional ``healthy`` pool
(live, non-blacklisted workers, as maintained by the cluster's
:class:`repro.engine.faults.RecoveryManager`).  A preferred worker that
is dead or blacklisted gets a deterministic fallback placement inside
the pool, so recovery re-runs schedule reproducibly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import NoHealthyWorkersError


@dataclass(slots=True)
class TaskSpec:
    """What the scheduler needs to know about one task (a
    :class:`~repro.engine.cluster.StageTask` naming its preferred worker
    is one too)."""

    index: int
    preferred_worker: int | None


def fallback_worker(preferred: int, healthy: Sequence[int]) -> int:
    """Deterministic placement when the preferred worker is unavailable.

    Raises :class:`repro.errors.NoHealthyWorkersError` on an empty pool
    instead of the bare ``ZeroDivisionError`` the modulo would throw —
    an exhausted pool is an operational condition callers handle, not a
    bug in the scheduler.
    """
    if not healthy:
        raise NoHealthyWorkersError(
            "cannot place a task: no healthy workers remain")
    return healthy[preferred % len(healthy)]


class SchedulingPolicy:
    """Interface: map a list of task specs to a worker id per task.

    ``healthy`` is the pool of schedulable workers (``None`` means all of
    ``range(num_workers)``); assignments must stay inside it.
    """

    name = "abstract"

    def assign(self, tasks: list[TaskSpec], num_workers: int,
               healthy: Sequence[int] | None = None) -> list[int]:
        raise NotImplementedError


@dataclass
class PartitionAwarePolicy(SchedulingPolicy):
    """Pin each task to its preferred (cache-holding) worker."""

    name: str = "partition_aware"

    def assign(self, tasks: list[TaskSpec], num_workers: int,
               healthy: Sequence[int] | None = None) -> list[int]:
        pool = list(healthy) if healthy is not None else list(range(num_workers))
        if tasks and not pool:
            raise NoHealthyWorkersError(
                f"cannot schedule {len(tasks)} tasks: no healthy workers")
        allowed = set(pool)
        assignments = []
        for task in tasks:
            preferred = (task.preferred_worker
                         if task.preferred_worker is not None
                         else task.index) % num_workers
            if preferred in allowed:
                assignments.append(preferred)
            else:
                assignments.append(fallback_worker(preferred, pool))
        return assignments


@dataclass
class DefaultPolicy(SchedulingPolicy):
    """Spark-like hybrid scheduling.

    ``miss_probability`` is the chance that a task's locality preference is
    overridden because the preferred executor was busy when the locality
    wait expired; the task then lands on whichever executor freed up first,
    modelled as a seeded-random pick.  The RNG is seeded so runs are
    reproducible.
    """

    miss_probability: float = 0.35
    seed: int = 17
    name: str = "default"
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    def assign(self, tasks: list[TaskSpec], num_workers: int,
               healthy: Sequence[int] | None = None) -> list[int]:
        pool = list(healthy) if healthy is not None else list(range(num_workers))
        if tasks and not pool:
            raise NoHealthyWorkersError(
                f"cannot schedule {len(tasks)} tasks: no healthy workers")
        allowed = set(pool)
        assignments = []
        for task in tasks:
            preferred = (task.preferred_worker if task.preferred_worker is not None
                         else task.index) % num_workers
            if (task.preferred_worker is None
                    or preferred not in allowed
                    or self._rng.random() < self.miss_probability):
                # Locality wait expired (or the preferred executor is
                # dead/blacklisted): the task runs on whichever healthy
                # executor freed up first.
                worker = pool[self._rng.randrange(len(pool))]
            else:
                worker = preferred
            assignments.append(worker)
        return assignments


def make_policy(name: str) -> SchedulingPolicy:
    """Factory used by :class:`repro.engine.cluster.Cluster`."""
    if name == "partition_aware":
        return PartitionAwarePolicy()
    if name == "default":
        return DefaultPolicy()
    raise ValueError(f"unknown scheduling policy {name!r} "
                     "(expected 'partition_aware' or 'default')")
