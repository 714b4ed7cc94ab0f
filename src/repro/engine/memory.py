"""Per-worker memory accounting and spill-to-disk (resource governance).

The paper's runtime inherits Spark's unified memory manager: cached
SetRDD partitions, shuffle buffers, and broadcast variables all live in
bounded executor memory, and under pressure Spark evicts storage blocks
to disk rather than failing the job.  This module reproduces that
behaviour for the simulated cluster:

- Every cached byte is *charged* to a :class:`MemorySegment` on its home
  worker, sized with the same ``repro.engine.serialization.rows_size``
  model the shuffle accounting uses.
- When a worker's resident bytes exceed the configured budget, the
  manager *spills* least-recently-touched segments to a simulated disk
  tier.  Spills and unspills are charged to the
  :class:`repro.engine.metrics.CostModel` (``spill_seconds``) exactly
  like remote fetches are charged at the network rate — results never
  change, only accounted time and the spill counters.
- Only when even spilling everything spillable cannot fit the *working
  set* (the segment a task just charged or touched) does the manager
  raise :class:`repro.errors.MemoryBudgetExceededError` — the analog of
  an executor OOM on execution memory, which Spark cannot spill either.

Budgets come in two enforcement flavours.  A *hard* budget (user
configured via :class:`MemoryConfig`) raises when the working set cannot
fit.  A *soft* budget (installed by
:class:`repro.engine.faults.MemoryPressureInjector` mid-run) degrades
instead: the manager spills everything it can, counts a
``memory_budget_overflows`` event, and lets the stage proceed — chaos
schedules must stress the spill machinery without ever changing query
results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryBudgetExceededError

__all__ = ["MemoryConfig", "MemoryManager", "MemorySegment"]


@dataclass(frozen=True)
class MemoryConfig:
    """Knobs of the per-worker memory governor.

    worker_budget_bytes:
        Resident-memory budget per simulated worker; ``None`` (the
        default) means unbounded — accounting and high-water marks are
        still recorded, but nothing ever spills.
    """

    worker_budget_bytes: int | None = None

    def __post_init__(self):
        if (self.worker_budget_bytes is not None
                and self.worker_budget_bytes < 1):
            raise ValueError(
                f"worker_budget_bytes must be positive or None, "
                f"got {self.worker_budget_bytes!r}")


class MemorySegment:
    """One charged allocation: a cached partition, shuffle buffer chunk,
    or one worker's copy of a broadcast."""

    __slots__ = ("kind", "name", "partition", "worker", "nbytes",
                 "spillable", "spilled", "last_touch")

    def __init__(self, kind: str, name: str, partition: int, worker: int,
                 nbytes: int, spillable: bool, last_touch: int):
        self.kind = kind
        self.name = name
        self.partition = partition
        self.worker = worker
        self.nbytes = nbytes
        self.spillable = spillable
        self.spilled = False
        self.last_touch = last_touch

    def describe(self) -> str:
        return f"{self.kind}:{self.name}[{self.partition}]"


class MemoryManager:
    """Charges, spills, and high-water accounting for one cluster.

    The manager owns no data — cached rows always stay in process memory
    because the engine computes real results.  What it owns is the
    *accounting*: which bytes are resident on which worker, which were
    spilled to the disk tier, and what that cost.  Determinism matters
    (chaos runs compare counters across identical runs), so eviction is
    strict least-recently-touched order driven by a logical touch clock,
    never wall time.
    """

    def __init__(self, num_workers: int, config: MemoryConfig,
                 metrics, cost_model, tracer=None):
        self.num_workers = num_workers
        self.config = config
        self.metrics = metrics
        self.cost_model = cost_model
        self.tracer = tracer
        #: Effective per-worker budget; mutable so pressure injectors can
        #: shrink it mid-run (``None`` = unbounded).
        self.budget_bytes: int | None = config.worker_budget_bytes
        #: ``False`` for user-configured budgets (exceeding the working
        #: set raises); ``True`` for injected pressure (degrade only).
        self.soft: bool = False
        self._segments: dict[tuple, MemorySegment] = {}
        #: ``(kind, name)`` -> the partitions of that group charged now,
        #: so a group is released without a walk over every segment.
        self._groups: dict[tuple[str, str], set[int]] = {}
        self._clock = 0
        self._resident = [0] * num_workers
        self._spilled = [0] * num_workers
        self._hwm = [0] * num_workers
        self._iter_hwm = [0] * num_workers

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------

    def charge(self, kind: str, name: str, partition: int, worker: int,
               nbytes: int, spillable: bool = True) -> None:
        """Charge (or re-size) one segment and enforce the budget.

        Re-charging an existing key updates its size in place (cached
        state grows every iteration) and counts as a touch; a spilled
        segment being re-charged is read back from disk first; one
        re-charged at its size on its worker is only a touch (no
        resident byte or high-water mark can move).  The charged segment
        itself is the working set and is never chosen as its own spill
        victim.
        """
        key = (kind, name, partition)
        self._clock += 1
        segment = self._segments.get(key)
        if (segment is not None and segment.nbytes == nbytes
                and segment.worker == worker and not segment.spilled):
            segment.last_touch = self._clock
        elif segment is None:
            segment = MemorySegment(kind, name, partition, worker,
                                    nbytes, spillable, self._clock)
            self._segments[key] = segment
            group = self._groups.get((kind, name))
            if group is None:
                self._groups[(kind, name)] = {partition}
            else:
                group.add(partition)
            self._resident[worker] += nbytes
            self._update_hwm(worker)
        else:
            if segment.spilled:
                self._unspill(segment)
            # Cached partitions re-home after a worker loss; move the
            # bytes with them.
            self._resident[segment.worker] -= segment.nbytes
            segment.worker = worker
            segment.nbytes = nbytes
            segment.last_touch = self._clock
            self._resident[worker] += nbytes
            self._update_hwm(worker)
        if self.budget_bytes is not None:
            self._enforce(worker, keep=key)

    def touch(self, kind: str, name: str, partition: int) -> None:
        """Mark a segment recently used; read it back if it was spilled.

        Unknown keys are ignored (callers touch optimistically — e.g.
        state partitions before their first charge).
        """
        segment = self._segments.get((kind, name, partition))
        if segment is None:
            return
        self._clock += 1
        segment.last_touch = self._clock
        if segment.spilled:
            self._unspill(segment)
            self._update_hwm(segment.worker)
            self._enforce(segment.worker, keep=(kind, name, partition))

    def release(self, kind: str, name: str, partition: int) -> None:
        """Free one segment (dropping memory costs nothing)."""
        segment = self._segments.pop((kind, name, partition), None)
        if segment is None:
            return
        group = self._groups[(kind, name)]
        group.discard(partition)
        if not group:
            del self._groups[(kind, name)]
        if segment.spilled:
            self._spilled[segment.worker] -= segment.nbytes
        else:
            self._resident[segment.worker] -= segment.nbytes

    def release_group(self, kind: str, name: str) -> None:
        """Free every segment of one ``(kind, name)`` group."""
        for partition in list(self._groups.get((kind, name), ())):
            self.release(kind, name, partition)

    def release_all(self) -> None:
        """Drop every charge (a query's caches die with the query)."""
        for key in list(self._segments):
            self.release(*key)

    # ------------------------------------------------------------------
    # budget enforcement
    # ------------------------------------------------------------------

    def set_budget(self, nbytes: int | None, soft: bool = False) -> None:
        """Install a new per-worker budget and enforce it everywhere."""
        self.budget_bytes = nbytes
        self.soft = soft
        for worker in range(self.num_workers):
            self._enforce(worker, keep=None)

    def reset_budget(self) -> None:
        """Drop any injected soft budget, back to the configured one."""
        self.budget_bytes = self.config.worker_budget_bytes
        self.soft = False

    def apply_pressure(self, fraction: float, stage: str = "") -> int:
        """Shrink the budget to a fraction of the current peak usage.

        The injected budget is *soft*: enforcement spills but never
        raises, because chaos faults must not change query outcomes.
        Returns the new budget in bytes.
        """
        peak = max(self._resident, default=0)
        new_budget = max(1, int(peak * fraction))
        self.metrics.inc("memory_pressure_events")
        if self.tracer is not None:
            self.tracer.leaf("fault", f"memory-pressure[{stage}]",
                             stage=stage, fraction=fraction,
                             budget_bytes=new_budget)
        self.set_budget(new_budget, soft=True)
        return new_budget

    def _enforce(self, worker: int, keep: tuple | None) -> None:
        budget = self.budget_bytes
        if budget is None:
            return
        while self._resident[worker] > budget:
            victim = self._pick_victim(worker, keep)
            if victim is None:
                if self.soft:
                    # Even a fully-spilled worker cannot fit the working
                    # set under the injected budget; degrade, don't die.
                    self.metrics.inc("memory_budget_overflows")
                    return
                pinned = keep and self._segments.get(keep)
                requested = pinned.nbytes if pinned else self._resident[worker]
                what = pinned.describe() if pinned else "resident set"
                raise MemoryBudgetExceededError(
                    f"worker {worker} cannot fit {what} "
                    f"({requested} bytes) within its "
                    f"{budget}-byte memory budget even after spilling: "
                    f"{self._resident[worker]} bytes resident, "
                    f"{self._spilled[worker]} bytes already spilled — "
                    f"raise the per-worker budget or repartition the "
                    f"query more finely",
                    worker=worker, requested_bytes=requested,
                    budget_bytes=budget,
                    resident_bytes=self._resident[worker],
                    spilled_bytes=self._spilled[worker])
            self._spill(victim)

    def _pick_victim(self, worker: int, keep: tuple | None):
        victim = None
        for key, segment in self._segments.items():
            if (segment.worker != worker or segment.spilled
                    or not segment.spillable or key == keep):
                continue
            if victim is None or segment.last_touch < victim.last_touch:
                victim = segment
        return victim

    def _spill(self, segment: MemorySegment) -> None:
        seconds = self.cost_model.spill_seconds(segment.nbytes)
        segment.spilled = True
        self._resident[segment.worker] -= segment.nbytes
        self._spilled[segment.worker] += segment.nbytes
        self.metrics.inc("spill_events")
        self.metrics.inc("spill_bytes", segment.nbytes)
        self.metrics.inc("spill_seconds", seconds)
        self.metrics.advance(seconds, label="spill")
        if self.tracer is not None:
            self.tracer.leaf("spill", segment.describe(),
                             worker=segment.worker, bytes=segment.nbytes,
                             direction="out")

    def _unspill(self, segment: MemorySegment) -> None:
        seconds = self.cost_model.spill_seconds(segment.nbytes)
        segment.spilled = False
        self._spilled[segment.worker] -= segment.nbytes
        self._resident[segment.worker] += segment.nbytes
        self.metrics.inc("unspill_events")
        self.metrics.inc("unspill_bytes", segment.nbytes)
        self.metrics.inc("spill_seconds", seconds)
        self.metrics.advance(seconds, label="spill")
        if self.tracer is not None:
            self.tracer.leaf("spill", segment.describe(),
                             worker=segment.worker, bytes=segment.nbytes,
                             direction="in")

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def _update_hwm(self, worker: int) -> None:
        resident = self._resident[worker]
        if resident > self._hwm[worker]:
            # The counter tracks the running max: incrementing by the
            # excess keeps span deltas meaningful (the high-water gain
            # observed *inside* a span).
            self.metrics.inc(f"memory_hwm_bytes_w{worker}",
                             resident - self._hwm[worker])
            self._hwm[worker] = resident
        if resident > self._iter_hwm[worker]:
            self._iter_hwm[worker] = resident

    def begin_iteration(self) -> None:
        """Reset the per-iteration high-water marks (fixpoint loop)."""
        self._iter_hwm = list(self._resident)

    def iteration_high_water(self) -> dict[int, int]:
        """Per-worker resident high-water since ``begin_iteration``."""
        return {w: hwm for w, hwm in enumerate(self._iter_hwm)}

    def resident_bytes(self, worker: int | None = None) -> int:
        if worker is not None:
            return self._resident[worker]
        return sum(self._resident)

    def spilled_bytes(self, worker: int | None = None) -> int:
        if worker is not None:
            return self._spilled[worker]
        return sum(self._spilled)

    def high_water_bytes(self, worker: int) -> int:
        return self._hwm[worker]

    def max_segment_bytes(self) -> int:
        """Largest live segment — the floor any hard budget must clear."""
        return max((s.nbytes for s in self._segments.values()), default=0)
