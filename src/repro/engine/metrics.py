"""Metrics registry and the cluster cost model.

Two clocks exist side by side:

- *Wall time* is whatever the host measures; it reflects the real Python work
  the engine performs and is what ``pytest-benchmark`` reports.
- *Simulated time* (``MetricsRegistry.sim_time``) models a 16-node cluster:
  per-stage scheduling overhead, per-task launch overhead, network transfer
  time for shuffled/broadcast/remotely-fetched bytes, and — crucially —
  parallelism: within a stage, workers run their tasks concurrently, so the
  stage contributes ``max`` over workers of their busy time, not the sum.

The figures in the paper plot cluster seconds, so the benchmark harness
reports simulated time; wall time is kept as a sanity cross-check.

The measured part of the simulated clock — a task body, data loading, a
base side's build or absorb, a SQL-loop baseline step, a pool worker's
task — is read from one clock, :data:`task_clock`, through :func:`timed`.
It is the wall time of the timed region on this host (``perf_counter``),
not process CPU time; reading another clock is a change of that one line.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

#: The clock every charged duration is read from (see the module doc).
task_clock = time.perf_counter


def timed(fn, *args):
    """``(fn(*args), seconds)``, the seconds read from :data:`task_clock`
    at call time (so a replacement clock reaches every charged site)."""
    start = task_clock()
    result = fn(*args)
    return result, task_clock() - start


@dataclass(frozen=True)
class CostModel:
    """Constants of the simulated cluster.

    Defaults approximate the paper's testbed (1 Gbit network, commodity
    nodes): note 1 Gbit/s ~ 125e6 bytes/s.  Scheduling constants are in the
    range Spark exhibits for short stages; they are deliberately *not* tiny,
    because the whole point of stage combination (Section 7.1) is that
    per-stage overhead matters when iterations are short.
    """

    network_bandwidth_bytes_per_s: float = 125e6
    network_latency_s: float = 0.001
    stage_overhead_s: float = 0.020
    task_overhead_s: float = 0.002
    #: Multiplier applied to measured task CPU seconds before they enter the
    #: simulated clock.  1.0 means "this Python process is one worker core".
    cpu_scale: float = 1.0
    #: Time for the driver to notice a lost executor (heartbeat timeout,
    #: in the spirit of ``spark.network.timeout``, scaled to the sim).
    worker_loss_detect_s: float = 0.050
    #: Base of the exponential backoff charged before a task retry.
    task_retry_backoff_s: float = 0.005
    #: Local-disk throughput of the simulated spill tier.  Sequential
    #: writes of serialized rows on commodity disks; spills and unspills
    #: are charged at this rate, the way remote fetches are charged at
    #: the network rate.
    disk_bandwidth_bytes_per_s: float = 200e6
    #: Per-spill seek/setup latency of the disk tier.
    disk_latency_s: float = 0.0005

    def transfer_seconds(self, nbytes: int, parallel_streams: int = 1) -> float:
        """Time to move *nbytes* across the network over N parallel streams."""
        streams = max(1, parallel_streams)
        return self.network_latency_s + nbytes / (self.network_bandwidth_bytes_per_s * streams)

    def spill_seconds(self, nbytes: int) -> float:
        """Time to write (or read back) *nbytes* on the spill disk tier."""
        return self.disk_latency_s + nbytes / self.disk_bandwidth_bytes_per_s


class MetricsRegistry:
    """Named counters plus the simulated cluster clock.

    Counters of interest across the code base (all lazily created):

    - ``stages``, ``tasks`` — scheduler activity (Figure 5 ablations).
    - ``shuffle_records``, ``shuffle_bytes``, ``shuffle_remote_bytes``.
    - ``remote_fetches``, ``remote_fetch_bytes`` — locality misses
      (partition-aware scheduling ablation).
    - ``broadcast_bytes``, ``broadcast_bytes_compressed``.
    - ``iterations`` — fixpoint iterations executed.
    - ``task_attempts``, ``task_failures`` — every attempt vs injected
      deaths (fault-tolerance subsystem; Section 6.1's recovery claim).
    - ``workers_lost``, ``workers_blacklisted``.
    - ``recovery_seconds`` — simulated time spent on wasted attempts,
      retry backoff, loss detection and cache re-derivation.
    - ``cache_invalidated_partitions``, ``cache_invalidated_bytes`` —
      cached partitions whose home worker was lost.
    - ``memory_hwm_bytes_w<N>`` — worker N's resident-memory high-water
      mark (the counter tracks the running max, so span deltas give the
      increase inside a span).
    - ``spill_events``, ``spill_bytes``, ``unspill_events``,
      ``unspill_bytes``, ``spill_seconds`` — disk-tier traffic of the
      memory governor (``repro.engine.memory``).
    - ``memory_pressure_events``, ``memory_budget_overflows`` — injected
      budget shrinks, and soft-budget enforcements that could not fit
      even after spilling everything spillable.
    - ``queries_admitted``, ``queries_queued``, ``queries_rejected`` —
      admission control (``repro.core.governor``).
    """

    def __init__(self):
        self.counters: dict[str, float] = defaultdict(float)
        self.sim_time: float = 0.0
        #: The open attribution windows, outermost first — the only such
        #: list.  A window is an open tracing ``Span`` (its ``metrics`` and
        #: ``time_by_label`` dicts); each hears every :meth:`inc` and
        #: labelled :meth:`advance` as it happens.  One query's record
        #: (``RunInfo``) is its root span, however long the registry has
        #: lived.
        self.windows: list = []

    def inc(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount
        if amount:
            for window in self.windows:
                heard = window.metrics
                heard[name] = heard.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        return self.counters.get(name, 0)

    def advance(self, seconds: float, label: str = "") -> None:
        """Advance the simulated cluster clock."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self.sim_time += seconds
        if label:
            for window in self.windows:
                sums = window.time_by_label
                sums[label] = sums.get(label, 0.0) + seconds

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of all counters plus the simulated clock."""
        data = dict(self.counters)
        data["sim_time"] = self.sim_time
        return data

    def reset(self) -> None:
        self.counters.clear()
        self.sim_time = 0.0

    def scoped(self, scope: str) -> "ScopedCounters":
        """A counter view that namespaces every name under ``<scope>.``.

        The serving layer gives each client session one of these
        (``session.<name>``), so per-tenant traffic — submissions,
        completions, cache hits — lands in the same registry and the
        same snapshots as the global counters without colliding with
        them.
        """
        return ScopedCounters(self, scope)

    def __repr__(self) -> str:
        interesting = {k: v for k, v in sorted(self.counters.items())}
        return f"MetricsRegistry(sim_time={self.sim_time:.4f}, {interesting})"


class ScopedCounters:
    """A prefix-namespaced window onto a :class:`MetricsRegistry`.

    ``inc``/``get`` address ``<scope>.<name>`` in the underlying
    registry; :meth:`snapshot` returns the counters incremented through
    this scope (it remembers their names: no scan of the registry) with
    the prefix stripped.  Obtained via :meth:`MetricsRegistry.scoped`.
    """

    def __init__(self, registry: MetricsRegistry, scope: str):
        self.registry = registry
        self.scope = scope
        self._prefix = scope + "."
        #: name -> registry key of every counter incremented through here.
        self._keys: dict[str, str] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        self.registry.inc(
            self._keys.setdefault(name, self._prefix + name), amount)

    def get(self, name: str) -> float:
        return self.registry.get(self._prefix + name)

    def snapshot(self) -> dict[str, float]:
        counters = self.registry.counters
        return {name: counters[key] for name, key in self._keys.items()
                if key in counters}

    def __repr__(self) -> str:
        return f"ScopedCounters({self.scope!r}, {self.snapshot()})"
