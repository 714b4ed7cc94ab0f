"""Wall/CPU/RSS measurement, the yardstick that scales times to the box's
reference speed, and the summary statistics (stdlib + /proc).

CPU and memory cover the driver *and its live child processes* — the
process backend's workers do the real work on ``sssp_proc_300k`` — read
from ``/proc/<pid>/stat`` and ``/proc/<pid>/status``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import time
from typing import NamedTuple

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cores() -> int:
    return len(os.sched_getaffinity(0))


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the ``(comm)`` (which may itself
    contain spaces and parentheses); ``None`` when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def child_pids() -> list[int]:
    """Live, un-reaped processes whose parent is this process."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, fields[1] the ppid.
        if fields and fields[1] == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def surviving_children() -> list[str]:
    """Command lines of child processes still alive — called after
    ``ctx.close()``, when there must be none.  The stdlib's own
    ``multiprocessing.resource_tracker`` helper (started by any spawn,
    owned by the interpreter, exits with it) is not the program's."""
    lines = [_cmdline(pid) for pid in child_pids()]
    return [line for line in lines if "resource_tracker" not in line]


def children_cpu_s() -> float:
    """user+sys CPU seconds consumed so far by live children."""
    ticks = 0
    for pid in child_pids():
        fields = _stat_fields(pid)
        if fields:
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLK_TCK


def _vm_hwm_mb(pid: int | str) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """Driver ``VmHWM`` plus the sum over live children's."""
    return _vm_hwm_mb("self") + sum(_vm_hwm_mb(pid) for pid in child_pids())


# ----------------------------------------------------------------------
# the yardstick: time scaled to the box's reference speed
# ----------------------------------------------------------------------
# This 2-core VM's speed drifts by +-20% over minutes (CPU time inflates
# with wall time, so it is the cores, not the scheduler): identical runs
# of one commit read 25% apart, which no bound the driver allows can
# absorb.  So every timed region is bracketed by a fixed pure-Python
# kernel, and its wall and CPU seconds are divided by how much slower
# than the reference the kernel ran.  Over five minutes of alternating
# kernel and tc query the raw 15-second medians spanned a factor of 1.30,
# the scaled ones 1.05.

#: Seconds one yardstick pass takes on this box at its usual speed.  Any
#: constant would do; this one makes a slowdown of 1.0 mean "as usual".
YARDSTICK_REF_S = 0.018
YARDSTICK_PASSES = 3


def _yardstick_pass() -> float:
    """One pass of the kernel: dict probes, comparisons, tuple and list
    appends — the operations the engine's hot loops are made of."""
    start = time.perf_counter()
    state: dict = {}
    fresh = []
    for i in range(150_000):
        key = (i * 7919) % 50_021
        known = state.get(key)
        if known is None or i < known:
            state[key] = i
            fresh.append((key, i))
    return time.perf_counter() - start


def box_slowdown() -> float:
    """How much slower than its reference speed the box runs right now
    (1.0 = reference; the median of YARDSTICK_PASSES passes)."""
    return (statistics.median(_yardstick_pass()
                              for _ in range(YARDSTICK_PASSES))
            / YARDSTICK_REF_S)


@contextlib.contextmanager
def stopwatch():
    """Times the block; afterwards the yielded dict holds ``raw_s``,
    ``slowdown`` (mean of the readings before and after the block) and
    ``seconds`` = ``raw_s / slowdown``."""
    took: dict = {}
    before = box_slowdown()
    start = time.perf_counter()
    try:
        yield took
    finally:
        raw = time.perf_counter() - start
        slowdown = (before + box_slowdown()) / 2
        took.update(raw_s=raw, slowdown=slowdown, seconds=raw / slowdown)


class Timed(NamedTuple):
    """One timed call: wall and CPU seconds at reference speed."""
    result: object
    wall: float
    driver_cpu: float
    children_cpu: float
    slowdown: float


def timed_call(fn) -> Timed:
    """Run ``fn()`` with the collector paused and the yardstick around it.

    Driver CPU is ``process_time``; the children's comes from ``/proc``
    ticks, scanned outside the wall-clock window.
    """
    gc.collect()
    gc.disable()
    try:
        kids = children_cpu_s()
        with stopwatch() as took:
            cpu = time.process_time()
            result = fn()
            cpu = time.process_time() - cpu
        kids = children_cpu_s() - kids
    finally:
        gc.enable()
    slowdown = took["slowdown"]
    return Timed(result, took["seconds"], cpu / slowdown, kids / slowdown,
                 slowdown)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, -(-len(ordered) * pct // 100) - 1)  # ceil(n*pct/100) - 1
    return ordered[int(rank)]


#: Samples that must lie beyond the reported tail percentile.  The
#: metrics guide asks for at least ten; on this box that is not enough —
#: serve_mix's p99 (23 samples beyond) lands among the collector's ~50 ms
#: full-collection pauses and swings 44-58 ms from run to run.
TAIL_SAMPLES_BEYOND = 100


def tail(values) -> tuple[float, float]:
    """``(percentile, value)``: the highest of p99/p90 that leaves
    TAIL_SAMPLES_BEYOND samples beyond it; a sample too small for either
    gets its median."""
    for pct in (99.0, 90.0):
        if len(values) * (100.0 - pct) / 100.0 >= TAIL_SAMPLES_BEYOND:
            return pct, percentile(values, pct)
    return 50.0, statistics.median(values)
