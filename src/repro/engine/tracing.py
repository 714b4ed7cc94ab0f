"""Structured tracing: the span tree behind EXPLAIN ANALYZE.

The paper tells its whole performance story through per-stage and
per-iteration observation (Figures 5-9; the four Section 6-7
optimizations are each justified by where the time went).  The flat
counters of :class:`repro.engine.metrics.MetricsRegistry` cannot
attribute simulated time to a stage, an iteration or a view, so this
module adds a hierarchical layer on top of them:

    query -> fixpoint -> iteration -> stage -> task
                      \\-> exchange / broadcast
          \\-> select (the final stratum / derived views)

A :class:`Span` brackets a region of execution.  Between entry and exit
it is one of the registry's open attribution windows
(:attr:`MetricsRegistry.windows`): it reads the simulated clock — and an
enabled tracer the host's monotonic one (``Span.wall_s``) — at both ends
and *hears* every ``inc`` and labelled ``advance`` in between.  So every
span carries, with no bookkeeping at the instrumentation sites, its
inclusive duration, the counter traffic inside it (``Span.metrics``:
shuffle/remote/broadcast bytes, task CPU seconds, ...) and its time by
label (``Span.time_by_label``: stage vs. shuffle time in EXPLAIN
ANALYZE), and costs what it touched, whatever the registry holds.

Spans serialize to plain dicts (:meth:`Span.to_dict`), which is the
trace JSON schema documented in DESIGN.md; the renderers at the bottom
of this module (:func:`format_explain_analyze`) work off those dicts so
a trace loaded back from a benchmark artifact renders identically.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Iterator

__all__ = [
    "Span",
    "Tracer",
    "format_explain_analyze",
    "iteration_timeline",
]


@dataclass
class Span:
    """One bracketed region of execution on the simulated cluster.

    ``start``/``end`` are simulated-clock readings; ``duration`` is
    therefore inclusive simulated time (children are not subtracted).
    ``wall_*_ns`` are ``perf_counter_ns`` readings of the same two
    moments (``wall_s``: zero for a leaf, instantaneous on both clocks).
    ``metrics`` holds the non-zero counter increments heard in between;
    ``time_by_label`` splits the duration by clock-advance label.
    """

    kind: str
    name: str
    start: float = 0.0
    end: float | None = None
    wall_start_ns: int = 0
    wall_end_ns: int = 0
    span_id: int = 0
    attrs: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    time_by_label: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def wall_s(self) -> float:
        return max(0, self.wall_end_ns - self.wall_start_ns) / 1e9

    def annotate(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def find(self, kind: str) -> Iterator["Span"]:
        """All descendant spans (including self) of one kind, pre-order."""
        if self.kind == kind:
            yield self
        for child in self.children:
            yield from child.find(kind)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "span_id": self.span_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "wall_s": self.wall_s,
            "attrs": dict(self.attrs),
            "metrics": dict(self.metrics),
            "time_by_label": dict(self.time_by_label),
            "children": [child.to_dict() for child in self.children],
        }


#: Shared sink for disabled tracers: instrumentation sites may annotate
#: it freely; nothing is retained.
_NULL_SPAN = Span(kind="null", name="null")


class Tracer:
    """Builds the span tree for one simulated cluster.

    The tracer wraps a :class:`MetricsRegistry`: :meth:`begin` pushes the
    span onto the registry's open windows and :meth:`end` pops it, so the
    registry itself delivers every increment and labelled advance to the
    open spans; the tracer keeps no stack and no marks.  Disabled tracers
    keep the full API but record nothing.
    """

    def __init__(self, metrics, enabled: bool = True):
        self.metrics = metrics
        self.enabled = enabled
        self.roots: list[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    @property
    def current(self) -> Span | None:
        """The innermost open span (bare windows are looked through)."""
        for window in reversed(self.metrics.windows):
            if isinstance(window, Span):
                return window
        return None

    def _new_span(self, kind: str, name: str, attrs: dict) -> Span:
        """A span starting now, attached under the innermost open one."""
        span = Span(kind=kind, name=name, start=self.metrics.sim_time,
                    span_id=self._next_id, attrs=attrs)
        self._next_id += 1
        parent = self.current
        (parent.children if parent is not None else self.roots).append(span)
        return span

    def begin(self, kind: str, name: str, **attrs) -> Span:
        if not self.enabled:
            return _NULL_SPAN
        span = self._new_span(kind, name, attrs)
        self.metrics.windows.append(span)
        span.wall_start_ns = perf_counter_ns()
        return span

    def end(self, span: Span) -> None:
        if not self.enabled or span is _NULL_SPAN:
            return
        wall_end_ns = perf_counter_ns()
        windows = self.metrics.windows
        # By identity: ``Span`` is a dataclass, ``==`` compares trees.
        if not windows or windows[-1] is not span:
            raise RuntimeError(
                f"span {span.kind}:{span.name} is not the innermost open span")
        windows.pop()
        span.end = self.metrics.sim_time
        span.wall_end_ns = wall_end_ns

    @contextmanager
    def span(self, kind: str, name: str, **attrs):
        span = self.begin(kind, name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    @contextmanager
    def owned_span(self, kind: str, name: str, **attrs):
        """A span whose opener owns the finished tree (it serializes it,
        as ``RunInfo.trace``, or is done with it): as a root it leaves
        :attr:`roots` on exit, so a long-lived tracer does not grow."""
        with self.span(kind, name, **attrs) as span:
            try:
                yield span
            finally:
                self.roots[:] = [r for r in self.roots if r is not span]

    def leaf(self, kind: str, name: str, **attrs) -> Span:
        """Record an instantaneous child span (e.g. one task of a stage)."""
        if not self.enabled:
            return _NULL_SPAN
        span = self._new_span(kind, name, attrs)
        span.end = span.start
        return span

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def reset(self) -> None:
        self.roots.clear()

    def to_dict(self) -> dict:
        return {"spans": [span.to_dict() for span in self.roots]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ----------------------------------------------------------------------
# rendering (operates on the serialized dict form)
# ----------------------------------------------------------------------

def _find_dict(span: dict, kind: str) -> Iterator[dict]:
    if span.get("kind") == kind:
        yield span
    for child in span.get("children", ()):
        yield from _find_dict(child, kind)


def _stage_seconds(span: dict) -> float:
    return sum(seconds for label, seconds in span.get("time_by_label", {}).items()
               if label.startswith("stage:"))


def _shuffle_seconds(span: dict) -> float:
    return span.get("time_by_label", {}).get("shuffle", 0.0)


def _remote_bytes(span: dict) -> int:
    metrics = span.get("metrics", {})
    return int(metrics.get("shuffle_remote_bytes", 0)
               + metrics.get("remote_fetch_bytes", 0))


def iteration_timeline(trace: dict) -> list[dict]:
    """Flatten a trace into one row per fixpoint iteration.

    Each row carries ``clique``, ``iteration``, ``delta_total``,
    ``delta_by_view``, ``stage_seconds``, ``shuffle_seconds``,
    ``remote_bytes`` and ``seconds`` (inclusive simulated time) — the
    columns of the EXPLAIN ANALYZE table and of the JSON artifact the
    benchmark harness writes.
    """
    rows: list[dict] = []
    for fixpoint in _find_dict(trace, "fixpoint"):
        for iteration in _find_dict(fixpoint, "iteration"):
            attrs = iteration.get("attrs", {})
            rows.append({
                "clique": fixpoint.get("name", ""),
                "iteration": attrs.get("index"),
                "delta_total": attrs.get("delta_total", 0),
                "delta_by_view": attrs.get("delta_by_view", {}),
                "stage_seconds": _stage_seconds(iteration),
                "shuffle_seconds": _shuffle_seconds(iteration),
                "remote_bytes": _remote_bytes(iteration),
                "memory_peak_bytes": attrs.get("memory_peak_bytes", 0),
                "seconds": iteration.get("duration", 0.0),
            })
    return rows


def _format_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
              else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return lines


def format_explain_analyze(trace: dict | None) -> str:
    """Render a trace as a per-iteration EXPLAIN ANALYZE report."""
    if not trace:
        return "EXPLAIN ANALYZE: no trace recorded"
    lines: list[str] = []
    total = trace.get("duration", 0.0)
    lines.append(f"EXPLAIN ANALYZE  [{trace.get('name', 'query')}]")
    lines.append(f"total simulated time: {total:.4f}s")
    if "wall_s" in trace:
        lines.append(f"total wall time: {trace['wall_s']:.4f}s")

    admission = trace.get("attrs", {}).get("admission")
    if admission:
        state = "queued" if admission.get("queued") else "immediate"
        line = f"admission: {state}"
        if admission.get("wait_s"):
            line += f"  queue wait: {admission['wait_s']:.4f}s"
        if admission.get("reserved_bytes"):
            line += f"  reserved: {admission['reserved_bytes']:.0f} bytes"
        if admission.get("session"):
            line += f"  session: {admission['session']}"
        lines.append(line)

    for fixpoint in _find_dict(trace, "fixpoint"):
        attrs = fixpoint.get("attrs", {})
        iterations = list(_find_dict(fixpoint, "iteration"))
        lines.append("")
        lines.append(
            f"fixpoint [{fixpoint.get('name')}]  "
            f"iterations={attrs.get('iterations', len(iterations))}  "
            f"mode={attrs.get('mode', 'dsn')}  "
            f"time={fixpoint.get('duration', 0.0):.4f}s")
        sides = attrs.get("base_sides")
        if sides and any(sides.values()):
            # hit: reused from an earlier query over this table epoch;
            # appended: reused after absorbing the rows inserted since;
            # bypassed: not a registered table, built for this query only.
            stored = "; ".join(attrs.get("stored_sides", ()))
            lines.append(
                f"  base sides: {sides['hits']} hit, "
                f"{sides['appended']} appended, "
                f"{sides['built']} built, {sides['bypassed']} bypassed"
                + (f"  ({stored})" if stored else ""))
        if "decomposed_ineligible" in attrs:
            lines.append(
                f"  decomposed-ineligible: {attrs['decomposed_ineligible']}"
                f"  (a decomposable clique, planned stacked)")
        if not iterations:
            continue
        view_names = sorted({
            view for span in iterations
            for view in span.get("attrs", {}).get("delta_by_view", {})})
        headers = (["iter"] + [f"delta({v})" for v in view_names]
                   + ["delta", "stage_s", "shuffle_s", "remote_B",
                      "mem_peak_B", "time_s"])
        table_rows: list[list[str]] = []
        for span in iterations:
            span_attrs = span.get("attrs", {})
            by_view = span_attrs.get("delta_by_view", {})
            table_rows.append(
                [str(span_attrs.get("index", "?"))]
                + [str(by_view.get(v, 0)) for v in view_names]
                + [str(span_attrs.get("delta_total", 0)),
                   f"{_stage_seconds(span):.4f}",
                   f"{_shuffle_seconds(span):.4f}",
                   str(_remote_bytes(span)),
                   str(int(span_attrs.get("memory_peak_bytes", 0))),
                   f"{span.get('duration', 0.0):.4f}"])
        lines.extend(_format_table(headers, table_rows))

    selects = list(_find_dict(trace, "select"))
    if selects:
        lines.append("")
        for span in selects:
            lines.append(
                f"select [{span.get('name')}]  "
                f"rows={span.get('attrs', {}).get('output_rows', '?')}")

    for section in (_format_kernels_section, _format_memory_section,
                    _format_recovery_section, _format_supervision_section):
        body = section(trace)
        if body:
            lines.append("")
            lines.extend(body)
    return "\n".join(lines)


def _format_supervision_section(trace: dict) -> list[str]:
    """The process-backend supervision report: rendered whenever the run
    asked for real worker processes — it shipped tasks, the pool
    degraded, or a clique stayed on the driver (``remote-ineligible``,
    one line per such fixpoint with its typed reason).

    Reads the root span's counter deltas, the fixpoint spans'
    ``remote_ineligible`` annotations, plus the same ``fault``/
    ``recovery`` leaves the cluster and backend record (reaps, respawns,
    quarantines, pool shrinks), so a trace loaded from an artifact
    renders identically to a live one.
    """
    metrics = trace.get("metrics", {})
    shipped = metrics.get("process_tasks_shipped", 0)
    degradations = metrics.get("process_backend_degradations", 0)
    ineligible = [
        (fixpoint.get("name"), fixpoint["attrs"]["remote_ineligible"])
        for fixpoint in _find_dict(trace, "fixpoint")
        if "remote_ineligible" in fixpoint.get("attrs", {})]
    if not (shipped or degradations or ineligible):
        return []
    beats = metrics.get("process_heartbeats", 0)
    missed = metrics.get("process_heartbeats_missed", 0)
    lines = [
        "process supervision",
        f"  tasks shipped to pool workers: {shipped:.0f} "
        f"({metrics.get('process_payload_bytes', 0):.0f} payload bytes; "
        f"{metrics.get('process_tasks_driver_local', 0):.0f} stayed "
        f"driver-local)",
        f"  heartbeats: {beats:.0f} received, {missed:.0f} supervision "
        f"rounds found a silent busy worker",
    ]
    for clique, reason in ineligible:
        lines.append(f"  remote-ineligible: {reason}  (fixpoint [{clique}] "
                     f"ran on the driver)")
    reaps = metrics.get("process_worker_reaps", 0)
    crashes = metrics.get("process_worker_crashes", 0)
    respawns = metrics.get("process_worker_respawns", 0)
    if reaps or crashes or respawns:
        lines.append(
            f"  worker deaths: {crashes:.0f} crashed, {reaps:.0f} reaped "
            f"(hung/silent); {respawns:.0f} respawned")
    messages = metrics.get("process_task_messages", 0)
    if messages:
        lines.append(
            f"  task pipe messages: {messages:.0f} "
            f"({shipped:.0f} tasks coalesced into batches)")
    install_bytes = metrics.get("process_install_bytes", 0)
    saved = metrics.get("process_payload_bytes_saved", 0)
    if install_bytes or saved:
        lines.append(
            f"  install blobs: {install_bytes:.0f} bytes shipped, "
            f"{saved:.0f} bytes saved by the worker blob cache")
    if shipped:
        reused = metrics.get("process_install_blob_reused", 0)
        how = (f"reused pickled from the base-side cache ({reused:.0f} "
               f"installs)" if reused else "pickled and hashed by this query")
        lines.append(f"  install heavy half: {how}")
    quarantined = metrics.get("process_tasks_quarantined", 0)
    if quarantined:
        lines.append(f"  poison tasks quarantined: {quarantined:.0f}")
    if degradations:
        lines.append(
            f"  degradation events: {degradations:.0f} "
            f"(pool shrinks / simulated fallbacks)")
    return lines


#: EXPLAIN ANALYZE's name for each ``decomposed.decomposed_runner``.
_RUNNERS = {"grouped": "grouped set kernel",
            "local": "clique step (local loop)"}


def _format_kernels_section(trace: dict) -> list[str]:
    """The kernel-layer report: fused stages, decomposed-fixpoint
    runners and state-cache traffic.

    Reads the fixpoint spans' attributes and the root span's counter
    deltas; only rendered when there is something to report.
    """
    metrics = trace.get("metrics", {})
    hits = metrics.get("kernel_state_cache_hits", 0)
    misses = metrics.get("kernel_state_cache_misses", 0)
    updates = metrics.get("kernel_state_cache_updates", 0)
    bypass = metrics.get("kernel_state_cache_bypass", 0)
    stage_lines = []
    for span in _find_dict(trace, "fixpoint"):
        attrs = span.get("attrs", {})
        for key, path, unit in (("fused_terms", "derive: probe", "terms"),
                                ("fused_base_rules", "base: scan", "rules")):
            folding, total, sink = attrs.get(key, (0, 0, ""))
            if folding:
                stage_lines.append(f"  {path}·project·{sink}·route fused "
                                   f"({folding} of {total} {unit})")
        runner = attrs.get("runner")
        if runner is not None:
            stage_lines.append(f"  decomposed fixpoint: {_RUNNERS[runner]}")
    if not (hits or misses or updates or bypass or stage_lines):
        return []
    lines = ["kernels", *stage_lines]
    if hits or misses or updates or bypass:
        lookups = hits + misses + updates
        rate = 100.0 * (hits + updates) / lookups if lookups else 0.0
        lines.append(
            f"  state build-table cache: {hits:.0f} hits, "
            f"{updates:.0f} incremental updates, {misses:.0f} rebuilds "
            f"({rate:.1f}% reused)")
        if bypass:
            lines.append(
                f"  gather-stage bypasses (mid-stage evolving state): "
                f"{bypass:.0f}")
    return lines


def _format_memory_section(trace: dict) -> list[str]:
    """The memory-governance report: worker high-water marks + spills.

    ``memory_hwm_bytes_w<N>`` counters are running maxima (the manager
    increments them only by the excess over the previous peak), so the
    root span's delta for each *is* the query's high-water mark per
    worker.  Rendered whenever the query charged any memory.
    """
    metrics = trace.get("metrics", {})
    hwm = {key: value for key, value in metrics.items()
           if key.startswith("memory_hwm_bytes_w")}
    if not hwm:
        return []
    lines = ["memory"]
    for key in sorted(hwm, key=lambda k: int(k.rsplit("w", 1)[1])):
        worker = key.rsplit("w", 1)[1]
        lines.append(f"  worker {worker} high-water: {hwm[key]:.0f} bytes")
    spills = metrics.get("spill_events", 0)
    if spills:
        lines.append(
            f"  spills: {spills:.0f} "
            f"({metrics.get('spill_bytes', 0):.0f} bytes out, "
            f"{metrics.get('unspill_events', 0):.0f} reads / "
            f"{metrics.get('unspill_bytes', 0):.0f} bytes back, "
            f"{metrics.get('spill_seconds', 0.0):.4f}s simulated disk)")
    if metrics.get("memory_pressure_events", 0):
        lines.append(
            f"  pressure events: {metrics['memory_pressure_events']:.0f} "
            f"(soft-budget overflows: "
            f"{metrics.get('memory_budget_overflows', 0):.0f})")

    events = [(span.get("start", 0.0), span)
              for span in _find_dict(trace, "spill")]
    if events:
        shown = events[:12]
        lines.append("  events:")
        for start, span in shown:
            attrs = span.get("attrs", {})
            lines.append(
                f"    t={start:.4f}s  {attrs.get('direction', '?'):<3s} "
                f"{span.get('name', '')}  worker={attrs.get('worker', '?')}"
                f"  bytes={attrs.get('bytes', 0)}")
        if len(events) > len(shown):
            lines.append(f"    ... {len(events) - len(shown)} more")
    return lines


def _format_recovery_section(trace: dict) -> list[str]:
    """The fault-recovery report: only rendered when something failed.

    Reads the root span's counter deltas (``task_failures``,
    ``workers_lost``, ...) plus the ``fault``/``recovery`` leaf spans the
    cluster records, so a trace loaded from a benchmark artifact renders
    identically to a live one.
    """
    metrics = trace.get("metrics", {})
    failures = metrics.get("task_failures", 0)
    lost = metrics.get("workers_lost", 0)
    if not (failures or lost):
        return []
    attempts = metrics.get("task_attempts", 0)
    tasks = metrics.get("tasks", 0)
    lines = [
        "fault recovery",
        f"  task attempts: {attempts:.0f} for {tasks:.0f} tasks "
        f"({failures:.0f} failed, retried from cached state)",
    ]
    if lost:
        lines.append(
            f"  workers lost: {lost:.0f}  "
            f"(invalidated {metrics.get('cache_invalidated_partitions', 0):.0f}"
            f" cached partitions, "
            f"{metrics.get('cache_invalidated_bytes', 0):.0f} bytes re-derived)")
    if metrics.get("workers_blacklisted", 0):
        lines.append(
            f"  workers blacklisted: {metrics['workers_blacklisted']:.0f}")
    lines.append(
        f"  recovery overhead: {metrics.get('recovery_seconds', 0.0):.4f}s "
        "simulated (wasted attempts + backoff + detection + re-derivation)")

    events = []
    for kind in ("fault", "recovery"):
        for span in _find_dict(trace, kind):
            events.append((span.get("start", 0.0), kind, span))
    if events:
        lines.append("  events:")
        for start, kind, span in sorted(events, key=lambda e: e[0]):
            attrs = span.get("attrs", {})
            detail = ""
            if kind == "recovery":
                detail = (f"  replayed={attrs.get('replayed_tasks', [])}"
                          f" rescheduled={attrs.get('rescheduled', 0)}")
            elif "failures" in attrs:
                detail = f"  failures={attrs['failures']}"
            lines.append(
                f"    t={start:.4f}s  {kind:<11s} {span.get('name', '')}"
                f"{detail}")
    return lines
