"""Outside-in tracing: wall-clock spans around calls into each layer.

The program is not modified.  For a traced run the benchmark swaps timing
wrappers in at each layer boundary — the front-end functions
``repro.core.context`` imported by name, ``FixpointOperator.execute``,
and instance attributes of one context's cluster / backend / governor /
served view — and restores every original afterwards.  Untraced runs (all
end-to-end metrics) never see a wrapper.

A span is ``[name, start_ns, end_ns, parent_index, query_id]``; spans of
one query (or one served request) share its id.  Self time of a span is
its duration minus its direct children's.
"""

from __future__ import annotations

import contextlib
import json
import time

from repro.core import context as context_module
from repro.core.fixpoint import FixpointOperator

NAME, START, END, PARENT, QUERY = range(5)

#: ``repro.core.context`` module attribute -> span name.
_FRONT_END = {
    "parse": "core.parser.parse",
    "analyze": "core.analyzer.analyze",
    "optimize": "core.optimizer.optimize",
    "plan_clique": "core.planner.plan_clique",
    "execute_select": "core.executor.execute_select",
}


def _named(span, prefix: str, exact: bool = False) -> bool:
    name = span[NAME]
    return name == prefix or (not exact and name.startswith(prefix + ":"))


class Recorder:
    """In-memory span log with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.query_id = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.query_id])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, query_id=None):
        """A root (or nested) span opened by the benchmark itself."""
        if query_id is not None:
            self.query_id = query_id
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn, label_first_arg: bool = False):
        """``fn`` with a span around every call; ``label_first_arg``
        appends the first positional argument (a stage name)."""
        begin, end = self.begin, self.end

        def timed(*args, **kwargs):
            index = begin(f"{name}:{args[0]}" if label_first_arg else name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return timed

    # -- reading the log ----------------------------------------------

    def seconds(self, prefix: str, query_id=None, exact: bool = False) -> float:
        """Total duration of spans named ``prefix`` (or ``prefix:...``)."""
        total = 0
        for span in self.spans:
            if query_id is not None and span[QUERY] != query_id:
                continue
            if _named(span, prefix, exact):
                total += span[END] - span[START]
        return total / 1e9

    def count(self, prefix: str) -> int:
        return sum(1 for span in self.spans if _named(span, prefix))

    def child_seconds(self, parent_name: str, child_prefix: str,
                      query_id=None) -> float:
        """Time of ``child_prefix`` spans whose *direct* parent is a
        ``parent_name`` span."""
        total = 0
        spans = self.spans
        for span in spans:
            if query_id is not None and span[QUERY] != query_id:
                continue
            parent = span[PARENT]
            if (parent >= 0 and spans[parent][NAME] == parent_name
                    and span[NAME].startswith(child_prefix)):
                total += span[END] - span[START]
        return total / 1e9

    def dump(self, path, meta: dict) -> None:
        """Write the trace JSON (see README.md, "Reading the trace")."""
        origin = self.spans[0][START] if self.spans else 0
        payload = {
            "meta": meta,
            "columns": ["name", "start_us", "end_us", "parent", "query_id"],
            "spans": [[s[NAME], (s[START] - origin) / 1e3,
                       (s[END] - origin) / 1e3, s[PARENT], s[QUERY]]
                      for s in self.spans],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


@contextlib.contextmanager
def installed(recorder: Recorder, ctx, served_view=None):
    """Swap the timing wrappers in for the duration of the block.

    ``ctx`` is the one :class:`RaSQLContext` being traced; ``served_view``
    its :class:`ServedView` on the serving workload.
    """
    undo: list[tuple] = []

    def swap(owner, attribute, name, **kwargs):
        original = getattr(owner, attribute)
        # A module or class owns the name and gets it back; an instance
        # only shadows its class's method, so the shadow is deleted.
        undo.append((owner, attribute, original, attribute in vars(owner)))
        setattr(owner, attribute, recorder.wrap(name, original, **kwargs))

    try:
        for attribute, name in _FRONT_END.items():
            swap(context_module, attribute, name)
        swap(FixpointOperator, "execute", "core.fixpoint.execute")
        cluster = ctx.cluster
        swap(cluster, "run_stage", "engine.cluster.run_stage",
             label_first_arg=True)
        swap(cluster, "exchange", "engine.cluster.exchange")
        swap(cluster, "broadcast", "engine.cluster.broadcast")
        swap(cluster.backend, "run_batch", "engine.backend.run_batch")
        swap(ctx, "analyze_query", "core.context.analyze_query")
        swap(ctx, "execute_admitted", "core.context.execute_admitted")
        swap(ctx.governor, "admit", "core.governor.admit")
        swap(ctx.governor, "release", "core.governor.release")
        if served_view is not None:
            swap(served_view.view, "insert", "core.streaming.insert")
        yield
    finally:
        for owner, attribute, original, owned in reversed(undo):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
