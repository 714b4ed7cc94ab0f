"""Served materialized views: named, maintained, concurrently readable.

:class:`repro.core.streaming.IncrementalView` does the heavy lifting
(monotone insert-only maintenance through the fixpoint's maintenance
terms, caught up with the session's tables at each read);
:class:`ServedView` is the thin service-facing wrapper that

- registers the view under a *name* clients address,
- serves ``read()`` to many concurrent clients **snapshot-consistently**:
  between two inserts every reader gets the *same* memoized relation
  object (``IncrementalView.result`` caches the final SELECT and drops
  the memo when a table it names moves), and the wrapper counts how many
  reads were answered from that snapshot without executor work.

Inserts do not pass through here: the service appends to the catalog,
and the view absorbs the rows at its next read.
"""

from __future__ import annotations

from repro.core.streaming import IncrementalView
from repro.relation import Relation


class ServedView:
    """One named incremental view owned by a :class:`QueryService`."""

    def __init__(self, name: str, view: IncrementalView):
        self.name = name
        self.view = view
        self.reads = 0
        self.snapshot_hits = 0

    def read(self) -> Relation:
        """The view's current result; memoized between inserts."""
        evaluations_before = self.view.result_evaluations
        relation = self.view.result()
        self.reads += 1
        if self.view.result_evaluations == evaluations_before:
            self.snapshot_hits += 1
        return relation

    def report(self) -> dict:
        view = self.view
        return {
            "name": self.name,
            "tables": sorted(view.tables),
            "reads": self.reads,
            "snapshot_hits": self.snapshot_hits,
            "snapshot_hit_rate": round(self.snapshot_hits / self.reads, 4)
                                 if self.reads else 0.0,
            "repairs": view.repairs,
            "repair_iterations": view.repair_iterations,
        }
