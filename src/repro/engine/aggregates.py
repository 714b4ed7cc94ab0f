"""Monotonic aggregate functions usable inside recursion (Sections 3, 6.2).

RaSQL allows ``min``, ``max``, ``sum`` and ``count`` in a recursive CTE head.
Their fixpoint semantics differ in what a *delta* means:

- ``min``/``max`` are lattice meets/joins: the state is the best value seen;
  a contribution enters the delta only when it improves the state, and the
  delta carries the improved value (Algorithm 5's ``v > R(k)`` test).
- ``sum``/``count`` accumulate: the state is a running total; every non-zero
  contribution enters the delta, and the delta carries the *increment*.
  Downstream rules that are linear in the aggregate column (the paper's
  Count-Paths, Management, MLM-Bonus, Company-Control) propagate increments
  correctly; the running total is what filters and final output observe.
  Termination requires positive contributions on an acyclic derivation
  structure, matching the "sum of positive numbers" condition of Section 3.
- ``count`` follows the paper's continuous-count reading: each derived row
  contributes its column value when numeric (Management passes literal
  ``1``s and accumulated counts) and ``1`` otherwise (Party-Attendance
  counts friend names).

``avg`` is deliberately absent: the ratio of monotonic sum and count is not
monotonic (Section 3), and the analyzer rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class AggregateFunction:
    """One aggregate column's fixpoint behaviour.

    ``merge(old, new) -> (state, changed, delta_value)`` folds one
    contribution into the state; ``delta_value`` is what flows to the next
    iteration when ``changed``.  ``combine`` is the map-side partial
    aggregation operator (Section 6.2's ``Partial_Aggregate``), which for
    all four aggregates is just ``merge`` without delta bookkeeping.
    """

    name: str
    merge: Callable[[object, object], tuple[object, bool, object]]
    delta_for_insert: Callable[[object], object]
    combine: Callable[[object, object], object]
    normalize: Callable[[object], object]

    def __repr__(self) -> str:
        return f"AggregateFunction({self.name})"


def _min_merge(old, new):
    if new < old:
        return new, True, new
    return old, False, old


def _max_merge(old, new):
    if new > old:
        return new, True, new
    return old, False, old


def _sum_merge(old, new):
    if new == 0:
        return old, False, 0
    return old + new, True, new


MIN = AggregateFunction(
    name="min",
    merge=_min_merge,
    delta_for_insert=lambda v: v,
    combine=min,
    normalize=lambda v: v,
)

MAX = AggregateFunction(
    name="max",
    merge=_max_merge,
    delta_for_insert=lambda v: v,
    combine=max,
    normalize=lambda v: v,
)

SUM = AggregateFunction(
    name="sum",
    merge=_sum_merge,
    delta_for_insert=lambda v: v,
    combine=lambda a, b: a + b,
    normalize=lambda v: v,
)

COUNT = AggregateFunction(
    name="count",
    merge=_sum_merge,
    delta_for_insert=lambda v: v,
    combine=lambda a, b: a + b,
    # Non-numeric contributions count as one derived fact.
    normalize=lambda v: v if isinstance(v, (int, float)) and not isinstance(v, bool) else 1,
)

BY_NAME: dict[str, AggregateFunction] = {
    "min": MIN,
    "max": MAX,
    "sum": SUM,
    "count": COUNT,
}


def get_aggregate(name: str) -> AggregateFunction:
    """Look up an aggregate usable in recursion; raise for others (avg)."""
    try:
        return BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(
            f"aggregate {name!r} is not usable in recursion "
            f"(supported: {sorted(BY_NAME)})") from None


def _patched(row: tuple, position: int, value) -> tuple:
    """``row`` with ``value`` at ``position`` — ``row`` itself when it
    already holds that very object, so a ``min``/``max`` delta row stays
    the stored row through the generic loops too."""
    if row[position] is value:
        return row
    return row[:position] + (value,) + row[position + 1:]


def merge_rows(state: dict, rows: Iterable[tuple],
               key_of: Callable[[tuple], object],
               positions: tuple[int, ...],
               aggregates: tuple[AggregateFunction, ...]) -> list[tuple]:
    """Merge head rows into ``{group key: head row}``; return the delta rows.

    The Reduce stage of Algorithm 5 over any head layout, dispatching
    through each aggregate's own hooks: the only loop for multi-aggregate
    heads and custom :class:`AggregateFunction` clones, and the reference
    ``kernels.make_merge_rows_kernel`` is tested against.  A row
    enters the delta when its group is new or at least one aggregate
    changed; the delta row carries each aggregate's ``delta_value`` (the
    improved total for ``min``/``max``, the increment for
    ``sum``/``count``), the stored row the merged totals.
    """
    layout = tuple(zip(positions, aggregates))
    fresh: list = []
    append = fresh.append
    get = state.get
    for row in rows:
        key = key_of(row)
        current = get(key)
        delta = stored = row
        if current is None:
            state[key] = row
            for position, aggregate in layout:
                delta = _patched(delta, position,
                                aggregate.delta_for_insert(row[position]))
            append(delta)
            continue
        changed = False
        for position, aggregate in layout:
            merged, did_change, delta_value = aggregate.merge(
                current[position], row[position])
            delta = _patched(delta, position, delta_value)
            stored = _patched(stored, position, merged)
            changed = changed or did_change
        if changed:
            state[key] = stored
            append(delta)
    return fresh


def partial_aggregate(rows: Iterable[tuple],
                      key_of: Callable[[tuple], object],
                      positions: tuple[int, ...],
                      aggregates: tuple[AggregateFunction, ...]) -> list[tuple]:
    """Map-side combine: collapse same-group head rows before the shuffle.

    This is the ``Partial_Aggregate`` of Algorithm 5 line 5 — it reduces the
    shuffled data volume; correctness is unaffected because every aggregate
    here is associative and commutative (tested property-style in
    ``tests/engine/test_aggregates.py``).  Contributions are normalized
    (idempotently — the head projection already did), so this is also the
    final stratum of stratified evaluation, whose recursion ran without
    aggregates.  ``kernels.make_fold_kernel`` is the specialised loop for
    the heads its templates cover, tested against this one.
    """
    layout = tuple(zip(positions, aggregates))
    combined: dict = {}
    get = combined.get
    for row in rows:
        key = key_of(row)
        old = get(key)
        for position, aggregate in layout:
            value = aggregate.normalize(row[position])
            if old is not None:
                value = aggregate.combine(old[position], value)
            row = _patched(row, position, value)
        combined[key] = row
    return list(combined.values())
