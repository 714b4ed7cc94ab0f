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


def merge_columns(state: dict, keys: Iterable, values: Iterable,
                  aggregate: AggregateFunction) -> list[tuple]:
    """Generic columnar merge for one aggregate column: fresh-delta rows.

    The reference twin of ``kernels.make_merge_columns_kernel`` for
    single-aggregate states whose function is *not* one of the canonical
    builtins (a custom clone with overridden hooks): walks the parallel
    key/value columns, dispatching through the aggregate's own
    ``merge``/``delta_for_insert``, and returns ``(key, delta_value)``
    rows exactly as ``KeyedStateRDD.merge_rows`` would.
    """
    merge = aggregate.merge
    delta_for_insert = aggregate.delta_for_insert
    fresh: list = []
    append = fresh.append
    get = state.get
    for key, value in zip(keys, values):
        current = get(key)
        if current is None:
            state[key] = (value,)
            append((key, delta_for_insert(value)))
        else:
            merged, changed, delta_value = merge(current[0], value)
            if changed:
                state[key] = (merged,)
                append((key, delta_value))
    return fresh


def partial_aggregate(pairs: Iterable[tuple[object, tuple]],
                      aggregates: tuple[AggregateFunction, ...]) -> list[tuple[object, tuple]]:
    """Map-side combine: collapse same-key contributions before the shuffle.

    This is the ``Partial_Aggregate`` of Algorithm 5 line 5 — it reduces the
    shuffled data volume; correctness is unaffected because every aggregate
    here is associative and commutative (tested property-style in
    ``tests/engine/test_aggregates.py``).
    """
    if len(aggregates) == 1:
        # Fast path: a single aggregate column (every library query) skips
        # the zip/tuple machinery — scalar state, one dict probe per pair.
        agg = aggregates[0]
        normalize = agg.normalize
        combine = agg.combine
        state: dict = {}
        get = state.get
        for key, values in pairs:
            value = normalize(values[0])
            old = get(key)
            state[key] = value if old is None else combine(old, value)
        return [(key, (value,)) for key, value in state.items()]
    state = {}
    for key, values in pairs:
        current = state.get(key)
        if current is None:
            state[key] = tuple(agg.normalize(v) for agg, v in zip(aggregates, values))
        else:
            state[key] = tuple(
                agg.combine(old, agg.normalize(new))
                for agg, old, new in zip(aggregates, current, values))
    return list(state.items())


def aggregate_rows(view, rows: list[tuple]) -> list[tuple]:
    """Group full head rows of ``view`` (a ``ViewPlan``) and combine their
    aggregate columns — stratified evaluation's final stratum, applied
    after a recursion that ran under set semantics."""
    group = view.group_positions
    agg_positions = view.aggregate_positions
    functions = [view.aggregates[p] for p in agg_positions]
    grouped: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row[i] for i in group)
        values = [row[p] for p in agg_positions]
        state = grouped.get(key)
        if state is None:
            grouped[key] = values
        else:
            for i, fn in enumerate(functions):
                state[i] = fn.combine(state[i], values[i])
    out = []
    arity = len(view.columns)
    for key, values in grouped.items():
        row = [None] * arity
        for position, value in zip(group, key):
            row[position] = value
        for position, value in zip(agg_positions, values):
            row[position] = value
        out.append(tuple(row))
    return out
