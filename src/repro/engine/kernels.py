"""Specialized wall-clock kernels for the fixpoint hot path.

The interpreted engine pays a per-row toll on every hot loop: a lambda
call to extract a key, a method call to pick a shuffle bucket, a closure
dispatch per aggregate merge.  The simulated *cost model* never sees that
toll — but the wall clock does, and the ROADMAP's north star ("as fast as
the hardware allows") is a wall-clock claim.  This module precompiles the
common shapes once, at plan/setup time, into tight specialized loops:

- :func:`make_extractor` — ``operator.itemgetter``-based key extractors
  (C-level slot access instead of a Python lambda frame per row).
- :func:`make_router` — single-pass batched shuffle routing: one loop
  fills per-partition bucket lists, replacing a ``partition_of`` method
  call per row while preserving ``_stable_hash`` semantics bit-exactly.
- :func:`make_merge_kernel` / :func:`make_merge_rows_kernel` — unrolled
  min/max/sum/count merge loops for :class:`~repro.engine.setrdd.
  KeyedStateRDD`, replacing the generic ``AggregateFunction`` dispatch.
- :func:`make_fold_kernel` — the map-side partial-aggregation fold for
  ``(key, value)`` heads with the comparison inlined.
- :func:`hash_probe_join` / :func:`batch_hash_probe` and
  :func:`make_merge_columns_kernel` — not on the product path; pinned
  for ``benchmarks/e2e/micro.py``.

Every kernel is a drop-in replacement for a naive reference loop that
stays in the codebase (``joins.py``, ``setrdd.py``, ``partitioner.py``);
``ExecutionConfig.kernels=False`` routes execution through the reference
loops, and the differential suite (``pytest -m kernels``) pins that both
paths produce bit-exact results.  Kernels may emit join output in a
different *order* than the reference (e.g. an incrementally-updated build
table keeps insertion order where a rebuild follows set order); every
consumer is an idempotent set union or a commutative monotonic aggregate,
so results are unaffected.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable

from repro.engine.aggregates import BY_NAME, AggregateFunction
from repro.engine.partitioner import _stable_hash

__all__ = [
    "batch_hash_probe",
    "hash_probe_join",
    "make_extractor",
    "make_fold_kernel",
    "make_merge_columns_kernel",
    "make_merge_kernel",
    "make_merge_rows_kernel",
    "make_router",
]


# ---------------------------------------------------------------------------
# key extraction
# ---------------------------------------------------------------------------


def make_extractor(positions: tuple[int, ...]) -> Callable[[tuple], object]:
    """``row -> key`` over column positions, specialized at plan time.

    Single-position keys stay unwrapped scalars and multi-position keys
    become tuples — the exact contract of ``partitioner.key_of`` — but the
    extraction is an ``operator.itemgetter`` (no Python frame per row).
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        return itemgetter(positions[0])
    return itemgetter(*positions)


# ---------------------------------------------------------------------------
# batched shuffle routing
# ---------------------------------------------------------------------------


def make_router(key_positions: tuple[int, ...],
                num_partitions: int) -> Callable[[Iterable[tuple]], list[list[tuple]]]:
    """Single-pass batched routing: rows -> per-partition bucket lists.

    Bit-exact with routing each row through
    ``HashPartitioner.partition_of(key_of(row))``: the ``type(key) is
    int`` fast path and the ``_stable_hash`` fallback are inlined into
    one loop, and rows keep their relative order inside each bucket.
    """
    n = num_partitions
    if n == 1:
        def route_single(rows):
            return [list(rows)]
        return route_single

    if len(key_positions) == 1:
        index = key_positions[0]

        def route(rows):
            buckets: list[list[tuple]] = [[] for _ in range(n)]
            appends = [bucket.append for bucket in buckets]
            stable_hash = _stable_hash
            for row in rows:
                key = row[index]
                if type(key) is int:
                    appends[key % n](row)
                else:
                    appends[stable_hash(key) % n](row)
            return buckets

        return route

    getter = itemgetter(*key_positions)

    def route_multi(rows):
        buckets: list[list[tuple]] = [[] for _ in range(n)]
        appends = [bucket.append for bucket in buckets]
        stable_hash = _stable_hash
        for row in rows:
            # Multi-column keys are tuples, never ints: always stable-hash.
            appends[stable_hash(getter(row)) % n](row)
        return buckets

    return route_multi


# ---------------------------------------------------------------------------
# KeyedStateRDD merge kernels
# ---------------------------------------------------------------------------


def make_merge_kernel(aggregates: tuple[AggregateFunction, ...]
                      ) -> Callable[[dict, Iterable], list] | None:
    """Unrolled ``(state, pairs) -> delta pairs`` merge loop, or ``None``.

    Specialized for the single-aggregate column every library query uses;
    multi-aggregate states fall back to the generic
    ``AggregateFunction.merge`` dispatch in ``setrdd.py``.  Each kernel
    replays Algorithm 5's Reduce semantics exactly: min/max deltas carry
    the improved totals, sum/count deltas carry the increments, and an
    insert always enters the delta (``delta_for_insert`` is the identity
    for all four aggregates).

    Only the canonical builtin singletons qualify: a custom
    :class:`AggregateFunction` that borrows a builtin *name* but swaps
    any hook (``merge``/``delta_for_insert``/...) must keep flowing
    through the generic dispatch that honours those hooks.
    """
    if len(aggregates) != 1 or aggregates[0] is not BY_NAME.get(
            aggregates[0].name):
        return None
    name = aggregates[0].name

    if name == "min":
        def merge_min(state, pairs):
            delta: list = []
            append = delta.append
            get = state.get
            for key, values in pairs:
                current = get(key)
                value = values[0]
                if current is None:
                    state[key] = values
                    append((key, (value,)))
                elif value < current[0]:
                    state[key] = (value,)
                    append((key, (value,)))
            return delta
        return merge_min

    if name == "max":
        def merge_max(state, pairs):
            delta: list = []
            append = delta.append
            get = state.get
            for key, values in pairs:
                current = get(key)
                value = values[0]
                if current is None:
                    state[key] = values
                    append((key, (value,)))
                elif value > current[0]:
                    state[key] = (value,)
                    append((key, (value,)))
            return delta
        return merge_max

    if name in ("sum", "count"):
        def merge_sum(state, pairs):
            delta: list = []
            append = delta.append
            get = state.get
            for key, values in pairs:
                current = get(key)
                value = values[0]
                if current is None:
                    state[key] = values
                    append((key, (value,)))
                elif value != 0:
                    state[key] = (current[0] + value,)
                    append((key, (value,)))
            return delta
        return merge_sum

    return None


def make_merge_rows_kernel(aggregates: tuple[AggregateFunction, ...]
                           ) -> Callable[[dict, Iterable], list] | None:
    """Merge loop over raw ``(key, value)`` rows, skipping pair splitting.

    The ubiquitous two-column head shape (SSSP, CC, BOM, ...) otherwise
    pays two intermediate lists per merge: ``rows -> (key, values) pairs``
    before the merge and ``delta pairs -> rows`` after.  This kernel fuses
    all three loops; output rows are the delta in head schema.  Custom
    aggregate clones are rejected for the same reason as in
    :func:`make_merge_kernel`.
    """
    if len(aggregates) != 1 or aggregates[0] is not BY_NAME.get(
            aggregates[0].name):
        return None
    name = aggregates[0].name

    if name == "min":
        def merge_rows_min(state, rows):
            fresh: list = []
            append = fresh.append
            get = state.get
            for row in rows:
                key = row[0]
                value = row[1]
                current = get(key)
                if current is None:
                    state[key] = (value,)
                    append((key, value))
                elif value < current[0]:
                    state[key] = (value,)
                    append((key, value))
            return fresh
        return merge_rows_min

    if name == "max":
        def merge_rows_max(state, rows):
            fresh: list = []
            append = fresh.append
            get = state.get
            for row in rows:
                key = row[0]
                value = row[1]
                current = get(key)
                if current is None:
                    state[key] = (value,)
                    append((key, value))
                elif value > current[0]:
                    state[key] = (value,)
                    append((key, value))
            return fresh
        return merge_rows_max

    if name in ("sum", "count"):
        def merge_rows_sum(state, rows):
            fresh: list = []
            append = fresh.append
            get = state.get
            for row in rows:
                key = row[0]
                value = row[1]
                current = get(key)
                if current is None:
                    state[key] = (value,)
                    append((key, value))
                elif value != 0:
                    state[key] = (current[0] + value,)
                    append((key, value))
            return fresh
        return merge_rows_sum

    return None


# Unreferenced by the product path; pinned with
# ``KeyedStateRDD.merge_rows_batch`` for benchmarks/e2e/micro.py.
def make_merge_columns_kernel(aggregates: tuple[AggregateFunction, ...]
                              ) -> Callable[[dict, Iterable, Iterable],
                                            list] | None:
    """Columnar merge: ``(state, keys, values) -> fresh rows``, or ``None``.

    The column-decomposed twin of :func:`make_merge_rows_kernel` for a
    :class:`~repro.engine.columnar.ColumnBatch` whose two columns are the
    ``(key, value)`` head — the loop walks the zipped key/value columns
    directly instead of indexing ``row[0]``/``row[1]`` per tuple.  Same
    eligibility rule (single canonical builtin aggregate), same state
    transitions, same fresh-delta rows in the same order
    (``tests/engine/test_columnar.py`` pins the equivalence).
    """
    if len(aggregates) != 1 or aggregates[0] is not BY_NAME.get(
            aggregates[0].name):
        return None
    name = aggregates[0].name

    if name == "min":
        def merge_columns_min(state, keys, values):
            fresh: list = []
            append = fresh.append
            get = state.get
            for key, value in zip(keys, values):
                current = get(key)
                if current is None:
                    state[key] = (value,)
                    append((key, value))
                elif value < current[0]:
                    state[key] = (value,)
                    append((key, value))
            return fresh
        return merge_columns_min

    if name == "max":
        def merge_columns_max(state, keys, values):
            fresh: list = []
            append = fresh.append
            get = state.get
            for key, value in zip(keys, values):
                current = get(key)
                if current is None:
                    state[key] = (value,)
                    append((key, value))
                elif value > current[0]:
                    state[key] = (value,)
                    append((key, value))
            return fresh
        return merge_columns_max

    if name in ("sum", "count"):
        def merge_columns_sum(state, keys, values):
            fresh: list = []
            append = fresh.append
            get = state.get
            for key, value in zip(keys, values):
                current = get(key)
                if current is None:
                    state[key] = (value,)
                    append((key, value))
                elif value != 0:
                    state[key] = (current[0] + value,)
                    append((key, value))
            return fresh
        return merge_columns_sum

    return None


def make_fold_kernel(aggregate: AggregateFunction
                     ) -> Callable[[Iterable[tuple]], list] | None:
    """Map-side partial aggregation over ``(key, value)`` rows, inlined.

    Replaces the ``combine`` closure call per row with the comparison /
    addition itself.  Ties resolve exactly as ``min``/``max`` builtins do
    (keep the incumbent), matching the reference fold bit-exactly.
    Custom aggregate clones are rejected (see :func:`make_merge_kernel`).
    """
    if aggregate is not BY_NAME.get(aggregate.name):
        return None
    name = aggregate.name
    if name == "min":
        def fold_min(rows):
            combined: dict = {}
            get = combined.get
            for key, value in rows:
                old = get(key)
                if old is None or value < old:
                    combined[key] = value
            return list(combined.items())
        return fold_min

    if name == "max":
        def fold_max(rows):
            combined: dict = {}
            get = combined.get
            for key, value in rows:
                old = get(key)
                if old is None or value > old:
                    combined[key] = value
            return list(combined.items())
        return fold_max

    if name in ("sum", "count"):
        def fold_sum(rows):
            combined: dict = {}
            get = combined.get
            for key, value in rows:
                old = get(key)
                combined[key] = value if old is None else old + value
            return list(combined.items())
        return fold_sum

    return None


# ---------------------------------------------------------------------------
# standalone probe loops
# ---------------------------------------------------------------------------


# Unreferenced by the product path (the planner's HashJoinStep / generated
# code own the probe); pinned for benchmarks/e2e/micro.py.
def hash_probe_join(rows: Iterable[tuple], table: dict,
                    probe_key: Callable[[tuple], object],
                    combine: Callable[[tuple, tuple], tuple]) -> list[tuple]:
    """Probe a prebuilt table; identical output to ``HashJoinStep.apply``."""
    out: list[tuple] = []
    append = out.append
    get = table.get
    for row in rows:
        bucket = get(probe_key(row))
        if bucket is None:
            continue
        for build_row in bucket:
            append(combine(row, build_row))
    return out


# Unreferenced by the product path; pinned for benchmarks/e2e/micro.py.
def batch_hash_probe(keys: Iterable, rows: Iterable[tuple], table: dict,
                     combine: Callable[[tuple, tuple], tuple]) -> list[tuple]:
    """Columnar probe: pre-extracted key column instead of per-row calls.

    Output-identical to :func:`hash_probe_join` with ``probe_key`` being
    the extractor that produced ``keys`` — the key column of a
    :class:`~repro.engine.columnar.ColumnBatch` (or any parallel
    sequence) replaces the per-row ``probe_key(row)`` call.
    """
    out: list[tuple] = []
    append = out.append
    get = table.get
    for key, row in zip(keys, rows):
        bucket = get(key)
        if bucket is None:
            continue
        for build_row in bucket:
            append(combine(row, build_row))
    return out
