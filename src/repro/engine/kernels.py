"""Specialized wall-clock kernels for the fixpoint hot path.

The interpreted engine pays a per-row toll on every hot loop: a lambda
call to extract a key, a method call to pick a shuffle bucket, a closure
dispatch per aggregate merge.  The simulated *cost model* never sees that
toll — but the wall clock does.  This module precompiles the common shapes
once, at plan/setup time, into tight specialized loops:

- :func:`make_extractor` — ``operator.itemgetter``-based key extractors
  (C-level slot access instead of a Python lambda frame per row).
- :func:`make_router` — single-pass batched shuffle routing: one loop
  fills per-partition bucket lists, replacing a ``partition_of`` method
  call per row while preserving ``_stable_hash`` semantics bit-exactly.
- :func:`make_merge_rows_kernel` — the min/max/sum/count merge of head
  rows into :class:`~repro.engine.setrdd.KeyedStateRDD`'s
  ``{group key: head row}`` partitions, for any single-aggregate layout.
- :func:`make_fold_kernel` — the map-side partial aggregation of the same
  heads: an accumulator of bare values (``fold_into``; generated terms
  fold into it from inside their probe loop, :func:`fold_update`) and the
  one pass that emits it as routed head rows; :func:`make_distinct_emit`
  is that pass for a one-column set view's sink of bare values.  All are
  loop templates, compiled with the head's column positions inlined, once
  per shape.
- :func:`hash_probe_join` / :func:`batch_hash_probe` and
  :func:`make_merge_columns_kernel` — not on the product path; pinned
  for ``benchmarks/e2e/micro.py``.

These loops are the fixpoint's only hot path, whatever the input size.
The generic ``AggregateFunction`` dispatch (``aggregates.merge_rows`` and
``aggregates.partial_aggregate``) stays as the loop for the heads the
templates do not cover — multi-aggregate heads and custom clones — and
``tests/engine/test_kernels.py`` pins each template against it, and the
router against a per-row ``partition_of`` loop.  The ``kernels``
differential suite (``pytest -m kernels``) pins whole queries against the
interpreted pipeline (``codegen=False``) and the sqlite lowering.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable

from repro.engine.aggregates import BY_NAME, AggregateFunction
from repro.engine.partitioner import _stable_hash

__all__ = [
    "DISTINCT",
    "batch_hash_probe",
    "fold_update",
    "hash_probe_join",
    "head_shape",
    "key_source",
    "make_distinct_emit",
    "make_extractor",
    "make_fold_kernel",
    "make_merge_columns_kernel",
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


#: Walk ``source`` and append each ``row`` to the bucket of its partition
#: key — ``HashPartitioner.partition_of`` inlined: the ``type(key) is int``
#: fast path, else ``_stable_hash`` (a multi-column key is a tuple, never
#: an int).  The router and the fold's emit pass are this one text.
_ROUTE_LOOP = """\
def {name}({argument}):
    buckets = [[] for _ in range({n})]
    appends = [bucket.append for bucket in buckets]
    for {target} in {source}:
{row}        pk = {pk}
        if type(pk) is int:
            appends[pk % {n}](row)
        else:
            appends[stable_hash(pk) % {n}](row)
    return buckets
"""


def _route_loop(name: str, argument: str, target: str, source: str,
                row: str, columns: list[str],
                key_positions: tuple[int, ...], n: int) -> Callable:
    """Compile :data:`_ROUTE_LOOP`; ``columns`` are the source references
    of the row's columns, ``row`` the statement building it (if any)."""
    return _compiled(_ROUTE_LOOP.format(
        name=name, argument=argument, n=n, target=target, source=source,
        row=row, pk=key_source(columns, key_positions)), name)


@lru_cache(maxsize=None)
def make_router(key_positions: tuple[int, ...],
                num_partitions: int) -> Callable[[Iterable[tuple]], list[list[tuple]]]:
    """Single-pass batched routing: rows -> per-partition bucket lists.

    Bit-exact with routing each row through
    ``HashPartitioner.partition_of(key_of(row))``, and rows keep their
    relative order inside each bucket.
    """
    if num_partitions == 1:
        return lambda rows: [list(rows)]
    columns = [f"row[{i}]" for i in range(max(key_positions) + 1)]
    return _route_loop("route", "rows", "row", "rows", "", columns,
                       key_positions, num_partitions)


# ---------------------------------------------------------------------------
# keyed-state merge and map-side fold: one loop template each, compiled per
# (builtin aggregate, head layout)
# ---------------------------------------------------------------------------

#: ``rows`` are head rows; ``columns`` (the pinned ``merge_rows_batch``
#: form) their parallel columns, a row being built only when it enters
#: the state.
_MERGE_LOOP = """\
def merge(state, {argument}):
    fresh = []
    append = fresh.append
    get = state.get
    for {target} in {source}:
        key = {key}
        current = get(key)
        if current is None or {changed}:
            {row}state[key] = {stored}
            append(row)
    return fresh
"""

#: The fold keeps bare aggregate values (a comparison never dereferences
#: a stored row); generated terms inline the same update text inside
#: their probe loop (:func:`fold_update`).
_FOLD_LOOP = """\
def fold_into(combined, rows):
    get = combined.get
    for {target} in rows:
        {update}
    return combined
"""


def fold_update(name: str, key: str, value: str) -> list[str]:
    """The statements folding one ``value`` into ``combined[key]`` for the
    builtin aggregate ``name``, given ``get = combined.get``.  ``key`` and
    ``value`` are source fragments; each is evaluated once (bound to a
    local first unless it already is a name).  Ties keep the incumbent,
    as the ``min``/``max`` builtins do."""
    lines = []
    if not key.isidentifier():
        lines.append(f"key = {key}")
        key = "key"
    if not value.isidentifier():
        lines.append(f"value = {value}")
        value = "value"
    lines.append(f"old = get({key})")
    if name in ("min", "max"):
        lines += [f"if old is None or {value} {'<' if name == 'min' else '>'}"
                  f" old:", f"    combined[{key}] = {value}"]
    else:
        lines.append(f"combined[{key}] = {value} if old is None "
                     f"else old + {value}")
    return lines


def _tuple(items: list[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def key_source(columns: list[str], group: tuple[int, ...]) -> str:
    """``make_extractor(group)`` over column references: a scalar for one
    position, a tuple otherwise."""
    if len(group) == 1:
        return columns[group[0]]
    return _tuple([columns[g] for g in group])


def _compiled(source: str, name: str) -> Callable:
    env: dict = {"stable_hash": _stable_hash}
    exec(compile(source, f"<rasql-kernel:{name}>", "exec"), env)
    fn = env[name]
    fn._generated_source = source
    return fn


@lru_cache(maxsize=None)
def _merge_kernel(name: str, group: tuple[int, ...], at: int,
                  columnar: bool) -> Callable:
    arity = len(group) + 1
    columns = [f"c{i}" if columnar else f"row[{i}]" for i in range(arity)]
    if name in ("min", "max"):
        changed = f"{columns[at]} {'<' if name == 'min' else '>'} current[{at}]"
        stored = "row"
    else:
        changed = f"{columns[at]} != 0"
        total = list(columns)
        total[at] = f"current[{at}] + {columns[at]}"
        stored = f"row if current is None else {_tuple(total)}"
    return _compiled(_MERGE_LOOP.format(
        argument="columns" if columnar else "rows",
        target=_tuple(columns) if columnar else "row",
        source="zip(*columns)" if columnar else "rows",
        key=key_source(columns, group), changed=changed, stored=stored,
        row=f"row = {_tuple(columns)}\n            " if columnar else "",
    ), "merge")


@lru_cache(maxsize=None)
def _fold_into_kernel(name: str, group: tuple[int, ...], at: int) -> Callable:
    columns = [f"c{i}" for i in range(len(group) + 1)]
    update = fold_update(name, key_source(columns, group), columns[at])
    return _compiled(_FOLD_LOOP.format(
        target=_tuple(columns), update="\n        ".join(update)),
        "fold_into")


@lru_cache(maxsize=None)
def _fold_emit_kernel(group: tuple[int, ...], at: int,
                      key_positions: tuple[int, ...], n: int) -> Callable:
    # The row back from (key, value): the key's columns around the value.
    built = [f"key[{group.index(i)}]" if len(group) != 1 else "key"
             for i in range(len(group) + 1) if i != at]
    built.insert(at, "value")
    pairs = built == ["key", "value"]  # items() already holds the rows
    if n == 1:
        rows = ("list(combined.items())" if pairs else
                f"[{_tuple(built)} for key, value in combined.items()]")
        return _compiled(f"def emit(combined):\n    return [{rows}]\n",
                         "emit")
    return _route_loop(
        "emit", "combined", "row" if pairs else "key, value",
        "combined.items()", "" if pairs else f"        row = {_tuple(built)}\n",
        ["row[0]", "row[1]"] if pairs else built, key_positions, n)


def _shape(aggregates: tuple[AggregateFunction, ...],
           group_positions: tuple[int, ...],
           aggregate_positions: tuple[int, ...]) -> tuple | None:
    """``(aggregate name, group positions, aggregate position)`` of a head
    the templates apply to, else ``None``.

    Only the canonical singletons qualify: a custom
    :class:`AggregateFunction` that borrows a builtin *name* but swaps
    any hook (``merge``/``delta_for_insert``/...) must keep flowing
    through the generic loops that honour those hooks, as must
    multi-aggregate heads (and any layout that is not exactly the group
    columns plus the aggregate column).
    """
    if len(aggregates) != 1 or aggregates[0] is not BY_NAME.get(
            aggregates[0].name):
        return None
    if sorted(group_positions + aggregate_positions) != list(
            range(len(group_positions) + 1)):
        return None
    return aggregates[0].name, group_positions, aggregate_positions[0]


def make_merge_rows_kernel(aggregates: tuple[AggregateFunction, ...],
                           group_positions: tuple[int, ...],
                           aggregate_positions: tuple[int, ...],
                           ) -> Callable[[dict, Iterable], list] | None:
    """Unrolled ``(state, head rows) -> delta rows`` merge, or ``None``.

    ``aggregates.merge_rows`` with the one builtin aggregate's hooks and
    the head's column positions inlined, over ``{group key: head row}`` —
    any single-aggregate head shape.  Algorithm 5's Reduce exactly: a
    ``min``/``max`` row that improves its group *becomes* the stored row
    and is the delta row; a non-zero ``sum``/``count`` row is the delta
    (the increment) and the stored row is that row carrying the new
    total; an insert always enters the delta (``delta_for_insert`` is the
    identity for all four).
    """
    shape = _shape(aggregates, group_positions, aggregate_positions)
    return shape and _merge_kernel(*shape, columnar=False)


# Unreferenced by the product path; pinned with
# ``KeyedStateRDD.merge_rows_batch`` for benchmarks/e2e/micro.py.
def make_merge_columns_kernel(aggregates: tuple[AggregateFunction, ...],
                              group_positions: tuple[int, ...],
                              aggregate_positions: tuple[int, ...],
                              ) -> Callable[[dict, list], list] | None:
    """Columnar merge: ``(state, columns) -> fresh rows``, or ``None``.

    The same loop as :func:`make_merge_rows_kernel` walking a
    :class:`~repro.engine.columnar.ColumnBatch`'s zipped columns — same
    eligibility, same state, same fresh rows in the same order
    (``tests/engine/test_columnar.py``).
    """
    shape = _shape(aggregates, group_positions, aggregate_positions)
    return shape and _merge_kernel(*shape, columnar=True)


def make_fold_kernel(aggregates: tuple[AggregateFunction, ...],
                     group_positions: tuple[int, ...],
                     aggregate_positions: tuple[int, ...],
                     key_positions: tuple[int, ...] = (), num_partitions=1,
                     ) -> tuple[Callable, Callable] | None:
    """Map-side partial aggregation as an accumulator and its one emit
    pass, or ``None`` (same shapes as :func:`make_merge_rows_kernel`).

    ``fold_into(combined, head rows) -> combined`` folds into ``{group
    key: bare aggregate value}`` — ``aggregates.partial_aggregate`` with
    the comparison / addition itself in place of the ``combine`` call
    (contributions arrive normalized from the head projection); a
    generated term of such a head folds into the same dict from inside its
    probe loop (:func:`fold_update`).  ``emit(combined) -> one bucket per
    partition`` builds each head row once and appends it to the bucket of
    its ``key_positions`` columns — the reference fold followed by
    :func:`make_router`, first-seen group order preserved per bucket.
    """
    shape = _shape(aggregates, group_positions, aggregate_positions)
    return shape and (_fold_into_kernel(*shape), _fold_emit_kernel(
        *shape[1:], key_positions, num_partitions))


#: :func:`head_shape` of a set view: its derivations fold into a distinct
#: sink, ``{head row: None}`` — ``{value: None}`` for a one-column view.
DISTINCT = ()


@lru_cache(maxsize=None)
def make_distinct_emit(key_positions: tuple[int, ...],
                       num_partitions: int) -> Callable:
    """The emit pass of a one-column set view's distinct sink ``{value:
    None}``: ``emit(combined) -> one bucket per partition`` builds each
    ``(value,)`` once, as it routes it — :func:`make_router` over the
    sink's rows, bucket for bucket and in order."""
    if num_partitions == 1:
        return _compiled(
            "def emit(combined):\n    return [[(v,) for v in combined]]\n",
            "emit")
    return _route_loop("emit", "combined", "v", "combined",
                       "        row = (v,)\n", ["v"], key_positions,
                       num_partitions)


def head_shape(view) -> tuple | None:
    """:func:`_shape` of a ``PhysicalView`` / ``WireView``: non-``None``
    when the view's derivations can fold through the templates —
    :data:`DISTINCT` for a view without aggregates."""
    if not view.has_aggregates:
        return DISTINCT
    return _shape(tuple(view.aggregate_functions),
                  tuple(view.group_positions),
                  tuple(view.aggregate_positions))


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
