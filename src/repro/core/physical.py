"""Physical rule terms: the per-partition pipelines the fixpoint runs.

Planning (see :mod:`repro.core.planner`) turns every recursive rule into one
or more *terms* — the delta-expansion of semi-naive evaluation.  A term
fixes which recursive reference is fed by the delta; the remaining inputs
are joined against it through a pipeline of steps:

- :class:`HashJoinStep` — equi join against a prebuilt hash table: either a
  co-partitioned cached base partition (Appendix D's shuffle-hash join with
  the base always on the build side), a broadcast table (Section 7.2), or a
  sibling view's all-relation partition (mutual recursion cross terms).
- :class:`SortMergeJoinStep` — the Appendix D alternative for the
  co-partitioned path; the base side's sorted run is cached.
- :class:`NestedLoopStep` — theta joins (Interval Coalesce).
- :class:`FilterStep` / the final projection — residual predicates and the
  head expressions, with ``count()`` contribution normalization.

The interpreted pipeline's *working row* is a tuple of the rule's full
layout arity: each FROM binding owns a slot segment, unbound segments hold
``None``, so one compiled expression per rule is valid at every pipeline
position.  A row *at rest* — base build side, broadcast table, state
table — is the relation's or view's own tuple, keyed relative to its own
columns (:func:`build_base_side`); a join writes it into its segment of
the working row (:func:`make_placer`), generated code indexes it directly.
A base hash side that only generated code probes is *pruned*: it stores
the columns the pipeline reads after the probe
(:attr:`BaseRelationPlan.read_positions`) in the row's place.

The plan is self-describing: next to each compiled closure a step keeps the
AST it was compiled from and the ``(offset, width)`` slot segment it binds,
so :mod:`repro.core.codegen` reads the planner's decisions instead of
re-deriving them.  The ASTs are optional (a hand-built step without them
still interprets; it just does not fuse).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from repro.core import ast_nodes as ast
from repro.core.catalog import only_grew
from repro.core.logical import RulePlan, ViewPlan
from repro.engine.aggregates import AggregateFunction
from repro.engine.joins import (
    build_hash_table,
    build_hash_table_columns,
    hash_join_probe,
    sort_merge_join,
    sort_rows,
)
from repro.engine.kernels import make_extractor


def make_placer(offset: int, width: int) -> Callable[[tuple, tuple], tuple]:
    """``(working row, stored row) -> working row`` with the stored row
    at slots ``[offset, offset + width)`` — how a join binds its build row
    and how a term starts from a driving row (over an all-``None`` row)."""
    end = offset + width
    if offset == 0:
        return lambda row, stored: stored + row[end:]
    return lambda row, stored: row[:offset] + stored + row[end:]


#: Key extractor over row positions — working-row slots, or columns of a
#: stored row (scalar for one position, tuple for several).
make_slots_key = make_extractor


class TermRuntime:
    """Mutable executor-side context a term evaluates against.

    The interface, and a plain holder for callers that fill in only what
    their terms read (PreM checks, decomposed local fixpoints); a clique's
    :class:`repro.core.iteration.CliqueStep` answers it itself.  Populated
    by the fixpoint operator during setup and iteration:

    - ``broadcast_tables[step_id]`` — hash table (or row list) over the
      rows of a broadcast base relation.
    - ``base_partitions[step_id][p]`` — cached hash table / sorted run of
      partition ``p`` of a co-partitioned base relation.  Both hold the
      relation's own tuples, or their read columns when pruned
      (:func:`build_base_side`).
    - ``state_rows(view, p)`` — current all-relation rows of a view's
      partition ``p`` (full rows, head schema); ``p = -1`` gathers all
      partitions (the fallback when state keys are not join-aligned).
    - ``delta_rows(view, p)`` — the view's current-iteration delta rows
      (for the δ⋈δ correction terms of two-recursive-reference rules).
    - ``state_total(view, p, key)`` — the stored row of a group, carrying
      its current totals (increment→total conversion for filters over
      sum/count columns).
    - ``state_table(view, p, key_positions)`` — version-validated
      cached hash table over a view's all-relation partition, keyed on
      positions within the view's rows (``None`` in a plain holder, whose
      interpreted steps rebuild the table from ``state_rows``).
    """

    def __init__(self):
        self.broadcast_tables: dict[int, object] = {}
        self.base_partitions: dict[int, list] = {}
        self.state_rows: Callable[[str, int], list[tuple]] | None = None
        self.delta_rows: Callable[[str, int], list[tuple]] | None = None
        self.state_total: Callable[[str, int, object], tuple | None] | None = None
        self.state_table: Callable[
            [str, int, tuple[int, ...]], dict] | None = None


class Step:
    """One pipeline stage: working rows in, working rows out."""

    def apply(self, rows: list[tuple], partition: int,
              runtime: TermRuntime) -> list[tuple]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass
class HashJoinStep(Step):
    """Probe a hash table of stored build rows with a working-row key.

    ``source`` selects where the table comes from:
    ``"broadcast"`` (built once at setup), ``"base_partition"`` (built once
    per partition at setup, cached across iterations), ``"state"`` or
    ``"delta"`` (built from the named view's partition each call — these
    change every iteration — unless the runtime's version-validated
    state-table cache serves it; see DESIGN.md for the trade-off).
    ``gather=True`` reads all partitions of the state instead of the
    aligned one (the non-co-partitioned fallback).
    """

    step_id: int
    source: str
    probe_slots: tuple[int, ...]
    build_slots: tuple[int, ...]
    #: ``(offset, width)`` of the build input's slot segment.
    build_segment: tuple[int, int]
    state_view: str | None = None
    gather: bool = False
    #: Columns of the build row the side stores (see
    #: :attr:`BaseRelationPlan.read_positions`); only generated code can
    #: read a pruned side, :meth:`apply` needs ``None`` (whole rows).
    read_positions: tuple[int, ...] | None = None

    def __post_init__(self):
        # Extractors are specialized once per step, not once per task.
        self.probe_key = make_slots_key(self.probe_slots)
        #: The build key as positions within a stored (build-side) row.
        self.build_positions = tuple(slot - self.build_segment[0]
                                     for slot in self.build_slots)
        self.build_key = make_slots_key(self.build_positions)
        self.place = make_placer(*self.build_segment)

    def apply(self, rows, partition, runtime):
        if self.source == "broadcast":
            table = runtime.broadcast_tables[self.step_id]
        elif self.source == "base_partition":
            table = runtime.base_partitions[self.step_id][partition]
        else:  # state or delta
            source_partition = -1 if self.gather else partition
            if self.source == "state" and runtime.state_table is not None:
                table = runtime.state_table(
                    self.state_view, source_partition, self.build_positions)
            else:
                accessor = (runtime.state_rows if self.source == "state"
                            else runtime.delta_rows)
                table = build_hash_table(
                    accessor(self.state_view, source_partition),
                    self.build_key)
        return hash_join_probe(rows, self.probe_key, table, self.place)

    def describe(self) -> str:
        return f"HashJoin[{self.source}] probe={self.probe_slots} build={self.build_slots}"


@dataclass
class SortMergeJoinStep(Step):
    """Co-partitioned sort-merge join; the base side's run is pre-sorted."""

    step_id: int
    probe_slots: tuple[int, ...]
    build_slots: tuple[int, ...]
    #: ``(offset, width)`` of the build input's slot segment.
    build_segment: tuple[int, int]

    def __post_init__(self):
        self.probe_key = make_slots_key(self.probe_slots)
        self.build_key = make_slots_key(tuple(
            slot - self.build_segment[0] for slot in self.build_slots))
        self.place = make_placer(*self.build_segment)

    def apply(self, rows, partition, runtime):
        probe_key = self.probe_key
        sorted_delta = sort_rows(rows, probe_key)
        base_sorted = runtime.base_partitions[self.step_id][partition]
        return sort_merge_join(sorted_delta, base_sorted, probe_key,
                               self.build_key, self.place)

    def describe(self) -> str:
        return f"SortMergeJoin probe={self.probe_slots} build={self.build_slots}"


@dataclass
class NestedLoopStep(Step):
    """Theta/cross join against a broadcast input's row list."""

    step_id: int
    predicate: Callable[[tuple], object] | None
    #: ``(offset, width)`` of the slot segment this step binds.
    segment: tuple[int, int]
    #: The theta conjuncts fused into ``predicate``, in evaluation order.
    conjuncts: tuple[ast.Expr, ...] = ()

    def __post_init__(self):
        self.place = make_placer(*self.segment)

    def apply(self, rows, partition, runtime):
        others = runtime.broadcast_tables[self.step_id]
        predicate = self.predicate
        place = self.place
        out: list[tuple] = []
        append = out.append
        for row in rows:
            for other in others:
                merged = place(row, other)
                if predicate is None or predicate(merged):
                    append(merged)
        return out

    def describe(self) -> str:
        return "NestedLoopJoin" if self.predicate else "CrossJoin"


@dataclass
class TotalizeStep(Step):
    """Replace a delta row by its group's stored row (the current totals).

    Used when a rule *filters or joins on* a ``sum``/``count`` column of
    its delta view (Company Control's ``Tot > 50``, Party Attendance's
    ``Ncount >= 3``): the predicate must see the accumulated total, not the
    increment the delta carries for linear propagation.  Every head column
    is a group or an aggregate column, so the totalised delta row *is* the
    row the state holds for the group.  The state is co-partitioned with
    the delta, so the lookup is partition-local.
    """

    view: str
    #: ``(offset, width)`` of the delta's slot segment.
    segment: tuple[int, int]
    group_slots: tuple[int, ...]

    def __post_init__(self):
        self.group_key = make_slots_key(self.group_slots)
        self.place = make_placer(*self.segment)

    def apply(self, rows, partition, runtime):
        group_key, place = self.group_key, self.place
        out: list[tuple] = []
        for row in rows:
            stored = runtime.state_total(self.view, partition, group_key(row))
            if stored is not None:  # (always, under monotone merge)
                out.append(place(row, stored))
        return out

    def describe(self) -> str:
        return f"Totalize[{self.view}]"


@dataclass
class FilterStep(Step):
    """Residual predicate applied once all its bindings are bound."""

    predicate: Callable[[tuple], object]
    sql: str = ""
    #: The conjunct ``predicate`` was compiled from.
    expr: ast.Expr | None = None

    def apply(self, rows, partition, runtime):
        predicate = self.predicate
        return [row for row in rows if predicate(row)]

    def describe(self) -> str:
        return f"Filter[{self.sql}]"


@dataclass(frozen=True)
class GroupedDedupSpec:
    """Shape descriptor for the column-decomposed set fixpoint.

    Applies to terms of the form ``view(p..., y) <- delta(p..., z),
    rel(z, .., y, ..)`` where ``rel`` is a single broadcast hash join
    probed by the delta row's last column, and the projection is the
    delta's other columns in order followed by one build column.  The
    decomposed driver then keeps the members and the delta as
    ``prefix -> {last column}`` and dedups whole adjacency sets with
    C-level set algebra instead of hashing every derived row tuple.

    ``probe`` is always ``(arity - 1,)`` and ``prefix`` always
    ``(0, .., arity - 2)``, positions into delta (= view) rows;
    ``build_index`` is the column within the broadcast side's stored
    values, ``None`` when they are that one column's bare values.
    """

    step_id: int
    probe: tuple[int, ...]
    prefix: tuple[int, ...]
    build_index: int | None


@dataclass
class CompiledTerm:
    """One delta-expansion term of one recursive rule, fully compiled.

    ``project`` maps a final working row to the head row (aggregate
    contributions already normalized).  ``negate`` marks the
    inclusion-exclusion correction term of two-recursive-reference rules
    over ``sum``/``count`` (its contributions enter with flipped sign).
    """

    view: str
    delta_view: str
    #: The driving rows' slot segment starts here and is this wide.
    delta_offset: int
    delta_arity: int
    arity: int
    steps: list[Step]
    project: Callable[[tuple], tuple]
    #: The driving scan's pushed-down filter, over the rows as they arrive.
    delta_prefilter: Callable[[tuple], object] | None = None
    negate: bool = False
    rule: RulePlan | None = field(default=None, repr=False)
    #: Fused whole-pipeline function (Section 7.3); set by the planner when
    #: code generation is enabled and the pipeline is fusible.
    codegen_fn: Callable | None = field(default=None, repr=False)
    #: ``codegen_fn`` takes a fourth argument, the view's fold accumulator
    #: (``{group key: bare aggregate value}``, or a set view's distinct
    #: sink ``{head row: None}``), folds every derivation into it inside
    #: the probe loop and returns nothing; without, it returns the
    #: derived head rows as a list.
    folds: bool = False
    #: Column-decomposed fixpoint shape; set when the term is a single
    #: broadcast join probed by the delta's last column whose projection
    #: is the delta's other columns followed by one build column — see
    #: ``codegen.grouped_dedup_spec``.  Recognized only for the recursive
    #: terms of an aggregate-free clique that will run decomposed —
    #: nothing else reads it.
    grouped_spec: "GroupedDedupSpec | None" = field(default=None, repr=False)
    #: The scan filter ``delta_prefilter`` was compiled from.
    prefilter_expr: ast.Expr | None = field(default=None, repr=False)

    def __post_init__(self):
        self._place = make_placer(self.delta_offset, self.delta_arity)
        self._unbound = (None,) * self.arity

    def evaluate(self, delta_rows: list[tuple], partition: int,
                 runtime: TermRuntime, *sink: dict) -> list[tuple] | None:
        """Run the pipeline over one partition's delta rows; a term that
        :attr:`folds` takes its accumulator as ``sink``."""
        if self.codegen_fn is not None:
            return self.codegen_fn(delta_rows, partition, runtime, *sink)
        if self.delta_prefilter is not None:
            delta_rows = filter(self.delta_prefilter, delta_rows)
        place, unbound = self._place, self._unbound
        rows = [place(unbound, row) for row in delta_rows]
        for step in self.steps:
            if not rows:
                return []
            rows = step.apply(rows, partition, runtime)
        project = self.project
        return [project(row) for row in rows]

    def describe(self) -> str:
        parts = [f"Term[{self.view} <- delta({self.delta_view})"
                 f"{' NEGATED' if self.negate else ''}]"]
        parts += ["  " + s.describe() for s in self.steps]
        return "\n".join(parts)


def make_projector(compiled_exprs: list[Callable[[tuple], object]],
                   aggregates: tuple[AggregateFunction | None, ...],
                   ) -> Callable[[tuple], tuple]:
    """Build the head projector, normalizing aggregate contributions.

    Normalization (``count()`` over non-numeric contributions counts 1)
    happens here — at contribution-creation time — so it is applied exactly
    once regardless of whether map-side partial aggregation runs.
    """
    normalizers = [agg.normalize if agg is not None else None
                   for agg in aggregates]
    if not any(normalizers):
        return lambda row: tuple(fn(row) for fn in compiled_exprs)

    def project(row: tuple) -> tuple:
        out = []
        for fn, normalize in zip(compiled_exprs, normalizers):
            value = fn(row)
            out.append(normalize(value) if normalize is not None else value)
        return tuple(out)

    return project


@dataclass
class PhysicalView:
    """Execution-time description of one clique view."""

    plan: ViewPlan
    #: Head-column positions the view's delta/state are hash-partitioned on.
    partition_key_positions: tuple[int, ...]
    #: Effective aggregates: the view's, or all-``None`` in stratified mode.
    aggregates: tuple[AggregateFunction | None, ...]

    @property
    def name(self) -> str:
        return self.plan.name

    @property
    def has_aggregates(self) -> bool:
        return any(a is not None for a in self.aggregates)

    @property
    def group_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.aggregates) if a is None)

    @property
    def aggregate_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.aggregates) if a is not None)

    @property
    def aggregate_functions(self) -> tuple[AggregateFunction, ...]:
        return tuple(a for a in self.aggregates if a is not None)


@dataclass
class BaseRelationPlan:
    """How one base input of one term step is distributed and prebuilt.

    ``mode``: ``"copartition"`` (hash-partitioned on the build key, build
    side cached per partition — Appendix D) or ``"broadcast"``
    (Section 7.2).  ``offset``/``arity``/``build_slots`` are in the plan's
    absolute notation (the binding's first slot, the layout arity, layout
    slots); ``filter`` is the scan's pushed-down predicate over the
    relation's own row.  ``equi=False`` means the broadcast value is a
    plain row list for a nested-loop step.  ``read_positions`` are the
    relation columns the pipeline reads once the probe has matched (later
    join keys, residual filters, the projection): a hash side whose only
    reader is generated code stores just those — a bare value for one
    column — instead of the row; ``None`` keeps whole rows (the
    interpreted pipeline, sort-merge and nested loops place the row in
    its segment, and a side that reads every column gains nothing).
    """

    step_id: int
    relation: str
    binding: str
    mode: str
    offset: int
    arity: int
    build_slots: tuple[int, ...]
    filter: Callable[[tuple], object] | None
    filter_sql: str
    equi: bool
    read_positions: tuple[int, ...] | None = None

    @property
    def build_key(self) -> tuple[int, ...]:
        """The build key as positions within the relation's own rows."""
        return tuple(slot - self.offset for slot in self.build_slots)

    @property
    def shape(self) -> tuple:
        """Everything :func:`build_base_side` reads of the plan, hashable:
        this plan's share of a :class:`BaseSideCache` key (the filter is
        over the relation's own columns, so its SQL text identifies it)."""
        return (self.mode, self.filter_sql, self.build_key, self.equi,
                self.read_positions)

    def describe_side(self, columns: tuple[str, ...]) -> str:
        """What the side stores and is keyed on, in the relation's column
        names: ``edge[Dst] on Src``, ``edge[*] on Src`` for whole rows."""
        read = self.read_positions
        stored = "*" if read is None else ", ".join(columns[p] for p in read)
        on = ", ".join(columns[k] for k in self.build_key)
        return f"{self.relation}[{stored}]" + (f" on {on}" if on else "")


def _canonical(values) -> bool:
    """Whether ``values`` may share one object per value: only ``int`` and
    ``str`` (``1 == 1.0 == True``, ``0.0 == -0.0``; NaN equals nothing)."""
    return set(map(type, values)) <= {int, str}


def _values_at(positions: tuple[int, ...], bucket: list[tuple], canon: dict):
    """``bucket``'s values at ``positions`` (bare for one position, else
    tuples), each :func:`_canonical` column through ``canon``."""
    columns = [map(canon.setdefault, map(get, bucket), map(get, bucket))
               if _canonical(map(get, bucket)) else map(get, bucket)
               for get in map(itemgetter, positions)]
    if len(columns) == 1:
        return columns[0]
    return zip(*columns) if columns else [()] * len(bucket)


def _fill_hash_side(plan: BaseRelationPlan, bucket: list[tuple],
                    canon: dict, side: dict | None = None) -> dict:
    """Build (or grow) one hash side over ``bucket``, its keys and stored
    columns through ``canon`` (whole rows stay the relation's own)."""
    read = plan.read_positions
    stored = bucket if read is None else _values_at(read, bucket, canon)
    if len(plan.build_key) > 1:
        keys, intern = _values_at(plan.build_key, bucket, canon), None
    else:  # each key enters the map as it opens its bucket
        get = itemgetter(*plan.build_key)
        keys = map(get, bucket)
        intern = canon.setdefault if _canonical(map(get, bucket)) else None
    return build_hash_table_columns(keys, stored, intern, side)


def build_base_side(plan: BaseRelationPlan, rows: list[tuple],
                    route: Callable | None = None,
                    sort_merge: bool = False,
                    canon: dict | None = None) -> tuple[list, list]:
    """Filter, bucket and index one base input over the relation's own
    tuples (never copied or padded).

    ``route`` (``rows -> one bucket per partition``, keyed on
    ``plan.build_key``) co-partitions; without it there is the one
    broadcast bucket.  Returns index-aligned ``(buckets, sides)``: the rows
    each partition holds and what its join step reads — a hash table on
    the build key (of the rows, or of their ``plan.read_positions``
    columns), a sorted run under ``sort_merge``, or (no equi key: a
    nested loop) the row list itself.  A hash side's keys and stored
    columns go through ``canon``, the table's canonical-value map.
    """
    if plan.filter is not None:
        rows = [row for row in rows if plan.filter(row)]
    buckets = route(rows) if route is not None else [rows]
    if not plan.equi:  # the side is a row list: never the relation's own
        return buckets, [list(bucket) for bucket in buckets]
    if sort_merge:
        key_fn = make_slots_key(plan.build_key)
        return buckets, [sort_rows(bucket, key_fn) for bucket in buckets]
    canon = {} if canon is None else canon
    return buckets, [_fill_hash_side(plan, bucket, canon)
                     for bucket in buckets]


def append_base_side(plan: BaseRelationPlan, rows: list[tuple], sides: list,
                     route: Callable | None, canon: dict) -> list[list[tuple]]:
    """:func:`build_base_side`'s append form: insert ``rows``, filtered,
    bucketed and interned the same way, into existing hash-table / row-list
    sides (a sorted run cannot absorb inserts).  Returns the buckets."""
    if plan.filter is not None:
        rows = [row for row in rows if plan.filter(row)]
    buckets = route(rows) if route is not None else [rows]
    for side, bucket in zip(sides, buckets):
        if plan.equi:
            _fill_hash_side(plan, bucket, canon, side)
        else:
            side.extend(bucket)
    return buckets


#: Entries one context's :class:`BaseSideCache` keeps (LRU): a table's
#: de-duplicated rows, one build per plan shape, one pickled install half
#: per clique.
BASE_SIDE_CACHE_SLOTS = 16


class BaseSideCache:
    """What the fixpoint derives from a registered base table, kept across
    queries (the paper partitions, indexes and caches each base relation
    once and only ever appends, Section 6.1; DESIGN.md §19).

    One LRU over three kinds of entry — a relation's de-duplicated rows,
    :func:`build_base_side`'s ``(buckets, sides, build seconds)`` per plan
    shape, and the process backend's pickled install half per clique —
    each stored with the epoch of what it was derived from: a
    ``(generation, count)`` pair shaped like :meth:`Catalog.epoch
    <repro.core.catalog.Catalog.epoch>` (the install half: the epochs of
    all its sides).  :meth:`get` applies the one validity rule: the same
    epoch is a hit; an epoch that :func:`~repro.core.catalog.only_grew`
    lets an entry that can *absorb* the new rows do so, in place; anything
    else rebuilds.  Only relations the catalog itself holds are
    :meth:`covered <covers>`; a per-query materialized view changes
    without the catalog knowing.  A cached value is shared by every query
    that hits and every incremental view over the table, and grows only
    here, between queries and catch-ups: never mutate one.
    """

    def __init__(self, catalog):
        self.catalog = catalog
        #: key -> (value, the epoch it is valid for)
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()

    def covers(self, relation) -> bool:
        return self.catalog.owns(relation)

    def get(self, key: tuple, epoch: tuple, build: Callable[[], object],
            absorb: Callable | None = None) -> tuple[object, str]:
        """``(value, outcome)`` for ``key`` at ``epoch``: the stored value
        when that is the stored epoch (``"hits"``); ``absorb(value, the
        stored count)`` — which extends the value in place and returns
        what to store — when the epoch only grew (``"appended"``); else
        ``build()`` (``"built"``).  A ``build`` or ``absorb`` that raises
        leaves no entry behind."""
        entries = self._entries
        found = entries.pop(key, None)
        if found is not None:
            value, stored = found
            if stored == epoch:
                entries[key] = found
                return value, "hits"
            if absorb is not None and only_grew(stored, epoch):
                value = absorb(value, stored[1])
                entries[key] = value, epoch
                return value, "appended"
        value = build()
        entries[key] = value, epoch
        if len(entries) > BASE_SIDE_CACHE_SLOTS:
            entries.popitem(last=False)
        return value, "built"

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class PhysicalClique:
    """Everything the fixpoint operator needs to run one clique."""

    views: dict[str, PhysicalView]
    terms: list[CompiledTerm]
    base_plans: list[BaseRelationPlan]
    decomposable: bool
    decompose_keys: dict[str, tuple[int, ...]]

    def view(self, name: str) -> PhysicalView:
        return self.views[name.lower()]

    def explain(self) -> str:
        lines = ["FixPoint [" + ", ".join(
            v.name for v in self.views.values()) + "]"]
        if self.decomposable:
            lines.append("  (decomposable: per-partition independent fixpoints)")
        for term in self.terms:
            for line in term.describe().splitlines():
                lines.append("  " + line)
        return "\n".join(lines)
