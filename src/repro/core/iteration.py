"""One clique's resident state and its per-partition iteration step.

The paper's fixpoint has one loop body (Algorithms 4–6, Section 6.1,
Section 7.1): merge the incoming delta partition into the cached
all-relation, derive from the fresh delta ``D``, partially aggregate, and
bucket the derivations by each view's partition key.  Stage combination,
the two-stage ablation and the process backend differ only in *where and
when* that body is scheduled, so it lives here exactly once:
:class:`CliqueStep` is constructed by the driver
(:class:`repro.core.fixpoint.FixpointOperator`, from the planner's
``PhysicalView``/``CompiledTerm`` objects) and by every pool worker
(:mod:`repro.engine.backend.worker`, from the wire spec), and both run
their iterations through the same :meth:`CliqueStep.merge` and
:meth:`CliqueStep.derive`.

The step knows nothing about the cluster: memory accounting, fault
snapshots, the immutable-state ablation and the metrics registry stay with
the caller that schedules it.
"""

from __future__ import annotations

from typing import Callable

from operator import itemgetter

from repro.engine.kernels import (make_distinct_emit, make_extractor,
                                  make_fold_kernel, make_router)
from repro.engine.partitioner import HashPartitioner
from repro.engine.setrdd import KeyedStateRDD, SetRDD

#: State-table cache outcomes, under the names the metrics registry
#: reports them (the driver folds :attr:`CliqueStep.cache_counts` into it).
CACHE_COUNTERS = ("kernel_state_cache_hits", "kernel_state_cache_updates",
                  "kernel_state_cache_misses", "kernel_state_cache_bypass")


def make_state(view, n: int, partitioner: HashPartitioner | None = None):
    """The all-relation of ``view`` over ``n`` partitions: ``{group key:
    head row}`` in the view's own layout for an aggregate head, a row set
    otherwise."""
    if view.has_aggregates:
        return KeyedStateRDD(
            n, tuple(view.aggregate_functions), partitioner,
            group_positions=view.group_positions,
            aggregate_positions=view.aggregate_positions)
    return SetRDD(n, partitioner)


def _make_negator(view) -> Callable[[tuple], tuple]:
    """Flip the sign of accumulating aggregate values (δ⋈δ correction)."""
    aggs = view.aggregate_positions
    functions = view.aggregate_functions
    flip = [p for p, fn in zip(aggs, functions) if fn.name in ("sum", "count")]

    def negate(row: tuple) -> tuple:
        out = list(row)
        for position in flip:
            out[position] = -out[position]
        return tuple(out)

    return negate


def _append_state_rows(table: dict, rows: list[tuple],
                       key_positions: tuple[int, ...]) -> dict:
    """Add state rows to a build table (``{}`` builds one from scratch)."""
    key_fn = make_extractor(key_positions)
    for row in rows:
        table.setdefault(key_fn(row), []).append(row)
    return table


def _add_distinct(sink: dict, rows: list[tuple]) -> None:
    """A distinct sink's ``add``: the rows it does not hold yet, in order."""
    sink.update(dict.fromkeys(rows))


def _add_distinct_values(sink: dict, rows: list[tuple]) -> None:
    """:func:`_add_distinct` of a one-column view's sink of bare values."""
    sink.update(dict.fromkeys(map(itemgetter(0), rows)))


class CliqueStep:
    """Per-clique resident state plus the per-partition iteration step.

    ``views`` maps view name to anything with the ``PhysicalView`` /
    ``WireView`` attributes (``group_positions``, ``aggregate_positions``,
    ``aggregate_functions``, ``has_aggregates``,
    ``partition_key_positions``); ``terms`` is a sequence of ``(view,
    delta_view, negate, evaluate, folds)`` with ``evaluate(delta_rows,
    partition, runtime) -> derived head rows``, or for a term that
    ``folds`` ``evaluate(delta_rows, partition, runtime, sink)`` folding
    its derivations into the view's sink (:meth:`_make_sink`).  The step
    *is* the
    :class:`repro.core.physical.TermRuntime` those functions evaluate
    against — a separate object holding the step's bound accessors would
    make every finished fixpoint cyclic garbage, freed only when the cycle
    collector gets to it — and whoever builds the step fills in its base
    join sides (:attr:`broadcast_tables`, :attr:`base_partitions`).
    """

    def __init__(self, views: dict, terms, n: int,
                 partial_aggregation: bool):
        self.views = views
        self.terms = list(terms)
        self.n = n
        self.partitioner = HashPartitioner(n)
        self.states: dict[str, KeyedStateRDD | SetRDD] = {}
        #: Sign flips for the negated terms that return rows (a term
        #: that folds has its flip inlined).
        self.negators: dict[str, Callable] = {
            view: _make_negator(views[view])
            for view, _, negate, _, folds in self.terms
            if negate and not folds}
        #: Per-view shuffle routers (``kernels.make_router``).
        self.routers: dict[str, Callable] = {}
        #: Per-view ``(new, add, emit)`` of :meth:`_make_sink`.
        self.sinks: dict[str, tuple[Callable, Callable, Callable]] = {}
        #: Current-iteration fresh deltas ``D``, per view, per partition.
        self.fresh: dict[str, list[list[tuple]]] = {}
        #: Cached state-side build tables:
        #: (view, partition, key_positions) -> [version, count, table].
        self._state_tables: dict[tuple, list] = {}
        self.cache_counts: dict[str, int] = dict.fromkeys(CACHE_COUNTERS, 0)
        for name, view in views.items():
            self.states[name] = make_state(view, n, self.partitioner)
            self.fresh[name] = [[] for _ in range(n)]
            self.routers[name] = make_router(view.partition_key_positions, n)
            self.sinks[name] = self._make_sink(name, view,
                                               partial_aggregation)
        self.broadcast_tables: dict[int, object] = {}
        self.base_partitions: dict[int, list] = {}

    def clear(self) -> None:
        """Drop every state partition, fresh delta and cached state table
        (a one-shot fixpoint's, once its relations have been read)."""
        for name, state in self.states.items():
            for partition in range(self.n):
                state.clear_partition(partition)
            self.fresh[name] = [[] for _ in range(self.n)]
        self._state_tables.clear()

    def _make_sink(self, name: str, view, partial_aggregation: bool
                   ) -> tuple[Callable, Callable, Callable]:
        """Where one view's derivations of one :meth:`derive` call (or
        one base-rule chunk, :meth:`derive_once`) collect, as ``(new,
        add, emit)``: ``new()`` makes the empty sink,
        ``add(sink, head rows)`` takes the output of a term that returns
        rows, ``emit(sink)`` returns one shuffle bucket per partition.

        A head the kernel templates cover folds map-side into ``{group
        key: bare aggregate value}``: a term that ``folds`` was generated
        against exactly that dict and writes into it from inside its
        probe loop, and ``emit`` is the one pass that builds the head
        rows, already bucketed.  A set view's sink is distinct, ``{head
        row: None}`` (its ``UNION``'s partial ``DISTINCT``), emitted by
        the view's router: a dict keeps each row's first occurrence in
        place and the merge keeps a row's first arrival, so the fresh
        delta and the state are the row list's, without the duplicates
        on the wire.  A one-column set view keeps bare values, ``{value:
        None}`` (a duplicate derivation builds no tuple), and its emit
        builds each ``(value,)`` once as it routes it: the same keys
        under the same equality, so the same rows.  Every other view
        collects a row list, combined by the generic
        ``partial_aggregate`` (aggregate heads) and bucketed by the
        view's router, as every view does when partial aggregation is
        ablated.  The planner applies the same test
        (``partial_aggregation and head_shape(view)``) to decide which
        variant of a recursive or base term to generate.
        """
        router = self.routers[name]
        if not partial_aggregation:
            return list, list.extend, router
        if not view.has_aggregates:
            if len(view.group_positions) == 1:
                return dict, _add_distinct_values, make_distinct_emit(
                    tuple(view.partition_key_positions), self.n)
            return dict, _add_distinct, router
        fold = make_fold_kernel(
            tuple(view.aggregate_functions), tuple(view.group_positions),
            tuple(view.aggregate_positions),
            tuple(view.partition_key_positions), self.n)
        if fold:
            return dict, *fold
        combine = self.states[name].fold
        return list, list.extend, lambda rows: router(combine(rows))

    # ------------------------------------------------------------------
    # what the terms read (the TermRuntime accessors)
    # ------------------------------------------------------------------

    def state_rows(self, view_name: str, partition: int) -> list[tuple]:
        state = self.states[view_name]
        if partition == -1:
            return state.collect()
        return state.partition_rows(partition)

    def delta_rows(self, view_name: str, partition: int) -> list[tuple]:
        if partition == -1:
            out: list[tuple] = []
            for rows in self.fresh[view_name]:
                out.extend(rows)
            return out
        return self.fresh[view_name][partition]

    def state_total(self, view_name: str, partition: int, key) -> tuple | None:
        return self.states[view_name].partitions[partition].get(key)

    def state_table(self, view_name: str, partition: int,
                    key_positions: tuple[int, ...]) -> dict:
        """Version-validated hash table over a view's state partition,
        holding the view's own rows keyed on ``key_positions`` within
        them.  Invalidation rules (see docs/INTERNALS.md):

        - ``partition == -1`` (gather) always bypasses the cache: gathered
          state spans partitions that sibling tasks of the *current* stage
          are still mutating, so no stable version exists to validate.
        - A cached entry is reused verbatim when the partition's
          ``(version, row count)`` is unchanged.
        - An ``append_only`` (SetRDD) partition whose version matches but
          whose count grew by exactly the current fresh delta is updated
          *incrementally* (the all-relation is append-only between
          snapshots); anything else — keyed states replace rows in place,
          restores bump the version — is rebuilt from scratch.

        Every outcome is tallied in :attr:`cache_counts`.
        """
        counts = self.cache_counts
        if partition == -1:
            counts["kernel_state_cache_bypass"] += 1
            return _append_state_rows(
                {}, self.state_rows(view_name, -1), key_positions)

        state = self.states[view_name]
        version = state.versions[partition]
        count = len(state.partitions[partition])
        cache_key = (view_name, partition, key_positions)
        entry = self._state_tables.get(cache_key)
        if entry is not None and entry[0] == version:
            if entry[1] == count:
                counts["kernel_state_cache_hits"] += 1
                return entry[2]
            fresh = self.fresh[view_name][partition]
            if state.append_only and entry[1] + len(fresh) == count:
                # Append-only growth: exactly the fresh rows are missing.
                _append_state_rows(entry[2], fresh, key_positions)
                entry[1] = count
                counts["kernel_state_cache_updates"] += 1
                return entry[2]
        counts["kernel_state_cache_misses"] += 1
        table = _append_state_rows(
            {}, self.state_rows(view_name, partition), key_positions)
        self._state_tables[cache_key] = [version, count, table]
        return table

    # ------------------------------------------------------------------
    # the step: merge (the Reduce side), derive (the Map side)
    # ------------------------------------------------------------------

    def merge(self, partition: int, rows_by_view: dict[str, list[tuple]],
              bytes_by_view: dict[str, int] | None = None) -> dict[str, int]:
        """Union/aggregate one partition's incoming rows into the state.

        The fresh delta ``D`` of every view is kept in :attr:`fresh` for
        :meth:`derive`; the return value is ``|D|`` per view (views absent
        from ``rows_by_view`` merge nothing and report 0).
        ``bytes_by_view``, the incoming rows' wire sizes where the caller
        knows them, keeps the states' memoized sizes current.
        """
        sizes = bytes_by_view or {}
        d_by_view: dict[str, int] = {}
        for name, state in self.states.items():
            fresh = state.merge_rows(partition, rows_by_view.get(name, ()),
                                     sizes.get(name))
            self.fresh[name][partition] = fresh
            d_by_view[name] = len(fresh)
        return d_by_view

    def derive(self, partition: int,
               naive: bool = False) -> dict[str, dict[int, list[tuple]]]:
        """Run every term over one partition's fresh delta (the whole
        state partition under naive evaluation) into its view's sink —
        one per view, shared by all its terms, so a multi-rule clique
        still combines once — and emit each sink as shuffle buckets by
        the view's partition key (empty buckets dropped)."""
        fresh = self.fresh
        pending: dict[str, dict | list] = {}
        for term in self.terms:
            view, delta_view = term[0], term[1]
            if naive:
                delta = self.state_rows(delta_view, partition)
            else:
                delta = fresh[delta_view][partition]
            if not delta:
                continue
            sink = pending.get(view)
            if sink is None:
                sink = pending[view] = self.sinks[view][0]()
            self.evaluate_into(sink, term, delta, partition)
        return {view: self.emit(view, sink) for view, sink in pending.items()}

    def derive_once(self, view: str, rows: list[tuple],
                    term=None) -> dict[int, list[tuple]]:
        """One base-rule chunk as shuffle buckets: ``term`` (shaped like a
        :attr:`terms` entry) over the scanned ``rows`` — or, without one,
        a FROM-less rule's constant head ``rows`` — through a fresh sink
        of ``view``, so the base case folds exactly like a recursive
        term."""
        new, add, _ = self.sinks[view]
        sink = new()
        if term is None:
            add(sink, rows)
        else:
            self.evaluate_into(sink, term, rows, 0)
        return self.emit(view, sink)

    def evaluate_into(self, sink, term, rows: list[tuple],
                      partition: int) -> None:
        """Evaluate one ``term`` over ``rows`` into ``sink``, a sink of
        its view: a term that ``folds`` writes into it from inside its
        probe loop, any other's head rows are added (sign-flipped first
        when the term is negated)."""
        view, _, negate, evaluate, folds = term
        if folds:
            evaluate(rows, partition, self, sink)
            return
        derived = evaluate(rows, partition, self)
        if negate and derived:
            negator = self.negators[view]
            derived = [negator(r) for r in derived]
        self.sinks[view][1](sink, derived)

    def emit(self, view: str, sink) -> dict[int, list[tuple]]:
        """``sink`` as shuffle buckets by ``view``'s partition key, empty
        buckets dropped."""
        return nonempty(self.sinks[view][2](sink))


def nonempty(buckets: list[list[tuple]]) -> dict[int, list[tuple]]:
    """``{partition: bucket}`` of the non-empty buckets of a routing."""
    return {pid: bucket for pid, bucket in enumerate(buckets) if bucket}
