"""The fixpoint operator: distributed semi-naive evaluation (Section 6).

One operator evaluates one recursive clique on the simulated cluster.  The
default mode is the optimized DSN of Algorithm 6: each iteration is a single
ShuffleMap stage whose task *p* merges the incoming delta partition into the
cached all-relation state (SetRDD / keyed aggregate state), derives the
fresh delta ``D``, joins ``D`` against the cached base partition (or
broadcast tables), partially aggregates, and emits shuffle buckets keyed by
each view's partition key.  Disabling stage combination splits this back
into the separate Reduce and Map stages of Algorithm 4/5.

Also implemented here:

- **naive evaluation** (Algorithms 1–2): every iteration re-derives from
  the full relation; restricted to set/min/max cliques (re-deriving *sums*
  from totals would double-count, which is exactly why semi-naive deltas
  carry increments).
- **stratified evaluation** (Figure 1): planner strips head aggregates, the
  recursion runs under set semantics, and this module applies the
  aggregates afterwards.  On cyclic data the recursion may enumerate
  unboundedly many facts — the iteration budget then raises
  :class:`FixpointNotReachedError`, matching the paper's footnote that
  stratified SSSP "will not terminate due to loops in the graph".
- **decomposed execution** (Section 7.2): for decomposable plans each
  partition runs its own local fixpoint against broadcast bases with no
  shuffle and no synchronization.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import ExecutionConfig
from repro.core.physical import (
    CompiledTerm,
    HashJoinStep,
    PhysicalView,
    TermRuntime,
    TotalizeStep,
    make_slots_key,
    pad_row,
)
from repro.core.planner import PlannedClique
from repro.engine.aggregates import partial_aggregate
from repro.engine.cluster import Cluster, StageTask
from repro.engine.dataset import Dataset, Partition
from repro.engine.joins import build_hash_table, sort_rows
from repro.engine.kernels import (
    make_extractor,
    make_fold_kernel,
    make_padder,
    make_router,
)
from repro.engine.partitioner import HashPartitioner, make_key_fn
from repro.engine.setrdd import KeyedStateRDD, SetRDD
from repro.errors import FixpointNotReachedError, PlanningError
from repro.relation import Relation


@dataclass
class FixpointResult:
    """Output of one clique evaluation."""

    relations: dict[str, Relation]
    iterations: int
    delta_history: list[int] = field(default_factory=list)


def _make_splitter(view: PhysicalView) -> Callable[[tuple], tuple[object, tuple]]:
    """head row -> (group key, aggregate values) for keyed-state merging."""
    group = view.group_positions
    aggs = view.aggregate_positions
    if len(group) == 1:
        g = group[0]
        return lambda row: (row[g], tuple(row[a] for a in aggs))
    return lambda row: (tuple(row[i] for i in group),
                        tuple(row[a] for a in aggs))


def _make_assembler(view: PhysicalView) -> Callable[[object, tuple], tuple]:
    """(group key, aggregate values) -> head row."""
    group = view.group_positions
    aggs = view.aggregate_positions
    arity = len(group) + len(aggs)
    single = len(group) == 1

    def assemble(key, values):
        row = [None] * arity
        key_values = (key,) if single else key
        for position, value in zip(group, key_values):
            row[position] = value
        for position, value in zip(aggs, values):
            row[position] = value
        return tuple(row)

    return assemble


def _make_negator(view: PhysicalView) -> Callable[[tuple], tuple]:
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


def merge_into_state_partition(state, partition: int, rows: list[tuple],
                               two_col: bool, splitter: Callable,
                               assembler: Callable) -> list[tuple]:
    """Union/aggregate rows into one state partition; return the fresh delta.

    The driver's :meth:`FixpointOperator._merge_into_state` and the
    process-backend worker (:mod:`repro.engine.backend.worker`) both call
    this, so the merge semantics — the core of the oracle's bit-exactness
    argument — exist exactly once.
    """
    if isinstance(state, SetRDD):
        return state.union_in_place(partition, rows)
    if two_col:
        return state.merge_rows(partition, rows)
    delta_pairs = state.merge(partition, [splitter(r) for r in rows])
    return [assembler(key, values) for key, values in delta_pairs]


def aggregate_and_route(collected: dict[str, list[tuple]], views: dict,
                        partial_aggregation: bool, two_col: dict[str, bool],
                        fold_kernels: dict, splitters: dict, assemblers: dict,
                        routers: dict) -> dict[str, dict[int, list[tuple]]]:
    """Map-side combine one partition's derived rows per view, then
    bucket them by the view's partition key (empty buckets dropped).

    The tail of :meth:`FixpointOperator._evaluate_terms` and of the
    process-backend worker's twin — shared, like
    :func:`merge_into_state_partition`, so it exists exactly once.
    ``views`` values need ``has_aggregates`` / ``aggregate_functions``
    (a ``PhysicalView`` or its wire form).
    """
    per_view: dict[str, dict[int, list[tuple]]] = {}
    for view_name, rows in collected.items():
        view = views[view_name]
        if view.has_aggregates and partial_aggregation:
            functions = view.aggregate_functions
            fold = fold_kernels.get(view_name)
            if fold is not None:
                rows = fold(rows)
            elif two_col[view_name]:
                # Fused split+combine+assemble for (key, value) heads.
                combine = functions[0].combine
                combined: dict = {}
                get = combined.get
                for key, value in rows:
                    old = get(key)
                    combined[key] = (value if old is None
                                     else combine(old, value))
                rows = list(combined.items())
            else:
                splitter = splitters[view_name]
                assembler = assemblers[view_name]
                pairs = partial_aggregate(
                    [splitter(r) for r in rows], functions)
                rows = [assembler(k, v) for k, v in pairs]
        per_view[view_name] = {
            pid: bucket
            for pid, bucket in enumerate(routers[view_name](rows)) if bucket}
    return per_view


def run_grouped_fixpoint(grouped_specs, broadcast_tables, delta_rows,
                         max_iters: int) -> tuple[set, int]:
    """Column-decomposed set fixpoint (see ``GroupedDedupSpec``).

    Members live as ``prefix -> {last column}``; each round collects the
    adjacency sets hit by the delta, unions them per prefix and subtracts
    the already-known values — all C-level set algebra over bare column
    values.  Duplicate derivations (the bulk of a transitive closure's
    work) are collapsed before any row tuple is built or hashed.
    ``derived_any`` mirrors the reference loop's accounting: a final
    round that derives only duplicates still counts.  Shared verbatim by
    the driver's decomposed path and the process-backend worker.
    """
    pair = all(len(spec.prefix) == 1 for spec in grouped_specs)
    probes = []
    for spec in grouped_specs:
        col = spec.build_index
        adj = {k: {r[col] for r in rows}
               for k, rows in broadcast_tables[spec.step_id].items()}
        probes.append((make_extractor(spec.probe),
                       make_extractor(spec.prefix), adj.get))
    seed = set(delta_rows)
    members: dict = {}
    for row in seed:
        key = row[0] if pair else row[:-1]
        known = members.get(key)
        if known is None:
            members[key] = {row[-1]}
        else:
            known.add(row[-1])
    delta = list(seed)
    iterations = 0
    derived_any = False
    while delta:
        iterations += 1
        if iterations > max_iters:
            raise FixpointNotReachedError(
                "decomposed local fixpoint exceeded budget",
                iterations - 1)
        groups: dict = {}
        gget = groups.get
        for probe, prefix, aget in probes:
            for d in delta:
                adj_set = aget(probe(d))
                if adj_set is not None:
                    key = prefix(d)
                    group = gget(key)
                    if group is None:
                        groups[key] = [adj_set]
                    else:
                        group.append(adj_set)
        derived_any = bool(groups)
        delta = []
        extend = delta.extend
        mget = members.get
        for key, sets in groups.items():
            candidates = (sets[0] if len(sets) == 1
                          else sets[0].union(*sets[1:]))
            known = mget(key)
            if known is None:
                fresh = set(candidates)  # adj sets stay pristine
                members[key] = fresh
            else:
                fresh = candidates - known
                if not fresh:
                    continue
                known.update(fresh)
            if pair:
                extend((key, y) for y in fresh)
            else:
                extend(key + (y,) for y in fresh)
    if derived_any:
        # The reference loop runs one more (all-duplicate) round before
        # its union comes back empty.
        iterations += 1
        if iterations > max_iters:
            raise FixpointNotReachedError(
                "decomposed local fixpoint exceeded budget",
                iterations - 1)
    if pair:
        rows = {(key, y) for key, ys in members.items() for y in ys}
    else:
        rows = {key + (y,) for key, ys in members.items() for y in ys}
    return rows, iterations


def run_fused_fixpoint(dedup_fns, broadcast_tables, delta_rows,
                       max_iters: int) -> tuple[set, int]:
    """Set-view fast path: each generated term emits the round's derived
    rows (duplicates included) from one comprehension, and the union pass
    collapses to C-level set algebra.  The first occurrence of a new row
    counts as fresh and every other derived occurrence as a duplicate —
    exactly the reference loop's accounting — so ``dups`` reproduces its
    iteration count: a final round that derives only duplicates still
    counts there.  Shared verbatim by the driver's decomposed path and
    the process-backend worker.
    """
    local_runtime = TermRuntime()
    local_runtime.broadcast_tables = broadcast_tables
    members = set(delta_rows)
    delta = list(members)
    single = dedup_fns[0] if len(dedup_fns) == 1 else None
    iterations = 0
    dups = 0
    while delta:
        iterations += 1
        if iterations > max_iters:
            raise FixpointNotReachedError(
                "decomposed local fixpoint exceeded budget",
                iterations - 1)
        if single is not None:
            derived = single(delta, 0, local_runtime)
        else:
            derived = []
            for fn in dedup_fns:
                derived.extend(fn(delta, 0, local_runtime))
        fresh = set(derived)
        fresh.difference_update(members)
        dups = len(derived) - len(fresh)
        members.update(fresh)
        delta = list(fresh)
    if dups:
        # The reference loop runs one more (all-duplicate) round before
        # its union comes back empty.
        iterations += 1
        if iterations > max_iters:
            raise FixpointNotReachedError(
                "decomposed local fixpoint exceeded budget",
                iterations - 1)
    return members, iterations


def _reference_router(key_positions: tuple[int, ...],
                      partitioner: HashPartitioner) -> Callable:
    """``kernels.make_router``'s naive twin (``kernels=False``): one
    ``partition_of`` call per row, same bucket lists."""
    key_fn = make_key_fn(key_positions)
    partition_of = partitioner.partition_of
    n = partitioner.num_partitions

    def route(rows):
        buckets: list[list[tuple]] = [[] for _ in range(n)]
        for row in rows:
            buckets[partition_of(key_fn(row))].append(row)
        return buckets

    return route


def _remote_task_stub(*_inputs):
    """Placeholder ``fn`` for payload-carrying tasks: the process backend
    claims the whole batch, so this should never execute driver-side."""
    raise RuntimeError(
        "remote payload task executed driver-side; the process backend "
        "should have claimed this batch")


class FixpointOperator:
    """Evaluates one planned clique to its fixpoint on a cluster."""

    def __init__(self, planned: PlannedClique, cluster: Cluster,
                 config: ExecutionConfig,
                 resolve: Callable[[str], Relation],
                 checkpointer=None):
        self.planned = planned
        self.cluster = cluster
        self.config = config
        #: Optional :class:`repro.core.checkpoint.CliqueCheckpointer`;
        #: when set, the semi-naive loop persists its working set every
        #: ``checkpoint_interval`` completed iterations.
        self.checkpointer = checkpointer
        self._resolve_raw = resolve
        self._resolved: dict[str, Relation] = {}
        self.n = cluster.num_partitions
        self.partitioner = HashPartitioner(self.n)
        self.runtime = TermRuntime()
        self.states: dict[str, KeyedStateRDD | SetRDD] = {}
        self.splitters: dict[str, Callable] = {}
        self.assemblers: dict[str, Callable] = {}
        self.negators: dict[str, Callable] = {}
        #: Current-iteration fresh deltas, per view, per partition.
        self._current_d: dict[str, list[list[tuple]]] = {}
        self._two_col: dict[str, bool] = {}
        self._base_partition_objects: dict[int, list[Partition]] = {}
        #: Memory-charge groups of this clique's broadcast variables.
        self._broadcast_groups: list[str] = []
        # --- kernel layer (wall-clock only; see repro.engine.kernels) ---
        self._use_kernels = config.kernels
        #: Per-view shuffle routers: batched kernels, or the reference
        #: per-row ``partition_of`` loop when kernels are off.
        self._routers: dict[str, Callable] = {}
        #: Per-view fused partial-aggregation folds for two-column heads.
        self._fold_kernels: dict[str, Callable | None] = {}
        #: Cached state-side build tables:
        #: (view, partition, key_positions, pad) -> [version, count, table].
        self._state_tables: dict[tuple, list] = {}
        # --- process-backend remote session (see engine/backend/) ---
        #: True while iterate/decompose work ships to the worker pool.
        self._remote = False
        #: True once a remote *iterate* ran: final state lives worker-side
        #: and must be collected before results are read.
        self._remote_collect = False
        self._session_id: str | None = None
        #: Per-view |D| of the last remote iteration (the driver's
        #: ``_current_d`` stays empty in remote mode).
        self._remote_delta_by_view: dict[str, int] = {}
        self._validate()

    def resolve(self, name: str) -> Relation:
        """Resolve a base input under set semantics.

        Recursion evaluates over *facts*: a base row appearing twice is
        one fact, and feeding the duplicate through a join would derive a
        duplicate contribution that inflates ``sum``/``count`` heads.
        Plain (non-recursive) SQL keeps its bag semantics — only inputs
        to the fixpoint are deduplicated, order-preserving.
        """
        relation = self._resolved.get(name)
        if relation is None:
            relation = self._resolve_raw(name)
            distinct = list(dict.fromkeys(relation.rows))
            if len(distinct) != len(relation.rows):
                relation = Relation(relation.name, relation.columns, distinct)
            self._resolved[name] = relation
        return relation

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        if self.config.evaluation == "naive":
            for view in self.planned.views.values():
                if any(a is not None and a.name in ("sum", "count")
                       for a in view.aggregates):
                    raise PlanningError(
                        "naive evaluation re-derives from totals and would "
                        "double-count sum/count aggregates; use DSN")

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _make_router(self, key_positions: tuple[int, ...]) -> Callable:
        """rows -> per-partition bucket lists, keyed on ``key_positions``."""
        if self._use_kernels:
            return make_router(key_positions, self.n)
        return _reference_router(key_positions, self.partitioner)

    def _setup_states(self) -> None:
        for name, view in self.planned.views.items():
            if view.has_aggregates:
                self.states[name] = KeyedStateRDD(
                    self.n, view.aggregate_functions, self.partitioner,
                    use_kernels=self._use_kernels)
            else:
                self.states[name] = SetRDD(self.n, self.partitioner)
            self.splitters[name] = _make_splitter(view)
            self.assemblers[name] = _make_assembler(view)
            self.negators[name] = _make_negator(view)
            self._current_d[name] = [[] for _ in range(self.n)]
            # Hot-path flag: the ubiquitous (key, value) head shape, where
            # rows and (key, values) pairs coincide up to 1-tuple wrapping.
            self._two_col[name] = (view.group_positions == (0,)
                                   and view.aggregate_positions == (1,))
            self._routers[name] = self._make_router(
                view.partition_key_positions)
            if self._use_kernels and self._two_col[name]:
                self._fold_kernels[name] = make_fold_kernel(
                    view.aggregate_functions[0])

        def state_rows(view_name: str, partition: int) -> list[tuple]:
            state = self.states[view_name]
            if partition == -1:
                if isinstance(state, SetRDD):
                    return state.collect()
                return state.collect_rows()
            if isinstance(state, SetRDD):
                return list(state.partitions[partition])
            return state.partition_rows(partition)

        def delta_rows(view_name: str, partition: int) -> list[tuple]:
            if partition == -1:
                out: list[tuple] = []
                for rows in self._current_d[view_name]:
                    out.extend(rows)
                return out
            return self._current_d[view_name][partition]

        def state_total(view_name: str, partition: int, key) -> tuple | None:
            state = self.states[view_name]
            return state.partitions[partition].get(key)

        self.runtime.state_rows = state_rows
        self.runtime.delta_rows = delta_rows
        self.runtime.state_total = state_total
        if self._use_kernels:
            self.runtime.state_table = self._state_table

    # ------------------------------------------------------------------
    # kernel layer: cached state-side build tables
    # ------------------------------------------------------------------

    def _state_table(self, view_name: str, partition: int,
                     key_positions: tuple[int, ...],
                     pad: tuple[int, int] | None) -> dict:
        """Version-validated hash table over a view's state partition.

        ``pad=None`` keys *raw* state rows by relative positions (the
        codegen path); ``pad=(offset, arity)`` keys *padded* rows by
        absolute slots (the interpreted HashJoinStep path).  Invalidation
        rules (see docs/INTERNALS.md):

        - ``partition == -1`` (gather) always bypasses the cache: gathered
          state spans partitions that sibling tasks of the *current* stage
          are still mutating, so no stable version exists to validate.
        - A cached entry is reused verbatim when the partition's
          ``(version, row count)`` is unchanged.
        - A SetRDD partition whose version matches but whose count grew by
          exactly the current fresh delta is updated *incrementally* (the
          all-relation is append-only between snapshots); anything else —
          keyed states change values in place, restores bump the version —
          is rebuilt from scratch.
        """
        metrics = self.cluster.metrics
        if partition == -1:
            metrics.inc("kernel_state_cache_bypass")
            return self._build_state_side(
                self.runtime.state_rows(view_name, -1), key_positions, pad)

        state = self.states[view_name]
        version = state.versions[partition]
        count = len(state.partitions[partition])
        cache_key = (view_name, partition, key_positions, pad)
        entry = self._state_tables.get(cache_key)
        if entry is not None and entry[0] == version:
            if entry[1] == count:
                metrics.inc("kernel_state_cache_hits")
                return entry[2]
            fresh = self._current_d[view_name][partition]
            if (isinstance(state, SetRDD)
                    and entry[1] + len(fresh) == count):
                # Append-only growth: exactly the fresh rows are missing.
                self._append_state_rows(entry[2], fresh, key_positions, pad)
                entry[1] = count
                metrics.inc("kernel_state_cache_updates")
                return entry[2]
        metrics.inc("kernel_state_cache_misses")
        table = self._build_state_side(
            self.runtime.state_rows(view_name, partition), key_positions, pad)
        self._state_tables[cache_key] = [version, count, table]
        return table

    @staticmethod
    def _build_state_side(rows: list[tuple], key_positions: tuple[int, ...],
                          pad: tuple[int, int] | None) -> dict:
        table: dict = {}
        if pad is not None:
            offset, arity = pad
            rows = [pad_row(r, offset, arity) for r in rows]
            key_fn = make_slots_key(key_positions)
        else:
            key_fn = make_key_fn(key_positions)
        for row in rows:
            table.setdefault(key_fn(row), []).append(row)
        return table

    @staticmethod
    def _append_state_rows(table: dict, rows: list[tuple],
                           key_positions: tuple[int, ...],
                           pad: tuple[int, int] | None) -> None:
        if pad is not None:
            offset, arity = pad
            rows = [pad_row(r, offset, arity) for r in rows]
            key_fn = make_slots_key(key_positions)
        else:
            key_fn = make_key_fn(key_positions)
        for row in rows:
            table.setdefault(key_fn(row), []).append(row)

    def _setup_base_relations(self) -> None:
        """Broadcast / co-partition every base input and build join sides."""
        config = self.config
        cluster = self.cluster

        # One broadcast per distinct (relation, filter) pair, regardless of
        # how many steps consume it.
        broadcast_charged: set[tuple[str, str]] = set()
        build_cpu = 0.0

        for plan in self.planned.base_plans:
            relation = self.resolve(plan.relation)
            t0 = time.perf_counter()
            if self._use_kernels and relation.rows:
                padder = make_padder(plan.offset, plan.arity,
                                     len(relation.rows[0]))
                padded = [padder(row) for row in relation.rows]
            else:
                padded = [pad_row(row, plan.offset, plan.arity)
                          for row in relation.rows]
            if plan.filter is not None:
                predicate = plan.filter
                padded = [row for row in padded if predicate(row)]

            if plan.mode == "broadcast":
                charge_key = (plan.relation.lower(), plan.filter_sql)
                if charge_key not in broadcast_charged:
                    broadcast_charged.add(charge_key)
                    raw = [row for row in relation.rows]
                    broadcast = cluster.broadcast(
                        raw,
                        compress=config.broadcast_compression,
                        ship_hash_table=not config.broadcast_compression)
                    if broadcast.memory_group:
                        self._broadcast_groups.append(broadcast.memory_group)
                if plan.equi:
                    table = build_hash_table(padded,
                                             make_slots_key(plan.build_slots))
                    self.runtime.broadcast_tables[plan.step_id] = table
                else:
                    self.runtime.broadcast_tables[plan.step_id] = padded
            else:  # copartition
                key_fn = make_slots_key(plan.build_slots)
                buckets = self._make_router(plan.build_slots)(padded)
                partitions = [
                    Partition(i, bucket, cluster.worker_for_partition(i))
                    for i, bucket in enumerate(buckets)
                ]
                self._base_partition_objects[plan.step_id] = partitions
                # Cached co-partitioned base blocks live on workers for
                # the whole fixpoint; charge them like Spark storage.
                for partition in partitions:
                    if partition.rows:
                        cluster.memory.charge(
                            "base", str(plan.step_id), partition.index,
                            partition.worker, partition.size_bytes())
                build = (sort_rows if config.join_strategy == "sort_merge"
                         else build_hash_table)
                self.runtime.base_partitions[plan.step_id] = [
                    build(bucket, key_fn) for bucket in buckets]
            build_cpu += time.perf_counter() - t0

        # The builds above happen on workers in parallel; charge them as
        # one setup stage.
        if self.planned.base_plans:
            cluster.metrics.advance(
                cluster.cost_model.stage_overhead_s
                + build_cpu * cluster.cost_model.cpu_scale / cluster.num_workers,
                label="fixpoint-setup")
            cluster.metrics.inc("stages")

    # ------------------------------------------------------------------
    # base case
    # ------------------------------------------------------------------

    #: Synthetic shuffle-source id for constant base rows, which are
    #: emitted by the driver rather than by any ``fixpoint-base`` task.
    _DRIVER_SOURCE = -1

    def _evaluate_base_rules(self) -> dict[str, Dataset]:
        """Run every base rule once and shuffle results into initial deltas.

        Each ``fixpoint-base`` task is its own shuffle source, attributed
        to the worker that actually ran it, so the initial exchange
        charges ``shuffle_remote_bytes`` per producing worker instead of
        pretending every base delta originated on worker 0.
        """
        outputs: dict[str, dict[int, list[tuple]]] = defaultdict(
            lambda: defaultdict(list))
        source_workers: dict[int, int] = {}
        tasks: list[StageTask] = []
        chunk_views: list[str] = []

        for base_rule in self.planned.base_rules:
            if base_rule.term is None:
                outputs[base_rule.view][self._DRIVER_SOURCE].extend(
                    base_rule.constant_rows)
                source_workers[self._DRIVER_SOURCE] = 0
                continue
            relation = self.resolve(base_rule.driving_relation)
            rows = relation.rows
            chunk = max(1, -(-len(rows) // self.n))
            term = base_rule.term
            for i in range(self.n):
                piece = rows[i * chunk:(i + 1) * chunk]
                if not piece:
                    continue
                tasks.append(StageTask(
                    len(tasks),
                    [Partition(len(tasks), piece,
                               self.cluster.worker_for_partition(i))],
                    (lambda p, t=term: t.evaluate(p, 0, self.runtime)),
                    preferred_worker=self.cluster.worker_for_partition(i)))
                chunk_views.append(base_rule.view)

        if tasks:
            results = self.cluster.run_stage("fixpoint-base", tasks)
            for result, view in zip(results, chunk_views):
                outputs[view][result.index].extend(result.output)
                source_workers[result.index] = result.worker

        return self._exchange_outputs(outputs, source_workers)

    # ------------------------------------------------------------------
    # shuffles
    # ------------------------------------------------------------------

    def _exchange_outputs(self, per_view_rows: dict[str, dict[int, list[tuple]]],
                          source_workers: dict[int, int]
                          ) -> dict[str, Dataset]:
        """Bucket rows by each view's partition key and exchange them.

        ``per_view_rows`` maps view -> {source id -> rows} and
        ``source_workers`` each source id to the worker that produced it.
        """
        outputs: dict[str, list[tuple[int, dict]]] = {}
        for name, by_source in per_view_rows.items():
            router = self._routers[name]
            outputs[name] = [
                (source_workers[source],
                 {pid: bucket for pid, bucket in enumerate(router(rows))
                  if bucket})
                for source, rows in by_source.items()]
        return self._exchange_prebucketed(outputs)

    def _exchange_prebucketed(
            self, per_view_outputs: dict[str, list[tuple[int, dict]]]
    ) -> dict[str, Dataset]:
        """Exchange ``(worker, {partition: rows})`` map outputs per view;
        iteration tasks emit them already routed
        (:func:`aggregate_and_route`)."""
        incoming: dict[str, Dataset] = {}
        for name, view in self.planned.views.items():
            incoming[name] = self.cluster.exchange(
                per_view_outputs.get(name, []), self.n, self.partitioner,
                view.partition_key_positions)
        return incoming

    # ------------------------------------------------------------------
    # merge (the Reduce side)
    # ------------------------------------------------------------------

    def _charge_immutable_union(self) -> None:
        """The SetRDD ablation's per-iteration cost (Section 6.1).

        Without the mutable all-relation, each iteration materializes a
        new immutable RDD via ``union().distinct()`` — which repartitions
        the *entire* all-relation, not just the delta ("most of its data
        redundantly copied", as the paper puts it).  Charge that shuffle.
        """
        nbytes = sum(state.size_bytes() for state in self.states.values())
        remote = nbytes * (self.cluster.num_workers - 1) / max(
            1, self.cluster.num_workers)
        self.cluster.metrics.advance(
            self.cluster.cost_model.transfer_seconds(
                int(remote), self.cluster.num_workers),
            label="immutable-union")
        self.cluster.metrics.inc("immutable_union_bytes", nbytes)

    def _merge_into_state(self, view_name: str, partition: int,
                          rows: list[tuple]) -> list[tuple]:
        """Union/aggregate incoming rows into the state; return fresh delta.

        The cached state partition is the merge's working set: it is
        touched first (reading it back from the spill tier if the memory
        governor evicted it) and re-charged at its post-merge size, so
        per-worker accounting tracks the all-relation as it grows.
        """
        memory = self.cluster.memory
        memory.touch("state", view_name, partition)
        state = self.states[view_name]
        if not self.config.use_setrdd:
            # Immutable-RDD ablation: every union copies the partition.
            state.replace_partition(partition, (
                set(state.partitions[partition])
                if isinstance(state, SetRDD)
                else dict(state.partitions[partition])))
        fresh = merge_into_state_partition(
            state, partition, rows, self._two_col[view_name],
            self.splitters[view_name], self.assemblers[view_name])
        memory.charge("state", view_name, partition,
                      self.cluster.worker_for_partition(partition),
                      state.partition_size_bytes(partition))
        return fresh

    # ------------------------------------------------------------------
    # map (the join side)
    # ------------------------------------------------------------------

    def _evaluate_terms(self, partition: int,
                        naive: bool) -> dict[str, dict[int, list[tuple]]]:
        """Run every term over one partition's delta; bucket the outputs."""
        # The joins read the cached base blocks and broadcast copies:
        # touch them so LRU eviction prefers colder segments, and so a
        # spilled block is read back (and charged) before use.
        memory = self.cluster.memory
        home = self.cluster.worker_for_partition(partition)
        for step_id in self._base_partition_objects:
            memory.touch("base", str(step_id), partition)
        for group in self._broadcast_groups:
            memory.touch("broadcast", group, home)

        collected: dict[str, list[tuple]] = defaultdict(list)
        for term in self.planned.terms:
            if naive:
                delta = self.runtime.state_rows(term.delta_view, partition)
            else:
                delta = self._current_d[term.delta_view][partition]
            if not delta:
                continue
            rows = term.evaluate(delta, partition, self.runtime)
            if term.negate and rows:
                negate = self.negators[term.view]
                rows = [negate(r) for r in rows]
            collected[term.view].extend(rows)

        return aggregate_and_route(
            collected, self.planned.views, self.config.partial_aggregation,
            self._two_col, self._fold_kernels, self.splitters,
            self.assemblers, self._routers)

    # ------------------------------------------------------------------
    # process-backend remote sessions (see repro.engine.backend)
    # ------------------------------------------------------------------

    def _remote_eligible(self) -> bool:
        """True when this clique's per-iteration work can ship to the
        process pool bit-exactly.

        The worker mirrors the *kernels-mode DSN combined-stage* hot path
        (and the grouped/fused decomposed runners) — nothing else.  Every
        feature that reads driver-side state mid-iteration (gather joins,
        checkpoints, memory budgets, simulated fault injectors, sim-time
        deadlines) keeps the query on the simulated oracle.  The gate can
        only route *where* the work runs; results are identical either
        way, which the ``process_backend`` differential suite enforces.
        """
        config = self.config
        cluster = self.cluster
        if not cluster.backend.remote_ready():
            return False
        if config.evaluation != "dsn" or not config.stage_combination:
            return False
        if not config.use_setrdd or not self._use_kernels:
            return False
        if self.checkpointer is not None or config.deadline_seconds is not None:
            return False
        if cluster.memory.budget_bytes is not None:
            return False
        if (cluster.failure_injectors or cluster.worker_loss_injectors
                or cluster.memory_pressure_injectors
                or cluster.corruption_injectors
                or cluster.driver_kill_injectors):
            return False
        for term in self.planned.terms:
            fn = term.codegen_fn
            if fn is None or getattr(fn, "_generated_source", None) is None:
                return False
            for step in term.steps:
                if isinstance(step, HashJoinStep) and step.gather:
                    return False
        return True

    def _install_remote_session(self) -> None:
        from repro.engine.backend.payloads import build_install_spec

        backend = self.cluster.backend
        sid = backend.new_session_id()
        backend.install_session(build_install_spec(self, sid))
        self._session_id = sid
        self._remote = True

    def _collect_remote_states(self) -> None:
        """Pull final state partitions back from the pool into the
        driver's (empty) state structures before results are read."""
        if not self._remote_collect:
            return
        self._remote_collect = False
        collected = self.cluster.backend.collect_states(self._session_id)
        for name, parts in collected.items():
            state = self.states[name]
            for partition, data in parts.items():
                state.replace_partition(partition, data)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def execute(self, resume: dict | None = None) -> FixpointResult:
        """Run the clique to its fixpoint.

        ``resume`` is a verified checkpoint payload (see
        :mod:`repro.core.checkpoint`): states, next-iteration deltas,
        iteration counter, and clock/counter snapshot.  The base rules
        are *not* re-evaluated on resume — their contribution is already
        folded into the checkpointed state — but base relations are
        re-broadcast / re-co-partitioned (the joins need them), exactly
        as a restarted Spark driver would reload its base RDDs.
        """
        tracer = self.cluster.tracer
        with tracer.span("fixpoint", ",".join(self.planned.views)) as span:
            self._setup_states()
            self._setup_base_relations()
            if resume is not None:
                incoming = self._restore_checkpoint(resume)
                iterations, delta_history = self._run_to_fixpoint(
                    incoming, start_iterations=resume["iteration"],
                    delta_history=resume["delta_history"])
                span.annotate(iterations=iterations,
                              mode=self.config.evaluation,
                              resumed_from=resume["iteration"],
                              delta_history=list(delta_history))
                return self._finish(iterations, delta_history)
            if self._remote_eligible():
                self._install_remote_session()
            try:
                incoming = self._evaluate_base_rules()

                if self.planned.decomposable \
                        and self.config.evaluation == "dsn" \
                        and self.checkpointer is None:
                    iterations = self._execute_decomposed(incoming)
                    span.annotate(iterations=iterations, mode="decomposed")
                    return self._finish(iterations, [])

                try:
                    iterations, delta_history = self._run_to_fixpoint(incoming)
                except FixpointNotReachedError as exc:
                    if self._remote_collect:
                        self._collect_remote_states()
                        exc.partial_result = self._relations()
                    raise
                self._collect_remote_states()
                span.annotate(iterations=iterations,
                              mode=self.config.evaluation,
                              delta_history=list(delta_history))
                return self._finish(iterations, delta_history)
            finally:
                if self._remote:
                    self.cluster.backend.release_session(self._session_id)
                    self._remote = False
                    self._session_id = None

    def _run_to_fixpoint(self, incoming: dict[str, Dataset],
                         start_iterations: int = 0,
                         delta_history: list[int] | None = None
                         ) -> tuple[int, list[int]]:
        """Iterate until quiescence; shared by one-shot, incremental
        (see :mod:`repro.core.streaming`) and checkpoint-resumed
        execution (``start_iterations``/``delta_history`` continue the
        absolute iteration count from the restored point)."""
        naive = self.config.evaluation == "naive"
        combine = self.config.stage_combination
        iterations = start_iterations
        delta_history = list(delta_history) if delta_history else []

        # Termination keys off the *post-merge* delta D: under semi-naive
        # evaluation D empty coincides with empty incoming shuffles, but
        # under naive evaluation every round re-derives (and re-ships) the
        # full relation, so only the merge can detect the fixpoint.
        tracer = self.cluster.tracer
        memory = self.cluster.memory
        while True:
            iterations += 1
            if iterations > self.config.max_iterations:
                last_delta = delta_history[-1] if delta_history else 0
                raise FixpointNotReachedError(
                    f"fixpoint not reached within "
                    f"{self.config.max_iterations} iterations: the last "
                    f"completed iteration ({iterations - 1}) still "
                    f"produced a delta of {last_delta} rows",
                    iterations - 1, partial_result=self._relations())

            memory.begin_iteration()
            with tracer.span("iteration", f"iteration-{iterations}",
                             index=iterations) as span:
                if combine:
                    incoming, d_total = self._iterate_combined(incoming, naive)
                else:
                    incoming, d_total = self._iterate_two_stage(incoming, naive)
                if not self.config.use_setrdd:
                    self._charge_immutable_union()
                self.cluster.metrics.inc("iterations")
                iter_hwm = memory.iteration_high_water()
                span.annotate(
                    delta_total=d_total,
                    delta_by_view=(
                        dict(self._remote_delta_by_view) if self._remote
                        else {
                            name: sum(len(rows) for rows in partitions)
                            for name, partitions in self._current_d.items()}),
                    memory_peak_bytes=max(iter_hwm.values(), default=0),
                    memory_hwm_by_worker={f"w{w}": nbytes
                                          for w, nbytes in iter_hwm.items()})
            if d_total == 0:
                break
            delta_history.append(d_total)
            if self.checkpointer is not None \
                    and self.checkpointer.due(iterations):
                self._write_checkpoint(iterations, delta_history, incoming)

        return iterations, delta_history

    # ------------------------------------------------------------------
    # durable checkpoints (see repro.core.checkpoint)
    # ------------------------------------------------------------------

    def _checkpoint_bytes(self, incoming: dict[str, Dataset]) -> int:
        """Wire-size estimate of the semi-naive working set (all + delta)."""
        est = sum(state.size_bytes() for state in self.states.values())
        for dataset in incoming.values():
            for part in dataset.partitions:
                if part.rows:
                    est += part.size_bytes()
        return est

    def _write_checkpoint(self, iteration: int, delta_history: list[int],
                          incoming: dict[str, Dataset]) -> None:
        """Persist everything iteration ``iteration + 1`` needs to run.

        The payload holds the *all* relations, the shuffled deltas the
        next iteration consumes, the iteration counter/history, and the
        scheduler's RNG state; the checkpointer adds the clock/counter
        snapshot *after* charging the write, so a resumed run continues
        from exactly where an uninterrupted one would be.
        """
        payload = {
            "iteration": iteration,
            "delta_history": list(delta_history),
            "states": {name: state.dump_state()
                       for name, state in self.states.items()},
            "incoming": {name: [list(part.rows)
                                for part in dataset.partitions]
                         for name, dataset in incoming.items()},
            "rng_state": self._scheduler_rng_state(),
        }
        self.checkpointer.save(iteration, payload,
                               self._checkpoint_bytes(incoming))

    def _scheduler_rng_state(self):
        rng = getattr(self.cluster.scheduler, "_rng", None)
        return rng.getstate() if rng is not None else None

    def _restore_checkpoint(self, payload: dict) -> dict[str, Dataset]:
        """Install a checkpoint payload; returns the restored deltas.

        Restores, in order: the per-view state structures (through
        ``load_state``, so versions bump and kernel caches invalidate),
        their worker-memory charges, the in-flight shuffle datasets, the
        scheduler RNG, and finally the simulated clock + counters —
        then charges the blob's disk read on top and re-arms the
        deadline relative to the restored clock.
        """
        cluster = self.cluster
        metrics = cluster.metrics
        for name, dumped in payload["states"].items():
            state = self.states[name]
            state.load_state(dumped)
            for p in range(self.n):
                size = state.partition_size_bytes(p)
                if size:
                    cluster.memory.charge("state", name, p,
                                          cluster.worker_for_partition(p),
                                          size)
        incoming: dict[str, Dataset] = {}
        for name, view in self.planned.views.items():
            incoming[name] = cluster.restore_exchange(
                payload["incoming"][name], self.partitioner,
                view.partition_key_positions)
        rng_state = payload.get("rng_state")
        rng = getattr(cluster.scheduler, "_rng", None)
        if rng_state is not None and rng is not None:
            rng.setstate(rng_state)
        # Clock/counters jump to the checkpoint's snapshot (taken after
        # the write charge), then the restore read is charged on top.
        metrics.sim_time = payload["sim_time"]
        metrics.counters.clear()
        metrics.counters.update(payload["counters"])
        if self.checkpointer is not None:
            self.checkpointer.charge_restore(self._checkpoint_bytes(incoming))
        if cluster.deadline is not None \
                and self.config.deadline_seconds is not None:
            # A resumed query gets a fresh deadline window from the
            # restored clock; the original window measured from query
            # start would already be spent.
            cluster.deadline = metrics.sim_time + self.config.deadline_seconds
        return incoming

    def _release_consumed_shuffles(self, incoming: dict[str, Dataset]) -> None:
        """Free shuffle buffers once a merge stage has absorbed them.

        The incoming deltas were charged to worker memory by
        ``Cluster.exchange``; after the Reduce (or combined ShuffleMap)
        stage their rows live inside the cached all-relation state, so the
        shuffle-tier copies are released — exactly when Spark drops
        consumed shuffle blocks.
        """
        for dataset in incoming.values():
            if dataset.memory_group:
                self.cluster.memory.release_group("shuffle",
                                                  dataset.memory_group)

    def _state_snapshot_hooks(self, partition: int):
        """Snapshot/restore for tasks that mutate the cached state.

        Only consulted under failure injection; replaying a failed merge
        from the snapshot is the simulator's version of recomputing from
        the cached checkpoint (Section 6.1).
        """
        states = self.states

        def snapshot():
            return {name: state.snapshot_partition(partition)
                    for name, state in states.items()}

        def restore(saved):
            for name, data in saved.items():
                states[name].restore_partition(partition, data)

        return snapshot, restore

    def _stage_inputs(self, incoming: dict[str, Dataset],
                      partition: int) -> list[Partition]:
        """Task inputs for locality accounting: delta + cached base blocks."""
        inputs = [incoming[name].partitions[partition]
                  for name in self.planned.views]
        for partitions in self._base_partition_objects.values():
            inputs.append(partitions[partition])
        return inputs

    def _iterate_remote(self, incoming: dict[str, Dataset]
                        ) -> tuple[dict[str, Dataset], int]:
        """One combined iteration with merge/derive/route on the pool.

        The driver only ships each partition's incoming delta rows and
        routes the returned shuffle buckets between iterations; the
        all-relation state lives worker-side until
        :meth:`_collect_remote_states`.  Tasks carry picklable payloads
        instead of closures, which is what makes the process backend
        claim the batch (``wants_batch``).
        """
        self._remote_collect = True
        view_names = list(self.planned.views)
        sid = self._session_id
        tasks = []
        for p in range(self.n):
            rows_by_view = {}
            for name in view_names:
                rows = incoming[name].partitions[p].rows
                if rows:
                    rows_by_view[name] = list(rows)
            tasks.append(StageTask(
                p, self._stage_inputs(incoming, p), _remote_task_stub,
                preferred_worker=self.cluster.worker_for_partition(p),
                payload=("iterate", sid, p, rows_by_view)))
        results = self.cluster.run_stage("fixpoint-shufflemap", tasks)
        self._release_consumed_shuffles(incoming)

        d_total = 0
        delta_by_view: dict[str, int] = {name: 0 for name in view_names}
        outputs: dict[str, list[tuple[int, dict]]] = defaultdict(list)
        for result in results:
            d_count, per_view, d_by_view = result.output
            d_total += d_count
            for name, count in d_by_view.items():
                delta_by_view[name] += count
            for view_name, buckets in per_view.items():
                outputs[view_name].append((result.worker, buckets))
        self._remote_delta_by_view = delta_by_view
        return self._exchange_prebucketed(outputs), d_total

    def _iterate_combined(self, incoming: dict[str, Dataset],
                          naive: bool) -> tuple[dict[str, Dataset], int]:
        """Algorithm 6: one ShuffleMap stage per iteration.

        Returns the next iteration's incoming shuffled datasets together
        with the total post-merge delta size ``|D|`` across views and
        partitions, which is what the fixpoint loop keys termination off.
        """
        if self._remote:
            return self._iterate_remote(incoming)
        view_names = list(self.planned.views)

        def task_fn(partition):
            def run(*_input_rows):
                d_count = 0
                for name in view_names:
                    rows = incoming[name].partitions[partition].rows
                    fresh = self._merge_into_state(name, partition, rows)
                    self._current_d[name][partition] = fresh
                    d_count += len(fresh)
                if d_count == 0 and not naive:
                    return 0, {}
                buckets = self._evaluate_terms(partition, naive)
                return d_count, buckets
            return run

        tasks = []
        for p in range(self.n):
            snapshot, restore = self._state_snapshot_hooks(p)
            tasks.append(StageTask(
                p, self._stage_inputs(incoming, p), task_fn(p),
                preferred_worker=self.cluster.worker_for_partition(p),
                snapshot=snapshot, restore=restore, mutating=True))
        results = self.cluster.run_stage("fixpoint-shufflemap", tasks)
        self._release_consumed_shuffles(incoming)

        d_total = 0
        outputs: dict[str, list[tuple[int, dict]]] = defaultdict(list)
        for result in results:
            d_count, per_view = result.output
            d_total += d_count
            for view_name, buckets in per_view.items():
                outputs[view_name].append((result.worker, buckets))
        return self._exchange_prebucketed(outputs), d_total

    def _iterate_two_stage(self, incoming: dict[str, Dataset],
                           naive: bool) -> tuple[dict[str, Dataset], int]:
        """Algorithm 4/5: separate Reduce and Map stages per iteration."""
        view_names = list(self.planned.views)

        # Stage 1: Reduce — merge incoming deltas into state, emit D.
        def reduce_fn(partition):
            def run(*_input_rows):
                output = {}
                for name in view_names:
                    rows = incoming[name].partitions[partition].rows
                    output[name] = self._merge_into_state(name, partition, rows)
                return output
            return run

        reduce_tasks = []
        for p in range(self.n):
            snapshot, restore = self._state_snapshot_hooks(p)
            reduce_tasks.append(StageTask(
                p, [incoming[name].partitions[p] for name in view_names],
                reduce_fn(p),
                preferred_worker=self.cluster.worker_for_partition(p),
                snapshot=snapshot, restore=restore, mutating=True))
        reduce_results = self.cluster.run_stage("fixpoint-reduce", reduce_tasks)
        self._release_consumed_shuffles(incoming)

        d_partitions: dict[str, list[Partition]] = {name: [] for name in view_names}
        d_total = 0
        for result in reduce_results:
            for name in view_names:
                rows = result.output[name]
                d_total += len(rows)
                self._current_d[name][result.index] = rows
                d_partitions[name].append(
                    Partition(result.index, rows, result.worker))

        # Stage 2: Map — join D with bases/state, emit shuffle buckets.
        def map_fn(partition):
            def run(*_input_rows):
                return self._evaluate_terms(partition, naive)
            return run

        map_tasks = []
        for p in range(self.n):
            inputs = [d_partitions[name][p] for name in view_names]
            for partitions in self._base_partition_objects.values():
                inputs.append(partitions[p])
            map_tasks.append(StageTask(
                p, inputs, map_fn(p),
                preferred_worker=self.cluster.worker_for_partition(p)))
        map_results = self.cluster.run_stage("fixpoint-map", map_tasks)

        outputs: dict[str, list[tuple[int, dict]]] = defaultdict(list)
        for result in map_results:
            for view_name, buckets in result.output.items():
                outputs[view_name].append((result.worker, buckets))
        return self._exchange_prebucketed(outputs), d_total

    # ------------------------------------------------------------------
    # decomposed execution (Section 7.2)
    # ------------------------------------------------------------------

    def _execute_decomposed(self, incoming: dict[str, Dataset]) -> int:
        """Independent per-partition fixpoints; no shuffle, no sync."""
        (view_name, view), = self.planned.views.items()
        terms = self.planned.terms
        splitter = self.splitters[view_name]
        assembler = self.assemblers[view_name]
        global_state = self.states[view_name]
        max_iters = self.config.max_iterations

        def _dedup_fusable(term: CompiledTerm) -> bool:
            """Fused dedup must not read evolving state mid-round: its
            inline adds would be visible where the reference path's
            union defers them to the next round."""
            if term.codegen_dedup_fn is None:
                return False
            for step in term.steps:
                if isinstance(step, TotalizeStep):
                    return False
                if (isinstance(step, HashJoinStep)
                        and step.source in ("state", "delta")):
                    return False
            return True

        fused = (self._use_kernels and isinstance(global_state, SetRDD)
                 and all(_dedup_fusable(t) for t in terms))
        grouped = (self._use_kernels and isinstance(global_state, SetRDD)
                   and all(t.grouped_spec is not None for t in terms))

        def local_grouped_fixpoint(partition):
            """Column-decomposed set fixpoint; the shared
            :func:`run_grouped_fixpoint` does the work."""
            specs = [term.grouped_spec for term in terms]

            def run(delta_rows):
                return run_grouped_fixpoint(
                    specs, self.runtime.broadcast_tables, delta_rows,
                    max_iters)
            return run

        def local_fused_fixpoint(partition):
            """Set-view fast path; the shared :func:`run_fused_fixpoint`
            does the work."""
            dedup_fns = [term.codegen_dedup_fn for term in terms]

            def run(delta_rows):
                return run_fused_fixpoint(
                    dedup_fns, self.runtime.broadcast_tables, delta_rows,
                    max_iters)
            return run

        def local_fixpoint(partition):
            def run(delta_rows):
                local_runtime = TermRuntime()
                local_runtime.broadcast_tables = self.runtime.broadcast_tables
                if isinstance(global_state, SetRDD):
                    local = SetRDD(1)
                else:
                    local = KeyedStateRDD(1, view.aggregate_functions,
                                          use_kernels=self._use_kernels)
                local_runtime.state_rows = (
                    lambda _v, _p: (list(local.partitions[0])
                                    if isinstance(local, SetRDD)
                                    else local.partition_rows(0)))
                local_runtime.state_total = (
                    lambda _v, _p, key: local.partitions[0].get(key))

                delta = list(delta_rows)
                iterations = 0
                while delta:
                    iterations += 1
                    if iterations > max_iters:
                        raise FixpointNotReachedError(
                            "decomposed local fixpoint exceeded budget",
                            iterations - 1)
                    if isinstance(local, SetRDD):
                        fresh = local.union_in_place(0, delta)
                    else:
                        pairs = local.merge(0, [splitter(r) for r in delta])
                        fresh = [assembler(k, v) for k, v in pairs]
                    delta = []
                    for term in terms:
                        if fresh:
                            delta.extend(term.evaluate(fresh, 0, local_runtime))
                return local.partitions[0], iterations
            return run

        make_task_fn = (local_grouped_fixpoint if grouped
                        else local_fused_fixpoint if fused
                        else local_fixpoint)
        if grouped:
            self.cluster.metrics.inc("kernel_grouped_fixpoint_stages")
        elif fused:
            self.cluster.metrics.inc("kernel_fused_fixpoint_stages")
        if self._remote and (grouped or fused):
            # Stateless per-partition fixpoints ship whole: the worker
            # runs the same shared runner over the same delta rows.
            mode = "grouped" if grouped else "fused"
            sid = self._session_id
            tasks = []
            for p in range(self.n):
                delta_rows = list(incoming[view_name].partitions[p].rows)
                tasks.append(StageTask(
                    p, [incoming[view_name].partitions[p]],
                    _remote_task_stub,
                    preferred_worker=self.cluster.worker_for_partition(p),
                    payload=("decompose", sid, p, mode, delta_rows)))
        else:
            tasks = [
                StageTask(p, [incoming[view_name].partitions[p]],
                          make_task_fn(p),
                          preferred_worker=self.cluster.worker_for_partition(p))
                for p in range(self.n)
            ]
        results = self.cluster.run_stage("fixpoint-decomposed", tasks)
        self._release_consumed_shuffles(incoming)
        iterations = 0
        per_partition: dict[int, int] = {}
        for result in results:
            local_partition, local_iterations = result.output
            global_state.replace_partition(result.index, local_partition)
            per_partition[result.index] = local_iterations
            iterations = max(iterations, local_iterations)
            self.cluster.memory.charge(
                "state", view_name, result.index,
                self.cluster.worker_for_partition(result.index),
                global_state.partition_size_bytes(result.index))
        self.cluster.metrics.inc("iterations", iterations)
        span = self.cluster.tracer.current
        if span is not None:
            # Decomposed fixpoints have no global iteration barrier; record
            # each partition's local iteration count on the enclosing span.
            span.annotate(local_iterations=per_partition)
        return iterations

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _relations(self) -> dict[str, Relation]:
        out: dict[str, Relation] = {}
        for name, view in self.planned.views.items():
            state = self.states[name]
            if isinstance(state, SetRDD):
                rows = state.collect()
            else:
                rows = state.collect_rows()
            original = view.plan
            if (self.config.evaluation == "stratified"
                    and original.has_aggregates):
                rows = self._apply_stratified_aggregates(original, rows)
            out[original.name] = Relation.from_tuples(
                original.name, original.columns, rows)
        return out

    @staticmethod
    def _apply_stratified_aggregates(view, rows: list[tuple]) -> list[tuple]:
        """The final stratum: group and aggregate after the recursion."""
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

    def _finish(self, iterations: int,
                delta_history: list[int]) -> FixpointResult:
        return FixpointResult(self._relations(), iterations, delta_history)
