"""The fixpoint operator: distributed semi-naive evaluation (Section 6).

One operator evaluates one recursive clique on the simulated cluster.
This module is the *driver*: base setup, base rules, the termination
loop, results.  The per-partition iteration step (resident state, merge,
derive, partial aggregation, routing) is
:class:`repro.core.iteration.CliqueStep`, which the process-backend
workers run too; the three thin schedulers that decide where and when it
runs each iteration are in :mod:`repro.core.schedulers`.

The default mode is the optimized DSN of Algorithm 6: each iteration is a
single ShuffleMap stage whose task *p* merges the incoming delta
partition into the cached all-relation state, derives from the fresh
delta ``D`` and emits shuffle buckets keyed by each view's partition key.
Disabling stage combination splits this back into the separate Reduce and
Map stages of Algorithm 4/5; on a real-process backend the same combined
step runs on the pool.

Also driven from here:

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
- **decomposed execution** (Section 7.2): :mod:`repro.core.decomposed`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import ExecutionConfig
from repro.core.decomposed import execute_decomposed
from repro.core.iteration import CliqueStep, nonempty
from repro.core.physical import (
    BaseRelationPlan,
    BaseSideCache,
    append_base_side,
    build_base_side,
)
from repro.core.planner import PlannedClique
from repro.core.schedulers import (
    iterate_combined,
    iterate_remote,
    iterate_two_stage,
)
from repro.engine.aggregates import partial_aggregate
from repro.engine.backend.payloads import (
    collect_remote_states,
    open_remote_session,
)
from repro.engine.cluster import Cluster, StageTask
from repro.engine.dataset import Dataset, Partition
from repro.engine.kernels import make_extractor, make_router
from repro.engine.metrics import timed
from repro.engine.serialization import rows_size
from repro.errors import FixpointNotReachedError, PlanningError
from repro.relation import Relation


def _distinct(relation: Relation, own: bool = False) -> Relation:
    """``relation`` under set semantics, first occurrences in order; the
    relation itself when it holds no duplicate, unless the caller must
    ``own`` the row list (it will append to it)."""
    distinct = list(dict.fromkeys(relation.rows))
    if len(distinct) == len(relation.rows) and not own:
        return relation
    return Relation.from_tuples(relation.name, relation.columns, distinct)


def _extend_distinct(value: tuple[Relation, set, dict], rows: list[tuple]
                     ) -> tuple[Relation, set, dict]:
    """:func:`_distinct`'s append form over ``(an owned distinct relation,
    its membership set, its canonical-value map)``: the relation gains
    the ``rows`` it does not hold, each once.  The set costs what the
    table costs again, so it is filled at the first append and kept."""
    distinct, seen, _ = value
    if not seen:
        seen.update(distinct.rows)
    add = seen.add
    distinct.rows.extend(row for row in rows
                         if not (row in seen or add(row)))
    return value


def _step_term(term) -> tuple:
    """A compiled term as a :attr:`CliqueStep.terms` entry."""
    return term.view, term.delta_view, term.negate, term.evaluate, term.folds


@dataclass
class FixpointResult:
    """Output of one clique evaluation."""

    relations: dict[str, Relation]
    iterations: int
    delta_history: list[int] = field(default_factory=list)


class FixpointOperator:
    """Evaluates one planned clique to its fixpoint on a cluster."""

    def __init__(self, planned: PlannedClique, cluster: Cluster,
                 config: ExecutionConfig,
                 resolve: Callable[[str], Relation],
                 checkpointer=None,
                 base_sides: BaseSideCache | None = None):
        self.planned = planned
        self.cluster = cluster
        self.config = config
        #: Optional :class:`repro.core.checkpoint.CliqueCheckpointer`;
        #: when set, the semi-naive loop persists its working set every
        #: ``checkpoint_interval`` completed iterations.
        self.checkpointer = checkpointer
        #: The session's cross-query cache of what base setup builds
        #: (``None``: build every time).
        self.base_sides = base_sides
        #: step id -> (cache key, epoch), for the base sides that came
        #: through the cache.
        self.side_keys: dict[int, tuple] = {}
        #: How this operator's base sides were obtained.
        self.base_side_counts = {"hits": 0, "appended": 0, "built": 0,
                                 "bypassed": 0}
        self._resolve_raw = resolve
        #: name -> (set-semantics relation, the generation of the
        #: registered relation it was derived from when the cache covers
        #: it, the canonical-value map every side over it interns into).
        self._resolved: dict[str, tuple[Relation, int | None, dict]] = {}
        self.n = cluster.num_partitions
        #: Resident state + the per-partition step; pool workers build the
        #: same class from the wire spec (``engine/backend/worker.py``).
        self.step = CliqueStep(
            planned.views, [_step_term(t) for t in planned.terms],
            self.n, config.partial_aggregation)
        self.states = self.step.states
        self.runtime = self.step  # the step is its terms' runtime
        self.partitioner = self.step.partitioner
        self.base_blocks: dict[int, list[Partition]] = {}
        #: Per-partition tasks of the iteration stages, built on first use
        #: and reused by every iteration (``schedulers._tasks``), and the
        #: incoming datasets the current iteration's tasks merge.
        self.stage_tasks: dict[str, list[StageTask]] = {}
        self.incoming: dict[str, Dataset] = {}
        #: Memory-charge groups of this clique's broadcast variables.
        self.broadcast_groups: list[str] = []
        #: Process-backend session id while iterate/decompose work ships
        #: to the worker pool (the all-relation state then lives
        #: worker-side until collected); ``None`` on the driver-local path.
        self.session_id: str | None = None
        #: Why a decomposable clique was planned stacked (a typed slug the
        #: session sets; annotated on the ``fixpoint`` span), or ``None``.
        self.decomposed_ineligible: str | None = None
        if config.evaluation == "naive":
            for view in planned.views.values():
                if any(a is not None and a.name in ("sum", "count")
                       for a in view.aggregates):
                    raise PlanningError(
                        "naive evaluation re-derives from totals and would "
                        "double-count sum/count aggregates; use DSN")

    def resolve(self, name: str) -> Relation:
        """Resolve a base input under set semantics.

        Recursion evaluates over *facts*: a base row appearing twice is
        one fact, and feeding the duplicate through a join would derive a
        duplicate contribution that inflates ``sum``/``count`` heads.
        Plain (non-recursive) SQL keeps its bag semantics — only inputs
        to the fixpoint are deduplicated, order-preserving.
        """
        return self._resolve_registered(name)[0]

    def _resolve_registered(self, name: str
                            ) -> tuple[Relation, int | None, dict]:
        """:meth:`resolve` plus the generation of the catalog's own
        relation behind it, or ``None`` for one the cross-query cache
        must not see, and the canonical-value map its sides intern into
        (one per table generation, else this query's own)."""
        found = self._resolved.get(name)
        if found is None:
            raw = self._resolve_raw(name)
            cache = self.base_sides
            if cache is not None and cache.covers(raw):
                epoch = cache.catalog.epoch(raw.name)
                (distinct, _, canon), _ = cache.get(
                    (raw.name.lower(), "distinct"), epoch,
                    lambda: (_distinct(raw, own=True), set(), {}),
                    lambda value, held: _extend_distinct(value,
                                                         raw.rows[held:]))
                found = distinct, epoch[0], canon
            else:
                found = _distinct(raw), None, {}
            self._resolved[name] = found
        return found

    # ------------------------------------------------------------------
    # base setup
    # ------------------------------------------------------------------

    def _setup_base_relations(self) -> None:
        """Broadcast / co-partition every base input and obtain its join
        sides — from the cross-query cache when the relation is the
        catalog's own, else from :func:`build_base_side` directly.  What
        the simulated cluster is charged happens here, around the
        builder, per query: a cache hit replays the seconds the build took
        when it ran, so a query's simulated time does not depend on which
        queries ran before it."""
        config = self.config
        cluster = self.cluster

        # One broadcast per distinct (relation, filter) pair, regardless of
        # how many steps consume it.
        broadcast_charged: set[tuple[str, str]] = set()
        build_cpu = 0.0

        for plan in self.planned.base_plans:
            buckets, sides, seconds, sizes = self._base_side(plan)
            build_cpu += seconds
            self._bind_base_side(plan, buckets, sides, sizes)

            if plan.mode == "broadcast":
                charge_key = (plan.relation.lower(), plan.filter_sql)
                if charge_key not in broadcast_charged:
                    broadcast_charged.add(charge_key)
                    broadcast = cluster.broadcast(
                        self.resolve(plan.relation).rows, nbytes=sizes[0],
                        compress=config.broadcast_compression,
                        ship_hash_table=not config.broadcast_compression)
                    if broadcast.memory_group:
                        self.broadcast_groups.append(broadcast.memory_group)
                continue
            # Cached co-partitioned base blocks live on workers for
            # the whole fixpoint; charge them like Spark storage.
            for partition in self.base_blocks[plan.step_id]:
                if partition.rows:
                    cluster.memory.charge(
                        "base", str(plan.step_id), partition.index,
                        partition.worker, partition.size_bytes())

        # The builds above happen on workers in parallel; charge them as
        # one setup stage.
        if self.planned.base_plans:
            cluster.metrics.advance(
                cluster.cost_model.stage_overhead_s
                + build_cpu * cluster.cost_model.cpu_scale / cluster.num_workers,
                label="fixpoint-setup")
            cluster.metrics.inc("stages")

    def _bind_base_side(self, plan: BaseRelationPlan, buckets: list,
                        sides: list, sizes: list[int]) -> None:
        """Point the step's join at one base input's sides (a co-partitioned
        one also gets its blocks, wrapped anew with the sizes the side
        carries: a partition's home moves when the pool shrinks, and a
        cached side's blocks grow when it absorbs an insert)."""
        if plan.mode == "broadcast":
            self.runtime.broadcast_tables[plan.step_id] = sides[0]
            return
        self.runtime.base_partitions[plan.step_id] = sides
        self.base_blocks[plan.step_id] = [
            Partition(i, bucket, self.cluster.worker_for_partition(i), size)
            for i, (bucket, size) in enumerate(zip(buckets, sizes))]

    def _base_side(self, plan: BaseRelationPlan
                   ) -> tuple[list, list, float, list[int]]:
        """``(buckets, sides, build seconds, sizes)`` of one base input
        over its relation's distinct rows and canonical map: through the
        cross-query cache when they are the catalog's own relation's, at
        its generation (a side built under it absorbs the rows it does not
        hold yet), built for this query alone otherwise.  ``sizes`` are
        what the cluster charges for the input — each block's wire size,
        or for a broadcast input the relation's — sized as the rows enter
        the side, so a query that hits sizes nothing."""
        relation, generation, canon = self._resolve_registered(plan.relation)
        rows = relation.rows
        copartition = plan.mode == "copartition"
        sort_merge = (copartition
                      and self.config.join_strategy == "sort_merge")

        def router():
            return make_router(plan.build_key, self.n) if copartition else None

        def build():
            (buckets, sides), seconds = timed(
                lambda: build_base_side(plan, rows, router(), sort_merge,
                                        canon))
            sizes = (list(map(rows_size, buckets)) if copartition
                     else [rows_size(rows)])
            return buckets, sides, seconds, sizes

        def grow(buckets, sides, held):
            appended = append_base_side(plan, rows[held:], sides, router(),
                                        canon)
            for bucket, new in zip(buckets, appended):
                # An unfiltered broadcast bucket *is* the distinct list,
                # which has the new rows already.
                if bucket is not rows:
                    bucket.extend(new)
            return appended

        def absorb(built, held):
            buckets, sides, seconds, sizes = built
            appended, grown = timed(grow, buckets, sides, held)
            seconds += grown
            if copartition:
                sizes = [size + rows_size(new)
                         for size, new in zip(sizes, appended)]
            else:
                sizes = [sizes[0] + rows_size(rows[held:])]
            return buckets, sides, seconds, sizes

        metrics = self.cluster.metrics
        if generation is None:
            self.base_side_counts["bypassed"] += 1
            metrics.inc("base_side_cache_bypassed")
            return build()
        key = (plan.relation.lower(), *plan.shape, self.n, sort_merge)
        # A side's epoch counts the distinct rows it holds.
        epoch = generation, len(rows)
        self.side_keys[plan.step_id] = key, epoch
        # A sorted run cannot absorb inserts: it rebuilds.
        built, outcome = self.base_sides.get(
            key, epoch, build, None if sort_merge else absorb)
        self.base_side_counts[outcome] += 1
        metrics.inc("base_side_cache_"
                    + ("misses" if outcome == "built" else outcome))
        return built

    def _note_generated_stage(self) -> dict:
        """Which path this fixpoint's Map side and build sides take, for
        its trace span and the kernel counters: how many recursive terms
        and scan-driven base rules fold and route inside their probe loop,
        and what each base side stores (with its table's distinct values
        and rows)."""
        planned = self.planned

        def fused(terms) -> list:
            """``[folding, of, sinks]``: how many of ``terms`` fold, and
            into which sink — ``fold`` (an aggregate head's accumulator),
            ``distinct`` (a set view's) or both, ``+``-joined."""
            kinds = {"fold" if planned.views[t.view].has_aggregates
                     else "distinct" for t in terms if t.folds}
            return [sum(t.folds for t in terms), len(terms),
                    "+".join(k for k in ("fold", "distinct") if k in kinds)]

        scans = [rule.term for rule in planned.base_rules if rule.term]
        fused_terms, fused_base = fused(planned.terms), fused(scans)
        pruned = sum(plan.read_positions is not None
                     for plan in planned.base_plans)
        self.cluster.metrics.inc("kernel_fused_fold_terms", fused_terms[0])
        self.cluster.metrics.inc("kernel_fused_fold_base_rules",
                                 fused_base[0])
        self.cluster.metrics.inc("kernel_pruned_sides", pruned)
        stored = []
        for plan in planned.base_plans:
            relation, _, canon = self._resolve_registered(plan.relation)
            stored.append(f"{plan.describe_side(relation.columns)} "
                          f"({len(canon):,} values / "
                          f"{len(relation.rows):,} rows)")
        return {"fused_terms": fused_terms,
                "fused_base_rules": fused_base,
                "stored_sides": stored}

    def catch_up(self, table: str, held: int) -> list[tuple]:
        """The facts of base ``table`` past its first ``held`` — what was
        appended since the state covered ``held`` of them — with ``table``
        and every side over it read again the way base set-up reads them,
        so the cross-query cache absorbs the rows (incremental
        maintenance: the sides grow only inside ``BaseSideCache.get``).
        Call it before evaluating the table's maintenance terms: a rule
        that reads the table twice must meet the new facts on both
        sides."""
        key = table.lower()
        for name in [name for name in self._resolved if name.lower() == key]:
            del self._resolved[name]
        for plan in self.planned.base_plans:
            if plan.relation.lower() == key:
                buckets, sides, _, sizes = self._base_side(plan)
                self._bind_base_side(plan, buckets, sides, sizes)
        return self.resolve(table).rows[held:]

    # ------------------------------------------------------------------
    # base case and shuffles
    # ------------------------------------------------------------------

    def _evaluate_base_rules(self) -> dict[str, Dataset]:
        """Run every base rule once and shuffle results into initial deltas.

        Each ``fixpoint-base`` task evaluates one chunk of its driving
        relation through a fresh sink of its view
        (:meth:`CliqueStep.derive_once`: folded and routed like a
        recursive term's derivations) and is its own shuffle source,
        attributed to the worker that actually ran it, so the initial
        exchange charges ``shuffle_remote_bytes`` per producing worker
        instead of pretending every base delta originated on worker 0.  A
        view's constant (FROM-less) rows share one more sink, shipped from
        the driver (worker 0) ahead of the chunks.
        """
        step = self.step
        outputs: dict[str, list[tuple[int, dict]]] = defaultdict(list)
        constants: dict[str, list[tuple]] = defaultdict(list)
        tasks: list[StageTask] = []
        chunk_views: list[str] = []

        for base_rule in self.planned.base_rules:
            view = base_rule.view
            if base_rule.term is None:
                constants[view].extend(base_rule.constant_rows)
                continue
            rows = self.resolve(base_rule.driving_relation).rows
            chunk = max(1, -(-len(rows) // self.n))
            term = _step_term(base_rule.term)
            for i in range(self.n):
                piece = rows[i * chunk:(i + 1) * chunk]
                if not piece:
                    continue
                tasks.append(StageTask(
                    len(tasks),
                    [Partition(len(tasks), piece,
                               self.cluster.worker_for_partition(i))],
                    (lambda p, v=view, t=term: step.derive_once(v, p, t)),
                    preferred_worker=self.cluster.worker_for_partition(i)))
                chunk_views.append(view)

        for view, rows in constants.items():
            outputs[view].append((0, step.derive_once(view, rows)))
        if tasks:
            results = self.cluster.run_stage("fixpoint-base", tasks)
            for result, view in zip(results, chunk_views):
                outputs[view].append((result.worker, result.output))
        return self.exchange_prebucketed(outputs)

    def exchange_prebucketed(
            self, per_view_outputs: dict[str, list[tuple[int, dict]]]
    ) -> dict[str, Dataset]:
        """Exchange ``(worker, {partition: rows})`` map outputs per view;
        base and iteration tasks emit them already routed
        (:meth:`CliqueStep.derive_once`, :meth:`CliqueStep.derive`)."""
        incoming: dict[str, Dataset] = {}
        for name, view in self.planned.views.items():
            incoming[name] = self.cluster.exchange(
                per_view_outputs.get(name, []), self.n, self.partitioner,
                view.partition_key_positions)
        return incoming

    def release_consumed_shuffles(self, incoming: dict[str, Dataset]) -> None:
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

    # ------------------------------------------------------------------
    # driver-only accounting around the shared step
    # ------------------------------------------------------------------

    def fold_cache_counts(self) -> None:
        """Move the step's state-table cache tallies into the registry."""
        counts = self.step.cache_counts
        for name, value in counts.items():
            if value:
                self.cluster.metrics.inc(name, value)
                counts[name] = 0

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

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def execute(self, resume: dict | None = None) -> FixpointResult:
        """:meth:`run` the clique once and hand its relations over.

        The one-shot form: nothing reads the all-relation after this, so
        the state is let go here — inside the fixpoint, where its cost is
        accounted, and before the final stratum allocates its own rows —
        leaving the returned relations the only owners of the rows.  (An
        incremental view calls :meth:`run` and keeps the state.)
        """
        iterations, delta_history = self.run(resume)
        result = FixpointResult(self.relations(), iterations, delta_history)
        self.step.clear()
        return result

    def run(self, resume: dict | None = None) -> tuple[int, list[int]]:
        """Run the clique to its fixpoint; returns ``(iterations, delta
        history)`` and leaves the all-relation resident in :attr:`states`.

        ``resume`` is a verified checkpoint payload (see
        :mod:`repro.core.checkpoint`): states, next-iteration deltas,
        iteration counter, and clock/counter snapshot.  The base rules
        are *not* re-evaluated on resume — their contribution is already
        folded into the checkpointed state — but base relations are
        re-broadcast / re-co-partitioned (the joins need them), exactly
        as a restarted Spark driver would reload its base RDDs.
        """
        cluster = self.cluster
        with cluster.tracer.span("fixpoint",
                                 ",".join(self.planned.views)) as span:
            self._setup_base_relations()
            span.annotate(base_sides=dict(self.base_side_counts),
                          **self._note_generated_stage())
            if self.decomposed_ineligible:
                span.annotate(
                    decomposed_ineligible=self.decomposed_ineligible)
            open_remote_session(self, span)
            try:
                start, history, notes = 0, None, {}
                if resume is not None:
                    incoming = self.checkpointer.restore(
                        resume, self.states, self.planned.views)
                    if cluster.deadline is not None \
                            and self.config.deadline_seconds is not None:
                        # A resumed query gets a fresh deadline window
                        # from the restored clock; the original window
                        # measured from query start would already be spent.
                        cluster.deadline = (cluster.metrics.sim_time
                                            + self.config.deadline_seconds)
                    start = notes["resumed_from"] = resume["iteration"]
                    history = resume["delta_history"]
                else:
                    incoming = self._evaluate_base_rules()
                    if self.planned.decomposable \
                            and self.config.evaluation == "dsn" \
                            and self.checkpointer is None:
                        iterations = execute_decomposed(self, incoming)
                        span.annotate(iterations=iterations,
                                      mode="decomposed")
                        return iterations, []
                iterations, delta_history = self._run_to_fixpoint(
                    incoming, start, history)
                span.annotate(iterations=iterations,
                              mode=self.config.evaluation, **notes,
                              delta_history=list(delta_history))
                return iterations, delta_history
            finally:
                if self.session_id is not None:
                    cluster.backend.release_session(self.session_id)
                    self.session_id = None

    def maintain(self, terms, new_rows: list[tuple]) -> int:
        """Repair the fixpoint after base rows were inserted: evaluate
        the maintenance ``terms`` (δbase ⋈ R_all) over ``new_rows``
        against the current state and run the semi-naive loop from
        there.  Returns the iterations taken (0: nothing new derived)."""
        outputs: dict[str, list[tuple]] = {}
        for term in terms:
            derived = term.evaluate(new_rows, 0, self.runtime)
            if derived:
                outputs.setdefault(term.view, []).extend(derived)
        self.fold_cache_counts()
        if not outputs:
            return 0
        incoming = self.exchange_prebucketed({
            view: [(0, nonempty(self.step.routers[view](rows)))]
            for view, rows in outputs.items()})
        return self._run_to_fixpoint(incoming)[0]

    def _run_to_fixpoint(self, incoming: dict[str, Dataset],
                         start_iterations: int = 0,
                         delta_history: list[int] | None = None
                         ) -> tuple[int, list[int]]:
        """Iterate until quiescence; shared by one-shot, incremental
        (:meth:`maintain`) and checkpoint-resumed execution
        (``start_iterations``/``delta_history`` continue the absolute
        iteration count from the restored point).  In remote mode the
        final state is pulled back from the pool before anyone reads it."""
        naive = self.config.evaluation == "naive"
        if self.session_id is not None:
            iterate = iterate_remote
        elif self.config.stage_combination:
            iterate = iterate_combined
        else:
            iterate = iterate_two_stage
        iterations = start_iterations
        delta_history = list(delta_history) if delta_history else []

        # Termination keys off the *post-merge* delta D: under semi-naive
        # evaluation D empty coincides with empty incoming shuffles, but
        # under naive evaluation every round re-derives (and re-ships) the
        # full relation, so only the merge can detect the fixpoint.
        tracer = self.cluster.tracer
        memory = self.cluster.memory
        try:
            while True:
                iterations += 1
                if iterations > self.config.max_iterations:
                    last_delta = delta_history[-1] if delta_history else 0
                    if self.session_id is not None:
                        collect_remote_states(self)
                    raise FixpointNotReachedError(
                        f"fixpoint not reached within "
                        f"{self.config.max_iterations} iterations: the last "
                        f"completed iteration ({iterations - 1}) still "
                        f"produced a delta of {last_delta} rows",
                        iterations - 1, partial_result=self.relations())

                memory.begin_iteration()
                with tracer.span("iteration", f"iteration-{iterations}",
                                 index=iterations) as span:
                    incoming, delta_by_view = iterate(self, incoming, naive)
                    d_total = sum(delta_by_view.values())
                    if not self.config.use_setrdd:
                        self._charge_immutable_union()
                    self.cluster.metrics.inc("iterations")
                    hwm = memory.iteration_high_water()
                    span.annotate(
                        delta_total=d_total,
                        delta_by_view=delta_by_view,
                        memory_peak_bytes=max(hwm.values(), default=0),
                        memory_hwm_by_worker={f"w{w}": nbytes
                                              for w, nbytes in hwm.items()})
                if d_total == 0:
                    break
                delta_history.append(d_total)
                if self.checkpointer is not None \
                        and self.checkpointer.due(iterations):
                    self.checkpointer.write(iterations, delta_history,
                                            self.states, incoming)
        finally:
            # The stage tasks close over this operator: let them go with
            # the iteration state, so a finished fixpoint is freed by
            # reference counting, not left to the cycle collector.
            self.stage_tasks.clear()
            self.incoming = {}

        if self.session_id is not None:
            collect_remote_states(self)
        return iterations, delta_history

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def relations(self) -> dict[str, Relation]:
        """The clique's views as relations, read from the current state."""
        out: dict[str, Relation] = {}
        for name, view in self.planned.views.items():
            rows = self.step.state_rows(name, -1)
            original = view.plan
            if (self.config.evaluation == "stratified"
                    and original.has_aggregates):
                # The final stratum: aggregate after the recursion.
                positions = original.aggregate_positions
                rows = partial_aggregate(
                    rows, make_extractor(original.group_positions), positions,
                    tuple(original.aggregates[p] for p in positions))
            out[original.name] = Relation.from_tuples(
                original.name, original.columns, rows)
        return out
