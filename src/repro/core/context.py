"""RaSQLContext — the session front door (the analog of a SparkSession).

Typical use::

    from repro import RaSQLContext

    ctx = RaSQLContext(num_workers=4)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], rows)
    result = ctx.sql('''
        WITH recursive path(Dst, min() AS Cost) AS
          (SELECT 1, 0) UNION
          (SELECT edge.Dst, path.Cost + edge.Cost
           FROM path, edge WHERE path.Dst = edge.Src)
        SELECT Dst, Cost FROM path
    ''')

``sql`` runs the full pipeline of Section 5: parse → two-step analysis →
rule-based optimization → physical planning → fixpoint execution for every
recursive clique → the final stratum on the local executor.  Execution
statistics for the last query (iterations, cluster metrics, simulated
time) are kept on :attr:`last_run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.analyzer import analyze
from repro.core.catalog import Catalog
from repro.core.checkpoint import (
    CheckpointStore,
    CliqueCheckpointer,
    catalog_fingerprint,
    make_query_id,
)
from repro.core.config import DEFAULT_CONFIG, ExecutionConfig
from repro.core.decompose import decompose_keys
from repro.core.executor import execute_select
from repro.core.fixpoint import FixpointOperator
from repro.core.governor import QueryGovernor
from repro.core.logical import CliquePlan, DerivedViewPlan
from repro.core.optimizer import optimize
from repro.core.parser import parse
from repro.core.physical import BaseSideCache
from repro.core.planner import plan_clique
from repro.engine.cluster import Cluster
from repro.engine.serialization import rows_size
from repro.errors import (
    CheckpointError,
    CheckpointNotFoundError,
    PoisonTaskError,
    QueryDeadlineExceededError,
)
from repro.relation import Relation


@dataclass
class RunInfo:
    """Execution statistics of the most recent ``sql`` call."""

    iterations: int = 0
    clique_iterations: dict[str, int] = field(default_factory=dict)
    delta_history: dict[str, list[int]] = field(default_factory=dict)
    #: Simulated seconds that passed during this call (a checkpoint
    #: restore's clock jump included).
    sim_time: float = 0.0
    #: The non-zero counter increments of this call, by counter name.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Simulated seconds attributed to each clock label during this call
    #: (``stage:fixpoint-shufflemap``, ``shuffle``, ``broadcast``, ...).
    time_breakdown: dict[str, float] = field(default_factory=dict)
    #: The closed root span of this call; :attr:`trace` serializes it.
    root_span: object = field(default=None, repr=False)
    _trace: dict | None = field(default=None, repr=False)
    #: Where the cProfile capture of this call was written (``sql``'s
    #: ``profile_path`` argument / the CLI's ``--profile``), or ``None``.
    profile_path: str | None = None
    #: The durable-checkpoint query id of this call (``None`` when
    #: checkpointing was off); :meth:`repro.RaSQLContext.resume` takes it.
    query_id: str | None = None
    #: The checkpointed iteration this call resumed from (0 = ran from
    #: scratch, whether or not checkpointing was on).
    resumed_from: int = 0

    @property
    def trace(self) -> dict | None:
        """Serialized span tree of this call (see ``repro.engine.tracing``):
        query -> fixpoint -> iteration -> stage -> task, each with
        simulated duration, counter deltas, and per-view delta sizes.
        Serialized when first read: a served query nobody inspects never
        pays for it."""
        if self._trace is None and self.root_span is not None:
            self._trace = self.root_span.to_dict()
            self.root_span = None
        return self._trace

    def explain_analyze(self) -> str:
        """Per-iteration timeline of the traced run (EXPLAIN ANALYZE)."""
        from repro.engine.tracing import format_explain_analyze

        return format_explain_analyze(self.trace)

    def iteration_timeline(self) -> list[dict]:
        """One dict per fixpoint iteration: delta sizes, times, bytes."""
        from repro.engine.tracing import iteration_timeline

        return iteration_timeline(self.trace) if self.trace else []

    def memory_summary(self) -> dict[str, float]:
        """Memory-governance counters of the run (zeros when untouched).

        Keys: ``spill_events``, ``spill_bytes``, ``unspill_events``,
        ``unspill_bytes``, ``memory_pressure_events``,
        ``memory_budget_overflows``, plus ``memory_hwm_bytes_w<N>``: how
        far the call raised worker N's high-water mark (on a fresh
        context, the mark itself).
        """
        keys = ("spill_events", "spill_bytes", "unspill_events",
                "unspill_bytes", "memory_pressure_events",
                "memory_budget_overflows")
        out = {key: self.metrics.get(key, 0) for key in keys}
        for key, value in self.metrics.items():
            if key.startswith("memory_hwm_bytes_w"):
                out[key] = value
        return out

    def kernels_summary(self) -> dict[str, float]:
        """Kernel-layer counters of the run.

        Keys: ``kernel_state_cache_hits``, ``kernel_state_cache_misses``,
        ``kernel_state_cache_updates``, ``kernel_state_cache_bypass``,
        ``kernel_grouped_fixpoint_stages``, ``kernel_fused_fold_terms``
        (recursive terms that fold and route inside their generated probe
        loop), ``kernel_fused_fold_base_rules`` (scan-driven base rules
        that do the same) and ``kernel_pruned_sides`` (base join sides
        storing only the columns read after the probe),
        plus how the run's base join sides were obtained:
        ``base_side_cache_hits`` (reused from an earlier query
        over the same table epoch), ``base_side_cache_appended`` (reused
        after absorbing the rows inserted since), ``base_side_cache_misses``
        (built and kept) and ``base_side_cache_bypassed`` (built for this
        query alone: the relation is not the catalog's registered object).
        """
        keys = ("kernel_state_cache_hits", "kernel_state_cache_misses",
                "kernel_state_cache_updates", "kernel_state_cache_bypass",
                "kernel_grouped_fixpoint_stages",
                "kernel_fused_fold_terms",
                "kernel_fused_fold_base_rules",
                "kernel_pruned_sides", "base_side_cache_hits",
                "base_side_cache_appended", "base_side_cache_misses",
                "base_side_cache_bypassed")
        return {key: self.metrics.get(key, 0) for key in keys}

    def checkpoint_summary(self) -> dict[str, float]:
        """Durability counters of the run (zeros when checkpointing off).

        Keys: ``checkpoint_writes``, ``checkpoint_bytes``,
        ``checkpoint_restores``, ``checkpoint_restore_bytes``.
        """
        keys = ("checkpoint_writes", "checkpoint_bytes",
                "checkpoint_restores", "checkpoint_restore_bytes")
        return {key: self.metrics.get(key, 0) for key in keys}

    def fault_summary(self) -> dict[str, float]:
        """Recovery counters of the run (zeros when nothing failed).

        Keys: ``task_attempts``, ``task_failures``, ``workers_lost``,
        ``workers_blacklisted``, ``recovery_seconds``,
        ``cache_invalidated_partitions``, ``cache_invalidated_bytes``.
        """
        keys = ("task_attempts", "task_failures", "workers_lost",
                "workers_blacklisted", "recovery_seconds",
                "cache_invalidated_partitions", "cache_invalidated_bytes")
        return {key: self.metrics.get(key, 0) for key in keys}

    def supervision_summary(self) -> dict[str, float]:
        """Process-backend supervision counters (zeros when the run was
        simulated or the pool stayed healthy).

        Keys: ``process_tasks_shipped``, ``process_tasks_driver_local``,
        ``process_heartbeats``, ``process_heartbeats_missed``,
        ``process_worker_reaps``, ``process_worker_respawns``,
        ``process_worker_crashes``, ``process_tasks_quarantined``,
        ``process_backend_degradations``, ``process_payload_bytes``,
        plus the batch-IPC wire counters: ``process_task_messages``
        (pipe sends carrying tasks, after coalescing),
        ``process_install_bytes`` (heavy install blobs actually shipped)
        and ``process_payload_bytes_saved`` (install bytes skipped via
        the worker-side base-partition cache), and
        ``process_remote_ineligible`` (cliques a process-backend run kept
        on the driver; each one's typed reason is the
        ``remote_ineligible`` annotation of its ``fixpoint`` trace span),
        and ``process_install_blob_reused`` (installs whose heavy half
        came pickled and hashed from the base-side cache).
        """
        keys = ("process_tasks_shipped", "process_tasks_driver_local",
                "process_heartbeats", "process_heartbeats_missed",
                "process_worker_reaps", "process_worker_respawns",
                "process_worker_crashes", "process_tasks_quarantined",
                "process_backend_degradations", "process_payload_bytes",
                "process_task_messages", "process_install_bytes",
                "process_payload_bytes_saved", "process_remote_ineligible",
                "process_install_blob_reused")
        return {key: self.metrics.get(key, 0) for key in keys}

    def profile_report(self) -> str:
        """An EXPLAIN-ANALYZE-style breakdown of where the time went."""
        total = sum(self.time_breakdown.values()) or 1.0
        lines = ["where the simulated time went",
                 "-----------------------------"]
        for label, seconds in sorted(self.time_breakdown.items(),
                                     key=lambda kv: -kv[1]):
            share = 100.0 * seconds / total
            lines.append(f"{label:32s} {seconds:8.4f}s  {share:5.1f}%")
        lines.append(f"{'total':32s} {total:8.4f}s")
        return "\n".join(lines)


def _query_label(query: str) -> str:
    """A short one-line identifier for a query's trace span."""
    first_line = next((line.strip() for line in query.strip().splitlines()
                       if line.strip()), "query")
    return first_line[:72]


class RaSQLContext:
    """A RaSQL session bound to one simulated cluster."""

    def __init__(self, num_workers: int = 4, num_partitions: int | None = None,
                 config: ExecutionConfig | None = None,
                 cluster: Cluster | None = None,
                 governor: QueryGovernor | None = None, **cluster_kwargs):
        if cluster is None:
            # Validate here (not just in Cluster) so a bad session spec
            # fails with a message phrased in RaSQLContext terms.
            if not isinstance(num_workers, int) or num_workers < 1:
                raise ValueError(
                    f"RaSQLContext needs at least one worker; got "
                    f"num_workers={num_workers!r}")
            if num_partitions is not None and (
                    not isinstance(num_partitions, int) or num_partitions < 1):
                raise ValueError(
                    f"RaSQLContext needs at least one partition (or None "
                    f"for one per worker); got "
                    f"num_partitions={num_partitions!r}")
        if cluster is None and (config or DEFAULT_CONFIG).backend == "process":
            cluster_kwargs.setdefault("backend", "process")
        self.cluster = cluster or Cluster(
            num_workers=num_workers, num_partitions=num_partitions,
            **cluster_kwargs)
        self.catalog = Catalog()
        #: What fixpoints build from the registered tables, kept across
        #: queries and grown with them (``Catalog.epoch``).
        self.base_sides = BaseSideCache(self.catalog)
        self.config = config or DEFAULT_CONFIG
        self.governor = governor or QueryGovernor(
            metrics=self.cluster.metrics)
        if self.governor.metrics is None:
            self.governor.metrics = self.cluster.metrics
        self.last_run = RunInfo()
        #: table -> (its epoch, its sampled wire size) for admission.
        self._table_bytes: dict[str, tuple[tuple, int]] = {}

    def close(self) -> None:
        """Release cluster resources (the process pool, if any) and the
        cross-query base-side cache.

        Idempotent; the process backend also tears itself down atexit, so
        calling close is only required when a program creates many
        contexts.
        """
        self.base_sides.clear()
        self.cluster.shutdown()

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------

    def register_table(self, name: str, columns: Sequence[str],
                       rows: Iterable[Sequence] | None = None) -> Relation:
        """Register a base table (no load-time charge)."""
        return self.catalog.register(name, columns, rows)

    def load_table(self, name: str, columns: Sequence[str],
                   rows: Iterable[Sequence]) -> Relation:
        """Register a base table and charge simulated load time.

        The paper's end-to-end figures include data loading; benchmarks use
        this variant so the simulated clock covers the same span.
        """
        relation = self.catalog.register(name, columns, rows)
        self.cluster.load(relation.rows, key_indices=(0,) if relation.columns else None)
        return relation

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def inject_faults(self, *injectors) -> "RaSQLContext":
        """Arm fault injectors on the session's cluster; returns self.

        Accepts any mix of :class:`repro.engine.faults.FailureInjector`,
        :class:`repro.engine.faults.WorkerLossInjector`,
        :class:`repro.engine.faults.MemoryPressureInjector`,
        :class:`repro.engine.faults.CorruptionInjector` (mangles one
        shuffle bucket; caught by checksum verification), and
        :class:`repro.engine.faults.DriverKillInjector` (raises
        :class:`repro.errors.DriverCrashError` before a matching stage —
        pair with durable checkpoints and :meth:`resume`).
        """
        for injector in injectors:
            self.cluster.inject_failures(injector)
        return self

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------

    def _estimate_query_bytes(self, query: str) -> int:
        """Admission-time memory estimate, a deliberately cheap pre-parse
        heuristic (Spark's resource profiles likewise reserve from static
        estimates): every registered table the text names counts at its
        full sampled size, sampled once per table epoch."""
        total = 0
        for name in self.catalog.tables_named(query):
            epoch = self.catalog.epoch(name)
            known = self._table_bytes.get(name)
            if known is None or known[0] != epoch:
                known = self._table_bytes[name] = (
                    epoch, rows_size(self.catalog.get(name).rows))
            total += known[1]
        return total

    def analyze_query(self, query: str,
                      config: ExecutionConfig | None = None):
        """Parse → analyze → optimize a script against the live catalog.

        The returned analyzed script is the expensive, reusable front
        half of :meth:`sql`; ``repro.serving``'s plan cache stores it
        keyed on the normalized text and :attr:`Catalog.version` (name
        resolution binds to the schema epoch), then replays it through
        :meth:`execute_admitted` without re-planning.
        """
        effective = config or self.config
        return optimize(analyze(parse(query), self.catalog),
                        magic_filters=effective.magic_filters)

    @staticmethod
    def planning_config(config: ExecutionConfig) -> ExecutionConfig:
        """The config a clique is planned — and therefore run — under.

        Durability forces the stacked plan: decomposed plans run their
        own nested loops without a global iteration barrier, so there is
        no consistent cut to persist; a decomposable clique run this way
        says so as ``decomposed_ineligible`` on its ``fixpoint`` span and
        in EXPLAIN ANALYZE.
        """
        if config.checkpointing:
            return config.but(decomposed_plans=False)
        return config

    def sql(self, query: str, config: ExecutionConfig | None = None,
            profile_path: str | None = None,
            query_id: str | None = None) -> Relation:
        """Execute a RaSQL script and return the final SELECT's relation.

        Resource governance brackets the whole call: the session's
        :class:`repro.core.governor.QueryGovernor` must admit the query
        first (queueing or rejecting it), worker memory accounting starts
        from a clean slate, and — when the config sets
        ``deadline_seconds`` — the cluster's cooperative deadline is
        armed.  A deadline abort re-raises with the partial trace
        attached and recorded on :attr:`last_run`.

        When the config enables durable checkpointing
        (``checkpoint_interval`` > 0 and ``checkpoint_dir`` set), the
        fixpoint operator persists its working set every N iterations
        under ``query_id`` (default: :func:`make_query_id` of the text);
        a crashed or deadline-killed call is continued by
        :meth:`resume`.

        ``profile_path`` wraps the execution (planning through the final
        stratum, excluding admission) in :mod:`cProfile` and dumps the
        pstats capture there; the path lands on
        :attr:`RunInfo.profile_path`.  Inspect with
        ``python -m pstats PATH``.
        """
        effective = config or self.config
        label = _query_label(query)
        ticket = self.governor.admit(label, self._estimate_query_bytes(query))
        admission = {"queued": ticket.queued, "wait_s": ticket.wait_s,
                     "reserved_bytes": ticket.reserved_bytes}
        try:
            return self.execute_admitted(query, effective, label=label,
                                         profile_path=profile_path,
                                         admission=admission,
                                         query_id=query_id)
        finally:
            self.governor.release(ticket)

    def execute_admitted(self, query: str,
                         config: ExecutionConfig | None = None, *,
                         label: str | None = None,
                         profile_path: str | None = None,
                         analyzed=None,
                         admission: dict | None = None,
                         query_id: str | None = None,
                         resume_state: dict | None = None) -> Relation:
        """Run an *already admitted* query (the back half of :meth:`sql`).

        The caller owns the governor ticket — acquiring it before this
        call and releasing it after, on success and error paths alike.
        ``repro.serving.QueryService`` admits at submit time, dispatches
        when the ticket holds a slot, and passes any cached ``analyzed``
        plan plus an ``admission`` dict (queued?, simulated queue wait,
        session) that lands on the query span's attributes for EXPLAIN
        ANALYZE.
        """
        effective = config or self.config
        label = label or _query_label(query)
        try:
            # Fresh memory slate per query: charges from the previous call
            # are dead weight (touch re-creates anything still live, e.g.
            # an incremental view's cached state on its next insert), and
            # any budget a pressure injector shrank comes back up.
            self.cluster.memory.release_all()
            self.cluster.memory.reset_budget()
            if effective.deadline_seconds is not None:
                self.cluster.deadline = (self.cluster.metrics.sim_time
                                         + effective.deadline_seconds)
            if profile_path is None:
                return self._run_sql(query, effective, label,
                                     analyzed=analyzed, admission=admission,
                                     query_id=query_id,
                                     resume_state=resume_state)
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                return self._run_sql(query, effective, label,
                                     analyzed=analyzed, admission=admission,
                                     query_id=query_id,
                                     resume_state=resume_state)
            finally:
                profiler.disable()
                profiler.dump_stats(profile_path)
                # _run_sql set last_run even on a deadline abort.
                self.last_run.profile_path = profile_path
        finally:
            self.cluster.deadline = None

    def _run_sql(self, query: str, effective: ExecutionConfig,
                 label: str, analyzed=None,
                 admission: dict | None = None,
                 query_id: str | None = None,
                 resume_state: dict | None = None) -> Relation:
        if analyzed is None:
            analyzed = self.analyze_query(query, effective)

        store = qid = None
        if effective.checkpointing:
            store = CheckpointStore(effective.checkpoint_dir)
            qid = query_id or make_query_id(query)
            if resume_state is None:
                # A resume keeps the existing manifest (and its in-flight
                # pointer) alive until the next checkpoint supersedes it.
                store.begin(qid, sql=query, config=effective,
                            fingerprint=catalog_fingerprint(self.catalog))

        materialized: dict[str, Relation] = {}

        def resolve(name: str) -> Relation:
            key = name.lower()
            if key in materialized:
                return materialized[key]
            return self.catalog.get(name)

        def hand_over(name: str) -> Relation:
            # The final stratum is the last reader of the views
            # materialized above: it is handed each one instead of sharing
            # it, so a large intermediate is released where it is last
            # used (and accounted), not when this frame unwinds.
            relation = materialized.pop(name.lower(), None)
            return self.catalog.get(name) if relation is None else relation

        run = RunInfo()
        run.query_id = qid
        tracer = self.cluster.tracer
        query_span = None
        try:
            with self.cluster.metrics.attributing() as window, \
                    tracer.owned_span("query", label) as query_span:
                if admission is not None:
                    query_span.annotate(admission=dict(admission))
                for unit_index, unit in enumerate(analyzed.units):
                    if isinstance(unit, DerivedViewPlan):
                        rows: list[tuple] = []
                        seen: set[tuple] = set()
                        for branch in unit.branches:
                            branch_result = execute_select(
                                branch, resolve, unit.name, tracer=tracer)
                            for row in branch_result.rows:
                                if row not in seen:
                                    seen.add(row)
                                    rows.append(row)
                        materialized[unit.name.lower()] = Relation(
                            unit.name, unit.columns, rows)
                    else:
                        assert isinstance(unit, CliquePlan)
                        materialized.update(self._run_clique(
                            unit, unit_index, effective, resolve, store, qid,
                            resume_state, run))

                final = execute_select(analyzed.final, hand_over, "result",
                                       tracer=tracer)
                query_span.annotate(iterations=run.iterations,
                                    result_rows=len(final.rows))
                if store is not None:
                    store.mark_complete(qid)
        except (QueryDeadlineExceededError, PoisonTaskError) as exc:
            # The span closed (its ``finally`` ran), so the partial trace
            # is complete up to the aborting stage (deadline) or the
            # quarantining batch (poison pill).
            self._record_run(run, window, query_span, tracer)
            exc.partial_trace = run.trace
            raise
        self._record_run(run, window, query_span, tracer)
        return final

    def _run_clique(self, unit: CliquePlan, unit_index: int,
                    effective: ExecutionConfig, resolve, store, qid,
                    resume_state: dict | None,
                    run: RunInfo) -> dict[str, Relation]:
        """Plan and run one recursive clique, recording its iterations on
        ``run``.  Returns its views by lower-cased name; nothing else
        keeps them (or the operator) alive once this frame is gone.

        The planned clique is kept on ``unit`` with the config it was
        planned under, so a cached analyzed script (``repro.serving``'s
        plan cache) plans each clique once and drops the plan with it:
        :func:`plan_clique` reads only the clique and the config, and
        nothing mutates what it returns."""
        clique_config = self.planning_config(effective)
        if unit.planned is None or unit.planned[0] != clique_config:
            unit.planned = clique_config, plan_clique(unit, clique_config)
        checkpointer = None
        if store is not None:
            checkpointer = CliqueCheckpointer(
                store, qid, unit_index, effective.checkpoint_interval,
                self.cluster)
        operator = FixpointOperator(
            unit.planned[1], self.cluster, clique_config,
            resolve, checkpointer=checkpointer, base_sides=self.base_sides)
        if (effective.decomposed_plans and not clique_config.decomposed_plans
                and decompose_keys(unit) is not None):
            # No silent degradation: the clique would have run decomposed.
            operator.decomposed_ineligible = "checkpointing"
        payload = None
        if resume_state is not None and resume_state["unit"] == unit_index:
            payload = resume_state["payload"]
        result = operator.execute(resume=payload)
        if payload is not None:
            run.resumed_from = payload["iteration"]
        clique_key = ",".join(unit.view_names)
        run.clique_iterations[clique_key] = result.iterations
        run.delta_history[clique_key] = result.delta_history
        run.iterations += result.iterations
        return {name.lower(): relation
                for name, relation in result.relations.items()}

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def _load_resumable(self, query_id: str, checkpoint_dir: str | None,
                        config: ExecutionConfig | None):
        """Shared loader behind :meth:`resume` / :meth:`resume_admitted`.

        Returns ``(query_sql, effective_config, resume_state)`` where
        ``resume_state`` is ``None`` when the query crashed before its
        first checkpoint (resume = run from scratch).
        """
        directory = (checkpoint_dir
                     or (config.checkpoint_dir if config else None)
                     or self.config.checkpoint_dir)
        if directory is None:
            raise CheckpointNotFoundError(
                "no checkpoint directory: pass checkpoint_dir= or set "
                "ExecutionConfig.checkpoint_dir")
        store = CheckpointStore(directory)
        manifest = store.load_manifest(query_id)
        if manifest.get("status") != "in-progress":
            raise CheckpointNotFoundError(
                f"query {query_id!r} has no in-progress checkpoint "
                f"(status: {manifest.get('status')!r}); nothing to resume")
        if config is not None:
            effective = config
        else:
            effective = ExecutionConfig(**manifest["config"])
        # The resumed run must checkpoint into the directory we read
        # from, whatever the override says about other knobs.
        effective = effective.but(
            checkpoint_dir=directory,
            checkpoint_interval=(effective.checkpoint_interval
                                 or manifest["config"]["checkpoint_interval"]))
        fingerprint = catalog_fingerprint(self.catalog)
        if fingerprint != manifest["catalog_fingerprint"]:
            raise CheckpointError(
                f"catalog contents changed since the checkpoint for "
                f"{query_id!r} was cut (fingerprint {fingerprint!r} != "
                f"{manifest['catalog_fingerprint']!r}); a resumed fixpoint "
                f"would mix epochs — re-run the query instead")
        resume_state = store.load_resume_state(manifest)
        return manifest["sql"], effective, resume_state

    def resume(self, query_id: str, checkpoint_dir: str | None = None,
               config: ExecutionConfig | None = None) -> Relation:
        """Continue a crashed or deadline-killed checkpointed query.

        ``query_id`` is :attr:`RunInfo.query_id` (printed by the CLI, or
        :func:`repro.core.checkpoint.make_query_id` of the statement).
        The manifest's own config is replayed unless ``config`` overrides
        it — pass a larger ``deadline_seconds`` to give a deadline-killed
        query a fresh window.  Raises
        :class:`repro.errors.CheckpointNotFoundError` when there is
        nothing in-progress under that id, and
        :class:`repro.errors.CheckpointError` when the catalog no longer
        matches the data the checkpoint was cut over.
        """
        query, effective, resume_state = self._load_resumable(
            query_id, checkpoint_dir, config)
        label = _query_label(query)
        ticket = self.governor.admit(label, self._estimate_query_bytes(query))
        admission = {"queued": ticket.queued, "wait_s": ticket.wait_s,
                     "reserved_bytes": ticket.reserved_bytes}
        try:
            return self.execute_admitted(query, effective, label=label,
                                         admission=admission,
                                         query_id=query_id,
                                         resume_state=resume_state)
        finally:
            self.governor.release(ticket)

    def resume_admitted(self, query_id: str,
                        config: ExecutionConfig | None = None, *,
                        label: str | None = None,
                        admission: dict | None = None,
                        checkpoint_dir: str | None = None) -> Relation:
        """Resume under a governor ticket the caller already holds.

        The serving layer's WAL replay re-admits in-flight queries
        itself (its governor tickets outlive a single execute call), so
        it needs the :meth:`resume` body without the admit/release
        bracket.
        """
        query, effective, resume_state = self._load_resumable(
            query_id, checkpoint_dir, config)
        return self.execute_admitted(query, effective,
                                     label=label or _query_label(query),
                                     admission=admission,
                                     query_id=query_id,
                                     resume_state=resume_state)

    def _record_run(self, run: RunInfo, window, query_span, tracer) -> None:
        run.sim_time = window.seconds
        run.metrics = window.metrics
        run.time_breakdown = window.time_by_label
        if tracer.enabled and query_span is not None:
            run.root_span = query_span
        self.last_run = run

    def explain_analyze(self, query: str,
                        config: ExecutionConfig | None = None) -> str:
        """Execute a query and render its per-iteration trace timeline.

        The report's iteration counts, per-view delta sizes, and total
        simulated time come from the same span tree exposed on
        :attr:`RunInfo.trace`, so they match ``FixpointResult`` and the
        :class:`MetricsRegistry` exactly.
        """
        self.sql(query, config=config)
        return self.last_run.explain_analyze()

    def explain(self, query: str, config: ExecutionConfig | None = None) -> str:
        """Render the analyzed/optimized plan, including fixpoint physical
        plans, in the style of Figure 2."""
        effective = config or self.config
        analyzed = self.analyze_query(query, effective)
        lines = []
        for unit in analyzed.units:
            lines.append(unit.explain())
            if isinstance(unit, CliquePlan):
                planned = plan_clique(unit, self.planning_config(effective))
                lines.append(planned.explain())
        lines.append(f"Final: {analyzed.final.to_sql()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    @property
    def metrics(self):
        return self.cluster.metrics

    def reset_metrics(self) -> None:
        self.cluster.metrics.reset()
