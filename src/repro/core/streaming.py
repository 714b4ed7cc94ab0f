"""Incremental maintenance of recursive views under insertions.

The paper's future-work list includes extending aggregates-in-recursion
"to continuous queries on streaming data" (Section 10, citing the ASTRO
system).  The fixpoint machinery makes the monotone-insertion case
natural: RaSQL's recursion is monotone in its base facts — set views only
grow, min/max only improve, sum/count only accumulate — so inserting base
rows is just *more delta*:

1. new rows join the existing recursive state through *maintenance terms*
   (δbase ⋈ R_all, planned once per base-table occurrence in each rule);
2. the resulting contributions feed the ordinary semi-naive loop, which
   runs to quiescence from wherever the state already is.

Deletions and updates are out of scope (they would require non-monotone
view maintenance, e.g. DRed); ``insert`` is the only mutation.

Example::

    view = IncrementalView(ctx, SSSP_QUERY)
    view.result()                       # distances over the initial edges
    view.insert("edge", [(4, 9, 1.0)])  # shortcut appears
    view.result()                       # distances improved incrementally
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.executor import execute_select
from repro.core.fixpoint import (
    FixpointOperator,
    _distinct,
    _extend_distinct,
)
from repro.core.logical import CliquePlan, ScanNode
from repro.core.planner import plan_clique
from repro.errors import AnalysisError, PlanningError
from repro.relation import Relation


class IncrementalView:
    """A continuously maintained RaSQL query over growing base tables.

    Restrictions (checked at construction):

    - the script must be a single WITH query over one recursive clique
      (no CREATE VIEW prelude — derived views would need their own
      maintenance logic);
    - the shuffle-hash join strategy (cached hash tables absorb appends;
      sorted runs would need re-sorting);
    - decomposed execution is disabled internally (its per-partition local
      state is not retained between calls);
    - a rule that references the inserted table *twice* is rejected for
      ``sum``/``count`` heads (the δ⋈δ overlap of same-table self-joins
      would double-count; set/min/max absorb it).
    """

    def __init__(self, ctx, query: str):
        self.ctx = ctx
        config = ctx.config
        if config.join_strategy != "shuffle_hash":
            raise PlanningError(
                "incremental views require the shuffle_hash join strategy")
        if config.evaluation != "dsn":
            raise PlanningError("incremental views require DSN evaluation")

        analyzed = ctx.analyze_query(query, config)
        cliques = analyzed.cliques()
        if len(cliques) != 1 or len(analyzed.units) != 1:
            raise AnalysisError(
                "incremental views support exactly one recursive clique")
        self.clique: CliquePlan = cliques[0]
        self.final = analyzed.final
        self.config = ctx.planning_config(
            self.clique, config.but(decomposed_plans=False), ctx.catalog.get)
        self.planned = plan_clique(self.clique, self.config, maintenance=True)
        self._check_same_table_self_joins()

        # Mutable copies of the base tables this view reads, so inserts
        # are visible to the final stratum without touching the session
        # catalog.
        self._tables: dict[str, Relation] = {}
        for plan in self.planned.base_plans:
            key = plan.relation.lower()
            if key not in self._tables:
                original = ctx.catalog.get(plan.relation)
                self._tables[key] = Relation(original.name, original.columns,
                                             list(original.rows))
        for base_rule in self.planned.base_rules:
            if base_rule.driving_relation:
                key = base_rule.driving_relation.lower()
                if key not in self._tables:
                    original = ctx.catalog.get(base_rule.driving_relation)
                    self._tables[key] = Relation(
                        original.name, original.columns, list(original.rows))

        #: table -> (its distinct rows — the *facts* the fixpoint resolves
        #: and joins over — and their membership set, filled at the first
        #: insert and kept): what :meth:`insert` tells a new fact from a
        #: re-submitted row with.
        self._facts = {key: (_distinct(table, own=True), set())
                       for key, table in self._tables.items()}
        self.operator = FixpointOperator(
            self.planned, ctx.cluster, self.config,
            lambda name: self._resolve(name, facts=True))
        # Outside any query, so the view owns (and drops) its own traces.
        with ctx.cluster.tracer.owned_span("view", "materialize"):
            self.iterations, _ = self.operator.run()
        #: Memoized final-SELECT output; dropped by the next ``insert``.
        self._cached_result: Relation | None = None
        #: How many times the final SELECT actually executed — repeated
        #: ``result()`` calls between inserts must not grow this (the
        #: serving layer reads it as the view's snapshot-hit telemetry).
        self.result_evaluations = 0

    # ------------------------------------------------------------------

    def _check_same_table_self_joins(self) -> None:
        for view in self.clique.views:
            target = self.planned.views[view.name.lower()]
            accumulating = any(a is not None and a.name in ("sum", "count")
                               for a in target.aggregates)
            if not accumulating:
                continue
            for rule in view.recursive_rules + view.base_rules:
                if rule.join is None:
                    continue
                tables = [n.relation.lower() for n in rule.join.inputs
                          if isinstance(n, ScanNode)]
                duplicated = {t for t in tables if tables.count(t) > 1}
                if duplicated:
                    raise PlanningError(
                        f"incremental maintenance of sum/count view "
                        f"{view.name!r} with a self-joined base table "
                        f"{sorted(duplicated)} would double-count")

    def _resolve(self, name: str, facts: bool = False) -> Relation:
        """The view's copy of a table it reads — as submitted (a bag), or
        its distinct ``facts`` — else the session catalog's."""
        key = name.lower()
        if key in self._tables:
            return self._facts[key][0] if facts else self._tables[key]
        return self.ctx.catalog.get(name)

    # ------------------------------------------------------------------

    def insert(self, table: str, rows: Iterable[Sequence]) -> int:
        """Insert rows into a base table and repair the view.

        Returns the number of fixpoint iterations the repair took (0 when
        the insertion derived nothing new).
        """
        key = table.lower()
        new_rows = [tuple(r) for r in rows]
        if not new_rows:
            return 0
        if key not in self._tables:
            raise AnalysisError(
                f"table {table!r} is not read by this view "
                f"(tables: {sorted(self._tables)})")
        relation = self._tables[key]
        for row in new_rows:
            if len(row) != len(relation.columns):
                raise AnalysisError(
                    f"row {row!r} does not match {table!r} schema "
                    f"{relation.columns}")

        # The base table is about to change, so the memoized final SELECT
        # goes stale even if the repair below derives nothing new (the
        # final stratum may scan the base table directly).
        self._cached_result = None

        # Recursion evaluates over *facts* (``FixpointOperator.resolve``):
        # a row the table already holds, or one repeated inside the batch,
        # must not reach a join side or the maintenance terms again, or it
        # inflates sum/count heads.  The table itself keeps every
        # submitted row: the final stratum scans it as a bag.
        facts = self._facts[key][0].rows
        held = len(facts)
        _extend_distinct(self._facts[key], new_rows)
        new_facts = facts[held:]
        relation.rows.extend(new_rows)
        if not new_facts:
            return 0

        # 1. make the new facts visible to every cached join side (before
        #    evaluating, so same-table multi-reference rules see them).
        for plan in self.planned.base_plans:
            if plan.relation.lower() == key:
                self.operator.append_base_rows(plan, new_facts)

        # 2. derive the new contributions and run the ordinary semi-naive
        #    loop from the existing state.
        with self.ctx.cluster.tracer.owned_span("view", f"insert[{key}]"):
            iterations = self.operator.maintain(
                self.planned.maintenance_terms.get(key, ()), new_facts)
        self.iterations += iterations
        return iterations

    # ------------------------------------------------------------------

    def result(self) -> Relation:
        """The final SELECT evaluated over the current state.

        Memoized until the next :meth:`insert`: between mutations the
        view's state is frozen, so repeated reads — the dominant access
        pattern once the view is served to many clients — return the
        cached relation without re-running the final stratum.  All
        readers between two inserts therefore observe the *same*
        snapshot object.
        """
        if self._cached_result is not None:
            return self._cached_result
        states = self.operator.relations()

        def resolve(name: str) -> Relation:
            key = name.lower()
            if key in states:
                return states[key]
            return self._resolve(name)

        # relations() keys by original view name; index case-insensitively.
        states = {name.lower(): rel for name, rel in states.items()}
        self.result_evaluations += 1
        self._cached_result = execute_select(self.final, resolve, "result")
        return self._cached_result

    def view_relation(self, name: str) -> Relation:
        """The current contents of one recursive view."""
        states = self.operator.relations()
        for view_name, relation in states.items():
            if view_name.lower() == name.lower():
                return relation
        raise KeyError(name)
