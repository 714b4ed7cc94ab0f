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

A view reads the session's own tables through the base-side cache every
``ctx.sql`` uses (DESIGN.md §19), and there is one insert path,
``Catalog.append_rows``: the view catches up at its next read.
Deletions and updates are out of scope (they would require non-monotone
view maintenance, e.g. DRed): a replaced or mutated table re-materializes
the view.

Example::

    view = IncrementalView(ctx, SSSP_QUERY)
    view.result()                       # distances over the initial edges
    view.insert("edge", [(4, 9, 1.0)])  # shortcut appears
    view.result()                       # distances improved incrementally
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.catalog import only_grew
from repro.core.executor import execute_select
from repro.core.fixpoint import FixpointOperator
from repro.core.logical import CliquePlan, ScanNode
from repro.core.planner import plan_clique
from repro.errors import AnalysisError, PlanningError
from repro.relation import Relation


class IncrementalView:
    """A continuously maintained RaSQL query over the session's growing
    base tables.

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
        self.config = config.but(decomposed_plans=False)
        self.planned = plan_clique(self.clique, self.config, maintenance=True)
        self._accumulates = self._check_same_table_self_joins()

        #: The base tables the recursion reads, lower-cased: the ones
        #: :meth:`insert` accepts and the view maintains itself over.
        self.tables = frozenset(
            [plan.relation.lower() for plan in self.planned.base_plans]
            + [rule.driving_relation.lower()
               for rule in self.planned.base_rules if rule.driving_relation])
        #: Every registered table the statement names — the recursion's
        #: and any the final SELECT scans — whose epochs the state and the
        #: memoized result are valid for.
        self._named = ctx.catalog.tables_named(query)
        #: Catch-ups that found a table moved, and the fixpoint iterations
        #: they took (the serving layer reports both).
        self.repairs = 0
        self.repair_iterations = 0
        #: Memoized final-SELECT output; dropped when a named table moves.
        self._cached_result: Relation | None = None
        #: How many times the final SELECT actually executed — repeated
        #: ``result()`` calls between inserts must not grow this (the
        #: serving layer reads it as the view's snapshot-hit telemetry).
        self.result_evaluations = 0
        self.iterations = self._materialize()

    # ------------------------------------------------------------------

    def _check_same_table_self_joins(self) -> bool:
        """Reject a self-joined base table under a ``sum``/``count`` head;
        returns whether the clique has such a head at all."""
        accumulates = False
        for view in self.clique.views:
            target = self.planned.views[view.name.lower()]
            if not any(a is not None and a.name in ("sum", "count")
                       for a in target.aggregates):
                continue
            accumulates = True
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
        return accumulates

    def _epochs(self) -> list[tuple[int, int]]:
        catalog = self.ctx.catalog
        return [catalog.epoch(name) for name in self._named]

    def _materialize(self) -> int:
        """Run the clique from scratch over the session's tables; returns
        its iterations."""
        ctx = self.ctx
        self.operator = FixpointOperator(
            self.planned, ctx.cluster, self.config, ctx.catalog.get,
            base_sides=ctx.base_sides)
        # Outside any query, so the view owns (and drops) its own traces.
        with ctx.cluster.tracer.owned_span("view", "materialize"):
            iterations, _ = self.operator.run()
        self._stamp = self._epochs()
        #: table -> how many of its distinct facts the state covers.
        self._held = {table: len(self.operator.resolve(table).rows)
                      for table in self.tables}
        return iterations

    # ------------------------------------------------------------------

    def refresh(self) -> int:
        """Catch up with the session's tables; returns the fixpoint
        iterations that took.

        The one validity rule (DESIGN.md §19) per table the recursion
        reads: an equal epoch needs nothing; a table that only grew is
        maintained over its facts past the ones the state covers (a
        re-submitted row is no new fact); anything else re-materializes
        the view — so do two grown tables under a ``sum``/``count`` head,
        since once another query has absorbed both, a derivation through
        new rows of each would be counted once per table.  Any named
        table that moved drops the memoized result.
        """
        stamp = self._epochs()
        if stamp == self._stamp:
            return 0
        self._cached_result = None
        moved = [(name, then, now)
                 for name, then, now in zip(self._named, self._stamp, stamp)
                 if then != now and name in self.tables]
        if (any(not only_grew(then, now) for _, then, now in moved)
                or (self._accumulates and len(moved) > 1)):
            iterations = self._materialize()
            self.ctx.metrics.inc("view_rematerialized")
        else:
            iterations = 0
            for name, _, _ in moved:
                new_facts = self.operator.catch_up(name, self._held[name])
                self._held[name] += len(new_facts)
                if new_facts:
                    with self.ctx.cluster.tracer.owned_span(
                            "view", f"maintain[{name}]"):
                        iterations += self.operator.maintain(
                            self.planned.maintenance_terms.get(name, ()),
                            new_facts)
            self._stamp = stamp
        if moved:
            self.repairs += 1
            self.repair_iterations += iterations
        self.iterations += iterations
        return iterations

    def insert(self, table: str, rows: Iterable[Sequence]) -> int:
        """Append rows to the session's table ``table`` and repair the
        view now — ``ctx.catalog.append_rows`` then :meth:`refresh`; rows
        appended any other way are caught up with at the next read.

        Returns the number of fixpoint iterations the repair took (0 when
        the insertion derived nothing new).
        """
        if table.lower() not in self.tables:
            raise AnalysisError(
                f"table {table!r} is not read by this view "
                f"(tables: {sorted(self.tables)})")
        self.ctx.catalog.append_rows(table, rows)
        return self.refresh()

    # ------------------------------------------------------------------

    def result(self) -> Relation:
        """The final SELECT evaluated over the current state, caught up
        with the session's tables first (:meth:`refresh`).

        Memoized until a table the statement names moves: between
        mutations the view's state is frozen, so repeated reads — the
        dominant access pattern once the view is served to many clients —
        return the cached relation without re-running the final stratum.
        All readers between two inserts therefore observe the *same*
        snapshot object.
        """
        self.refresh()
        if self._cached_result is not None:
            return self._cached_result
        # relations() keys by original view name; index case-insensitively.
        states = {name.lower(): relation for name, relation
                  in self.operator.relations().items()}
        catalog = self.ctx.catalog

        def resolve(name: str) -> Relation:
            key = name.lower()
            return states[key] if key in states else catalog.get(name)

        self.result_evaluations += 1
        self._cached_result = execute_select(self.final, resolve, "result")
        return self._cached_result

    def view_relation(self, name: str) -> Relation:
        """The current contents of one recursive view."""
        self.refresh()
        for view_name, relation in self.operator.relations().items():
            if view_name.lower() == name.lower():
                return relation
        raise KeyError(name)
