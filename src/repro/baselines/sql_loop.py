"""Spark-SQL-Naive / Spark-SQL-SN — the Figure 10 loop baselines.

Spark SQL has no recursive CTE, so the paper hand-writes the recursion as
a driver loop of ordinary SQL statements ("a mix of the Scala loops and
Spark SQLs").  These baselines reproduce that: each iteration executes the
view's branch queries through the ordinary relational executor against
materialized relations, with

- **naive**: every iteration re-runs the recursive branches against the
  *entire* accumulated relation and re-distincts the union, and
- **sn**: a hand-simulated delta (new rows only feed the next round),

but none of the fixpoint-operator machinery: no mutable SetRDD (the
accumulated relation is rebuilt each round, as immutable DataFrames force),
no stage combination, no partition-aware caching, no map-side partial
aggregation — which is precisely why the paper finds them 4x+ slower than
RaSQL even when the delta sizes match.

For ``sum``/``count`` views, correctness under set semantics requires
derivation provenance (two children contributing the same value must not
collapse); the rewrite adds the standard ``(Level, ChildKey)`` columns a
Spark SQL author would add, and the final statement aggregates them away.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import ast_nodes as ast
from repro.core.config import ExecutionConfig
from repro.core.executor import execute_select
from repro.core.parser import parse
from repro.engine.aggregates import get_aggregate, partial_aggregate
from repro.engine.cluster import Cluster
from repro.engine.kernels import make_extractor
from repro.engine.metrics import timed
from repro.engine.serialization import rows_size
from repro.errors import AnalysisError, FixpointNotReachedError
from repro.relation import Relation


@dataclass
class LoopResult:
    relation: Relation
    iterations: int


class SQLLoopEngine:
    """Iterative-SQL evaluation of a single-view recursive query."""

    def __init__(self, cluster: Cluster, mode: str = "sn",
                 max_iterations: int | None = None,
                 config: ExecutionConfig | None = None):
        """``config`` supplies the iteration budget (``max_iterations``)
        and the cooperative deadline (``deadline_seconds``) so baselines
        honour the same :class:`repro.core.config.ExecutionConfig` limits
        as the fixpoint operator; an explicit ``max_iterations`` wins."""
        if mode not in ("naive", "sn"):
            raise ValueError(f"unknown mode {mode!r}")
        self.cluster = cluster
        self.mode = mode
        self.config = config
        if max_iterations is not None:
            self.max_iterations = max_iterations
        elif config is not None:
            self.max_iterations = config.max_iterations
        else:
            self.max_iterations = 100_000

    # ------------------------------------------------------------------

    def run(self, query: str, tables: dict[str, Relation]) -> LoopResult:
        script = parse(query)
        with_query = next(
            (s for s in script.statements if isinstance(s, ast.WithQuery)),
            None)
        if with_query is None or len(with_query.views) != 1:
            raise AnalysisError(
                "the SQL-loop baselines support single-view WITH queries")
        view = with_query.views[0]

        aggregates = [c.aggregate for c in view.columns]
        accumulating = any(a in ("sum", "count") for a in aggregates)
        arity = len(aggregates)
        group_positions = tuple(i for i, a in enumerate(aggregates)
                                if a is None)
        agg_positions = tuple(i for i, a in enumerate(aggregates)
                              if a is not None)

        base_branches = []
        recursive_branches = []
        for branch in view.branches:
            if any(t.name.lower() == view.name.lower()
                   for t in branch.from_tables):
                recursive_branches.append(branch)
            else:
                base_branches.append(branch)
        if not base_branches or not recursive_branches:
            raise AnalysisError("need at least one base and one recursive branch")

        working_columns = list(view.column_names)
        if accumulating:
            working_columns += ["__Level", "__Origin"]

        def prepare(branch: ast.SelectQuery, is_base: bool) -> ast.SelectQuery:
            if not accumulating:
                return branch
            if is_base:
                # Origin = the contributing row itself.
                extra = (ast.SelectItem(ast.Literal(0), "__Level"),
                         ast.SelectItem(branch.items[0].expr, "__Origin"))
            else:
                # Origin passes through: two siblings contributing equal
                # values to the same ancestor must stay distinct rows.
                binding = next(t.binding for t in branch.from_tables
                               if t.name.lower() == view.name.lower())
                extra = (
                    ast.SelectItem(ast.BinaryOp(
                        "+", ast.ColumnRef("__Level", binding),
                        ast.Literal(1)), "__Level"),
                    ast.SelectItem(ast.ColumnRef("__Origin", binding),
                                   "__Origin"),
                )
            return ast.SelectQuery(branch.items + extra, branch.from_tables,
                                   branch.where, branch.group_by,
                                   branch.having, branch.distinct)

        prepared_base = [prepare(b, True) for b in base_branches]
        prepared_recursive = [prepare(b, False) for b in recursive_branches]

        def resolver(bound: Relation):
            def resolve(name: str) -> Relation:
                if name.lower() == view.name.lower():
                    return bound
                return tables[name.lower()]
            return resolve

        def select_union(branches, bound: Relation | None) -> set[tuple]:
            rows: set[tuple] = set()
            for branch in branches:
                rows.update(execute_select(branch, resolver(bound),
                                           view.name).rows)
            return rows

        def step(all_rows: set[tuple], delta_rows: set[tuple]):
            source = all_rows if self.mode == "naive" else delta_rows
            derived = select_union(
                prepared_recursive,
                Relation(view.name, working_columns, source))
            fresh = derived - all_rows
            # Immutable accumulation: rebuild the full relation, as a
            # chain of DataFrame unions would.
            shipped = derived if self.mode == "naive" else fresh
            return fresh, set(all_rows) | fresh, shipped

        def final_stratum(all_rows: set[tuple]):
            final_rows = list(all_rows)
            if agg_positions:
                # Drop the helper columns first and fold a list, so
                # contributions differing only in them still count.
                final_rows = partial_aggregate(
                    [row[:arity] for row in final_rows],
                    make_extractor(group_positions), agg_positions,
                    tuple(get_aggregate(aggregates[p]) for p in agg_positions))
            view_relation = Relation(view.name, view.column_names, final_rows)

            def final_resolve(name: str) -> Relation:
                if name.lower() == view.name.lower():
                    return view_relation
                return tables[name.lower()]

            return execute_select(with_query.final, final_resolve, "result")

        # --- base case -------------------------------------------------
        all_rows, seconds = timed(select_union, prepared_base, None)
        self._charge(seconds, all_rows, "sqlloop-base")
        delta_rows = set(all_rows)

        deadline_armed = False
        if (self.config is not None
                and self.config.deadline_seconds is not None
                and self.cluster.deadline is None):
            self.cluster.deadline = (self.cluster.metrics.sim_time
                                     + self.config.deadline_seconds)
            deadline_armed = True

        iterations = 0
        last_delta = len(delta_rows)
        try:
            while True:
                iterations += 1
                if iterations > self.max_iterations:
                    raise FixpointNotReachedError(
                        f"SQL loop exceeded its iteration budget of "
                        f"{self.max_iterations}: the last completed "
                        f"iteration ({iterations - 1}) still produced a "
                        f"delta of {last_delta} rows — raise "
                        f"ExecutionConfig.max_iterations or check the "
                        f"query for non-monotonic recursion",
                        iterations - 1)
                self.cluster.check_deadline(f"sqlloop-iter{iterations}")
                (fresh, all_rows, shipped), seconds = timed(
                    step, all_rows, delta_rows)
                self._charge(seconds, shipped, f"sqlloop-iter{iterations}")
                if not fresh:
                    break
                delta_rows = fresh
                last_delta = len(fresh)
        finally:
            if deadline_armed:
                self.cluster.deadline = None

        # --- final stratum ----------------------------------------------
        result, seconds = timed(final_stratum, all_rows)
        self._charge(seconds, result.rows, "sqlloop-final")
        return LoopResult(result, iterations)

    # ------------------------------------------------------------------

    def _charge(self, cpu_seconds: float, shipped_rows, label: str) -> None:
        """Account one driver-loop round as a cluster stage + shuffle."""
        cluster = self.cluster
        model = cluster.cost_model
        stage_time = (model.stage_overhead_s
                      + cpu_seconds * model.cpu_scale / cluster.num_workers)
        cluster.metrics.advance(stage_time, label=label)
        cluster.metrics.inc("stages")
        cluster.metrics.inc("tasks", cluster.num_partitions)
        nbytes = rows_size(shipped_rows)
        if nbytes:
            cluster.metrics.advance(
                model.transfer_seconds(nbytes, cluster.num_workers),
                label=label + "-shuffle")
            cluster.metrics.inc("shuffle_bytes", nbytes)
            cluster.metrics.inc("shuffle_records", len(shipped_rows))
