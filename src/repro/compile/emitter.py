"""Lower an analyzed RaSQL plan to standard ``WITH RECURSIVE`` SQL.

The input is the exact parse → analyze → optimize output that
``PlanCache`` memoizes (:meth:`repro.RaSQLContext.analyze_query`), so
whatever the optimizer did — magic-filter pushdown, conjunct
classification, constant folding — is compiled faithfully: FROM lists
come from ``JoinNode.inputs``, WHERE from scan filters + equi conjuncts
+ residual predicates, SELECT from the resolved head projections.

The one construct with no direct SQL:99 analogue is RaSQL's
aggregate-in-recursion.  By the PreM property it has an equivalent
vanilla form — the *un-aggregated twin*: recurse over raw tuples and
apply the aggregate in an outer query (Appendix G's
``prem_checking_query`` is the same rewrite executed natively).  The
emitter produces, per aggregated view ``v``:

- a twin CTE ``all_v(cols..., _depth)`` recursing without the
  aggregate.  ``_depth`` bounds derivation length: the un-aggregated
  tuple space can be infinite where the aggregated fixpoint is finite
  (SSSP on a cyclic weighted graph), so recursive branches guard
  ``_depth < bound``.  Under PreM, the aggregate of the twin truncated
  at the engine's own iteration count equals the engine's fixpoint; the
  differential harness re-runs at ``bound + 1`` to verify convergence
  independently rather than trusting the engine's count.
- an outer CTE ``v`` applying min/max/sum per group.

min/max twins recurse with ``UNION`` (set semantics; duplicates are
lattice-idempotent).  sum/count twins recurse with ``UNION ALL`` so each
derivation path contributes once — the engine's accumulator semantics —
which is only sound when every recursive contribution is
*homogeneous-linear* in the recursive aggregate column (``c.Cnt``,
``0.5 * e.Bonus``): linear maps distribute over the outer sum.  A
constant or affine contribution fires per *aggregated* tuple in the
engine but per *derivation row* in the twin, so those plans raise
:class:`repro.errors.InexpressibleQueryError`, as do multi-view cliques
(mutual recursion) and branches with several recursive references
(standard engines require linear recursion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compile.dialect import SQLITE, Dialect
from repro.core import ast_nodes as ast
from repro.core.expressions import Layout
from repro.core.logical import (
    AnalyzedScript,
    CliquePlan,
    DerivedViewPlan,
    RecursiveScanNode,
    RulePlan,
    ScanNode,
    ViewPlan,
)
from repro.errors import InexpressibleQueryError

#: Default derivation-depth guard for aggregate twin CTEs.  The
#: differential harness overrides this with the engine's observed
#: iteration count plus a margin; the default is generous enough for
#: every library dataset.
DEFAULT_DEPTH_BOUND = 64

_ARITHMETIC_OPS = {"+", "-", "*", "/"}

# Identifiers that must be quoted even though they look plain.  Kept
# deliberately broad — the union of common SQLite / DuckDB / BigQuery
# reserved words that plausibly appear as column or table names (the
# `shares` table's ``By``/``Of`` columns are the in-repo motivation).
_RESERVED = frozenset({
    "ALL", "AND", "ANY", "AS", "ASC", "BETWEEN", "BY", "CASE", "CAST",
    "CHECK", "COLLATE", "COLUMN", "CREATE", "CROSS", "CURRENT", "DEFAULT",
    "DELETE", "DESC", "DISTINCT", "DROP", "ELSE", "END", "EXCEPT", "EXISTS",
    "FALSE", "FOR", "FOREIGN", "FROM", "FULL", "GROUP", "HAVING", "IF",
    "IN", "INDEX", "INNER", "INSERT", "INTERSECT", "INTO", "IS", "JOIN",
    "KEY", "LEFT", "LIKE", "LIMIT", "NATURAL", "NOT", "NULL", "OF", "ON",
    "OR", "ORDER", "OUTER", "OVER", "PRIMARY", "RECURSIVE", "REFERENCES",
    "RIGHT", "ROW", "ROWS", "SELECT", "SET", "TABLE", "THEN", "TO", "TRUE",
    "UNION", "UNIQUE", "UPDATE", "USING", "VALUES", "WHEN", "WHERE", "WITH",
})


def literal_sql(value) -> str:
    """A constant as SQL: an infinity as a literal that overflows to it,
    as in ``expr_source``; a NaN has none (sqlite reads NaN as NULL)."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            raise InexpressibleQueryError(
                "a NaN constant has no SQL literal", reason="nan-literal")
        return "1e999" if value > 0 else "(-1e999)"
    return ast.Literal(value).to_sql()


def _needs_quoting(name: str) -> bool:
    if not name or name.upper() in _RESERVED:
        return True
    if not (name[0].isalpha() or name[0] == "_"):
        return True
    return not all(ch.isalnum() or ch == "_" for ch in name)


@dataclass(frozen=True)
class CompiledQuery:
    """The emitter's output: one statement plus its provenance."""

    sql: str
    dialect: Dialect
    #: Output column names of the final SELECT, disambiguated exactly
    #: like the engine's local executor (later duplicates get ``_N``).
    columns: tuple[str, ...]
    #: Depth guard used by aggregate twin CTEs; ``None`` when the plan
    #: needed no twin (no aggregates-in-recursion).
    depth_bound: int | None
    #: ``(view, twin_cte, kind)`` per aggregated view; *kind* is
    #: ``"set"`` (min/max, UNION) or ``"bag"`` (sum/count, UNION ALL).
    twins: tuple[tuple[str, str, str], ...]
    #: Names of recursive views that became recursive CTEs.
    recursive_views: tuple[str, ...]
    #: Dialect caveats plus per-plan diagnostics, for docs and the CLI.
    notes: tuple[str, ...] = ()


def compile_script(analyzed: AnalyzedScript, *, dialect: Dialect = SQLITE,
                   depth_bound: int = DEFAULT_DEPTH_BOUND) -> CompiledQuery:
    """Lower *analyzed* to a single standard-SQL statement.

    Raises :class:`InexpressibleQueryError` when the plan has no
    ``WITH RECURSIVE`` form (mutual recursion, non-linear accumulators,
    several recursive references in one branch).
    """
    return _Emitter(analyzed, dialect, depth_bound).emit()


def compile_sql(ctx, sql: str, *, dialect: Dialect = SQLITE,
                config=None,
                depth_bound: int = DEFAULT_DEPTH_BOUND) -> CompiledQuery:
    """Front-to-back convenience: analyze *sql* on *ctx*, then lower it.

    ``ctx`` is a :class:`repro.RaSQLContext`; ``config`` overrides the
    context's execution config for the analyze step (only
    ``magic_filters`` affects the analyzed plan today — the stale-plan
    keying test pins that).
    """
    analyzed = ctx.analyze_query(sql, config)
    return compile_script(analyzed, dialect=dialect, depth_bound=depth_bound)


class _Emitter:
    def __init__(self, analyzed: AnalyzedScript, dialect: Dialect,
                 depth_bound: int):
        self.analyzed = analyzed
        self.dialect = dialect
        self.depth_bound = depth_bound
        self.ctes: list[str] = []
        self.twins: list[tuple[str, str, str]] = []
        self.recursive_views: list[str] = []
        self.notes: list[str] = list(dialect.caveats)
        self.used_depth = False

        #: lowercase names of CTE-defined relations (derived views and
        #: clique views); scans of anything else hit a base table.
        self.unit_names: set[str] = set()
        for unit in analyzed.units:
            if isinstance(unit, CliquePlan):
                self.unit_names.update(v.name.lower() for v in unit.views)
            else:
                self.unit_names.add(unit.name.lower())
        #: every identifier already taken, for twin-name allocation.
        self.taken: set[str] = set(self.unit_names)
        for unit in analyzed.units:
            if isinstance(unit, CliquePlan):
                for view in unit.views:
                    for rule in view.base_rules + view.recursive_rules:
                        if rule.join is not None:
                            for node in rule.join.inputs:
                                self.taken.add(node_relation(node).lower())
            else:
                for branch in unit.branches:
                    for table in branch.from_tables:
                        self.taken.add(table.name.lower())
        for table in analyzed.final.from_tables:
            self.taken.add(table.name.lower())

    # -- identifiers --------------------------------------------------

    def ident(self, name: str) -> str:
        """Quote only when needed: unquoted identifiers resolve
        case-insensitively on every target, which keeps raw AST
        references (whose case may differ from the catalog spelling)
        working on case-sensitive-when-quoted engines like DuckDB."""
        if _needs_quoting(name):
            return self.dialect.quote(name)
        return name

    def fresh(self, candidate: str) -> str:
        name, i = candidate, 1
        while name.lower() in self.taken:
            name = f"{candidate}_{i}"
            i += 1
        self.taken.add(name.lower())
        return name

    # -- expression rendering -----------------------------------------

    def render_expr(self, expr: ast.Expr, resolve) -> str:
        """Render *expr*; *resolve* maps a ColumnRef to its SQL."""
        if isinstance(expr, ast.Literal):
            return literal_sql(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return resolve(expr)
        if isinstance(expr, ast.BinaryOp):
            left = self.render_expr(expr.left, resolve)
            right = self.render_expr(expr.right, resolve)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, ast.UnaryOp):
            inner = self.render_expr(expr.operand, resolve)
            if expr.op.upper() == "NOT":
                return f"(NOT {inner})"
            return f"({expr.op}{inner})"
        if isinstance(expr, ast.Case):
            parts = ["CASE"]
            for condition, value in expr.whens:
                parts.append(f"WHEN {self.render_expr(condition, resolve)} "
                             f"THEN {self.render_expr(value, resolve)}")
            if expr.default is not None:
                parts.append(f"ELSE {self.render_expr(expr.default, resolve)}")
            parts.append("END")
            return " ".join(parts)
        if isinstance(expr, ast.FunctionCall):
            inner = ", ".join(self.render_expr(a, resolve) for a in expr.args)
            if expr.distinct:
                inner = f"DISTINCT {inner}"
            return f"{expr.name.lower()}({inner})"
        if isinstance(expr, ast.Star):
            return "*"
        raise InexpressibleQueryError(
            f"cannot render expression {expr!r}", reason="unknown-expression")

    def raw_resolver(self):
        def resolve(ref: ast.ColumnRef) -> str:
            if ref.table:
                return f"{self.ident(ref.table)}.{self.ident(ref.name)}"
            return self.ident(ref.name)
        return resolve

    def layout_resolver(self, layout: Layout):
        """Resolve through the rule's layout so every reference is fully
        qualified with the catalog's column spelling (case-sensitive
        targets see the same identifier the CTE/table declares)."""
        by_binding = {b.lower(): (b, cols) for b, cols in layout.bindings}

        def resolve(ref: ast.ColumnRef) -> str:
            slot = layout.slot_of(ref)
            binding = layout.binding_of_slot(slot)
            spelled, columns = by_binding[binding.lower()]
            column = columns[slot - layout.offsets[binding.lower()]]
            return f"{self.ident(spelled)}.{self.ident(column)}"
        return resolve

    # -- raw SELECT blocks (derived views, final stratum) -------------

    def render_raw_select(self, query: ast.SelectQuery, *,
                          force_distinct: bool = False,
                          empty_aggregate_guard: bool = False) -> str:
        resolve = self.raw_resolver()
        parts = ["SELECT "]
        if query.distinct or force_distinct:
            parts.append("DISTINCT ")
        items = []
        for item in query.items:
            rendered = self.render_expr(item.expr, resolve)
            if item.alias:
                rendered += f" AS {self.ident(item.alias)}"
            items.append(rendered)
        parts.append(", ".join(items))
        if query.from_tables:
            froms = []
            for table in query.from_tables:
                sql = self.ident(table.name)
                if table.alias:
                    sql += f" AS {self.ident(table.alias)}"
                froms.append(sql)
            parts.append(" FROM " + ", ".join(froms))
        if query.where is not None:
            parts.append(" WHERE " + self.render_expr(query.where, resolve))
        if query.group_by:
            parts.append(" GROUP BY " + ", ".join(
                self.render_expr(e, resolve) for e in query.group_by))
        having = []
        if query.having is not None:
            having.append(self.render_expr(query.having, resolve))
        if (empty_aggregate_guard and not query.group_by
                and query.from_tables
                and any(ast.contains_aggregate(i.expr) for i in query.items)):
            # The engine's executor emits ZERO rows for a global
            # aggregate over empty input, where SQL emits one all-NULL
            # row; the guard restores engine semantics.
            having.append("count(*) > 0")
        if having:
            parts.append(" HAVING " + " AND ".join(having))
        if query.order_by:
            rendered = []
            for item in query.order_by:
                if isinstance(item.expr, ast.Literal):
                    key = str(item.expr.value)  # 1-based position
                else:
                    key = self.render_expr(item.expr, resolve)
                rendered.append(key + (" DESC" if item.descending else ""))
            parts.append(" ORDER BY " + ", ".join(rendered))
        if query.limit is not None:
            parts.append(f" LIMIT {query.limit}")
        return "".join(parts)

    # -- clique rules -------------------------------------------------

    def rule_selects(self, rule: RulePlan, view: ViewPlan,
                     twin: "_TwinSpec | None") -> list[str]:
        """Render one rule as SELECT blocks (several for VALUES rules)."""
        if rule.join is None:
            selects = []
            for row in rule.constant_rows:
                values = [literal_sql(v) for v in row]
                if twin is not None:
                    values = twin.normalize_branch(self, values,
                                                   rule.projections)
                    values.append("0")
                selects.append("SELECT " + ", ".join(values))
            return selects

        resolve = self.layout_resolver(rule.layout)
        recursive_nodes = [rule.join.inputs[i]
                           for i in rule.recursive_inputs()]
        if len(recursive_nodes) > 1:
            raise InexpressibleQueryError(
                f"view {view.name!r}: a rule references the recursive "
                f"relation {len(recursive_nodes)} times; standard "
                f"WITH RECURSIVE engines require linear recursion "
                f"(one recursive reference per branch)",
                view=view.name, reason="non-linear-recursion")

        froms = []
        where = []
        for node in rule.join.inputs:
            if isinstance(node, RecursiveScanNode):
                target = twin.twin_name if twin is not None else view.name
                froms.append(f"{self.ident(target)} AS "
                             f"{self.ident(node.binding)}")
                if twin is not None:
                    where.append(f"{self.ident(node.binding)}."
                                 f"{self.ident(twin.depth_column)}"
                                 f" < {twin.depth_bound}")
            else:
                froms.append(self.scan_sql(node))
                if node.filter is not None:
                    where.append(self.render_expr(node.filter, resolve))
        for left, right in rule.join.equi_conjuncts:
            where.append(f"{resolve(left)} = {resolve(right)}")
        for predicate in rule.join.residual:
            where.append(self.render_expr(predicate, resolve))

        values = [self.render_expr(e, resolve) for e in rule.projections]
        if twin is not None:
            twin.check_rule(self, rule, view, recursive_nodes)
            values = twin.normalize_branch(self, values, rule.projections)
            depths = [f"{self.ident(n.binding)}."
                      f"{self.ident(twin.depth_column)}"
                      for n in recursive_nodes]
            values.append(" + ".join(depths + ["1"]) if depths else "0")

        sql = "SELECT " + ", ".join(values) + " FROM " + ", ".join(froms)
        if where:
            sql += " WHERE " + " AND ".join(where)
        return [sql]

    def scan_sql(self, node: ScanNode) -> str:
        """A clique-rule scan.  The fixpoint operator deduplicates its
        base-table inputs (set semantics — the PR-3 fix), so base scans
        are wrapped in SELECT DISTINCT; CTE-defined views are already
        sets and referenced directly."""
        if node.relation.lower() in self.unit_names:
            return f"{self.ident(node.relation)} AS {self.ident(node.binding)}"
        columns = ", ".join(self.ident(c) for c in node.columns)
        return (f"(SELECT DISTINCT {columns} FROM "
                f"{self.ident(node.relation)}) AS {self.ident(node.binding)}")

    # -- units --------------------------------------------------------

    def emit_clique(self, clique: CliquePlan) -> None:
        if len(clique.views) > 1:
            names = ", ".join(clique.view_names)
            raise InexpressibleQueryError(
                f"clique [{names}]: mutual recursion cannot be expressed "
                f"as standard WITH RECURSIVE — each CTE may only "
                f"reference itself, not a sibling still being defined",
                view=clique.views[0].name, reason="mutual-recursion")
        view = clique.views[0]
        self.recursive_views.append(view.name)
        if view.has_aggregates:
            self.emit_twin_clique(view)
        else:
            selects = []
            for rule in view.base_rules + view.recursive_rules:
                selects.extend(self.rule_selects(rule, view, None))
            self.add_cte(view.name, view.columns, " UNION ".join(selects))

    def emit_twin_clique(self, view: ViewPlan) -> None:
        for position, aggregate in zip(view.aggregate_positions,
                                       [view.aggregates[i] for i in
                                        view.aggregate_positions]):
            if aggregate.name.lower() not in ("min", "max", "sum", "count"):
                raise InexpressibleQueryError(
                    f"view {view.name!r}: no twin form for aggregate "
                    f"{aggregate.name!r} in recursion",
                    view=view.name, reason="unsupported-aggregate")
        twin = _TwinSpec.for_view(self, view)
        self.twins.append((view.name, twin.twin_name, twin.kind))
        self.used_depth = True

        selects = []
        for rule in view.base_rules + view.recursive_rules:
            selects.extend(self.rule_selects(rule, view, twin))
        op = " UNION ALL " if twin.kind == "bag" else " UNION "
        self.add_cte(twin.twin_name,
                     tuple(view.columns) + (twin.depth_column,),
                     op.join(selects))

        items = []
        for i, column in enumerate(view.columns):
            aggregate = view.aggregates[i]
            if aggregate is None:
                items.append(self.ident(column))
            else:
                # count() contributions were normalized per branch, so
                # the outer fold is a plain sum for both sum and count.
                fold = "sum" if aggregate.name.lower() in ("sum", "count") \
                    else aggregate.name.lower()
                items.append(f"{fold}({self.ident(column)}) AS "
                             f"{self.ident(column)}")
        outer = ("SELECT " + ", ".join(items)
                 + f" FROM {self.ident(twin.twin_name)}")
        group_columns = [self.ident(view.columns[i])
                         for i in view.group_positions]
        if group_columns:
            outer += " GROUP BY " + ", ".join(group_columns)
        else:
            outer += " HAVING count(*) > 0"
        self.add_cte(view.name, view.columns, outer)

    def emit_derived(self, unit: DerivedViewPlan) -> None:
        # The executor deduplicates each branch and unions across
        # branches — DISTINCT per branch + UNION reproduces that.
        branches = [self.render_raw_select(b, force_distinct=True)
                    for b in unit.branches]
        self.add_cte(unit.name, unit.columns, " UNION ".join(branches))

    def add_cte(self, name: str, columns: tuple[str, ...],
                body: str) -> None:
        heading = ", ".join(self.ident(c) for c in columns)
        self.ctes.append(f"{self.ident(name)}({heading}) AS (\n"
                         f"  {body}\n)")

    # -- entry point --------------------------------------------------

    def emit(self) -> CompiledQuery:
        for unit in self.analyzed.units:
            if isinstance(unit, CliquePlan):
                self.emit_clique(unit)
            else:
                self.emit_derived(unit)
        final = self.render_raw_select(self.analyzed.final,
                                       empty_aggregate_guard=True)
        if self.ctes:
            keyword = ("WITH RECURSIVE" if self.recursive_views else "WITH")
            sql = keyword + "\n" + ",\n".join(self.ctes) + "\n" + final
        else:
            sql = final
        return CompiledQuery(
            sql=sql,
            dialect=self.dialect,
            columns=output_columns(self.analyzed.final),
            depth_bound=self.depth_bound if self.used_depth else None,
            twins=tuple(self.twins),
            recursive_views=tuple(self.recursive_views),
            notes=tuple(self.notes),
        )


@dataclass
class _TwinSpec:
    """How one aggregated view lowers to its un-aggregated twin."""

    twin_name: str
    depth_column: str
    depth_bound: int
    #: ``"set"`` (min/max only → UNION) or ``"bag"`` (any sum/count →
    #: UNION ALL; min/max columns riding along are duplicate-idempotent).
    kind: str
    #: head positions carrying a count() aggregate (need normalization).
    count_positions: tuple[int, ...]
    #: head positions carrying sum() or count() (need linearity checks).
    accumulator_positions: tuple[int, ...]

    @classmethod
    def for_view(cls, emitter: _Emitter, view: ViewPlan) -> "_TwinSpec":
        depth = "_depth"
        lowered = {c.lower() for c in view.columns}
        i = 1
        while depth.lower() in lowered:
            depth = f"_depth_{i}"
            i += 1
        names = [view.aggregates[i].name.lower()
                 for i in view.aggregate_positions]
        accumulators = tuple(p for p in view.aggregate_positions
                             if view.aggregates[p].name.lower()
                             in ("sum", "count"))
        return cls(
            twin_name=emitter.fresh(f"all_{view.name}"),
            depth_column=depth,
            depth_bound=emitter.depth_bound,
            kind="bag" if accumulators else "set",
            count_positions=tuple(p for p in view.aggregate_positions
                                  if view.aggregates[p].name.lower()
                                  == "count"),
            accumulator_positions=accumulators,
        )

    # -- count normalization ------------------------------------------

    def normalize_branch(self, emitter: _Emitter, values: list[str],
                         projections: tuple[ast.Expr, ...]) -> list[str]:
        """Apply the engine's count() contribution normalization
        (non-numeric counts as 1 — ``COUNT.normalize``) per branch, so
        the outer fold is a plain sum.  Skipped when the contribution is
        provably numeric, keeping the emitted SQL readable."""
        out = list(values)
        for position in self.count_positions:
            if not _provably_numeric(projections[position]):
                out[position] = emitter.dialect.normalize_count(out[position])
        return out

    # -- linearity ----------------------------------------------------

    def check_rule(self, emitter: _Emitter, rule: RulePlan, view: ViewPlan,
                   recursive_nodes: list[RecursiveScanNode]) -> None:
        """Reject recursive rules whose sum/count contribution is not
        homogeneous-linear in the recursive aggregate column, or that
        filter/group on partial aggregate values.

        The UNION ALL twin replays every derivation path; summing those
        partial values outside the recursion equals the engine's
        accumulator fixpoint exactly when each step's contribution is a
        linear map of the incoming aggregate (``sum over paths of c·x``
        = ``c · sum x``).  min/max twins need no such check — PreM
        itself is the admissibility condition there, and the
        differential harness runs ``core.prem.check_prem`` for them.
        """
        if not self.accumulator_positions or not recursive_nodes:
            return
        layout = rule.layout
        aggregate_slots = set()
        for node in recursive_nodes:
            offset = layout.offsets[node.binding.lower()]
            for position in view.aggregate_positions:
                aggregate_slots.add(offset + position)

        def references(expr: ast.Expr) -> bool:
            return any(isinstance(n, ast.ColumnRef)
                       and layout.slot_of(n) in aggregate_slots
                       for n in expr.walk())

        def linear(expr: ast.Expr) -> bool:
            if isinstance(expr, ast.ColumnRef):
                return layout.slot_of(expr) in aggregate_slots
            if isinstance(expr, ast.UnaryOp) and expr.op == "-":
                return linear(expr.operand)
            if isinstance(expr, ast.BinaryOp) and expr.op == "*":
                return ((linear(expr.left) and not references(expr.right))
                        or (linear(expr.right)
                            and not references(expr.left)))
            if isinstance(expr, ast.BinaryOp) and expr.op == "/":
                return linear(expr.left) and not references(expr.right)
            return False

        for position in self.accumulator_positions:
            contribution = rule.projections[position]
            if not linear(contribution):
                raise InexpressibleQueryError(
                    f"view {view.name!r}: recursive contribution "
                    f"{contribution.to_sql()!r} to "
                    f"{view.aggregates[position].name}() is not "
                    f"homogeneous-linear in the recursive aggregate "
                    f"column — the derivation-bag twin would mis-count "
                    f"(a linear map distributes over the outer sum; a "
                    f"constant or affine one fires per derivation path "
                    f"instead of per aggregated tuple)",
                    view=view.name, reason="non-linear-accumulator")
        for position in view.group_positions:
            if references(rule.projections[position]):
                raise InexpressibleQueryError(
                    f"view {view.name!r}: group-key projection "
                    f"{rule.projections[position].to_sql()!r} reads the "
                    f"recursive aggregate column; the twin would group "
                    f"on partial values instead of the aggregate",
                    view=view.name, reason="aggregate-in-group-key")
        predicates = list(rule.join.residual)
        predicates.extend(n.filter for n in rule.join.inputs
                          if isinstance(n, ScanNode) and n.filter is not None)
        for left, right in rule.join.equi_conjuncts:
            predicates.extend((left, right))
        for predicate in predicates:
            if references(predicate):
                raise InexpressibleQueryError(
                    f"view {view.name!r}: predicate "
                    f"{predicate.to_sql()!r} reads the recursive "
                    f"aggregate column; the twin would filter partial "
                    f"values instead of the aggregate",
                    view=view.name, reason="aggregate-in-predicate")


def _provably_numeric(expr: ast.Expr) -> bool:
    """True when *expr* always evaluates to a number (so count()
    normalization can be skipped).  Conservative: column references are
    never provable from the plan alone."""
    if isinstance(expr, ast.Literal):
        return (isinstance(expr.value, (int, float))
                and not isinstance(expr.value, bool))
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        return _provably_numeric(expr.operand)
    if isinstance(expr, ast.BinaryOp) and expr.op in _ARITHMETIC_OPS:
        # Arithmetic either yields a number or errors on both engines.
        return True
    return False


def node_relation(node) -> str:
    """The relation a join input reads (scan target or recursive view)."""
    return node.view if isinstance(node, RecursiveScanNode) else node.relation


def output_columns(final: ast.SelectQuery) -> tuple[str, ...]:
    """Final-SELECT column names, disambiguated like the executor
    (case-insensitive; later duplicates get ``_N`` suffixes)."""
    names: list[str] = []
    seen: dict[str, int] = {}
    for i, item in enumerate(final.items):
        name = item.output_name(i)
        key = name.lower()
        if key in seen:
            seen[key] += 1
            name = f"{name}_{seen[key]}"
        else:
            seen[key] = 0
        names.append(name)
    return tuple(names)
