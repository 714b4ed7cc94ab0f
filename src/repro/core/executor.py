"""Local executor for non-recursive SELECT queries.

This is the "rest of Spark SQL" that the fixpoint operator plugs into: the
final stratum of a RaSQL program (the outer SELECT, e.g. CC's
``count(distinct CmpId)``), CREATE VIEW bodies, non-recursive WITH views,
and the base-case branches of recursive views are all ordinary relational
queries.  It implements select-project-join with greedy hash-join ordering,
GROUP BY / HAVING, the full (non-monotonic) aggregates including ``avg``
and ``distinct``, and SELECT DISTINCT.

It is also reused wholesale by the Spark-SQL-Naive/SN baselines of
Figure 10, which drive recursion as a loop of these ordinary queries.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from repro.core import ast_nodes as ast
from repro.core.expressions import (
    Layout,
    compile_expr,
    is_equi_conjunct,
    referenced_bindings,
    split_conjuncts,
)
from repro.errors import AnalysisError
from repro.relation import Relation


def _aggregate_value(call: ast.FunctionCall, rows: list[tuple],
                     layout: Layout) -> object:
    """Evaluate one aggregate call over a group's rows."""
    name = call.name.lower()
    if name == "count" and (not call.args or isinstance(call.args[0], ast.Star)):
        return len(rows)
    if len(call.args) != 1:
        raise AnalysisError(f"aggregate {name!r} takes exactly one argument")
    arg = compile_expr(call.args[0], layout)
    values = [arg(row) for row in rows]
    if call.distinct:
        values = list(set(values))
    if not values:
        return None
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    if name == "sum":
        return sum(values)
    if name == "count":
        return len(values)
    if name == "avg":
        return sum(values) / len(values)
    raise AnalysisError(f"unknown aggregate {name!r}")


def _collect_aggregates(exprs: list[ast.Expr]) -> list[ast.FunctionCall]:
    calls: list[ast.FunctionCall] = []
    for expr in exprs:
        for node in expr.walk():
            if (isinstance(node, ast.FunctionCall)
                    and node.name.lower() in ast.AGGREGATE_NAMES
                    and node not in calls):
                calls.append(node)
    return calls


def _join_from_list(query: ast.SelectQuery,
                    resolve: Callable[[str], Relation]) -> tuple[Layout, list[tuple]]:
    """Materialize the joined FROM list with WHERE applied.

    Left-deep in FROM order; equi conjuncts between the accumulated prefix
    and the next input become hash joins, single-binding conjuncts are
    applied at the scan, and everything else filters as soon as its
    bindings are all available.
    """
    # Each distinct name is resolved once (a resolver may hand a relation
    # over rather than share it: ``RaSQLContext._run_sql``'s final stratum).
    resolved: dict[str, Relation] = {}
    sources: list[tuple[str, Relation]] = []
    for table_ref in query.from_tables:
        key = table_ref.name.lower()
        if key not in resolved:
            resolved[key] = resolve(table_ref.name)
        sources.append((table_ref.binding, resolved[key]))

    layout = Layout([(binding, relation.columns)
                     for binding, relation in sources])
    conjuncts = split_conjuncts(query.where)

    # Classify conjuncts by the set of bindings they touch.
    classified: list[tuple[frozenset[str], ast.Expr]] = []
    for conjunct in conjuncts:
        refs = frozenset(referenced_bindings(conjunct, layout))
        classified.append((refs, conjunct))

    consumed = [False] * len(classified)
    current_rows: list[tuple] | None = None
    current_bindings: set[str] = set()

    for position, (binding, relation) in enumerate(sources):
        binding_key = binding.lower()
        offset = layout.offsets[binding_key]
        arity = len(relation.columns)
        # Scan with single-binding pushdown, padded into the full layout
        # so every compiled expression sees one row shape.  Relation rows
        # are plain tuples, so the pads concatenate directly.
        prefix = (None,) * offset
        suffix = (None,) * (layout.arity - offset - arity)
        if prefix and suffix:
            rows = [prefix + r + suffix for r in relation.rows]
        elif prefix:
            rows = [prefix + r for r in relation.rows]
        elif suffix:
            rows = [r + suffix for r in relation.rows]
        else:
            rows = list(relation.rows)
        for i, (refs, conjunct) in enumerate(classified):
            if not consumed[i] and refs == {binding_key}:
                predicate = compile_expr(conjunct, layout)
                rows = [r for r in rows if predicate(r)]
                consumed[i] = True

        if current_rows is None:
            current_rows, current_bindings = rows, {binding_key}
            continue

        available = current_bindings | {binding_key}
        # Equi conjuncts usable for this hash join.
        left_slots: list[int] = []
        right_slots: list[int] = []
        for i, (refs, conjunct) in enumerate(classified):
            if consumed[i] or not refs or not refs <= available:
                continue
            pair = is_equi_conjunct(conjunct)
            if pair is None:
                continue
            a, b = pair
            slot_a, slot_b = layout.slot_of(a), layout.slot_of(b)
            bind_a = layout.binding_of_slot(slot_a).lower()
            bind_b = layout.binding_of_slot(slot_b).lower()
            if bind_a == binding_key and bind_b in current_bindings:
                left_slots.append(slot_b)
                right_slots.append(slot_a)
                consumed[i] = True
            elif bind_b == binding_key and bind_a in current_bindings:
                left_slots.append(slot_a)
                right_slots.append(slot_b)
                consumed[i] = True

        def merge(left_row: tuple, right_row: tuple) -> tuple:
            return tuple(l if l is not None else r
                         for l, r in zip(left_row, right_row))

        if left_slots:
            table: dict = {}
            for row in rows:
                key = tuple(row[s] for s in right_slots)
                table.setdefault(key, []).append(row)
            joined = []
            for row in current_rows:
                bucket = table.get(tuple(row[s] for s in left_slots))
                if bucket:
                    joined.extend(merge(row, other) for other in bucket)
        else:
            joined = [merge(row, other) for row in current_rows for other in rows]

        current_rows = joined
        current_bindings = available

        # Apply any now-evaluable residual conjuncts.
        for i, (refs, conjunct) in enumerate(classified):
            if not consumed[i] and refs <= current_bindings:
                predicate = compile_expr(conjunct, layout)
                current_rows = [r for r in current_rows if predicate(r)]
                consumed[i] = True

    if current_rows is None:
        current_rows = [()]
    for i, (refs, conjunct) in enumerate(classified):
        if not consumed[i]:
            predicate = compile_expr(conjunct, layout)
            current_rows = [r for r in current_rows if predicate(r)]
            consumed[i] = True
    return layout, current_rows


def execute_select(query: ast.SelectQuery,
                   resolve: Callable[[str], Relation],
                   result_name: str = "result",
                   tracer=None) -> Relation:
    """Execute one SELECT block against materialized relations.

    ``resolve`` maps a table/view name to its :class:`Relation`; it raises
    ``KeyError`` for unknown names, which is converted to a friendly
    :class:`AnalysisError`.  When a :class:`repro.engine.tracing.Tracer`
    is supplied, the block runs under a ``select`` span annotated with
    its output cardinality, so EXPLAIN ANALYZE covers the non-recursive
    strata too.
    """
    if tracer is not None:
        with tracer.span("select", result_name) as span:
            relation = _execute_select(query, resolve, result_name)
            span.annotate(output_rows=len(relation.rows))
            return relation
    return _execute_select(query, resolve, result_name)


def _execute_select(query: ast.SelectQuery,
                    resolve: Callable[[str], Relation],
                    result_name: str = "result") -> Relation:
    def safe_resolve(name: str) -> Relation:
        try:
            return resolve(name)
        except KeyError:
            raise AnalysisError(f"unknown table or view {name!r}") from None

    layout, rows = _join_from_list(query, safe_resolve)

    # Disambiguate duplicate output names (``SELECT a.Src, b.Src``): SQL
    # tolerates them, our Schema does not, so later duplicates get suffixes.
    column_names_list: list[str] = []
    seen_names: dict[str, int] = {}
    for i, item in enumerate(query.items):
        name = item.output_name(i)
        key = name.lower()
        if key in seen_names:
            seen_names[key] += 1
            name = f"{name}_{seen_names[key]}"
        else:
            seen_names[key] = 0
        column_names_list.append(name)
    column_names = tuple(column_names_list)
    item_exprs = [item.expr for item in query.items]
    aggregate_calls = _collect_aggregates(
        item_exprs + ([query.having] if query.having is not None else []))

    if aggregate_calls or query.group_by:
        if query.group_by:
            group_fns = [compile_expr(e, layout) for e in query.group_by]
            groups: dict[tuple, list[tuple]] = {}
            for row in rows:
                key = tuple(fn(row) for fn in group_fns)
                groups.setdefault(key, []).append(row)
        else:
            groups = {(): rows}

        grouped = layout.with_aggregates(aggregate_calls)
        compiled_items = [compile_expr(e, grouped) for e in item_exprs]
        compiled_having = (compile_expr(query.having, grouped)
                           if query.having is not None else None)

        out_rows = []
        for key, group_rows in groups.items():
            if not group_rows:
                continue
            row = group_rows[0] + tuple(
                _aggregate_value(call, group_rows, layout)
                for call in aggregate_calls)
            if compiled_having is not None and not compiled_having(row):
                continue
            out_rows.append(tuple(fn(row) for fn in compiled_items))
    elif all(isinstance(e, ast.ColumnRef) for e in item_exprs):
        # Pure-projection fast path: one itemgetter per row instead of a
        # closure call per cell.
        slots = tuple(layout.slot_of(e) for e in item_exprs)
        if len(slots) == 1:
            slot = slots[0]
            out_rows = [(row[slot],) for row in rows]
        else:
            out_rows = list(map(itemgetter(*slots), rows))
    else:
        compiled = [compile_expr(e, layout) for e in item_exprs]
        out_rows = [tuple(fn(row) for fn in compiled) for row in rows]

    if query.distinct:
        out_rows = list(dict.fromkeys(out_rows))

    if query.order_by:
        lowered = [name.lower() for name in column_names]
        keys: list[tuple[int, bool]] = []
        for item in query.order_by:
            if isinstance(item.expr, ast.ColumnRef) and item.expr.table is None:
                try:
                    position = lowered.index(item.expr.name.lower())
                except ValueError:
                    raise AnalysisError(
                        f"ORDER BY column {item.expr.name!r} is not in the "
                        f"output ({column_names})") from None
            elif isinstance(item.expr, ast.Literal) and isinstance(
                    item.expr.value, int):
                position = item.expr.value - 1
                if not 0 <= position < len(column_names):
                    raise AnalysisError(
                        f"ORDER BY position {item.expr.value} out of range")
            else:
                raise AnalysisError(
                    "ORDER BY supports output column names or 1-based "
                    "positions")
            keys.append((position, item.descending))
        # Stable sort from the least significant key.
        for position, descending in reversed(keys):
            out_rows.sort(key=lambda row: row[position], reverse=descending)

    if query.limit is not None:
        out_rows = out_rows[:query.limit]
    # Every path above produced plain tuples of the output arity.
    return Relation.from_tuples(result_name, column_names, out_rows)
