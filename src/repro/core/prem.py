"""PreM auto-validation (Section 3 and Appendix G).

A constraint γ is *pre-mappable* (PreM) to the rule transformation T when

    γ(T(I)) = γ(T(γ(I)))

for the states I arising during the fixpoint.  When PreM holds, pushing the
aggregate into the recursion (Q2) is equivalent to the stratified program
(Q1), and evaluates far faster.  Two tools are provided, mirroring the
paper's GPtest:

- :func:`prem_checking_query` — the Appendix G source rewrite: an
  un-aggregated twin view ``all_<name>`` drives the recursion, the original
  view re-derives from the twin, so the query computes γ(T(I)) while the
  original computes γ(T(γ(I))).
- :func:`check_prem` — the step-by-step validator: it runs the
  un-aggregated fixpoint locally and tests the PreM equation at every
  step, reporting the first counterexample (group key and the two
  disagreeing aggregate values).

The validator is a *testing* tool, exactly as the paper frames it: passing
on one dataset is evidence, not proof; proofs use the techniques of
Zaniolo et al. [63].
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import ast_nodes as ast
from repro.core.analyzer import analyze
from repro.core.catalog import Catalog
from repro.core.config import ExecutionConfig
from repro.core.parser import parse
from repro.core.physical import TermRuntime, build_base_side
from repro.core.planner import plan_clique
from repro.errors import AnalysisError, PreMViolationError


# ---------------------------------------------------------------------------
# Appendix G rewrite
# ---------------------------------------------------------------------------


def _rename_references(query: ast.SelectQuery, old: str,
                       new: str) -> ast.SelectQuery:
    """Rewrite FROM references (and their qualified column refs) to a new
    view name, preserving aliases where present."""
    replacements: dict[str, str] = {}
    new_tables = []
    for table_ref in query.from_tables:
        if table_ref.name.lower() == old.lower():
            if table_ref.alias:
                new_tables.append(ast.TableRef(new, table_ref.alias))
            else:
                new_tables.append(ast.TableRef(new))
                replacements[table_ref.name.lower()] = new
        else:
            new_tables.append(table_ref)

    def rewrite(expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.ColumnRef) and expr.table:
            target = replacements.get(expr.table.lower())
            if target:
                return ast.ColumnRef(expr.name, target)
            return expr
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, rewrite(expr.operand))
        if isinstance(expr, ast.FunctionCall):
            return ast.FunctionCall(expr.name,
                                    tuple(rewrite(a) for a in expr.args),
                                    expr.distinct)
        return expr

    return ast.SelectQuery(
        items=tuple(ast.SelectItem(rewrite(i.expr), i.alias)
                    for i in query.items),
        from_tables=tuple(new_tables),
        where=rewrite(query.where) if query.where is not None else None,
        group_by=tuple(rewrite(e) for e in query.group_by),
        having=rewrite(query.having) if query.having is not None else None,
        distinct=query.distinct,
    )


def prem_checking_query(query: str) -> str:
    """Rewrite a RaSQL query into its PreM-checking version (Appendix G).

    Requires a single recursive view with at least one aggregate column.
    The twin view computes the un-aggregated recursion; the original view
    keeps its aggregate head but re-derives from the twin, so the two
    evaluations compute γ(T(γ(I))) and γ(T(I)) respectively.
    """
    script = parse(query)
    with_query = None
    prefix: list[ast.Statement] = []
    for statement in script.statements:
        if isinstance(statement, ast.WithQuery):
            with_query = statement
        else:
            prefix.append(statement)
    if with_query is None:
        raise AnalysisError("PreM checking requires a WITH query")

    aggregated = [v for v in with_query.views if v.has_aggregates]
    if len(aggregated) != 1:
        raise AnalysisError(
            "PreM checking supports exactly one aggregated recursive view "
            f"(found {len(aggregated)})")
    view = aggregated[0]
    twin_name = f"all_{view.name}"

    twin_columns = tuple(ast.ColumnSpec(c.name) for c in view.columns)
    twin_branches = tuple(
        _rename_references(branch, view.name, twin_name)
        for branch in view.branches)
    twin = ast.ViewDef(twin_name, twin_columns, twin_branches, recursive=True)

    checked_branches = []
    for branch in view.branches:
        references_self = any(
            t.name.lower() == view.name.lower() for t in branch.from_tables)
        if references_self:
            checked_branches.append(
                _rename_references(branch, view.name, twin_name))
        else:
            checked_branches.append(branch)
    checked = ast.ViewDef(view.name, view.columns, tuple(checked_branches),
                          recursive=True)

    other_views = tuple(v for v in with_query.views if v is not view)
    rewritten = ast.WithQuery((twin, checked) + other_views,
                              with_query.final)
    statements = tuple(prefix) + (rewritten,)
    return ast.Script(statements).to_sql()


# ---------------------------------------------------------------------------
# step-by-step validation
# ---------------------------------------------------------------------------


@dataclass
class StepTrace:
    """One fixpoint step of the GPtest-style dual execution."""

    step: int
    unaggregated_facts: int
    aggregated_groups: int
    matched: bool


@dataclass
class PreMReport:
    """Outcome of a step-by-step PreM check."""

    holds: bool
    steps_checked: int
    reached_fixpoint: bool
    failed_step: int | None = None
    counterexample: dict = field(default_factory=dict)
    trace: list[StepTrace] = field(default_factory=list)

    def __str__(self) -> str:
        if self.holds:
            suffix = ("up to the fixpoint" if self.reached_fixpoint
                      else f"for {self.steps_checked} steps (budget reached)")
            return f"PreM held {suffix}"
        return (f"PreM VIOLATED at step {self.failed_step}: "
                f"{self.counterexample}")

    def format_trace(self) -> str:
        """Render the step-by-step table a GPtest user would read."""
        lines = ["step  facts(T^i)  groups(gamma)  PreM"]
        for entry in self.trace:
            lines.append(f"{entry.step:>4}  {entry.unaggregated_facts:>10}  "
                         f"{entry.aggregated_groups:>13}  "
                         f"{'ok' if entry.matched else 'VIOLATED'}")
        return "\n".join(lines)


def _gamma(rows, group_positions, agg_positions, functions):
    """Apply the aggregate constraint γ to a set of head rows."""
    grouped: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row[i] for i in group_positions)
        values = [fn.normalize(row[p])
                  for p, fn in zip(agg_positions, functions)]
        state = grouped.get(key)
        if state is None:
            grouped[key] = values
        else:
            for i, fn in enumerate(functions):
                state[i] = fn.combine(state[i], values[i])
    out = set()
    arity = len(group_positions) + len(agg_positions)
    for key, values in grouped.items():
        row = [None] * arity
        for position, value in zip(group_positions, key):
            row[position] = value
        for position, value in zip(agg_positions, values):
            row[position] = value
        out.add(tuple(row))
    return out


def check_prem(query: str, tables: dict[str, tuple[list[str], list]],
               max_steps: int = 25, raise_on_violation: bool = False
               ) -> PreMReport:
    """Validate PreM step by step on concrete data (the GPtest workflow).

    ``tables`` maps base-table name to ``(columns, rows)``.  The
    un-aggregated state ``U`` evolves by naive fixpoint; at every step the
    equation γ(T(U)) = γ(T(γ(U))) is tested.  For non-terminating
    un-aggregated recursions (cyclic SSSP) the check runs for
    ``max_steps`` steps — exactly the "test, don't prove" stance of
    Appendix G.
    """
    catalog = Catalog()
    for name, (columns, rows) in tables.items():
        catalog.register(name, columns, rows)
    from repro.core.optimizer import optimize

    analyzed = optimize(analyze(parse(query), catalog))
    cliques = analyzed.cliques()
    aggregated = [c for c in cliques
                  if len(c.views) == 1 and c.views[0].has_aggregates]
    if len(aggregated) != 1:
        raise AnalysisError(
            "step-wise PreM checking requires exactly one single-view "
            "aggregated clique")
    clique = aggregated[0]
    view = clique.views[0]

    # Evaluate with a local single-partition plan, all bases broadcast:
    # T(I) is then one pass over the compiled terms.
    config = ExecutionConfig(broadcast_bases=True, decomposed_plans=False,
                             codegen=False, evaluation="stratified")
    planned = plan_clique(clique, config)

    runtime = TermRuntime()
    for plan in planned.base_plans:
        _, (side,) = build_base_side(plan, catalog.get(plan.relation).rows)
        runtime.broadcast_tables[plan.step_id] = side

    group_positions = view.group_positions
    agg_positions = view.aggregate_positions
    functions = [view.aggregates[p] for p in agg_positions]

    def transform(state_rows: set) -> set:
        out = set()
        rows = list(state_rows)
        for term in planned.terms:
            out.update(term.evaluate(rows, 0, runtime))
        return out

    # Base case.
    base: set = set()
    for base_rule in planned.base_rules:
        if base_rule.term is None:
            base.update(base_rule.constant_rows)
        else:
            driving = catalog.get(base_rule.driving_relation)
            base.update(base_rule.term.evaluate(driving.rows, 0, runtime))

    state: set = set(base)
    trace: list[StepTrace] = []
    for step in range(1, max_steps + 1):
        gamma_state = _gamma(state, group_positions, agg_positions, functions)
        lhs = _gamma(transform(state) | base,
                     group_positions, agg_positions, functions)
        rhs = _gamma(transform(gamma_state) | base,
                     group_positions, agg_positions, functions)
        trace.append(StepTrace(step, len(state), len(gamma_state),
                               lhs == rhs))
        if lhs != rhs:
            diff_groups = {}
            lhs_by_key = {tuple(r[i] for i in group_positions): r for r in lhs}
            rhs_by_key = {tuple(r[i] for i in group_positions): r for r in rhs}
            for key in set(lhs_by_key) | set(rhs_by_key):
                if lhs_by_key.get(key) != rhs_by_key.get(key):
                    diff_groups[key] = {
                        "gamma_T_I": lhs_by_key.get(key),
                        "gamma_T_gamma_I": rhs_by_key.get(key),
                    }
                    break
            report = PreMReport(False, step, False, step, diff_groups,
                                trace)
            if raise_on_violation:
                raise PreMViolationError(str(report), step)
            return report

        new_state = state | transform(state)
        if new_state == state:
            return PreMReport(True, step, True, trace=trace)
        state = new_state

    return PreMReport(True, max_steps, False, trace=trace)
