"""Logical plan nodes — the Recursive Clique Plan of Section 5 / Figure 2(a).

The two-step compilation works exactly as the paper describes: during
analysis, references to views of the current WITH clause are recognized and
replaced by :class:`RecursiveScan` *mark points*, which stops reference
resolution from recursing forever.  The surrounding operators (scan, n-ary
join, filter, project) are resolved and optimized normally, producing one
:class:`RulePlan` per union branch, grouped into a :class:`CliquePlan` per
strongly-connected component of the view dependency graph.

``explain()`` renders the tree in the style of Figure 2 so plan-shape tests
can assert against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import ast_nodes as ast
from repro.core.expressions import Layout
from repro.engine.aggregates import AggregateFunction


@dataclass
class ScanNode:
    """Scan of a base table or previously materialized view."""

    relation: str
    binding: str
    columns: tuple[str, ...]
    #: Residual single-table predicate pushed down by the optimizer.
    filter: ast.Expr | None = None

    def explain(self) -> str:
        suffix = f" [{self.filter.to_sql()}]" if self.filter is not None else ""
        return f"Scan {self.relation} AS {self.binding}{suffix}"


@dataclass
class RecursiveScanNode:
    """A mark point: reference to a recursive relation of the current clique."""

    view: str
    binding: str
    columns: tuple[str, ...]

    def explain(self) -> str:
        return f"ScanRecRelation {self.view} AS {self.binding}"


@dataclass
class JoinNode:
    """N-ary join of the FROM list with classified conjuncts.

    ``equi_conjuncts`` are ``col = col`` pairs between two bindings;
    ``residual`` holds everything else (theta predicates, constants that
    survived folding).  The physical planner orders this join.
    """

    inputs: list[ScanNode | RecursiveScanNode]
    equi_conjuncts: list[tuple[ast.ColumnRef, ast.ColumnRef]] = field(default_factory=list)
    residual: list[ast.Expr] = field(default_factory=list)

    def explain(self) -> str:
        conds = [f"{l.to_sql()}={r.to_sql()}" for l, r in self.equi_conjuncts]
        conds += [e.to_sql() for e in self.residual]
        header = f"Join [{', '.join(conds)}]" if conds else "Join [cross]"
        lines = [header]
        for node in self.inputs:
            for i, line in enumerate(node.explain().splitlines()):
                prefix = "├─ " if i == 0 else "│  "
                lines.append(prefix + line)
        return "\n".join(lines)


@dataclass
class RulePlan:
    """One union branch of a view: project over join over scans.

    ``projections`` are the head-column expressions in head order;
    ``layout`` is the flattened row shape of ``join.inputs`` the
    expressions were resolved against.  ``constant_rows`` is set instead
    when the branch has no FROM list (``SELECT 1, 0``).
    """

    view: str
    join: JoinNode | None
    projections: tuple[ast.Expr, ...]
    layout: Layout | None
    constant_rows: tuple[tuple, ...] = ()

    @property
    def is_recursive(self) -> bool:
        return self.join is not None and any(
            isinstance(node, RecursiveScanNode) for node in self.join.inputs)

    def recursive_inputs(self) -> list[int]:
        """Positions of recursive scans within the join inputs."""
        if self.join is None:
            return []
        return [i for i, node in enumerate(self.join.inputs)
                if isinstance(node, RecursiveScanNode)]

    def explain(self) -> str:
        exprs = ", ".join(e.to_sql() for e in self.projections)
        lines = [f"Project [{exprs}]"]
        if self.join is not None:
            for i, line in enumerate(self.join.explain().splitlines()):
                prefix = "└─ " if i == 0 else "   "
                lines.append(prefix + line)
        else:
            lines.append(f"└─ Values {list(self.constant_rows)}")
        return "\n".join(lines)


@dataclass
class ViewPlan:
    """One recursive view of a clique: head schema plus its rules."""

    name: str
    columns: tuple[str, ...]
    #: Aggregate per head column, ``None`` for group-key columns.
    aggregates: tuple[AggregateFunction | None, ...]
    base_rules: list[RulePlan]
    recursive_rules: list[RulePlan]

    @property
    def has_aggregates(self) -> bool:
        return any(a is not None for a in self.aggregates)

    @property
    def group_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.aggregates) if a is None)

    @property
    def aggregate_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.aggregates) if a is not None)

    def explain(self) -> str:
        aggs = ", ".join(
            f"{agg.name}({col})" if agg else col
            for col, agg in zip(self.columns, self.aggregates))
        lines = [f"RecursiveRelation {self.name} [{aggs}]"]
        for label, rules in (("Base", self.base_rules),
                             ("Recursive", self.recursive_rules)):
            for rule in rules:
                lines.append(f"├─ {label}:")
                for line in rule.explain().splitlines():
                    lines.append("│    " + line)
        return "\n".join(lines)


@dataclass
class CliquePlan:
    """A recursive clique: the unit the fixpoint operator evaluates.

    Mutual recursion (Party Attendance, Company Control) yields a clique
    with several views; the common case is a singleton.  ``planned`` is
    ``(config, PlannedClique)`` of the clique's last run, reused by the
    next run under the same config.
    """

    views: list[ViewPlan]
    planned: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def view_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.views)

    def view(self, name: str) -> ViewPlan:
        for view in self.views:
            if view.name.lower() == name.lower():
                return view
        raise KeyError(name)

    def explain(self) -> str:
        lines = [f"RecursiveClique {', '.join(self.view_names)}"]
        for view in self.views:
            for line in view.explain().splitlines():
                lines.append("  " + line)
        return "\n".join(lines)


@dataclass
class DerivedViewPlan:
    """A non-recursive WITH view or CREATE VIEW, evaluated once.

    ``branches`` are unioned with duplicate elimination (SQL UNION).
    """

    name: str
    columns: tuple[str, ...]
    branches: tuple[ast.SelectQuery, ...]

    def explain(self) -> str:
        return f"View {self.name}({', '.join(self.columns)})"


@dataclass
class AnalyzedScript:
    """Everything the executor needs, in evaluation order.

    ``units`` interleaves :class:`DerivedViewPlan` and :class:`CliquePlan`
    in dependency order; ``final`` is the outer SELECT, which may reference
    any of them.
    """

    units: list[DerivedViewPlan | CliquePlan]
    final: ast.SelectQuery

    def cliques(self) -> list[CliquePlan]:
        return [u for u in self.units if isinstance(u, CliquePlan)]

    def explain(self) -> str:
        lines = []
        for unit in self.units:
            lines.append(unit.explain())
        lines.append(f"Final: {self.final.to_sql()}")
        return "\n".join(lines)
