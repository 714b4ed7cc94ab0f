"""Abstract syntax tree of the RaSQL dialect (Section 2).

The dialect is SQL:99's recursive CTE plus one extension: a view column may
be declared as ``min() AS Name`` / ``max()`` / ``sum()`` / ``count()``,
turning the column into an aggregate evaluated *inside* the recursion with
the implicit group-by rule (all non-aggregate head columns group).

Every node knows how to render itself back to SQL (``to_sql``), which the
parser round-trip property tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    def to_sql(self) -> str:
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self):
        """Yield this node and all descendants, pre-order, off a stack:
        an ``IN`` list is a deep ``OR`` chain."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += node.children()[::-1]


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, boolean or NULL."""

    value: object

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly qualified column reference, e.g. ``edge.Dst`` or ``Days``."""

    name: str
    table: str | None = None

    def to_sql(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` inside ``count(*)``."""

    def to_sql(self) -> str:
        return "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison or boolean connective."""

    op: str
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        # Down the left spine of an IN list or a long sum, not recursing.
        tail, node = [], self
        while isinstance(node, BinaryOp):
            tail.append(f" {node.op} {node.right.to_sql()})")
            node = node.left
        return "(" * len(tail) + node.to_sql() + "".join(reversed(tail))

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class UnaryOp(Expr):
    """``NOT expr`` or ``-expr``."""

    op: str
    operand: Expr

    def to_sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        return f"({self.op}{self.operand.to_sql()})"

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class FunctionCall(Expr):
    """An aggregate call in an ordinary (non-recursive-head) position.

    ``count(distinct cc.CmpId)`` sets ``distinct=True``.
    """

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    def to_sql(self) -> str:
        inner = ", ".join(a.to_sql() for a in self.args)
        if self.distinct:
            inner = f"distinct {inner}"
        return f"{self.name}({inner})"

    def children(self):
        return self.args


@dataclass(frozen=True)
class Case(Expr):
    """``CASE WHEN cond THEN value ... [ELSE value] END``.

    A missing ELSE yields NULL, as in SQL.
    """

    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr | None = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, value in self.whens:
            parts.append(f"WHEN {condition.to_sql()} THEN {value.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)

    def children(self):
        out = []
        for condition, value in self.whens:
            out.extend((condition, value))
        if self.default is not None:
            out.append(self.default)
        return tuple(out)


AGGREGATE_NAMES = frozenset({"min", "max", "sum", "count", "avg"})


def contains_aggregate(expr: Expr) -> bool:
    """True when any node in *expr* is an aggregate function call."""
    return any(isinstance(node, FunctionCall)
               and node.name.lower() in AGGREGATE_NAMES
               for node in expr.walk())


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One output column of a SELECT: expression plus optional alias."""

    expr: Expr
    alias: str | None = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expr.to_sql()} AS {self.alias}"
        return self.expr.to_sql()

    def output_name(self, position: int) -> str:
        """The column name this item exposes, defaulting positionally."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return f"_c{position}"


@dataclass(frozen=True)
class TableRef:
    """A FROM-list entry: table or view name plus optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this relation is referred to by within the query."""
        return self.alias or self.name

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.name} {self.alias}"
        return self.name


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: an output column name or 1-based position."""

    expr: Expr
    descending: bool = False

    def to_sql(self) -> str:
        suffix = " DESC" if self.descending else ""
        return self.expr.to_sql() + suffix


@dataclass(frozen=True)
class SelectQuery:
    """A single SELECT block (one branch of a union, or a final query).

    ``order_by``/``limit`` are final-stratum conveniences: legal on the
    outer SELECT (and in views evaluated by the local executor), rejected
    inside recursive view branches where row order has no meaning.
    """

    items: tuple[SelectItem, ...]
    from_tables: tuple[TableRef, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None

    def to_sql(self) -> str:
        parts = ["SELECT "]
        if self.distinct:
            parts.append("DISTINCT ")
        parts.append(", ".join(i.to_sql() for i in self.items))
        if self.from_tables:
            parts.append(" FROM " + ", ".join(t.to_sql() for t in self.from_tables))
        if self.where is not None:
            parts.append(" WHERE " + self.where.to_sql())
        if self.group_by:
            parts.append(" GROUP BY " + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append(" HAVING " + self.having.to_sql())
        if self.order_by:
            parts.append(" ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f" LIMIT {self.limit}")
        return "".join(parts)


# ---------------------------------------------------------------------------
# views and statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    """One declared column of a CTE view head.

    ``aggregate`` is ``None`` for a plain column, or one of
    ``min``/``max``/``sum``/``count`` for RaSQL's aggregate-in-recursion
    columns (``min() AS Cost``).
    """

    name: str
    aggregate: str | None = None

    def to_sql(self) -> str:
        if self.aggregate:
            return f"{self.aggregate}() AS {self.name}"
        return self.name


@dataclass(frozen=True)
class ViewDef:
    """One CTE view: head schema plus a union of SELECT branches."""

    name: str
    columns: tuple[ColumnSpec, ...]
    branches: tuple[SelectQuery, ...]
    recursive: bool = False

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def has_aggregates(self) -> bool:
        return any(c.aggregate for c in self.columns)

    def to_sql(self) -> str:
        head = ", ".join(c.to_sql() for c in self.columns)
        body = " UNION ".join(f"({b.to_sql()})" for b in self.branches)
        prefix = "recursive " if self.recursive else ""
        return f"{prefix}{self.name} ({head}) AS {body}"


@dataclass(frozen=True)
class WithQuery:
    """``WITH view, view, ... SELECT ...`` — the top-level RaSQL construct."""

    views: tuple[ViewDef, ...]
    final: SelectQuery

    def to_sql(self) -> str:
        views = ",\n".join(v.to_sql() for v in self.views)
        return f"WITH {views}\n{self.final.to_sql()}"


@dataclass(frozen=True)
class CreateView(Expr):
    """``CREATE VIEW name(cols) AS (query)`` — a non-recursive named view."""

    name: str
    columns: tuple[str, ...]
    query: SelectQuery

    def to_sql(self) -> str:
        cols = f"({', '.join(self.columns)})" if self.columns else ""
        return f"CREATE VIEW {self.name}{cols} AS ({self.query.to_sql()})"


Statement = Union[CreateView, WithQuery, SelectQuery]


@dataclass(frozen=True)
class Script:
    """A sequence of statements; the last one produces the result."""

    statements: tuple[Statement, ...]

    def to_sql(self) -> str:
        return ";\n".join(s.to_sql() for s in self.statements)
