"""Expression resolution and compilation.

During analysis every rule gets a :class:`Layout`: the flattened row shape
produced by joining its FROM list in order.  Expressions compile against a
layout into plain Python closures over that flat tuple — the *interpreted*
evaluation mode.  (The generated-code mode lives in
:mod:`repro.core.codegen`; both must agree, which a property test checks.)

SQL comparison semantics with NULLs are simplified to Python semantics:
the dialect's workloads never produce NULLs (the analyzer has no outer
joins), so three-valued logic is out of scope and documented as such.
"""

from __future__ import annotations

import copy
import operator
from typing import Callable

from repro.core import ast_nodes as ast
from repro.errors import AnalysisError


class Layout:
    """Slot assignment for the flattened join row of one rule.

    ``bindings`` is the FROM list in order: ``(binding_name, columns)``.
    A column reference resolves to a slot index; unqualified names must be
    unambiguous across bindings.  A grouped layout
    (:meth:`with_aggregates`) also gives each aggregate call a slot.
    """

    def __init__(self, bindings: list[tuple[str, tuple[str, ...]]]):
        self.bindings = bindings
        self.slots: dict[tuple[str, str], int] = {}
        self.by_column: dict[str, list[int]] = {}
        self.offsets: dict[str, int] = {}
        index = 0
        for binding, columns in bindings:
            binding_key = binding.lower()
            if binding_key in self.offsets:
                raise AnalysisError(f"duplicate FROM binding {binding!r}")
            self.offsets[binding_key] = index
            for column in columns:
                key = (binding_key, column.lower())
                self.slots[key] = index
                self.by_column.setdefault(column.lower(), []).append(index)
                index += 1
        self.arity = index
        self.aggregates: dict[ast.FunctionCall, int] = {}

    def with_aggregates(self, calls: list[ast.FunctionCall]) -> "Layout":
        """This layout over rows extended by one value per aggregate call
        (a group's representative row + its aggregate values)."""
        grouped = copy.copy(self)
        grouped.aggregates = {call: self.arity + i
                              for i, call in enumerate(calls)}
        return grouped

    def slot_of(self, ref: ast.ColumnRef) -> int:
        """Resolve a column reference to its slot, with SQL error messages."""
        if ref.table is not None:
            binding_key = ref.table.lower()
            if binding_key not in self.offsets:
                raise AnalysisError(f"unknown table or alias {ref.table!r} "
                                    f"in reference {ref.to_sql()!r}")
            slot = self.slots.get((binding_key, ref.name.lower()))
            if slot is None:
                raise AnalysisError(f"unknown column {ref.to_sql()!r}")
            return slot
        candidates = self.by_column.get(ref.name.lower(), [])
        if not candidates:
            raise AnalysisError(f"unknown column {ref.name!r}")
        if len(candidates) > 1:
            raise AnalysisError(f"ambiguous column {ref.name!r} "
                                f"(matches {len(candidates)} bindings)")
        return candidates[0]

    def binding_of_slot(self, slot: int) -> str:
        """Which FROM binding a slot belongs to (used by the planner)."""
        owner = None
        for binding, columns in self.bindings:
            start = self.offsets[binding.lower()]
            if start <= slot < start + len(columns):
                owner = binding
        if owner is None:
            raise AnalysisError(f"slot {slot} out of range")
        return owner


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_COMPARISON = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_expr(expr: ast.Expr, layout: Layout) -> Callable[[tuple], object]:
    """Compile an expression into a ``row -> value`` closure.

    An aggregate call reads its slot of a grouped layout
    (:meth:`Layout.with_aggregates`); anywhere else it is rejected.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ast.ColumnRef):
        slot = layout.slot_of(expr)
        return lambda row: row[slot]

    if isinstance(expr, ast.BinaryOp):
        op = expr.op.upper()
        if op == "AND":
            left = compile_expr(expr.left, layout)
            right = compile_expr(expr.right, layout)
            return lambda row: bool(left(row)) and bool(right(row))
        if op == "OR":
            left = compile_expr(expr.left, layout)
            right = compile_expr(expr.right, layout)
            return lambda row: bool(left(row)) or bool(right(row))
        fn = _ARITHMETIC.get(expr.op) or _COMPARISON.get(expr.op)
        if fn is None:
            raise AnalysisError(f"unsupported operator {expr.op!r}")
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)
        return lambda row: fn(left(row), right(row))

    if isinstance(expr, ast.UnaryOp):
        inner = compile_expr(expr.operand, layout)
        if expr.op.upper() == "NOT":
            return lambda row: not inner(row)
        if expr.op == "-":
            return lambda row: -inner(row)
        raise AnalysisError(f"unsupported unary operator {expr.op!r}")

    if isinstance(expr, ast.Case):
        compiled = [(compile_expr(c, layout), compile_expr(v, layout))
                    for c, v in expr.whens]
        default = (compile_expr(expr.default, layout)
                   if expr.default is not None else None)

        def evaluate_case(row):
            for condition, value in compiled:
                if condition(row):
                    return value(row)
            return default(row) if default is not None else None

        return evaluate_case

    if isinstance(expr, ast.FunctionCall):
        slot = layout.aggregates.get(expr)
        if slot is None:
            raise AnalysisError(
                f"aggregate {expr.name!r} is not allowed in this position")
        return lambda row: row[slot]

    if isinstance(expr, ast.Star):
        raise AnalysisError("'*' is only allowed inside count(*)")

    raise AnalysisError(f"cannot compile expression {expr!r}")


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op.upper() == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    """Rebuild a predicate from conjuncts (inverse of split_conjuncts)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = ast.BinaryOp("AND", result, conjunct)
    return result


def referenced_bindings(expr: ast.Expr, layout: Layout) -> set[str]:
    """The lowercase FROM-binding names an expression touches.

    Unqualified references are resolved through the layout first.
    """
    names: set[str] = set()
    for node in expr.walk():
        if isinstance(node, ast.ColumnRef):
            if node.table is not None:
                names.add(node.table.lower())
            else:
                slot = layout.slot_of(node)
                names.add(layout.binding_of_slot(slot).lower())
    return names


def is_equi_conjunct(expr: ast.Expr) -> tuple[ast.ColumnRef, ast.ColumnRef] | None:
    """If *expr* is ``col = col`` between two columns, return the pair."""
    if (isinstance(expr, ast.BinaryOp) and expr.op == "="
            and isinstance(expr.left, ast.ColumnRef)
            and isinstance(expr.right, ast.ColumnRef)):
        return expr.left, expr.right
    return None


def fold_constants(expr: ast.Expr) -> ast.Expr:
    """Evaluate constant sub-expressions at compile time.

    One of the optimizer's batch rules (Section 5, "constant evaluation").
    """
    if isinstance(expr, ast.BinaryOp):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if isinstance(left, ast.Literal) and isinstance(right, ast.Literal):
            op = expr.op.upper()
            if op == "AND":
                return ast.Literal(bool(left.value) and bool(right.value))
            if op == "OR":
                return ast.Literal(bool(left.value) or bool(right.value))
            fn = _ARITHMETIC.get(expr.op) or _COMPARISON.get(expr.op)
            if fn is not None and left.value is not None and right.value is not None:
                try:
                    return ast.Literal(fn(left.value, right.value))
                except (ZeroDivisionError, TypeError):
                    pass  # leave for runtime, which will raise properly
        return ast.BinaryOp(expr.op, left, right)
    if isinstance(expr, ast.UnaryOp):
        inner = fold_constants(expr.operand)
        if isinstance(inner, ast.Literal) and inner.value is not None:
            if expr.op.upper() == "NOT":
                return ast.Literal(not inner.value)
            if expr.op == "-":
                return ast.Literal(-inner.value)
        return ast.UnaryOp(expr.op, inner)
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(expr.name,
                                tuple(fold_constants(a) for a in expr.args),
                                expr.distinct)
    if isinstance(expr, ast.Case):
        return ast.Case(
            tuple((fold_constants(c), fold_constants(v))
                  for c, v in expr.whens),
            fold_constants(expr.default) if expr.default is not None else None)
    return expr
