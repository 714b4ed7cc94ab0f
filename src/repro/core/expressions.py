"""Expression resolution and compilation.

During analysis every rule gets a :class:`Layout`: the flattened row shape
produced by joining its FROM list in order.  :func:`expr_source` is the one
place an expression becomes Python: generated terms
(:mod:`repro.core.codegen`) inline its source, :func:`compile_expr` wraps
it in a ``row -> value`` function over the layout's flat tuple (the
*interpreted* mode), and :func:`fold_constants` runs it on closed subtrees.

SQL comparison semantics with NULLs are simplified to Python semantics:
the dialect's workloads never produce NULLs (the analyzer has no outer
joins), so three-valued logic is out of scope and documented as such.
"""

from __future__ import annotations

import copy
import math
from functools import lru_cache
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


#: SQL binary operator -> Python operator, for all but AND / OR.
_OPERATORS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">",
              ">=": ">=", "+": "+", "-": "-", "*": "*", "/": "/"}

#: Arithmetic operators by Python precedence level.  Both levels associate
#: left, as SQL's do, so a left-deep chain within one level renders flat.
_LEVELS = {"+": 0, "-": 0, "*": 1, "/": 1}


def expr_source(expr: ast.Expr, layout: Layout,
                ref: Callable[[int], str]) -> str:
    """The Python source of an expression — the one definition of how SQL
    evaluates, shared by generated terms (:mod:`repro.core.codegen`),
    :func:`compile_expr` and :func:`fold_constants`.

    ``ref(slot)`` is the source reading one layout slot.  AND / OR yield
    SQL booleans, never an operand; a missing ELSE yields ``None``; an
    aggregate call reads its slot of a grouped layout
    (:meth:`Layout.with_aggregates`) and is rejected anywhere else.  A
    literal renders as a constant the compiler keeps as one object, so
    every row shares it (``inf`` and ``nan`` as constant-folded
    arithmetic: the source stays self-contained).

    Chains render flat — an AND / OR chain, a left-deep ``+`` / ``-`` or
    ``*`` / ``/`` chain, a run of one unary operator, a CASE's WHENs —
    so the source nests no deeper for a longer chain: the parser turns
    ``x IN (v1, …, vN)`` into an N-deep OR tree, and Python compiles at
    most 200 nested brackets.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, float) and not math.isfinite(value):
            if math.isnan(value):
                return "(1e999 - 1e999)"
            return "1e999" if value > 0 else "(-1e999)"
        return repr(value)
    if isinstance(expr, ast.ColumnRef):
        return ref(layout.slot_of(expr))
    if isinstance(expr, ast.BinaryOp):
        op = expr.op.upper()
        if op in ("AND", "OR"):
            # Associative, so every operand of a same-operator chain,
            # however it nests, joins one flat expression, in order.
            operands, pending = [], [expr]
            while pending:
                node = pending.pop()
                if isinstance(node, ast.BinaryOp) and node.op.upper() == op:
                    pending += (node.right, node.left)
                else:
                    operands.append(
                        f"bool({expr_source(node, layout, ref)})")
            return "(" + f" {op.lower()} ".join(operands) + ")"
        if expr.op not in _OPERATORS:
            raise AnalysisError(f"unsupported operator {expr.op!r}")
        level = _LEVELS.get(expr.op)
        tail, node = [], expr
        while True:
            tail.append(f" {_OPERATORS[node.op]} "
                        f"{expr_source(node.right, layout, ref)}")
            node = node.left
            if (level is None or not isinstance(node, ast.BinaryOp)
                    or _LEVELS.get(node.op) != level):
                break
        return ("(" + expr_source(node, layout, ref)
                + "".join(reversed(tail)) + ")")
    if isinstance(expr, ast.UnaryOp):
        op = expr.op.upper()
        if op not in ("NOT", "-"):
            raise AnalysisError(f"unsupported unary operator {expr.op!r}")
        run, node = 0, expr
        while isinstance(node, ast.UnaryOp) and node.op.upper() == op:
            run, node = run + 1, node.operand
        prefix = "not " * run if op == "NOT" else "-" * run
        return f"({prefix}{expr_source(node, layout, ref)})"
    if isinstance(expr, ast.Case):
        # Python's conditional expression associates right: one flat
        # ``v1 if c1 else v2 if c2 else … else default``.
        default = ("None" if expr.default is None
                   else expr_source(expr.default, layout, ref))
        branches = [f"{expr_source(value, layout, ref)} "
                    f"if {expr_source(condition, layout, ref)} else "
                    for condition, value in expr.whens]
        return "(" + "".join(branches) + default + ")"
    if isinstance(expr, ast.FunctionCall):
        slot = layout.aggregates.get(expr)
        if slot is None:
            raise AnalysisError(
                f"aggregate {expr.name!r} is not allowed in this position")
        return ref(slot)
    if isinstance(expr, ast.Star):
        raise AnalysisError("'*' is only allowed inside count(*)")
    raise AnalysisError(f"cannot compile expression {expr!r}")


#: What ``compile()`` raises for source nested beyond CPython's limits
#: (brackets, its parser stack, its compiler's recursion).
TOO_DEEP = (SyntaxError, RecursionError, MemoryError)


def compile_expr(expr: ast.Expr, layout: Layout) -> Callable[[tuple], object]:
    """Compile an expression into a ``row -> value`` function over the
    layout's flat row: :func:`expr_source` with ``row[slot]`` reads."""
    try:
        return _row_function(expr_source(expr, layout, "row[{}]".format))
    except TOO_DEEP:
        raise AnalysisError("expression nests too deeply to compile") \
            from None


@lru_cache(maxsize=256)
def _row_function(source: str) -> Callable[[tuple], object]:
    """``lambda row: <source>``, kept per distinct text: ``compile()``
    costs several times the source's rendering, and every ``ctx.sql``
    call re-plans its statement and re-runs its final select."""
    return eval(compile(f"lambda row: {source}", "<rasql-expr>", "eval"), {})


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


#: Node kinds a closed (constant) expression is made of.
_CLOSED = (ast.Literal, ast.BinaryOp, ast.UnaryOp, ast.Case)

#: The layout of a closed expression: it reads no slot.
_NO_COLUMNS = Layout([])


def fold_constants(expr: ast.Expr) -> ast.Expr:
    """Evaluate constant sub-expressions at compile time.

    One of the optimizer's batch rules (Section 5, "constant evaluation").
    A closed subtree folds to the value its compiled source computes; one
    whose evaluation raises is left for run time, which raises properly.
    """
    if isinstance(expr, ast.Literal):
        return expr
    if all(isinstance(node, _CLOSED) for node in expr.walk()):
        try:
            return ast.Literal(compile_expr(expr, _NO_COLUMNS)(()))
        except (AnalysisError, ArithmeticError, TypeError, ValueError):
            pass  # folded below as far as it goes
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, fold_constants(expr.left),
                            fold_constants(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, fold_constants(expr.operand))
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
