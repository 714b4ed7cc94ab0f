"""Unit + property tests for expression resolution and compilation,
including CASE WHEN and interpreted-vs-generated agreement.

Generated terms, interpreted terms and constant folding all evaluate SQL
through ``expressions.expr_source``; the properties at the end draw
scalar expression trees and check that a recursive query projecting one
returns the same rows with codegen on and off, and that folding a closed
tree equals evaluating it or leaves it for run time.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, RaSQLContext
from repro.compile.differential import diff_query
from repro.core import ast_nodes as ast
from repro.core.codegen import _is_hoistable
from repro.core.expressions import (
    Layout,
    compile_expr,
    conjoin,
    expr_source,
    fold_constants,
    split_conjuncts,
)
from repro.core.parser import Parser, parse_query
from repro.errors import AnalysisError


def expr_of(text: str) -> ast.Expr:
    return Parser(text).parse_expr()


LAYOUT = Layout([("t", ("A", "B")), ("u", ("C",))])


class TestLayout:
    def test_qualified_resolution(self):
        assert LAYOUT.slot_of(ast.ColumnRef("B", "t")) == 1
        assert LAYOUT.slot_of(ast.ColumnRef("C", "u")) == 2

    def test_unqualified_unique(self):
        assert LAYOUT.slot_of(ast.ColumnRef("C")) == 2

    def test_duplicate_binding_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            Layout([("t", ("A",)), ("T", ("B",))])

    def test_binding_of_slot(self):
        assert LAYOUT.binding_of_slot(0) == "t"
        assert LAYOUT.binding_of_slot(2) == "u"
        with pytest.raises(AnalysisError):
            LAYOUT.binding_of_slot(9)


class TestCompile:
    def test_arithmetic(self):
        fn = compile_expr(expr_of("t.A + u.C * 2"), LAYOUT)
        assert fn((1, 0, 10)) == 21

    def test_boolean_short_circuit(self):
        fn = compile_expr(expr_of("t.A > 0 OR u.C / t.A > 1"), LAYOUT)
        # Division by zero on the right is never reached when left is true.
        assert fn((1, 0, 5)) is True

    def test_case_when(self):
        fn = compile_expr(expr_of(
            "CASE WHEN t.A > 10 THEN 'big' WHEN t.A > 5 THEN 'mid' "
            "ELSE 'small' END"), LAYOUT)
        assert fn((20, 0, 0)) == "big"
        assert fn((7, 0, 0)) == "mid"
        assert fn((1, 0, 0)) == "small"

    def test_case_without_else_yields_none(self):
        fn = compile_expr(expr_of("CASE WHEN t.A > 0 THEN 1 END"), LAYOUT)
        assert fn((0, 0, 0)) is None

    def test_aggregate_rejected(self):
        with pytest.raises(AnalysisError, match="not allowed"):
            compile_expr(expr_of("max(t.A)"), LAYOUT)


class TestFolding:
    def test_arithmetic_folds(self):
        folded = fold_constants(expr_of("1 + 2 * 3"))
        assert folded == ast.Literal(7)

    def test_boolean_folds(self):
        assert fold_constants(expr_of("1 = 1 AND 2 > 3")) == ast.Literal(False)

    def test_division_by_zero_left_for_runtime(self):
        folded = fold_constants(expr_of("1 / 0"))
        assert isinstance(folded, ast.BinaryOp)

    def test_case_arms_folded(self):
        folded = fold_constants(expr_of(
            "CASE WHEN t.A > 1 + 1 THEN 2 * 3 END"))
        assert folded.whens[0][1] == ast.Literal(6)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_folding_preserves_value(self, a, b):
        expr = expr_of(f"({a} + {b}) * 2 - {a}")
        folded = fold_constants(expr)
        assert isinstance(folded, ast.Literal)
        assert folded.value == (a + b) * 2 - a


class TestConjuncts:
    def test_split_and_rejoin(self):
        expr = expr_of("t.A = 1 AND t.B = 2 AND u.C = 3")
        parts = split_conjuncts(expr)
        assert len(parts) == 3
        rebuilt = conjoin(parts)
        fn = compile_expr(rebuilt, LAYOUT)
        assert fn((1, 2, 3)) is True
        assert fn((1, 2, 4)) is False

    def test_empty(self):
        assert split_conjuncts(None) == []
        assert conjoin([]) is None


class TestCaseEndToEnd:
    def test_case_in_final_select(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst", "Cost"],
                           [(1, 2, 1.0), (2, 3, 8.0)])
        result = ctx.sql("""
            SELECT Dst, CASE WHEN Cost > 5 THEN 'slow' ELSE 'fast' END
            FROM edge ORDER BY Dst
        """)
        assert result.rows == [(2, "fast"), (3, "slow")]

    def test_case_inside_recursion_with_codegen(self):
        # Road tolls: crossing into the 100s zone doubles the cost.
        query = """
        WITH recursive path(Dst, min() AS Cost) AS
          (SELECT 1, 0) UNION
          (SELECT edge.Dst,
                  path.Cost + CASE WHEN edge.Dst >= 100
                              THEN edge.Cost * 2 ELSE edge.Cost END
           FROM path, edge WHERE path.Dst = edge.Src)
        SELECT Dst, Cost FROM path
        """
        edges = [(1, 2, 1.0), (2, 100, 3.0), (100, 101, 5.0)]
        results = {}
        from repro import ExecutionConfig

        for codegen in (True, False):
            ctx = RaSQLContext(num_workers=2,
                               config=ExecutionConfig(codegen=codegen))
            ctx.register_table("edge", ["Src", "Dst", "Cost"], edges)
            results[codegen] = sorted(ctx.sql(query).rows)
        assert results[True] == results[False]
        assert results[True] == [(1, 0), (2, 1.0), (100, 7.0), (101, 17.0)]

    def test_case_round_trips(self):
        sql = ("SELECT CASE WHEN Src > 1 THEN 'a' ELSE 'b' END FROM edge")
        query = parse_query(sql)
        from repro.core.parser import parse

        assert parse(query.to_sql()).statements[0] == query


# ----------------------------------------------------------------------
# one emitter: generated ≡ interpreted ≡ folded
# ----------------------------------------------------------------------

EDGES = [(1, 2), (2, 3), (3, 0)]

#: Sixteen factors of 1e20: the product overflows a float to ``inf``.
OVERFLOW = " * ".join(["99999999999999999999.0"] * 16)


def recursive_head(head_sql: str) -> str:
    """A one-rule recursive query whose second head column is *head_sql*."""
    return ("WITH recursive r(A, B) AS (SELECT Src, Dst FROM edge) UNION "
            f"(SELECT r.A, {head_sql} FROM r, edge WHERE r.B = edge.Src) "
            "SELECT A, B FROM r")


#: Acyclic, with a delta row (A = 0) that joins no edge.
DAG = [(1, 2), (2, 3), (3, 0), (1, 3)]


def projecting(head_sql: str, base: str = "Src, Dst") -> str:
    """A one-rule recursive query over :data:`DAG` deriving
    ``(edge.Dst, head_sql)`` from base rows ``SELECT <base> FROM edge``:
    ``r.A`` ranges over edge endpoints and the graph is acyclic, so the
    recursion ends whatever the head computes."""
    return (f"WITH recursive r(A, B) AS (SELECT {base} FROM edge) UNION "
            f"(SELECT edge.Dst, {head_sql} FROM r, edge "
            "WHERE r.A = edge.Src) SELECT A, B FROM r")


#: Base rows whose ``B`` is NULL or a string where ``A = 0``: a delta row
#: that joins no edge.
NON_NUMERIC_BASES = ["Dst, CASE WHEN Dst = 0 THEN 'x' ELSE Src END",
                     "Dst, CASE WHEN Dst = 0 THEN NULL ELSE Src END"]


def edge_context(codegen: bool, edges=EDGES) -> RaSQLContext:
    ctx = RaSQLContext(num_workers=2, config=ExecutionConfig(codegen=codegen))
    ctx.register_table("edge", ["Src", "Dst"], edges)
    return ctx


def outcome(ctx: RaSQLContext, sql: str):
    """Rows as sorted reprs (``nan``, ``-0.0`` and ``True`` stay apart),
    or the exception type a run raised."""
    try:
        return sorted(map(repr, ctx.sql(sql).rows))
    except Exception as exc:
        return type(exc).__name__


class TestOneEmitter:
    def test_and_in_a_head_is_a_sql_boolean_on_both_paths(self):
        sql = recursive_head("edge.Dst AND edge.Src")
        want = ["(1, 2)", "(1, True)", "(2, 3)", "(2, False)", "(3, 0)"]
        assert outcome(edge_context(True), sql) == want
        assert outcome(edge_context(False), sql) == want
        for codegen in (True, False):
            report = diff_query(edge_context(codegen), sql)
            assert report.equal, report

    def test_folded_nan_literal_renders_in_generated_code(self):
        head = f"edge.Dst + 0 * ({OVERFLOW})"
        folded = fold_constants(Parser(f"0 * ({OVERFLOW})").parse_expr())
        assert repr(folded) == "Literal(value=nan)"
        sql = recursive_head(head)
        want = ["(1, 2)", "(1, nan)", "(2, 3)", "(2, nan)", "(3, 0)"]
        assert outcome(edge_context(True), sql) == want
        assert outcome(edge_context(False), sql) == want

    @pytest.mark.parametrize("head, zero", [("0 / r.A", "0.0"),
                                            ("0 + CASE WHEN r.A THEN 0 END",
                                             "0")])
    def test_a_part_that_may_raise_is_not_hoisted_above_the_join(self, head,
                                                                 zero):
        # The delta row with A = 0 joins nothing: the interpreted term
        # never evaluates its head, so the generated one must not either.
        want = [f"(0, {zero})", "(1, 2)", "(1, 3)", f"(2, {zero})", "(2, 3)",
                "(3, 0)"]
        assert outcome(edge_context(True, DAG), projecting(head)) == want
        assert outcome(edge_context(False, DAG), projecting(head)) == want

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), -0.0, 1.0, True, 0,
                                       None, "it's"])
    def test_a_literal_is_one_object_for_every_row(self, value):
        literal = ast.Literal(value)
        fn = compile_expr(literal, LAYOUT)
        assert fn((1, 2, 3)) is fn((4, 5, 6))
        assert repr(fn(())) == repr(value)


    @pytest.mark.xfail(strict=True, raises=TypeError, reason=(
        "a hoisted delta-only part runs for a delta row that joins "
        "nothing; see codegen._is_hoistable"))
    @pytest.mark.parametrize("base", NON_NUMERIC_BASES)
    def test_a_hoisted_part_over_a_non_numeric_column(self, base):
        sql = projecting("r.B + 1", base)
        want = outcome(edge_context(False, DAG), sql)
        assert want != "TypeError"
        edge_context(True, DAG).sql(sql)


#: 150 candidates: an IN list the parser turns into a 150-deep OR tree.
IN_150 = "IN (" + ", ".join(str(v) for v in range(-75, 75)) + ")"


class TestDeepChains:
    """A chain renders flat, so its length is not its bracket depth:
    CPython compiles at most 200 nested brackets."""

    @pytest.mark.parametrize("sql", [
        recursive_head("edge.Dst") + f" WHERE B {IN_150}",
        recursive_head("edge.Dst").replace(
            "WHERE r.B = edge.Src", f"WHERE r.B = edge.Src AND "
                                    f"r.A + edge.Dst {IN_150}"),
        recursive_head(" + ".join(["edge.Dst"] * 250)),
        recursive_head(" * ".join(["edge.Dst"] * 250)),
        recursive_head("CASE " + " ".join(
            f"WHEN edge.Dst = {v} THEN {v}" for v in range(250))
            + " ELSE -1 END"),
        recursive_head(" AND ".join(["edge.Dst > -1"] * 250)),
        recursive_head("- " * 250 + "edge.Dst") + " WHERE "
        + "NOT " * 251 + "(B < 0)",
    ], ids=["final-select-in", "recursive-filter-in", "plus-chain",
            "times-chain", "case-whens", "and-chain", "unary-runs"])
    def test_long_chains_run_on_both_paths(self, sql):
        rows = outcome(edge_context(False), sql)
        assert isinstance(rows, list) and rows
        ctx = edge_context(True)
        assert outcome(ctx, sql) == rows
        assert "fused (1 of 1 terms)" in ctx.last_run.explain_analyze()

    def test_chains_render_flat_and_keep_their_grouping(self):
        def source(text):
            return expr_source(expr_of(text), LAYOUT, "row[{}]".format)

        assert source("A + B - C + 1") == "(row[0] + row[1] - row[2] + 1)"
        assert source("A - (B - C)") == "(row[0] - (row[1] - row[2]))"
        assert source("A * B + C / 2") == "((row[0] * row[1]) + (row[2] / 2))"
        assert source("A < B OR (B < C OR C < A)") == (
            "(bool((row[0] < row[1])) or bool((row[1] < row[2])) "
            "or bool((row[2] < row[0])))")
        assert source("A AND B OR C") == (
            "(bool((bool(row[0]) and bool(row[1]))) or bool(row[2]))")
        assert source("CASE WHEN A THEN 1 WHEN B THEN 2 END") == (
            "(1 if row[0] else 2 if row[1] else None)")
        assert source("NOT NOT A") == "(not not row[0])"
        assert source("- - A") == "(--row[0])"
        assert source("NOT -A") == "(not (-row[0]))"

    @pytest.mark.parametrize("codegen", [True, False])
    def test_a_1000_value_in_list_filters_a_recursive_rule(self, codegen):
        """A 1,000-value IN list is a 1,000-deep OR chain: walking,
        folding and rendering it recurse nowhere, so the rule answers
        like the same filter applied before the recursion."""
        in_list = "IN (" + ", ".join(
            map(str, [2, 3, *range(1000, 1998)])) + ")"
        ctx = edge_context(codegen)
        rule = recursive_head("edge.Dst").replace(
            "WHERE r.B = edge.Src",
            f"WHERE r.B = edge.Src AND edge.Dst {in_list}")
        kept = ctx.sql(f"SELECT Src, Dst FROM edge WHERE Dst {in_list}")
        ctx.register_table("kept", ["Src", "Dst"], kept.rows)
        outside = ("WITH recursive r(A, B) AS (SELECT Src, Dst FROM edge) "
                   "UNION (SELECT r.A, kept.Dst FROM r, kept "
                   "WHERE r.B = kept.Src) SELECT A, B FROM r")
        want = outcome(ctx, outside)
        assert want == ["(1, 2)", "(1, 3)", "(2, 3)", "(3, 0)"]
        assert outcome(ctx, rule) == want

    def test_nesting_past_the_limit_is_an_analysis_error(self):
        deep = ast.Literal(1)
        for _ in range(300):
            deep = ast.BinaryOp("-", ast.ColumnRef("A", "t"), deep)
        with pytest.raises(AnalysisError, match="too deeply"):
            compile_expr(deep, LAYOUT)

    def test_folding_a_deep_closed_tree_folds_what_compiles(self):
        deep = ast.Literal(1)
        for _ in range(300):
            deep = ast.BinaryOp("-", ast.Literal(1), deep)
        folded = fold_constants(deep)
        # 1 - (1 - (… - 1)) with 300 subtractions.
        assert compile_expr(folded, LAYOUT)(()) == 1


LITERALS = st.sampled_from([
    ast.Literal(0), ast.Literal(-0.0), ast.Literal(1.0), ast.Literal(True),
    ast.Literal(None), ast.Literal("a"), ast.Literal(""),
    Parser(f"({OVERFLOW})").parse_expr(),          # folds to inf
    Parser(f"(0 * ({OVERFLOW}))").parse_expr(),    # folds to nan
])
COLUMNS = st.sampled_from([ast.ColumnRef("Src", "edge"),
                           ast.ColumnRef("Dst", "edge"),
                           ast.ColumnRef("A", "r"),
                           ast.ColumnRef("B", "r")])
BASES = st.sampled_from(["Src, Dst"] + NON_NUMERIC_BASES)

#: The term layout of :func:`projecting`: the delta row ``r`` first.
TERM_LAYOUT = Layout([("r", ("A", "B")), ("edge", ("Src", "Dst"))])
OPERATORS = ["+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=",
             "AND", "OR"]


def trees(leaves):
    def extend(children):
        return st.one_of(
            st.builds(ast.BinaryOp, st.sampled_from(OPERATORS), children,
                      children),
            st.builds(ast.UnaryOp, st.sampled_from(["NOT", "-"]), children),
            st.builds(ast.Case,
                      st.lists(st.tuples(children, children), min_size=1,
                               max_size=2).map(tuple),
                      st.none() | children))
    return st.recursive(leaves, extend, max_leaves=6)


class TestExpressionProperties:
    """The expression-level start of cross-engine query generation."""

    @given(trees(LITERALS | COLUMNS), BASES)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_equals_interpreted(self, tree, base):
        sql = projecting(tree.to_sql(), base)
        generated = outcome(edge_context(True, DAG), sql)
        interpreted = outcome(edge_context(False, DAG), sql)
        if (generated == "TypeError" and interpreted != "TypeError"
                and _is_hoistable(tree, TERM_LAYOUT, 0, 2)):
            return  # the one divergence _is_hoistable documents
        assert generated == interpreted, (tree.to_sql(), base)

    @given(trees(LITERALS))
    @settings(max_examples=200, deadline=None)
    def test_folding_equals_evaluating_or_leaves_the_tree(self, tree):
        folded = fold_constants(tree)
        try:
            value = compile_expr(tree, LAYOUT)(())
        except Exception as exc:
            assert not isinstance(folded, ast.Literal)
            with pytest.raises(type(exc)):
                compile_expr(folded, LAYOUT)(())
            return
        assert isinstance(folded, ast.Literal)
        assert repr(folded.value) == repr(value)
