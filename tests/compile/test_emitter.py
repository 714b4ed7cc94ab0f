"""Unit tests for the WITH RECURSIVE emitter.

Covers the transformation rules directly — twin forms, linearity
admissibility, name-collision handling, dialect quoting — plus exact
snapshots of the BigQuery emitter, which has no executing backend and is
string-tested only.
"""

import pytest

from repro import RaSQLContext
from repro.compile import (
    BIGQUERY,
    SQLiteBackend,
    compile_sql,
    diff_query,
    get_dialect,
)
from repro.compile.emitter import literal_sql
from repro.errors import InexpressibleQueryError
from repro.queries.library import get_query


def make_context(**tables):
    ctx = RaSQLContext(num_workers=2)
    defaults = {"edge": (("Src", "Dst"), [(0, 1), (1, 2)])}
    defaults.update(tables)
    for name, (columns, rows) in defaults.items():
        ctx.register_table(name, list(columns), rows)
    return ctx


def compile_text(ctx, sql, **kwargs):
    return compile_sql(ctx, sql, **kwargs).sql


class TestInexpressible:
    def test_mutual_recursion_raises_with_diagnostic(self):
        ctx = RaSQLContext(num_workers=2)
        for name, columns in get_query("company_control").tables.items():
            ctx.register_table(name, list(columns), [])
        with pytest.raises(InexpressibleQueryError) as exc_info:
            compile_sql(ctx, get_query("company_control").sql)
        assert exc_info.value.reason == "mutual-recursion"
        assert "cshares" in str(exc_info.value)

    def test_affine_sum_contribution_raises(self):
        # f.S + 1 is affine, not homogeneous-linear: the derivation-bag
        # twin would add the constant once per path, the engine once per
        # aggregated tuple.
        ctx = make_context()
        query = """
WITH recursive f(X, sum() AS S) AS
  (SELECT 0, 1) UNION
  (SELECT edge.Dst, f.S + 1 FROM f, edge WHERE f.X = edge.Src)
SELECT X, S FROM f
"""
        with pytest.raises(InexpressibleQueryError) as exc_info:
            compile_sql(ctx, query)
        assert exc_info.value.reason == "non-linear-accumulator"

    def test_constant_sum_contribution_raises(self):
        # A contribution that ignores the incoming aggregate fires per
        # aggregated tuple in the engine but per derivation row in the
        # twin — also inexpressible.
        ctx = make_context()
        query = """
WITH recursive f(X, sum() AS S) AS
  (SELECT 0, 1) UNION
  (SELECT edge.Dst, 1 FROM f, edge WHERE f.X = edge.Src)
SELECT X, S FROM f
"""
        with pytest.raises(InexpressibleQueryError) as exc_info:
            compile_sql(ctx, query)
        assert exc_info.value.reason == "non-linear-accumulator"

    def test_predicate_on_sum_column_raises(self):
        ctx = make_context()
        query = """
WITH recursive f(X, sum() AS S) AS
  (SELECT 0, 1) UNION
  (SELECT edge.Dst, f.S FROM f, edge
   WHERE f.X = edge.Src AND f.S < 100)
SELECT X, S FROM f
"""
        with pytest.raises(InexpressibleQueryError) as exc_info:
            compile_sql(ctx, query)
        assert exc_info.value.reason == "aggregate-in-predicate"

    def test_linear_forms_are_accepted(self):
        ctx = make_context()
        for contribution in ("f.S", "f.S * 2", "2 * f.S", "f.S / 2",
                             "-f.S", "(f.S * 3) / 2"):
            query = f"""
WITH recursive f(X, sum() AS S) AS
  (SELECT 0, 1) UNION
  (SELECT edge.Dst, {contribution} FROM f, edge WHERE f.X = edge.Src)
SELECT X, S FROM f
"""
            compiled = compile_sql(ctx, query)
            assert compiled.twins[0][2] == "bag"

    def test_min_twin_allows_predicates_on_aggregate_column(self):
        # interval_coalesce's shape: lattice aggregates delegate
        # admissibility to PreM, not to linearity.
        ctx = make_context(
            inter=(("S", "E"), [(1, 4), (2, 5)]))
        compiled = compile_sql(ctx, get_query("interval_coalesce").sql)
        assert compiled.twins[0][2] == "set"


class TestTwinEmission:
    def test_min_twin_uses_union_and_depth_guard(self):
        ctx = make_context(
            edge=(("Src", "Dst", "Cost"), [(0, 1, 2)]))
        compiled = compile_sql(ctx, get_query("sssp").formatted(source=0),
                               depth_bound=9)
        assert compiled.twins == (("path", "all_path", "set"),)
        assert compiled.depth_bound == 9
        assert " UNION ALL " not in compiled.sql
        assert "_depth < 9" in compiled.sql
        assert "min(Cost)" in compiled.sql

    def test_count_twin_uses_union_all_and_sum_fold(self):
        ctx = make_context(report=(("Emp", "Mgr"), [(2, 1)]))
        compiled = compile_sql(ctx, get_query("management").sql)
        assert compiled.twins == (("empCount", "all_empCount", "bag"),)
        assert " UNION ALL " in compiled.sql
        # count() folds as sum of per-branch-normalized contributions.
        assert "sum(Cnt)" in compiled.sql
        assert "TYPEOF" in compiled.sql  # the colref branch normalizes

    def test_provably_numeric_contribution_skips_normalization(self):
        ctx = make_context()
        query = """
WITH recursive f(X, count() AS C) AS
  (SELECT 0, 1) UNION
  (SELECT edge.Dst, f.C FROM f, edge WHERE f.X = edge.Src)
SELECT X, C FROM f
"""
        compiled = compile_sql(ctx, query)
        # Base contribution (literal 1) needs no CASE; only the
        # recursive colref branch gets one.
        assert compiled.sql.count("TYPEOF") == 1

    def test_twin_name_collision_bumps_suffix(self):
        # A *referenced* base table already named all_path must not be
        # shadowed by the twin CTE.
        ctx = make_context(
            all_path=(("Dst", "Cost"), [(0, 0)]),
            edge=(("Src", "Dst", "Cost"), [(0, 1, 2)]))
        query = """
WITH recursive path(Dst, min() AS Cost) AS
  (SELECT Dst, Cost FROM all_path) UNION
  (SELECT edge.Dst, path.Cost + edge.Cost
   FROM path, edge WHERE path.Dst = edge.Src)
SELECT Dst, Cost FROM path
"""
        compiled = compile_sql(ctx, query)
        assert compiled.twins == (("path", "all_path_1", "set"),)
        assert "all_path_1(Dst, Cost, _depth)" in compiled.sql

    def test_depth_column_collision_bumps_suffix(self):
        ctx = make_context()
        query = """
WITH recursive p(_depth, min() AS C) AS
  (SELECT 0, 0) UNION
  (SELECT edge.Dst, p.C + 1 FROM p, edge WHERE p._depth = edge.Src)
SELECT _depth, C FROM p
"""
        compiled = compile_sql(ctx, query)
        assert "_depth_1" in compiled.sql

    def test_non_aggregated_view_gets_no_twin(self):
        ctx = make_context()
        compiled = compile_sql(ctx, get_query("tc").sql)
        assert compiled.twins == ()
        assert compiled.depth_bound is None
        assert "_depth" not in compiled.sql


class TestRendering:
    def test_magic_filter_pushdown_is_compiled_faithfully(self):
        # The emitter lowers the OPTIMIZED plan: the final WHERE's
        # constant must appear inside the base rule of the CTE.
        ctx = make_context()
        query = get_query("tc").sql.replace(
            "SELECT Src, Dst FROM tc", "SELECT Src, Dst FROM tc "
                                       "WHERE Src = 0")
        with_magic = compile_text(ctx, query)
        without_magic = compile_text(
            ctx, query, config=ctx.config.but(magic_filters=False))
        assert with_magic != without_magic
        assert "Src = 0" in with_magic.split("SELECT Src, Dst FROM tc")[0]

    def test_reserved_word_columns_are_quoted_and_execute(self):
        ctx = make_context(
            shares=(("By", "Of", "Percent"), [("a", "b", 60),
                                              ("b", "c", 70)]))
        compiled = compile_sql(
            ctx, "SELECT By, Of FROM shares WHERE Percent > 65")
        assert '"By"' in compiled.sql
        backend = SQLiteBackend()
        backend.load(ctx.catalog)
        _, rows = backend.execute(compiled.sql)
        assert rows == [("b", "c")]
        backend.close()

    def test_final_duplicate_output_columns_get_suffixes(self):
        ctx = make_context()
        compiled = compile_sql(
            ctx, "SELECT a.Src, b.Src FROM edge a, edge b")
        assert compiled.columns == ("Src", "Src_1")

    def test_empty_aggregate_guard_is_emitted(self):
        ctx = make_context()
        compiled = compile_sql(ctx, get_query("cc").sql)
        assert "HAVING count(*) > 0" in compiled.sql

    def test_derived_view_branches_are_distinct_union(self):
        ctx = make_context(inter=(("S", "E"), [(1, 4)]))
        compiled = compile_sql(ctx, get_query("interval_coalesce").sql)
        assert "lstart(T)" in compiled.sql
        assert "SELECT DISTINCT" in compiled.sql

    def test_unknown_dialect_raises(self):
        with pytest.raises(KeyError, match="postgres"):
            get_dialect("postgres")


#: Sixteen factors of 1e20: constant folding turns the product into ``inf``.
OVERFLOW = "(" + " * ".join(["99999999999999999999.0"] * 16) + ")"


def cheapest(bound: str) -> str:
    """A min-cost recursion whose rule keeps costs below a folded
    constant ``bound``."""
    return ("WITH recursive r(A, min() AS C) AS (SELECT 0, 0.0) UNION "
            "(SELECT edge.Dst, r.C + 1.5 FROM r, edge "
            f"WHERE r.A = edge.Src AND r.C < {bound}) SELECT A, C FROM r")


class TestNonFiniteLiterals:
    """A folded constant can be infinite or NaN; the emitted SQL must
    mean what the engine computes, or the compiler must refuse it."""

    @pytest.mark.parametrize("bound, literal, rows", [
        (OVERFLOW, "(r.C < 1e999)", 3),
        (f"-{OVERFLOW}", "(r.C < (-1e999))", 1),
        (f"0 - {OVERFLOW}", "(r.C < (-1e999))", 1),
    ], ids=["inf", "negated-inf", "minus-inf"])
    def test_infinity_renders_as_an_overflowing_literal(self, bound,
                                                        literal, rows):
        ctx = make_context()
        compiled = compile_sql(ctx, cheapest(bound))
        assert literal in compiled.sql
        assert "inf" not in compiled.sql.replace("1e999", "")
        report = diff_query(ctx, cheapest(bound))
        assert report.equal and len(ctx.sql(cheapest(bound)).rows) == rows

    def test_nan_is_refused_by_the_compiler(self):
        ctx = make_context()
        sql = cheapest(f"{OVERFLOW} - {OVERFLOW}")
        assert ctx.sql(sql).rows == [(0, 0.0)]
        for compile_it in (compile_sql, diff_query):
            with pytest.raises(InexpressibleQueryError) as exc_info:
                compile_it(ctx, sql)
            assert exc_info.value.reason == "nan-literal"

    def test_a_nan_constant_row_is_refused_too(self):
        with pytest.raises(InexpressibleQueryError, match="NaN"):
            literal_sql(float("nan"))
        assert literal_sql(float("-inf")) == "(-1e999)"
        assert literal_sql(2.5) == "2.5"


class TestBigQuerySnapshots:
    """The BigQuery dialect has no executing backend: the emitted text
    itself is the contract, snapshot-tested so drift is deliberate."""

    def test_sssp_snapshot(self):
        ctx = make_context(edge=(("Src", "Dst", "Cost"), []))
        compiled = compile_sql(ctx, get_query("sssp").formatted(source=0),
                               dialect=BIGQUERY, depth_bound=64)
        assert compiled.sql == (
            "WITH RECURSIVE\n"
            "all_path(Dst, Cost, _depth) AS (\n"
            "  SELECT 0, 0, 0"
            " UNION "
            "SELECT edge.Dst, (path.Cost + edge.Cost), path._depth + 1"
            " FROM all_path AS path,"
            " (SELECT DISTINCT Src, Dst, Cost FROM edge) AS edge"
            " WHERE path._depth < 64 AND path.Dst = edge.Src\n"
            "),\n"
            "path(Dst, Cost) AS (\n"
            "  SELECT Dst, min(Cost) AS Cost FROM all_path GROUP BY Dst\n"
            ")\n"
            "SELECT Dst, Cost FROM path")

    def test_management_snapshot_uses_safe_cast(self):
        ctx = make_context(report=(("Emp", "Mgr"), []))
        compiled = compile_sql(ctx, get_query("management").sql,
                               dialect=BIGQUERY, depth_bound=32)
        assert compiled.sql == (
            "WITH RECURSIVE\n"
            "all_empCount(Mgr, Cnt, _depth) AS (\n"
            "  SELECT report.Emp, 1, 0"
            " FROM (SELECT DISTINCT Emp, Mgr FROM report) AS report"
            " UNION ALL "
            "SELECT report.Mgr,"
            " CASE WHEN SAFE_CAST(empCount.Cnt AS FLOAT64) IS NULL"
            " THEN 1 ELSE empCount.Cnt END,"
            " empCount._depth + 1"
            " FROM all_empCount AS empCount,"
            " (SELECT DISTINCT Emp, Mgr FROM report) AS report"
            " WHERE empCount._depth < 32 AND empCount.Mgr = report.Emp\n"
            "),\n"
            "empCount(Mgr, Cnt) AS (\n"
            "  SELECT Mgr, sum(Cnt) AS Cnt FROM all_empCount GROUP BY Mgr\n"
            ")\n"
            "SELECT Mgr, Cnt FROM empCount")

    def test_bigquery_quotes_with_backticks(self):
        ctx = make_context(shares=(("By", "Of", "Percent"), []))
        compiled = compile_sql(ctx, "SELECT By, Of FROM shares",
                               dialect=BIGQUERY)
        assert "`By`" in compiled.sql
        assert '"By"' not in compiled.sql

    def test_snapshot_notes_flag_emit_only_status(self):
        ctx = make_context()
        compiled = compile_sql(ctx, get_query("tc").sql, dialect=BIGQUERY)
        assert any("snapshot-only" in note for note in compiled.notes)
