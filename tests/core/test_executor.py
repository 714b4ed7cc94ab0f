"""Unit tests for the local relational executor."""

import pytest

from repro.core.executor import execute_select
from repro.core.parser import parse_query
from repro.errors import AnalysisError
from repro.relation import Relation


def run(sql, **tables):
    relations = {name.lower(): Relation(name, cols, rows)
                 for name, (cols, rows) in tables.items()}
    query = parse_query(sql)
    return execute_select(query, lambda n: relations[n.lower()])


EDGE = (("Src", "Dst"), [(1, 2), (2, 3), (1, 3), (3, 4)])


class TestProjectFilter:
    def test_projection(self):
        out = run("SELECT Dst, Src FROM edge", edge=EDGE)
        assert (2, 1) in out.rows
        assert len(out) == 4

    def test_where_filter(self):
        out = run("SELECT Src FROM edge WHERE Dst = 3", edge=EDGE)
        assert sorted(out.rows) == [(1,), (2,)]

    def test_arithmetic_projection(self):
        out = run("SELECT Src + Dst, Src * 2 FROM edge WHERE Src = 1 AND Dst = 2",
                  edge=EDGE)
        assert out.rows == [(3, 2)]

    def test_no_from_constant(self):
        out = run("SELECT 1, 'x'")
        assert out.rows == [(1, "x")]

    def test_select_distinct(self):
        out = run("SELECT Src FROM edge", edge=EDGE)
        assert len(out) == 4
        out = run("SELECT DISTINCT Src FROM edge", edge=EDGE)
        assert sorted(out.rows) == [(1,), (2,), (3,)]

    def test_qualified_and_alias(self):
        out = run("SELECT e.Dst FROM edge e WHERE e.Src = 1", edge=EDGE)
        assert sorted(out.rows) == [(2,), (3,)]

    def test_unknown_table(self):
        with pytest.raises(AnalysisError, match="unknown table"):
            run("SELECT x FROM nope")

    def test_ambiguous_column(self):
        with pytest.raises(AnalysisError, match="ambiguous"):
            run("SELECT Src FROM edge a, edge b", edge=EDGE)


class TestJoins:
    def test_equi_join(self):
        out = run("""SELECT a.Src, b.Dst FROM edge a, edge b
                     WHERE a.Dst = b.Src""", edge=EDGE)
        assert sorted(out.rows) == [(1, 3), (1, 4), (2, 4)]

    def test_three_way_join(self):
        out = run("""SELECT a.Src, c.Dst FROM edge a, edge b, edge c
                     WHERE a.Dst = b.Src AND b.Dst = c.Src""", edge=EDGE)
        assert sorted(out.rows) == [(1, 4)]

    def test_cross_join_counts(self):
        out = run("SELECT a.Src, b.Src FROM edge a, edge b", edge=EDGE)
        assert len(out) == 16

    def test_theta_join(self):
        out = run("""SELECT a.Src, b.Src FROM edge a, edge b
                     WHERE a.Src < b.Src AND a.Dst = b.Dst""", edge=EDGE)
        assert sorted(out.rows) == [(1, 2)]

    def test_self_join_interval_lstart(self):
        # The lstart view of Interval Coalesce (Example 6).
        out = run("""SELECT a.S FROM inter a, inter b
                     WHERE a.S <= b.E
                     GROUP BY a.S HAVING a.S = min(b.S)""",
                  inter=(("S", "E"), [(1, 4), (2, 5), (8, 10)]))
        # 1 starts an uncovered run; 8 starts the disjoint second run.
        assert sorted(out.rows) == [(1,), (8,)]


class TestAggregates:
    def test_global_aggregates(self):
        out = run("SELECT min(Src), max(Dst), count(*) FROM edge", edge=EDGE)
        assert out.rows == [(1, 4, 4)]

    def test_group_by(self):
        out = run("SELECT Src, count(*) FROM edge GROUP BY Src", edge=EDGE)
        assert sorted(out.rows) == [(1, 2), (2, 1), (3, 1)]

    def test_group_by_max(self):
        out = run("SELECT Src, max(Dst) FROM edge GROUP BY Src", edge=EDGE)
        assert sorted(out.rows) == [(1, 3), (2, 3), (3, 4)]

    def test_count_distinct(self):
        out = run("SELECT count(distinct Src) FROM edge", edge=EDGE)
        assert out.rows == [(3,)]

    def test_sum_and_avg(self):
        out = run("SELECT sum(Dst), avg(Dst) FROM edge", edge=EDGE)
        assert out.rows == [(12, 3.0)]

    def test_having(self):
        out = run("""SELECT Src, count(*) FROM edge GROUP BY Src
                     HAVING count(*) > 1""", edge=EDGE)
        assert out.rows == [(1, 2)]

    @pytest.mark.parametrize("sql, expected", [
        ("SELECT a, CASE WHEN count(*) > 1 THEN 1 ELSE 0 END AS big "
         "FROM t GROUP BY a", [(1, 1), (2, 0)]),
        ("SELECT a, sum(b) AS s FROM t GROUP BY a "
         "HAVING CASE WHEN max(b) > 4 THEN 1 ELSE 0 END = 1", [(2, 5)]),
    ])
    def test_aggregate_inside_case_agrees_with_sqlite(self, sql, expected):
        from repro import RaSQLContext
        from repro.compile import diff_query

        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("t", ["a", "b"], [(1, 2), (1, 3), (2, 5)])
        assert sorted(ctx.sql(sql).rows) == expected
        report = diff_query(ctx, sql)
        assert report.equal, report.summary()

    def test_aggregate_outside_a_grouped_position_is_rejected(self):
        with pytest.raises(AnalysisError, match="not allowed"):
            run("SELECT Src FROM edge WHERE count(*) > 1", edge=EDGE)
        with pytest.raises(AnalysisError, match="not allowed"):
            run("SELECT sum(count(*)) FROM edge", edge=EDGE)

    def test_empty_input_aggregate(self):
        out = run("SELECT count(*) FROM edge",
                  edge=(("Src", "Dst"), []))
        assert out.rows == []  # no groups, no rows (documented simplification)


class TestColumnNames:
    def test_alias_names_output(self):
        out = run("SELECT Src AS a, Dst b FROM edge", edge=EDGE)
        assert out.columns == ("a", "b")

    def test_default_names(self):
        out = run("SELECT Src, Src + 1 FROM edge", edge=EDGE)
        assert out.columns == ("Src", "_c1")
