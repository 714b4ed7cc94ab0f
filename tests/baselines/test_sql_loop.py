"""Unit tests for the Spark-SQL-Naive/SN loop baselines."""

import pytest

from repro.baselines import serial
from repro.baselines.sql_loop import SQLLoopEngine
from repro.engine.cluster import Cluster
from repro.errors import AnalysisError
from repro.queries.library import get_query
from repro.relation import Relation


def run(mode, query, **tables):
    cluster = Cluster(num_workers=4)
    relations = {name.lower(): Relation(name, cols, rows)
                 for name, (cols, rows) in tables.items()}
    engine = SQLLoopEngine(cluster, mode)
    result = engine.run(query, relations)
    return result, cluster


REPORT = [(2, 1), (3, 1), (4, 2), (5, 2), (6, 4), (7, 6)]


class TestCorrectness:
    @pytest.mark.parametrize("mode", ["naive", "sn"])
    def test_management(self, mode):
        result, _ = run(mode, get_query("management").sql,
                        report=(["Emp", "Mgr"], REPORT))
        assert dict(result.relation.rows) == serial.management_counts(REPORT)

    @pytest.mark.parametrize("mode", ["naive", "sn"])
    def test_mlm(self, mode):
        sales = [(1, 100.0), (2, 200.0), (3, 300.0), (4, 50.0)]
        sponsor = [(1, 2), (2, 3), (1, 4)]
        result, _ = run(mode, get_query("mlm_bonus").sql,
                        sales=(["M", "P"], sales),
                        sponsor=(["M1", "M2"], sponsor))
        expected = serial.mlm_bonus(sales, sponsor)
        got = dict(result.relation.rows)
        assert set(got) == set(expected)
        for member in expected:
            assert got[member] == pytest.approx(expected[member])

    @pytest.mark.parametrize("mode", ["naive", "sn"])
    def test_delivery(self, mode):
        assbl = [("car", "engine"), ("car", "wheel"), ("engine", "piston"),
                 ("engine", "valve")]
        basic = [("piston", 3), ("valve", 7), ("wheel", 2)]
        result, _ = run(mode, get_query("bom").sql,
                        assbl=(["Part", "SPart"], assbl),
                        basic=(["Part", "Days"], basic))
        assert dict(result.relation.rows) == serial.bom_waitfor(assbl, basic)

    @pytest.mark.parametrize("mode", ["naive", "sn"])
    def test_count_of_names_folds_like_the_engine(self, mode):
        # A non-numeric contribution counts as one derived fact: the
        # final stratum normalizes through the engine's own fold.
        query = """WITH recursive fans(Name, count() AS N) AS
          (SELECT Fname, Pname FROM friend) UNION
          (SELECT friend.Fname, fans.N FROM fans, friend
           WHERE fans.Name = friend.Pname)
        SELECT Name, N FROM fans"""
        friend = [("ann", "bob"), ("ann", "cat"), ("bob", "dan"),
                  ("cat", "dan")]
        result, _ = run(mode, query, friend=(["Pname", "Fname"], friend))
        assert sorted(result.relation.rows) == [("bob", 1), ("cat", 1),
                                                ("dan", 4)]

    def test_sibling_contributions_not_collapsed(self):
        # Two siblings each counting 1 must yield 2 for the parent — the
        # case that requires derivation provenance under set semantics.
        report = [(2, 1), (3, 1)]
        result, _ = run("sn", get_query("management").sql,
                        report=(["Emp", "Mgr"], report))
        assert dict(result.relation.rows)[1] == 2


class TestCostShape:
    def test_naive_ships_more_than_sn(self):
        from repro.datagen import random_tree, tree_tables

        tables = tree_tables(random_tree(height=5, seed=2, max_nodes=400))
        shipped = {}
        for mode in ("naive", "sn"):
            result, cluster = run(mode, get_query("management").sql,
                                  report=tables["report"])
            shipped[mode] = cluster.metrics.get("shuffle_bytes")
        assert shipped["naive"] > shipped["sn"]

    def test_rejects_multi_view_queries(self):
        with pytest.raises(AnalysisError):
            run("sn", get_query("company_control").sql,
                shares=(["By", "Of", "Percent"], [("a", "b", 60)]))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SQLLoopEngine(Cluster(num_workers=1), "bogus")
