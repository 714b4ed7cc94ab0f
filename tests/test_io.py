"""Unit tests for file IO and the CLI."""

import json
import subprocess
import sys

import pytest

from repro.io import load_table, read_csv, read_edge_list, write_csv
from repro.relation import Relation


class TestEdgeList:
    def test_basic(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# comment\n1 2\n2 3\n\n3 1\n")
        relation = read_edge_list(path)
        assert relation.columns == ("Src", "Dst")
        assert relation.rows == [(1, 2), (2, 3), (3, 1)]

    def test_weighted_gets_cost_column(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\t2\t0.5\n")
        relation = read_edge_list(path)
        assert relation.columns == ("Src", "Dst", "Cost")
        assert relation.rows == [(1, 2, 0.5)]

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1 2\n1 2 3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_edge_list(path)

    def test_custom_columns(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a b\n")
        relation = read_edge_list(path, columns=["Parent", "Child"])
        assert relation.columns == ("Parent", "Child")
        assert relation.rows == [("a", "b")]


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sales.csv"
        original = Relation("sales", ["M", "P"], [(1, 10.5), (2, 20.0)])
        write_csv(original, path)
        loaded = read_csv(path)
        assert loaded.columns == ("M", "P")
        assert loaded.rows == original.rows

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(path)

    @pytest.mark.parametrize("cell, value", [
        # A number is ASCII digits without separators ...
        ("1_000", "1_000"),
        ("1_0.5", "1_0.5"),
        ("١٢", "١٢"),
        ("١٢.٥", "١٢.٥"),
        ("１２", "１２"),
        # ... and parses as before.
        ("1000", 1000),
        (" 12 ", 12),
        ("-7", -7),
        ("+007", 7),
        ("10.5", 10.5),
        ("1e+20", 1e20),
        (".5", 0.5),
        ("-0.0", -0.0),
        ("inf", float("inf")),
        ("-Infinity", float("-inf")),
        (" abc ", " abc "),
    ])
    def test_code_cells_are_not_numbers(self, tmp_path, cell, value):
        path = tmp_path / "codes.csv"
        path.write_text(f"Code\n{cell}\n", encoding="utf-8")
        (loaded,), = read_csv(path).rows
        assert type(loaded) is type(value) and repr(loaded) == repr(value)

    def test_nan_still_loads_as_a_float(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("A,B\nnan, NaN \n")
        a, b = read_csv(path).rows[0]
        assert a != a and b != b and type(a) is type(b) is float

    def test_round_trip_keeps_every_written_type(self, tmp_path):
        path = tmp_path / "mixed.csv"
        original = Relation("mixed", ["A", "B", "C"], [
            (1, -0.0, "1_000"), (10**20, 1e-7, "١٢"), (-3, float("inf"), "x")])
        write_csv(original, path)
        loaded = read_csv(path).rows
        assert [tuple(map(type, row)) for row in loaded] \
            == [tuple(map(type, row)) for row in original.rows]
        assert list(map(repr, loaded)) == list(map(repr, original.rows))

    def test_edge_list_ids_with_separators_stay_strings(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1_0 2\n", encoding="utf-8")
        assert read_edge_list(path).rows == [("1_0", 2)]

    def test_load_table_dispatch(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("A,B\n1,2\n")
        tsv_path = tmp_path / "t.tsv"
        tsv_path.write_text("1 2\n")
        assert load_table(csv_path).columns == ("A", "B")
        assert load_table(tsv_path).columns == ("Src", "Dst")


class TestCli:
    def run_cli(self, *argv, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, input=stdin)

    def test_inline_query(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("1 2 1.0\n2 3 2.0\n")
        proc = self.run_cli(
            "--table", f"edge={graph}",
            "-q", """WITH recursive path(Dst, min() AS Cost) AS
                     (SELECT 1, 0) UNION
                     (SELECT edge.Dst, path.Cost + edge.Cost
                      FROM path, edge WHERE path.Dst = edge.Src)
                     SELECT Dst, Cost FROM path""")
        assert proc.returncode == 0, proc.stderr
        assert "3 | 3.0" in proc.stdout
        assert "fixpoint iterations" in proc.stderr

    def test_explain_mode(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("1 2\n")
        proc = self.run_cli("--table", f"edge={graph}", "--explain",
                            "-q", "SELECT Src FROM edge")
        assert proc.returncode == 0
        assert "Final: SELECT Src FROM edge" in proc.stdout

    def test_query_from_stdin_and_csv_output(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("1 2\n2 3\n")
        out = tmp_path / "result.csv"
        proc = self.run_cli("--table", f"edge={graph}",
                            "--output", str(out), "-",
                            stdin="SELECT count(*) FROM edge")
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().splitlines()[1] == "2"

    def test_check_prem_mode(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("1 2 1.0\n2 3 2.0\n")
        proc = self.run_cli(
            "--table", f"edge={graph}", "--check-prem",
            "-q", """WITH recursive path(Dst, min() AS Cost) AS
                     (SELECT 1, 0) UNION
                     (SELECT edge.Dst, path.Cost + edge.Cost
                      FROM path, edge WHERE path.Dst = edge.Src)
                     SELECT Dst, Cost FROM path""")
        assert proc.returncode == 0, proc.stderr
        assert "PreM held" in proc.stdout
        assert "facts(T^i)" in proc.stdout

    def test_check_prem_flags_violation(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("1 2 1.0\n1 3 1.0\n3 2 1.0\n2 4 1.0\n")
        proc = self.run_cli(
            "--table", f"edge={graph}", "--check-prem",
            "-q", """WITH recursive path(Dst, min() AS Cost) AS
                     (SELECT 1, 0) UNION
                     (SELECT edge.Dst, 10 - path.Cost
                      FROM path, edge WHERE path.Dst = edge.Src)
                     SELECT Dst, Cost FROM path""")
        assert proc.returncode == 1
        assert "VIOLATED" in proc.stdout

    def test_missing_query_errors(self):
        proc = self.run_cli()
        assert proc.returncode != 0
        assert "provide a query" in proc.stderr

    def test_bad_table_spec_errors(self):
        proc = self.run_cli("--table", "nopath", "-q", "SELECT 1")
        assert proc.returncode != 0

    def test_workload_scorecard(self, capsys):
        # In process (``main`` is what ``python -m repro`` calls), so a
        # call trace of the suite sees the serving workload run.
        from repro.__main__ import main

        argv = ["workload", "--clients", "8", "--requests", "40", "--quick"]
        assert main(argv + ["--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["clients"], summary["requests"]) == (8, 40)
        assert summary["completed"] == 40 and summary["failed"] == 0
        assert summary["latency"]["overall"]["count"] == 40
        assert summary["latency"]["view_read"]["p50_s"] > 0
        assert 0 < summary["cache"]["view_snapshot_hit_rate"] <= 1
        assert summary["sim_time_s"] > 0

        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "workload: 40 requests from 8 sessions (40 ok" in text
        assert "caches: plan hit rate" in text
