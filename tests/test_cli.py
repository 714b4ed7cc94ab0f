"""The CLI's subcommands and error paths, driven in-process through
``repro.__main__.main`` (what ``python -m repro`` calls)."""

import multiprocessing

import pytest

from repro.__main__ import main
from repro.queries.library import ALL_QUERIES

#: Library queries with no standard WITH RECURSIVE form: mutual
#: recursion (``party_attendance``) and a non-linear accumulator
#: (``company_control``).
INEXPRESSIBLE = {"party_attendance", "company_control"}

TC = """WITH recursive tc(Src, Dst) AS (SELECT Src, Dst FROM edge) UNION
        (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
        SELECT Src, Dst FROM tc"""


@pytest.fixture
def cycle_graph(tmp_path):
    graph = tmp_path / "g.tsv"
    graph.write_text("1 2\n2 3\n3 4\n4 2\n")
    return graph


class TestDiff:
    @pytest.mark.parametrize("name", [q.name for q in ALL_QUERIES])
    def test_library_exit_code(self, name, capsys):
        code = main(["diff", "--library", name])
        captured = capsys.readouterr()
        if name in INEXPRESSIBLE:
            assert code == 2
            assert captured.err.startswith("inexpressible (")
        else:
            assert code == 0, captured.out + captured.err

    def test_show_sql_prints_the_emitted_statement(self, cycle_graph,
                                                   capsys):
        assert main(["diff", "--table", f"edge={cycle_graph}", "-q", TC,
                     "--show-sql"]) == 0
        assert "WITH RECURSIVE" in capsys.readouterr().out.upper()

    def test_missing_duckdb_is_one_error_line(self):
        from repro.compile.backends import duckdb_available

        if duckdb_available():
            pytest.skip("duckdb is installed")
        with pytest.raises(SystemExit) as info:
            main(["diff", "--library", "tc", "--backend", "duckdb"])
        message = str(info.value.code)
        assert message.startswith("error: ") and "duckdb" in message

    def test_unknown_library_query(self):
        with pytest.raises(SystemExit) as info:
            main(["diff", "--library", "no_such_query"])
        assert str(info.value.code).startswith("error: ")


class TestCompile:
    def test_bigquery_emits_its_dialect_header(self, capsys):
        assert main(["compile", "--library", "sssp",
                     "--dialect", "bigquery"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "-- dialect: bigquery"
        assert lines[1] == "-- columns: Dst, Cost"
        assert any(line.startswith("-- twin: path -> ") for line in lines)

    def test_depth_bound_reaches_the_twin_header(self, capsys):
        assert main(["compile", "--library", "sssp",
                     "--depth-bound", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("-- dialect: sqlite\n")
        assert "depth bound 7)" in out

    def test_set_query_needs_no_twin(self, cycle_graph, capsys):
        assert main(["compile", "--table", f"edge={cycle_graph}",
                     "-q", TC]) == 0
        out = capsys.readouterr().out
        assert "-- twin:" not in out and "WITH RECURSIVE" in out

    def test_inexpressible_query_exits_2(self, capsys):
        assert main(["compile", "--library", "party_attendance"]) == 2
        assert "inexpressible" in capsys.readouterr().err


class TestChaos:
    def test_seeded_chaos_on_small_tc_is_exact(self, cycle_graph, capsys):
        assert main(["--table", f"edge={cycle_graph}", "-q", TC,
                     "--chaos", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("chaos[seed=7] ")
        assert "-> EXACT: 12 rows (oracle 12)" in out
        # The schedule the --chaos help promises: task deaths, a worker
        # loss and a memory-pressure squeeze.
        for kind in ("task[", "worker-loss[", "memory-pressure["):
            assert kind in out


class TestMemoryBudget:
    def test_a_tight_budget_spills_and_the_report_line_says_so(
            self, tmp_path, capsys):
        # A 30-edge chain: the closure's state partition and the broadcast
        # edge table do not both fit in 3,500 bytes, but each fits alone.
        chain = tmp_path / "chain.tsv"
        chain.write_text("".join(f"{i} {i + 1}\n" for i in range(30)))
        assert main(["--table", f"edge={chain}", "-q", TC,
                     "--memory-budget", "3500", "--limit", "1"]) == 0
        err = capsys.readouterr().err
        assert "-- 465 rows;" in err
        (line,) = [line for line in err.splitlines()
                   if line.startswith("-- memory: ")]
        spills = int(line.split("spills=")[1].split()[0])
        assert spills > 0, line


class TestProfile:
    def test_profile_writes_a_loadable_capture(self, cycle_graph, tmp_path,
                                               capsys):
        """``--profile PATH`` wraps the query in cProfile: the dump loads
        with ``pstats`` and names the engine's entry point, and the run's
        ``RunInfo.profile_path`` (the line the CLI prints) is PATH."""
        import pstats

        path = tmp_path / "q.prof"
        assert main(["--table", f"edge={cycle_graph}", "-q", TC,
                     "--profile", str(path)]) == 0
        err = capsys.readouterr().err
        assert f"-- wrote profile {path}\n" in err
        functions = {name for _, _, name in pstats.Stats(str(path)).stats}
        assert "_run_sql" in functions


class TestErrors:
    @pytest.mark.parametrize("flag, value, field", [
        ("--liveness-timeout", "-1", "liveness_timeout"),
        ("--task-deadline", "-5", "task_deadline_s"),
    ])
    def test_bad_supervision_flag_fails_before_any_worker(
            self, cycle_graph, flag, value, field):
        """A liveness timeout below the heartbeat interval would reap
        every healthy worker, a non-positive deadline would fail every
        task: both are refused with one ``error:`` line."""
        with pytest.raises(SystemExit) as info:
            main(["--table", f"edge={cycle_graph}", "-q", TC,
                  "--backend", "process", flag, value])
        message = str(info.value.code)
        assert message.startswith("error: ") and field in message
        assert "\n" not in message
        assert not multiprocessing.active_children()

    def test_uncaught_engine_error_is_one_line(self, cycle_graph, capsys):
        code = main(["--table", f"edge={cycle_graph}",
                     "-q", "SELECT Nope FROM missing_table"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
