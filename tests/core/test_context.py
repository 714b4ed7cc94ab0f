"""Unit tests for the RaSQLContext session API."""

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.errors import AnalysisError

EDGES = [(1, 2, 1.0), (2, 3, 2.0)]
SSSP = """
WITH recursive path(Dst, min() AS Cost) AS
  (SELECT 1, 0) UNION
  (SELECT edge.Dst, path.Cost + edge.Cost
   FROM path, edge WHERE path.Dst = edge.Src)
SELECT Dst, Cost FROM path
"""


def make_ctx(**kwargs):
    ctx = RaSQLContext(num_workers=2, **kwargs)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], EDGES)
    return ctx


class TestSessionApi:
    def test_sql_returns_relation(self):
        result = make_ctx().sql(SSSP)
        assert result.columns == ("Dst", "Cost")
        assert sorted(result.rows) == [(1, 0), (2, 1.0), (3, 3.0)]

    def test_last_run_populated(self):
        ctx = make_ctx()
        ctx.sql(SSSP)
        assert ctx.last_run.iterations > 0
        assert "path" in ctx.last_run.clique_iterations
        assert ctx.last_run.sim_time > 0
        assert ctx.last_run.metrics["stages"] > 0

    def test_per_call_config_override(self):
        ctx = make_ctx()
        baseline = ctx.sql(SSSP)
        override = ctx.sql(SSSP, config=ExecutionConfig(codegen=False,
                                                        stage_combination=False))
        assert sorted(baseline.rows) == sorted(override.rows)

    def test_register_replaces_table(self):
        ctx = make_ctx()
        ctx.register_table("edge", ["Src", "Dst", "Cost"], [(1, 9, 1.0)])
        result = ctx.sql(SSSP)
        assert sorted(result.rows) == [(1, 0), (9, 1.0)]

    def test_unknown_table_raises_analysis_error(self):
        ctx = RaSQLContext(num_workers=2)
        with pytest.raises(AnalysisError):
            ctx.sql(SSSP)

    def test_reset_metrics(self):
        ctx = make_ctx()
        ctx.sql(SSSP)
        assert ctx.metrics.sim_time > 0
        ctx.reset_metrics()
        assert ctx.metrics.sim_time == 0

    def test_load_table_charges_time(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.load_table("edge", ["Src", "Dst", "Cost"], EDGES)
        assert ctx.metrics.get("load_bytes") > 0

    def test_plain_select_without_recursion(self):
        ctx = make_ctx()
        result = ctx.sql("SELECT Src, Dst FROM edge WHERE Cost > 1.5")
        assert result.rows == [(2, 3)]
        assert ctx.last_run.iterations == 0

    def test_multiple_statements_create_view(self):
        ctx = make_ctx()
        result = ctx.sql("""
        CREATE VIEW big(S, D) AS (SELECT Src, Dst FROM edge WHERE Cost > 1.5);
        SELECT S FROM big
        """)
        assert result.rows == [(2,)]


class TestFinalStratumIsHandedTheViews:
    """``_run_sql`` hands each materialized view to the final SELECT (its
    last reader) instead of sharing it, and a one-shot operator lets go
    of its state inside ``execute``: the working set dies where it was
    last used, not when the query's frame unwinds."""

    TC = """
    WITH recursive tc(X, Y) AS
      (SELECT Src, Dst FROM edge) UNION
      (SELECT tc.X, edge.Dst FROM tc, edge WHERE tc.Y = edge.Src)
    """

    def test_final_select_may_read_a_view_twice(self):
        result = make_ctx().sql(
            self.TC + "SELECT a.X, b.Y FROM tc a, tc b WHERE a.Y = b.X")
        assert sorted(result.rows) == [(1, 3)]

    def test_an_empty_view_is_still_the_view(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst", "Cost"], [])
        assert ctx.sql(self.TC + "SELECT X, Y FROM tc").rows == []

    def test_two_cliques_and_a_derived_view_still_resolve(self):
        script = """
        CREATE VIEW hop(Src, Dst) AS (SELECT Src, Dst FROM edge);
        WITH recursive tc(X, Y) AS
          (SELECT Src, Dst FROM hop) UNION
          (SELECT tc.X, hop.Dst FROM tc, hop WHERE tc.Y = hop.Src),
        recursive reach(Z) AS
          (SELECT 1) UNION
          (SELECT tc.Y FROM reach, tc WHERE reach.Z = tc.X)
        SELECT reach.Z, hop.Dst FROM reach, hop WHERE reach.Z = hop.Src
        """
        assert sorted(make_ctx().sql(script).rows) == [(1, 2), (2, 3)]

    def test_one_shot_operator_hands_over_and_view_keeps_its_state(
            self, monkeypatch):
        from repro.core.fixpoint import FixpointOperator
        from repro.core.streaming import IncrementalView

        operators = []
        original = FixpointOperator.execute

        def execute(self, *args, **kwargs):
            operators.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FixpointOperator, "execute", execute)
        ctx = make_ctx()
        result = ctx.sql(SSSP)
        (operator,) = operators
        assert all(not partition for state in operator.states.values()
                   for partition in state.partitions)
        assert len(result.rows) == 3
        view = IncrementalView(ctx, SSSP)
        assert len(operators) == 1  # a view runs, it does not execute
        assert sum(len(partition)
                   for partition in view.operator.states["path"].partitions
                   ) == 3


class TestProfile:
    def test_time_breakdown_recorded(self):
        ctx = make_ctx()
        ctx.sql(SSSP)
        breakdown = ctx.last_run.time_breakdown
        assert any(label.startswith("stage:fixpoint")
                   for label in breakdown)
        assert sum(breakdown.values()) == pytest.approx(
            ctx.last_run.sim_time, rel=1e-6)

    def test_breakdown_is_per_call(self):
        ctx = make_ctx()
        ctx.sql(SSSP)
        first = dict(ctx.last_run.time_breakdown)
        ctx.sql("SELECT Src FROM edge")
        second = ctx.last_run.time_breakdown
        assert not any(label.startswith("stage:fixpoint")
                       for label in second)
        assert first  # untouched by the second call

    def test_profile_report_renders(self):
        ctx = make_ctx()
        ctx.sql(SSSP)
        report = ctx.last_run.profile_report()
        assert "stage:fixpoint" in report
        assert "%" in report
        assert "total" in report


class TestExplain:
    def test_explain_contains_all_layers(self):
        text = make_ctx().explain(SSSP)
        assert "RecursiveClique path" in text
        assert "FixPoint" in text
        assert "Final: SELECT" in text

    def test_explain_does_not_execute(self):
        ctx = make_ctx()
        ctx.explain(SSSP)
        assert ctx.metrics.get("iterations") == 0

    def test_explain_reflects_config(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst"], [(1, 2)])
        tc = """
        WITH recursive tc(Src, Dst) AS
          (SELECT Src, Dst FROM edge) UNION
          (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
        SELECT Src, Dst FROM tc
        """
        decomposed = ctx.explain(tc)
        flat = ctx.explain(tc, config=ExecutionConfig(decomposed_plans=False))
        assert "decomposable" in decomposed
        assert "decomposable" not in flat

    def test_explain_plans_what_a_checkpointed_run_plans(self, tmp_path):
        """Durability pins the stacked plan; EXPLAIN must say so instead
        of advertising a decomposed run that will not happen."""
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst"], [(1, 2)])
        tc = """
        WITH recursive tc(Src, Dst) AS
          (SELECT Src, Dst FROM edge) UNION
          (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
        SELECT Src, Dst FROM tc
        """
        durable = ExecutionConfig(checkpoint_interval=2,
                                  checkpoint_dir=str(tmp_path))
        assert "decomposable" in ctx.explain(tc)
        assert "decomposable" not in ctx.explain(tc, config=durable)
        assert not any(tmp_path.iterdir())


class TestTraceOnRead:
    """``RunInfo.trace`` keeps the closed root span and serializes it when
    first read: a query nobody inspects never pays for ``Span.to_dict``."""

    @pytest.fixture
    def serialized(self, monkeypatch):
        from repro.engine.tracing import Span

        roots = []
        original = Span.to_dict

        def to_dict(span):
            if span.kind == "query":
                roots.append(span.name)
            return original(span)

        monkeypatch.setattr(Span, "to_dict", to_dict)
        return roots

    def test_unread_traces_are_never_serialized(self, serialized):
        ctx = make_ctx()
        for _ in range(3):
            ctx.sql(SSSP)
        assert serialized == []
        trace = ctx.last_run.trace
        assert ctx.last_run.trace is trace
        assert len(serialized) == 1
        assert trace["kind"] == "query" and trace["children"]

    def test_a_late_read_equals_the_trace_at_the_end_of_the_query(self):
        import copy

        ctx = make_ctx()
        ctx.sql(SSSP)
        first = ctx.last_run
        at_end = copy.deepcopy(first.root_span.to_dict())
        ctx.sql(SSSP)  # the next query on the same cluster and tracer
        ctx.catalog.append_rows("edge", [(3, 4, 1.0)])
        ctx.sql(SSSP)
        assert first.trace == at_end
        assert "path" in first.explain_analyze()
