"""Robustness of the public API: edge inputs, error quality, invariants."""

import pytest

from repro import ExecutionConfig, IncrementalView, RaSQLContext
from repro.errors import (
    AnalysisError,
    FixpointNotReachedError,
    ParseError,
    RaSQLError,
)
from repro.queries import get_query

SSSP = get_query("sssp").formatted(source=1)


class TestEmptyAndDegenerateInputs:
    def test_empty_edge_table(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst", "Cost"], [])
        result = ctx.sql(SSSP)
        # Only the base-case source row survives.
        assert result.rows == [(1, 0)]

    def test_self_loop_only(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst", "Cost"], [(1, 1, 5.0)])
        result = ctx.sql(SSSP)
        assert sorted(result.rows) == [(1, 0)]

    def test_single_worker_single_partition(self):
        ctx = RaSQLContext(num_workers=1, num_partitions=1)
        ctx.register_table("edge", ["Src", "Dst", "Cost"],
                           [(1, 2, 1.0), (2, 3, 1.0)])
        assert sorted(ctx.sql(SSSP).rows) == [(1, 0), (2, 1.0), (3, 2.0)]

    def test_many_partitions_few_rows(self):
        ctx = RaSQLContext(num_workers=2, num_partitions=32)
        ctx.register_table("edge", ["Src", "Dst", "Cost"], [(1, 2, 1.0)])
        assert sorted(ctx.sql(SSSP).rows) == [(1, 0), (2, 1.0)]

    def test_string_vertex_ids(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst"],
                           [("a", "b"), ("b", "c")])
        result = ctx.sql("""
        WITH recursive reach(Dst) AS
          (SELECT 'a') UNION
          (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src)
        SELECT Dst FROM reach
        """)
        assert sorted(result.rows) == [("a",), ("b",), ("c",)]

    def test_mixed_int_float_keys_collocate(self):
        # Join keys arriving as int on one side, float on the other.
        ctx = RaSQLContext(num_workers=4)
        ctx.register_table("edge", ["Src", "Dst", "Cost"],
                           [(1, 2.0, 1.0), (2, 3, 1.0)])
        result = ctx.sql(SSSP)
        assert len(result) == 3


class TestErrorQuality:
    def test_all_errors_share_base(self):
        for error_type in (ParseError, AnalysisError,
                           FixpointNotReachedError):
            assert issubclass(error_type, RaSQLError)

    def test_parse_error_is_catchable_at_base(self):
        ctx = RaSQLContext(num_workers=1)
        with pytest.raises(RaSQLError):
            ctx.sql("SELEC oops")

    def test_helpful_unknown_table_message(self):
        ctx = RaSQLContext(num_workers=1)
        ctx.register_table("edges", ["Src", "Dst"], [])
        with pytest.raises(AnalysisError, match="edges"):
            # Message lists registered tables, aiding typo recovery.
            ctx.sql("SELECT Src FROM edge")

    def test_fixpoint_error_carries_partial_state(self):
        ctx = RaSQLContext(num_workers=2,
                           config=ExecutionConfig(max_iterations=1))
        ctx.register_table("edge", ["Src", "Dst", "Cost"],
                           [(1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(FixpointNotReachedError) as info:
            ctx.sql(SSSP)
        partial = info.value.partial_result
        assert partial and "path" in partial


class TestSessionInvariants:
    def test_sessions_are_isolated(self):
        a = RaSQLContext(num_workers=2)
        b = RaSQLContext(num_workers=2)
        a.register_table("edge", ["Src", "Dst", "Cost"], [(1, 2, 1.0)])
        with pytest.raises(AnalysisError):
            b.sql(SSSP)

    def test_query_does_not_mutate_base_tables(self):
        ctx = RaSQLContext(num_workers=2)
        rows = [(1, 2, 1.0), (2, 3, 1.0)]
        ctx.register_table("edge", ["Src", "Dst", "Cost"], rows)
        ctx.sql(SSSP)
        assert ctx.catalog.get("edge").rows == rows

    def test_incremental_view_appends_to_catalog(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst", "Cost"], [(1, 2, 1.0)])
        view = IncrementalView(ctx, SSSP)
        view.insert("edge", [(2, 3, 1.0)])
        # One insert path: the view appended to the session's own table,
        # so ad-hoc SQL reads what the view reads ...
        assert ctx.catalog.get("edge").rows == [(1, 2, 1.0), (2, 3, 1.0)]
        assert sorted(view.result().rows) == sorted(ctx.sql(SSSP).rows)
        # ... and a row appended by anyone reaches the view at its next read.
        ctx.catalog.append_rows("edge", [(3, 4, 1.0)])
        assert sorted(view.result().rows) == sorted(ctx.sql(SSSP).rows)
        assert len(view.result()) == 4

    def test_repeated_queries_deterministic(self):
        ctx = RaSQLContext(num_workers=3)
        ctx.register_table("edge", ["Src", "Dst", "Cost"],
                           [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 5.0)])
        first = sorted(ctx.sql(SSSP).rows)
        for _ in range(3):
            assert sorted(ctx.sql(SSSP).rows) == first
