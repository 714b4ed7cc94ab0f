"""Unit tests for the fixpoint operator's mechanics and modes."""

import pytest

from repro import ExecutionConfig, RaSQLContext
from repro.errors import FixpointNotReachedError, PlanningError
from repro.queries.library import get_query

EDGES = [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 5.0), (3, 4, 1.0), (4, 2, 1.0)]
SSSP_EXPECTED = [(1, 0), (2, 1.0), (3, 3.0), (4, 4.0)]


def sssp_ctx(config=None, **kwargs):
    ctx = RaSQLContext(config=config, **kwargs)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], EDGES)
    return ctx


class TestIterationAccounting:
    def test_iterations_recorded(self):
        ctx = sssp_ctx()
        ctx.sql(get_query("sssp").formatted(source=1))
        assert ctx.last_run.iterations >= 3
        assert ctx.metrics.get("iterations") == ctx.last_run.iterations

    def test_delta_history_shrinks_to_zero(self):
        ctx = sssp_ctx()
        ctx.sql(get_query("sssp").formatted(source=1))
        history = next(iter(ctx.last_run.delta_history.values()))
        assert history[0] >= 1
        # Final recorded delta precedes the empty round that stops the loop.
        assert all(count > 0 for count in history)

    def test_max_iterations_enforced(self):
        config = ExecutionConfig(max_iterations=2)
        ctx = sssp_ctx(config)
        with pytest.raises(FixpointNotReachedError) as info:
            ctx.sql(get_query("sssp").formatted(source=1))
        assert info.value.iterations == 2
        assert info.value.partial_result is not None


class TestStageAccounting:
    def test_stage_combination_halves_iteration_stages(self):
        stages = {}
        for combine in (True, False):
            config = ExecutionConfig(stage_combination=combine,
                                     decomposed_plans=False)
            ctx = sssp_ctx(config)
            ctx.sql(get_query("sssp").formatted(source=1))
            stages[combine] = ctx.metrics.get("stages")
        # Two stages per iteration vs one (plus shared setup/base stages).
        assert stages[False] > stages[True]

    def test_partition_aware_no_remote_fetches(self):
        ctx = sssp_ctx()
        ctx.sql(get_query("sssp").formatted(source=1))
        assert ctx.metrics.get("remote_fetches") == 0

    def test_default_scheduler_fetches_remotely(self):
        ctx = sssp_ctx(scheduler="default")
        ctx.sql(get_query("sssp").formatted(source=1))
        assert ctx.metrics.get("remote_fetches") > 0

    def test_partial_aggregation_reduces_shuffle(self):
        records = {}
        for partial in (True, False):
            config = ExecutionConfig(partial_aggregation=partial)
            ctx = RaSQLContext(num_workers=2, config=config)
            # A dense graph where many same-key contributions collapse.
            edges = [(a, b, 1.0) for a in range(8) for b in range(8) if a != b]
            ctx.register_table("edge", ["Src", "Dst", "Cost"], edges)
            ctx.sql(get_query("sssp").formatted(source=0))
            records[partial] = ctx.metrics.get("shuffle_records")
        assert records[True] < records[False]

    def test_broadcast_compression_reduces_bytes(self):
        nbytes = {}
        for compress in (True, False):
            config = ExecutionConfig(broadcast_bases=True,
                                     broadcast_compression=compress)
            ctx = sssp_ctx(config)
            ctx.sql(get_query("sssp").formatted(source=1))
            nbytes[compress] = ctx.metrics.get("broadcast_bytes")
        assert nbytes[True] < nbytes[False]


class TestModes:
    def test_naive_rejects_sum_views(self):
        config = ExecutionConfig(evaluation="naive")
        ctx = RaSQLContext(config=config)
        ctx.register_table("edge", ["Src", "Dst"], [(1, 2)])
        with pytest.raises(PlanningError, match="naive"):
            ctx.sql(get_query("count_paths").formatted(source=1))

    def test_naive_runs_more_work(self):
        """Naive re-derives everything each round: more shuffle records."""
        records = {}
        for mode in ("dsn", "naive"):
            config = ExecutionConfig(evaluation=mode, codegen=False)
            ctx = sssp_ctx(config)
            ctx.sql(get_query("sssp").formatted(source=1))
            records[mode] = ctx.metrics.get("shuffle_records")
        assert records["naive"] > records["dsn"]

    def test_stratified_diverges_on_cycles(self):
        config = ExecutionConfig(evaluation="stratified", max_iterations=30)
        ctx = sssp_ctx(config)
        with pytest.raises(FixpointNotReachedError):
            ctx.sql(get_query("sssp").formatted(source=1))

    def test_stratified_slower_than_endo_on_dags(self):
        """Figure 1's effect: the stratified run enumerates far more facts."""
        dag = [(a, b, 1.0) for a in range(10) for b in range(a + 1, 10)]
        facts = {}
        for mode in ("dsn", "stratified"):
            config = ExecutionConfig(evaluation=mode, max_iterations=500)
            ctx = RaSQLContext(config=config)
            ctx.register_table("edge", ["Src", "Dst", "Cost"], dag)
            ctx.sql(get_query("sssp").formatted(source=0))
            facts[mode] = ctx.metrics.get("shuffle_records")
        assert facts["stratified"] > 2 * facts["dsn"]


class TestDecomposedExecution:
    def test_tc_runs_decomposed_with_three_stages(self):
        ctx = RaSQLContext()
        ctx.register_table("edge", ["Src", "Dst"],
                           [(a, b) for a, b, _ in EDGES])
        ctx.sql(get_query("tc").sql)
        # setup + base + one decomposed stage; crucially constant in the
        # iteration count.
        assert ctx.metrics.get("stages") == 3

    def test_decomposed_has_no_iteration_shuffle(self):
        ctx = RaSQLContext()
        ctx.register_table("edge", ["Src", "Dst"],
                           [(a, b) for a, b, _ in EDGES])
        ctx.sql(get_query("tc").sql)
        decomposed_records = ctx.metrics.get("shuffle_records")

        ctx2 = RaSQLContext(config=ExecutionConfig(decomposed_plans=False))
        ctx2.register_table("edge", ["Src", "Dst"],
                            [(a, b) for a, b, _ in EDGES])
        ctx2.sql(get_query("tc").sql)
        assert decomposed_records < ctx2.metrics.get("shuffle_records")

    def test_decomposed_apsp_with_aggregate(self):
        ctx = RaSQLContext()
        ctx.register_table("edge", ["Src", "Dst", "Cost"], EDGES)
        result = sorted(ctx.sql(get_query("apsp").sql).rows)
        ctx2 = RaSQLContext(config=ExecutionConfig(decomposed_plans=False))
        ctx2.register_table("edge", ["Src", "Dst", "Cost"], EDGES)
        assert result == sorted(ctx2.sql(get_query("apsp").sql).rows)


class TestImmutableStateAblation:
    def test_results_identical_state_copied(self):
        for use_setrdd in (True, False):
            config = ExecutionConfig(use_setrdd=use_setrdd)
            ctx = sssp_ctx(config)
            result = sorted(ctx.sql(get_query("sssp").formatted(source=1)).rows)
            assert result == SSSP_EXPECTED


class TestAccountingRegressions:
    def test_iterate_return_annotations_are_tuples(self):
        """Every iteration scheduler returns a (datasets, |D| per view)
        tuple."""
        from repro.core.schedulers import (iterate_combined, iterate_remote,
                                           iterate_two_stage)

        for fn in (iterate_combined, iterate_two_stage, iterate_remote):
            annotation = fn.__annotations__["return"]
            assert annotation.startswith("tuple["), (fn.__name__, annotation)

    def test_base_delta_attributed_to_producing_workers(self, monkeypatch):
        """The initial exchange must credit each fixpoint-base task's real
        worker, not funnel every view's output through worker 0."""
        from repro.core.fixpoint import FixpointOperator

        captured = {}
        original = FixpointOperator.exchange_prebucketed

        def spy(self, per_view_outputs):
            captured.setdefault("base", {view: list(outputs) for view, outputs
                                         in per_view_outputs.items()})
            return original(self, per_view_outputs)

        monkeypatch.setattr(FixpointOperator, "exchange_prebucketed", spy)
        ctx = RaSQLContext(num_workers=4)
        ctx.register_table("edge", ["Src", "Dst"],
                           [(i, i + 1) for i in range(8)])
        ctx.sql(get_query("cc_labels").sql)

        # Pre-fix: every view funneled through one worker-0 source.
        for outputs in captured["base"].values():
            workers = [worker for worker, _ in outputs]
            # One shuffle source per base task, each on its scheduled worker.
            assert len(workers) >= 2
            assert set(workers) != {0}

    def test_constant_base_rows_attributed_to_driver(self, monkeypatch):
        """Constant base rules (SELECT 1, 0) ship from the driver source."""
        from repro.core.fixpoint import FixpointOperator

        captured = {}
        original = FixpointOperator.exchange_prebucketed

        def spy(self, per_view_outputs):
            captured.setdefault("base", dict(per_view_outputs))
            return original(self, per_view_outputs)

        monkeypatch.setattr(FixpointOperator, "exchange_prebucketed", spy)
        ctx = sssp_ctx()
        ctx.sql(get_query("sssp").formatted(source=1))
        ((worker, buckets),) = captured["base"]["path"]
        assert worker == 0
        assert list(buckets.values()) == [[(1, 0)]]
