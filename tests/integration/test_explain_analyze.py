"""EXPLAIN ANALYZE / trace integration: the report must agree exactly
with ``FixpointResult`` and the ``MetricsRegistry``."""

import json

import pytest

from repro import RaSQLContext
from repro.__main__ import main as cli_main
from repro.queries.library import get_query

EDGES = [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 5.0), (3, 4, 1.0), (4, 2, 1.0)]


def sssp_ctx(**kwargs):
    ctx = RaSQLContext(num_workers=4, **kwargs)
    ctx.register_table("edge", ["Src", "Dst", "Cost"], EDGES)
    return ctx


class TestExplainAnalyzeSSSP:
    def test_iteration_count_matches_fixpoint_result(self):
        ctx = sssp_ctx()
        report = ctx.explain_analyze(get_query("sssp").formatted(source=1))
        run = ctx.last_run
        assert run.iterations >= 3
        timeline = run.iteration_timeline()
        assert len(timeline) == run.iterations
        assert run.iterations == ctx.metrics.get("iterations")
        assert f"iterations={run.iterations}" in report

    def test_base_sides_line_says_built_then_hit(self):
        ctx = sssp_ctx()
        sssp = get_query("sssp").formatted(source=1)
        # ... and names what the side stores: two of edge's three columns,
        # over the table's distinct vertex ids and distinct rows.
        stored = "  (edge[Dst, Cost] on Src (4 values / 5 rows))"
        assert ("  base sides: 0 hit, 0 appended, 1 built, 0 bypassed"
                + stored) in ctx.explain_analyze(sssp).splitlines()
        first = ctx.last_run
        assert ("  base sides: 1 hit, 0 appended, 0 built, 0 bypassed"
                + stored) in ctx.explain_analyze(sssp).splitlines()
        second = ctx.last_run
        ctx.catalog.append_rows("edge", [(1, 77, 1.0), (1, 77, 1.0)])
        assert ("  base sides: 0 hit, 1 appended, 0 built, 0 bypassed"
                "  (edge[Dst, Cost] on Src (5 values / 6 rows))"
                ) in ctx.explain_analyze(sssp).splitlines()
        third = ctx.last_run
        assert first.kernels_summary()["kernel_pruned_sides"] == 1

        def fixpoint_attrs(run):
            (span,) = [child for child in run.trace["children"]
                       if child["kind"] == "fixpoint"]
            return span["attrs"]

        assert fixpoint_attrs(first)["base_sides"] == {
            "hits": 0, "appended": 0, "built": 1, "bypassed": 0}
        assert fixpoint_attrs(second)["base_sides"] == {
            "hits": 1, "appended": 0, "built": 0, "bypassed": 0}
        assert fixpoint_attrs(third)["base_sides"] == {
            "hits": 0, "appended": 1, "built": 0, "bypassed": 0}
        assert fixpoint_attrs(third)["stored_sides"] == [
            "edge[Dst, Cost] on Src (5 values / 6 rows)"]
        assert first.kernels_summary()["base_side_cache_misses"] == 1
        assert second.kernels_summary()["base_side_cache_hits"] == 1
        assert third.kernels_summary()["base_side_cache_appended"] == 1
        # The per-query counter deltas of the trace say the same.
        assert second.trace["metrics"]["base_side_cache_hits"] == 1
        assert "base_side_cache_misses" not in second.trace["metrics"]

    def test_kernels_section_says_the_stage_is_fused(self):
        ctx = sssp_ctx()
        report = ctx.explain_analyze(get_query("sssp").formatted(source=1))
        assert ("  derive: probe·project·fold·route fused (1 of 1 terms)"
                in report.splitlines())
        assert ctx.last_run.kernels_summary()["kernel_fused_fold_terms"] == 1

    @pytest.mark.parametrize("query, line, attr", [
        ("cc", "  base: scan·project·fold·route fused (1 of 1 rules)",
         [1, 1, "fold"]),
        ("tc", "  base: scan·project·distinct·route fused (1 of 1 rules)",
         [1, 1, "distinct"]),
    ])
    def test_kernels_section_says_which_base_rules_fold(
            self, query, line, attr):
        """``cc``'s ``SELECT Src, Src`` folds per chunk before the base
        exchange; ``tc``'s set view writes its base rows into its
        distinct sink, and the line names which sink."""
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst"],
                           [(i, (i * 7 + 3) % 40) for i in range(40)])
        lines = ctx.explain_analyze(get_query(query).sql).splitlines()
        run = ctx.last_run
        (span,) = [child for child in run.trace["children"]
                   if child["kind"] == "fixpoint"]
        assert span["attrs"]["fused_base_rules"] == attr
        assert (run.kernels_summary()["kernel_fused_fold_base_rules"]
                == attr[0])
        base_lines = [text for text in lines if text.startswith("  base: ")]
        assert base_lines == [line]

    def test_delta_sizes_match_delta_history(self):
        ctx = sssp_ctx()
        ctx.sql(get_query("sssp").formatted(source=1))
        run = ctx.last_run
        timeline = run.iteration_timeline()
        history = next(iter(run.delta_history.values()))
        # The last iteration is the empty round that stops the loop.
        assert [row["delta_total"] for row in timeline] == history + [0]
        for row in timeline:
            # Single-view clique: the per-view split is the whole delta.
            assert row["delta_by_view"] == {"path": row["delta_total"]}

    def test_trace_duration_matches_sim_time(self):
        ctx = sssp_ctx()
        ctx.sql(get_query("sssp").formatted(source=1))
        run = ctx.last_run
        # Fresh context: the query span covers every clock advance.
        assert run.trace["duration"] == pytest.approx(run.sim_time)
        assert run.sim_time == ctx.metrics.sim_time

    def test_iteration_spans_sum_to_fixpoint_span(self):
        ctx = sssp_ctx()
        ctx.sql(get_query("sssp").formatted(source=1))
        trace = ctx.last_run.trace

        def find(span, kind):
            found = [span] if span["kind"] == kind else []
            for child in span["children"]:
                found.extend(find(child, kind))
            return found

        (fixpoint,) = find(trace, "fixpoint")
        iterations = find(fixpoint, "iteration")
        assert len(iterations) == ctx.last_run.iterations
        # Iterations partition the fixpoint's time after setup/base work.
        assert sum(s["duration"] for s in iterations) <= fixpoint["duration"]
        # Every iteration ran exactly one combined ShuffleMap stage.
        for span in iterations:
            stages = find(span, "stage")
            assert [s["name"] for s in stages] == ["fixpoint-shufflemap"]
            assert len(find(span, "task")) == ctx.cluster.num_partitions

    def test_advances_land_in_the_trace(self):
        ctx = sssp_ctx()
        ctx.sql(get_query("sssp").formatted(source=1))
        run = ctx.last_run
        trace = run.trace
        assert run.time_breakdown
        assert trace["time_by_label"] == run.time_breakdown
        # Each child's labelled seconds are part of its parent's.
        pending = [trace]
        while pending:
            span = pending.pop()
            for child in span["children"]:
                for label, seconds in child["time_by_label"].items():
                    assert seconds <= span["time_by_label"][label] + 1e-12
                pending.append(child)

    def test_trace_is_json_serializable(self):
        ctx = sssp_ctx()
        ctx.sql(get_query("sssp").formatted(source=1))
        reloaded = json.loads(json.dumps(ctx.last_run.trace))
        assert reloaded["kind"] == "query"


class TestExplainAnalyzeOtherShapes:
    def test_multi_view_clique_splits_delta_by_view(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("shares", ["By", "Of", "Percent"],
                           [("a", "b", 60), ("b", "c", 60), ("a", "c", 10)])
        ctx.sql(get_query("company_control").sql)
        timeline = ctx.last_run.iteration_timeline()
        assert timeline
        for row in timeline:
            assert set(row["delta_by_view"]) == {"cshares", "control"}
            assert (sum(row["delta_by_view"].values())
                    == row["delta_total"])

    def test_decomposed_fixpoint_annotates_mode(self):
        ctx = RaSQLContext(num_workers=2)
        ctx.register_table("edge", ["Src", "Dst"],
                           [(1, 2), (2, 3), (3, 4)])
        ctx.sql(get_query("tc").sql)
        trace = ctx.last_run.trace
        fixpoints = [s for s in _walk(trace) if s["kind"] == "fixpoint"]
        assert fixpoints[0]["attrs"]["mode"] == "decomposed"
        assert fixpoints[0]["attrs"]["iterations"] == ctx.last_run.iterations
        assert fixpoints[0]["attrs"]["local_iterations"]

    @pytest.mark.parametrize("query, runner", [("tc", "grouped"),
                                               ("apsp", "local")])
    def test_kernels_section_names_the_decomposed_runner(self, query, runner):
        """Every decomposed clique says which runner took its local
        fixpoints: ``tc``'s shape takes the grouped set kernel, ``apsp``'s
        ``min`` head the clique's own step."""
        ctx = sssp_ctx()
        lines = ctx.explain_analyze(get_query(query).sql).splitlines()
        (fixpoint,) = [s for s in _walk(ctx.last_run.trace)
                       if s["kind"] == "fixpoint"]
        assert fixpoint["attrs"]["mode"] == "decomposed"
        assert fixpoint["attrs"]["runner"] == runner
        line = {"grouped": "  decomposed fixpoint: grouped set kernel",
                "local": "  decomposed fixpoint: clique step (local loop)"}
        assert [text for text in lines
                if text.startswith("  decomposed fixpoint:")] == [line[runner]]

    def test_checkpointing_says_it_kept_a_decomposable_clique_stacked(
            self, tmp_path):
        """No silent degradation: tc runs decomposed — unless checkpoints
        are on, and then the fixpoint span and the report say why not.
        A clique that was never decomposable (sssp) has nothing to say."""
        line = ("  decomposed-ineligible: checkpointing  "
                "(a decomposable clique, planned stacked)")
        durable = RaSQLContext().config.but(checkpoint_interval=2,
                                            checkpoint_dir=str(tmp_path))
        tc, sssp = get_query("tc").sql, get_query("sssp").formatted(source=1)
        for query, config, expected in ((tc, None, None),
                                        (tc, durable, "checkpointing"),
                                        (sssp, durable, None)):
            ctx = sssp_ctx(config=config)
            report = ctx.explain_analyze(query)
            (fixpoint,) = [s for s in _walk(ctx.last_run.trace)
                           if s["kind"] == "fixpoint"]
            assert fixpoint["attrs"].get("decomposed_ineligible") == expected
            assert (line in report.splitlines()) == (expected is not None)
            assert (fixpoint["attrs"]["mode"] == "decomposed") == (
                config is None)

    def test_tracing_can_be_disabled(self):
        ctx = sssp_ctx(trace=False)
        ctx.sql(get_query("sssp").formatted(source=1))
        assert ctx.last_run.trace is None
        assert "no trace" in ctx.last_run.explain_analyze()
        assert ctx.last_run.iteration_timeline() == []

    def test_system_result_carries_trace(self):
        from repro.baselines.systems import RaSQLSystem, Workload

        result = RaSQLSystem(num_workers=2).run(Workload(
            "sssp", {"edge": (["Src", "Dst", "Cost"], EDGES)}, source=1))
        assert result.trace is not None
        assert result.trace["kind"] == "query"


def _walk(span):
    yield span
    for child in span["children"]:
        yield from _walk(child)


class TestCLI:
    def _write_inputs(self, tmp_path):
        graph = tmp_path / "graph.tsv"
        graph.write_text("".join(f"{s} {d} {c}\n" for s, d, c in EDGES))
        query = tmp_path / "query.sql"
        query.write_text(get_query("sssp").formatted(source=1))
        return graph, query

    def test_explain_analyze_flag_prints_timeline(self, tmp_path, capsys):
        graph, query = self._write_inputs(tmp_path)
        assert cli_main(["--table", f"edge={graph}", "--explain-analyze",
                         str(query)]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "delta(path)" in out

    def test_trace_flag_writes_json(self, tmp_path, capsys):
        graph, query = self._write_inputs(tmp_path)
        trace_path = tmp_path / "run.trace.json"
        assert cli_main(["--table", f"edge={graph}", "--trace",
                         str(trace_path), str(query)]) == 0
        trace = json.loads(trace_path.read_text())
        assert trace["kind"] == "query"
        assert any(s["kind"] == "fixpoint" for s in _walk(trace))


class TestTracerRetainsNothingPerQuery:
    """A long-lived context (``QueryService``) must not keep every
    query's span tree: ``RunInfo.trace`` is the serialized copy, so the
    tracer lets go of a root once its owner is done with it."""

    @staticmethod
    def shape(span):
        """A trace minus what differs between any two runs: span ids,
        clock readings, measured-CPU floats, counter deltas, and whether
        the base sides were built or reused (``base_sides``)."""
        attrs = {key: value for key, value in span["attrs"].items()
                 if not isinstance(value, float) and key != "base_sides"}
        return (span["kind"], span["name"], sorted(attrs.items(), key=repr),
                [TestTracerRetainsNothingPerQuery.shape(child)
                 for child in span["children"]])

    def test_roots_stay_bounded_and_traces_stay_whole(self):
        from repro.core.streaming import IncrementalView
        from repro.errors import QueryDeadlineExceededError
        from repro import ExecutionConfig

        sssp = get_query("sssp").formatted(source=1)
        ctx = sssp_ctx()
        tracer = ctx.cluster.tracer
        for _ in range(200):
            ctx.sql(sssp)
        view = IncrementalView(ctx, sssp)
        inserted = [(4 + i, 5 + i, 1.0) for i in range(50)]
        for row in inserted:
            view.insert("edge", [row])
        with pytest.raises(QueryDeadlineExceededError) as aborted:
            ctx.sql(sssp, config=ExecutionConfig(deadline_seconds=1e-9))
        assert aborted.value.partial_trace == ctx.last_run.trace
        assert len(tracer.roots) <= 2 and not ctx.metrics.windows

        ctx.sql(sssp)
        fresh = sssp_ctx()
        fresh.catalog.append_rows("edge", inserted)  # what the view added
        fresh.sql(sssp)
        assert ctx.last_run.trace["children"]
        assert (self.shape(ctx.last_run.trace)
                == self.shape(fresh.last_run.trace))
